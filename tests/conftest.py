"""Test-session settings: write no bytecode cache, in this process or in the
subprocesses the CLI tests start, so a test run leaves the tree as it found it;
run Hypothesis without its explain phase.  Fixtures that set the interpreter's
int/str digit limit for one test, and the environment of a fresh interpreter
that imports this checkout's balsum."""

import os
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import Phase, settings

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

# Every phase but explain: Hypothesis still generates and shrinks, but does
# not re-run a failing example over and over to annotate its report, which
# with big-integer examples took minutes and hundreds of MB per failure.
settings.register_profile(
    "no-explain", parent=settings.default, phases=[phase for phase in Phase if phase is not Phase.explain]
)
settings.load_profile("no-explain")


def src_env():
    """The environment with this checkout's src first on PYTHONPATH, for a
    fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# The interpreter's default int/str digit limit.  Python 3.10 before 3.10.7
# has no limit: there it reads 0, and the fixtures below change nothing.
DEFAULT_DIGIT_LIMIT = 4300
get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


@contextmanager
def _digit_limit(limit):
    previous = get_digit_limit()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(previous)


@pytest.fixture
def default_digit_limit():
    """Run the test under the default limit, whatever the session set."""
    with _digit_limit(DEFAULT_DIGIT_LIMIT):
        yield


@pytest.fixture
def digit_limit():
    """`with digit_limit(n):` sets the limit for a block; 0 lifts it."""
    return _digit_limit
