"""The process entry of ``python -m balsum`` and of the installed ``balsum``
script: it runs :func:`balsum.cli.main` and freezes the collector on the way
out.

Once a request has written its output, the interpreter's teardown would run
a full collection over every object of the run, only for the operating
system to reclaim the memory a moment later.  ``gc.freeze()`` moves every
live object to the permanent generation, which the teardown's collections
skip, so the process ends at about the cost of its atexit handlers and
flushes; these still run.  The freeze sits in ``finally``, so every way out
takes it: a status returned by a handler, ``--help`` and usage errors (the
``SystemExit`` of argparse), and a reader that closed stdout early.

Only this entry freezes: it runs once per process, at its end.
``cli.main`` leaves the collector alone, so tests and library callers that
call it in-process keep a normal collector after it returns.
"""

import gc
import sys

from . import cli


def main() -> int:
    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
