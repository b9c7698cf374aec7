"""Test-session settings: write no bytecode cache, in this process or in the
subprocesses the CLI tests start, so a test run leaves the tree as it found it."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
