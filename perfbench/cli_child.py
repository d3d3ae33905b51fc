"""Run the hilbertrep command line and record how long ``main`` itself took.

Usage: python3 perfbench/cli_child.py TIME_FILE CLI_ARG...

The caller times the whole process; the process time minus the seconds
written to TIME_FILE is interpreter start-up, imports and exit.
"""

import sys
import time
from pathlib import Path

from hilbertrep.cli import main

if __name__ == "__main__":
    start = time.perf_counter()
    code = main(sys.argv[2:])
    Path(sys.argv[1]).write_text(repr(time.perf_counter() - start), encoding="ascii")
    sys.exit(code)
