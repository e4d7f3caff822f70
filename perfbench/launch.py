"""Run the sqrtwiener CLI in this process and note when its import returned.

Usage: python3 launch.py STAMP_FILE [CLI ARGS...]

Writes time.monotonic() (CLOCK_MONOTONIC, shared by all processes) as a
line of STAMP_FILE right after ``import sqrtwiener.cli`` returns, runs the
CLI exactly as its console script does, and writes a second line when the
CLI's main() has returned.  With no CLI arguments it only imports.
"""

import sys
import time

import sqrtwiener.cli

imported = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(f"{imported!r}\n")
if len(sys.argv) > 2:
    code = sqrtwiener.cli.main(sys.argv[2:])
    returned = time.monotonic()
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{returned!r}\n")
    sys.exit(code)
