"""One set-up of an in-process workload in a fresh interpreter.

Usage: setup_probe.py <workload> <seed>

Imports the package and builds the layer plus the calibration and held-out
caches, then exits. The benchmark times the whole process, so set-up time
includes interpreter start-up and imports, as it does for the CLI.
"""

import sys

if __name__ == "__main__":
    from workloads import build_inputs

    build_inputs(sys.argv[1], int(sys.argv[2]))
