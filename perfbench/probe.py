"""Set-up probe: import hyperdefect and build one workload's inputs in a fresh
process, print "ready" and exit.

run.py times this from process start to the "ready" line, so set-up covers
interpreter start, the numpy and BLAS import and input generation.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

from workloads import build, import_program

if __name__ == "__main__":
    import_program()
    build(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
