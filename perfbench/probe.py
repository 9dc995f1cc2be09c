"""Fresh-interpreter probes that run.py times from outside.

    python3 perfbench/probe.py setup <workload> <seed>
        import proctensor and build the workload's shared inputs and the
        first op's input, then exit (run.py times the whole process).
    python3 perfbench/probe.py cli-import
        print the seconds a fresh ``import proctensor.cli`` takes,
        numpy included.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if argv == ["cli-import"]:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        t0 = time.perf_counter()
        import proctensor.cli  # noqa: F401
        print(repr(time.perf_counter() - t0))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 3:
        import workloads
        w = workloads.WORKLOADS[argv[1]]
        seed = int(argv[2])
        w.make(w.setup(seed, "."), seed, 1)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
