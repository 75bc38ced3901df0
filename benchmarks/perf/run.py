"""Entry point the driver runs: ``python3 benchmarks/perf/run.py ...``.

Run as a script from the root of a checkout, with no ``PYTHONPATH``:
this file puts the checkout and its ``src`` on the import path, so the
program is always the one in *this* checkout.  In a directory that
holds the benchmark but no program it exits 2 without a result.
"""

import os
import sys


def _bootstrap():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    for path in (os.path.join(root, "src"), root):
        if path not in sys.path:
            sys.path.insert(0, path)
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        sys.stderr.write(
            "benchmarks/perf/run.py: no src/repro next to the benchmark in %s; "
            "run it from a checkout of the repository\n" % root
        )
        sys.exit(2)


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.perf.runner import main

    sys.exit(main())
