"""``PYTHONPATH=src python -m benchmarks.perf run|compare ...``"""

import sys

from benchmarks.perf.runner import main

if __name__ == "__main__":
    sys.exit(main())
