"""Entry point of the ``BENCHMARK.json`` command.

``python3 benchmarks/wallclock/run.py --workload W --seed N --seconds S
--trace 0|1``, run from the root of a checkout.  Puts the checkout's root
and its ``src/`` on the import path (nothing is installed), then hands
over to :mod:`benchmarks.wallclock.cli`.  Without the engine's sources
the import fails and the process exits non-zero, printing no result.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    # Not this directory: its module names must not shadow anything.
    sys.path[0:1] = [root, os.path.join(root, "src")]
    from benchmarks.wallclock.cli import main
    sys.exit(main())
