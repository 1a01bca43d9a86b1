"""``PYTHONPATH=src python -m benchmarks.wallclock --seed N``: the ledger."""

import sys

from benchmarks.wallclock.cli import main

sys.exit(main())
