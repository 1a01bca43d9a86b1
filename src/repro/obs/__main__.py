"""``python -m repro.obs FILE``: render a run report.

The entry point is the package: ``repro.obs`` imports
:mod:`repro.obs.report`, so running that module as ``__main__`` would
execute it twice under two names.
"""

import sys

from repro.obs.report import main

sys.exit(main())
