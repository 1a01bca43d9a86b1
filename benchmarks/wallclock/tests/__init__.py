"""Tests of the benchmark's own machinery (``python -m pytest
benchmarks/wallclock``); not part of the repo's tier-1 suite."""
