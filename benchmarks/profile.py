"""cProfile of one repetition of a ledger workload: the profile before code.

    python3 benchmarks/profile.py WORKLOAD [--seed N] [--top 30]
        [--sort tottime|cumtime] [--quick]

Builds the repetition the ledger would (``benchmarks.wallclock.workloads``,
imported read-only), runs ``setup()`` unprofiled and ``timed(False)`` under
``cProfile``, verifies the output, and prints the top functions plus the
total call count.  cProfile taxes every Python call and no native one, so
shares shift: find candidates here, measure with ``benchmarks/pairs.py``.
"""

import argparse
import os
import sys


def main(argv=None, out=sys.stdout):
    # Imported here, not at the top: run as a script, this file's directory
    # leads sys.path until the block below swaps it out, and ``cProfile``
    # imports the stdlib module ``profile`` -- which would resolve to us.
    import cProfile
    import pstats

    from benchmarks.wallclock.config import PAPER_SIZES, QUICK_SIZES
    from benchmarks.wallclock.stats import GcWatch
    from benchmarks.wallclock.workloads import REPS, rep_rng

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(REPS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--sort", choices=("tottime", "cumtime"),
                        default="tottime")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the rows, as the ledger's --quick")
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else PAPER_SIZES
    rep = REPS[args.workload](rep_rng(args.seed, args.workload, 0), sizes)
    rep.setup()
    profiler = cProfile.Profile()
    with GcWatch() as rep.watch:
        profiler.enable()
        try:
            rep.timed(False)
        finally:
            profiler.disable()
    rep.verify()
    stats = pstats.Stats(profiler, stream=out)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(f"total calls: {stats.total_calls}", file=out)
    return 0


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:1] = [root, os.path.join(root, "src")]
    sys.exit(main())
