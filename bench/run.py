"""Benchmark entry point: one workload per process, one JSON result line.

    python3 bench/run.py --workload recovery-fold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; BLAS threads are pinned to at most ``nproc`` before numpy
loads. With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones. See bench/README.md.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("recovery-fold", "paper-steps", "desk-ablate")


def pin_blas_threads():
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check fails on bad input")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "akmnet" / "__init__.py").is_file():
        print(f"bench: no akmnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.self_test:
        import selftest
        return selftest.main()

    import workloads
    out_root = BENCH_DIR / "out"
    out_root.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), T_START, out_root)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
