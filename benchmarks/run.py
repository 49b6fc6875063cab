"""Run one lgequant benchmark workload and print its metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload wedge96_misaligned --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` shrinks every workload to a study of about a second.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

T_START = perf_counter()

# One process, one core of work: cap BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import lgequant from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import lgequant
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import lgequant from {SRC}: {exc}")
    if not Path(lgequant.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: lgequant was imported from {lgequant.__file__}, "
                 f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny studies, for testing the harness itself")
    args = parser.parse_args(argv)

    _import_program()
    import harness

    workloads = harness.workloads(smoke=args.smoke)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
    try:
        result = harness.run(
            workloads[args.workload], args.seed, args.seconds, bool(args.trace), work_dir,
            import_s=perf_counter() - T_START, trace_path=trace_path,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    harness.render(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
