"""Benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Runs one workload in this process with BLAS/OpenMP threads pinned, checks
its outputs, prints every metric by name with its unit, writes a result
file under .perfbench/results/ and prints one JSON result object as the
last line of standard output. defmod is imported from ./src of the
checkout that holds this file; without it the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_defmod() -> bool:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import defmod
    except ImportError:
        return False
    return Path(defmod.__file__).resolve().is_relative_to(src.resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("desk", "paper", "zipf-vocab"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", choices=("desk", "paper", "zipf-vocab"),
                        help="only write the seeded inputs of a workload into --out")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not args.workload and not args.generate:
        parser.error("give --workload (or --generate with --out)")

    sys.path.insert(0, str(HERE))
    from defbench import env

    env.pin_threads()
    if not _import_defmod():
        print(f"error: defmod sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.generate:
        from defbench.inputs import generate

        generate(args.generate, args.seed, args.out)
        return 0
    from defbench.bench import run

    return run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
