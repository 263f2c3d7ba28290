"""Profile the search hot kernel on a Fig. 5 synthetic point.

A standalone wrapper around :func:`repro.experiments.profile_point` — the
same engine as ``repro profile`` — for running straight from a checkout::

    python tools/profile_kernel.py [--synthetic 5] [--algorithm ida]
        [--heuristic h0] [--budget 1000000] [--top 20]
        [--sort cumulative|tottime] [--cold]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import profile_point  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one synthetic mapping discovery"
    )
    parser.add_argument("--synthetic", type=int, default=5, metavar="N")
    parser.add_argument("--algorithm", default="ida")
    parser.add_argument("--heuristic", default="h0")
    parser.add_argument("--budget", type=int, default=1_000_000)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime"]
    )
    parser.add_argument("--cold", action="store_true")
    args = parser.parse_args(argv)
    profile = profile_point(
        n=args.synthetic,
        algorithm=args.algorithm,
        heuristic=args.heuristic,
        budget=args.budget,
        top=args.top,
        sort=args.sort,
        warm=not args.cold,
    )
    print(profile.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
