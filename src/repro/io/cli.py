"""``repro-join`` — run a similarity join on files from the command line.

Usage::

    repro-join self data.csv --eps 0.5 --preset combined --out result.npz
    repro-join bipartite obs.npy ref.npy --eps 1.0 --pairs-csv matches.csv
"""

from __future__ import annotations

import argparse
import sys

from repro.core import PRESETS, SelfJoin, SimilarityJoin
from repro.io.datasets import load_points
from repro.io.results import save_result_bundle, write_pairs_csv
from repro.runtime import RuntimeConfig
from repro.util import format_seconds

__all__ = ["main"]


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, required=True, help="distance threshold")
    parser.add_argument(
        "--preset",
        default="combined",
        choices=sorted(PRESETS),
        help="optimization preset (default: combined)",
    )
    parser.add_argument("--capacity", type=int, default=None, help="result buffer size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write a .npz result bundle")
    parser.add_argument("--pairs-csv", default=None, help="write pairs as CSV")


def _config(args):
    cfg = PRESETS[args.preset]
    if args.capacity is not None:
        cfg = cfg.with_(batch_result_capacity=args.capacity)
    return cfg


def _finish(result, args) -> int:
    print(
        f"{result.config_description}: {result.num_pairs} pairs over "
        f"{result.num_batches} batch(es); simulated time "
        f"{format_seconds(result.total_seconds)}, WEE "
        f"{100 * result.warp_execution_efficiency:.1f}%"
    )
    if args.out:
        save_result_bundle(args.out, result)
        print(f"bundle written to {args.out}")
    if args.pairs_csv:
        write_pairs_csv(args.pairs_csv, result.sorted_pairs())
        print(f"pairs written to {args.pairs_csv}")
    return 0


def _cmd_self(args) -> int:
    points = load_points(args.dataset)
    cfg = _config(args)
    result = SelfJoin(runtime=RuntimeConfig(optimization=cfg, seed=args.seed)).execute(
        points, args.eps
    )
    return _finish(result, args)


def _cmd_bipartite(args) -> int:
    left = load_points(args.left)
    right = load_points(args.right)
    cfg = _config(args)
    if cfg.pattern != "full":
        print(
            f"preset {args.preset!r} uses a self-join-only access pattern; "
            "falling back to the full pattern for the bipartite join",
            file=sys.stderr,
        )
        cfg = cfg.with_(pattern="full")
    result = SimilarityJoin(runtime=RuntimeConfig(optimization=cfg, seed=args.seed)).execute(
        left, right, args.eps
    )
    return _finish(result, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-join",
        description="Distance-similarity joins on the simulated GPU.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    self_p = sub.add_parser("self", help="self-join one dataset")
    self_p.add_argument("dataset", help="csv/npy/npz point file")
    _common(self_p)
    self_p.set_defaults(func=_cmd_self)

    bi_p = sub.add_parser("bipartite", help="join two datasets")
    bi_p.add_argument("left", help="query-side point file")
    bi_p.add_argument("right", help="indexed-side point file")
    _common(bi_p)
    bi_p.set_defaults(func=_cmd_bipartite)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
