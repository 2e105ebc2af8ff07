"""Command-line front end.

    graphstitch sample     --config cfg.json [--seed S --out DIR ...]
    graphstitch train      --config cfg.json
    graphstitch generate   --config cfg.json
    graphstitch eval       --config cfg.json
    graphstitch linkpred   --config cfg.json
    graphstitch progressive --config cfg.json
    graphstitch fixture-sbm --blocks 4 --block-size 400 --p-in 0.15 --p-out 0.01

Exit codes: 0 success, 2 config/validation error, 3 runtime failure.
"""

import argparse
import sys

from . import pipeline
from .errors import (ConfigError, InvalidNodeSet, InvalidParameter, ParseError)


def _add_common(p):
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="root RNG seed (overrides config)")
    p.add_argument("--out", help="output directory (overrides config)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphstitch",
        description="Train a subgraph diffusion generator on one graph and "
                    "stitch a synthetic copy back together.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample the training corpus")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--scheme", choices=["Unif", "RW", "Ego"], help="sampling scheme")
    p.add_argument("--k", type=int, help="subgraph size parameter")
    p.add_argument("--d", type=int, help="samples per node (RW/Ego)")
    p.add_argument("--count", type=int, help="uniform-scheme sample count")
    p.add_argument("--delta", type=float, help="coverage failure probability")

    p = sub.add_parser("train", help="train the denoiser on the corpus")
    _add_common(p)
    p.add_argument("--T", type=int, help="diffusion steps")
    p.add_argument("--steps", type=int, help="optimizer steps")
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--lambda", type=float, dest="lam", help="pair-loss weight")
    p.add_argument("--h", type=int, help="hidden width")
    p.add_argument("--layers", type=int, help="message-passing rounds")

    p = sub.add_parser("generate", help="assemble a synthetic graph")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--target-fraction", type=float, dest="target_fraction")
    p.add_argument("--target-edges", type=int, dest="target_edges")
    p.add_argument("--k-gen", type=int, dest="k_gen", help="generated subgraph size")

    p = sub.add_parser("eval", help="compare real vs synthetic statistics")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")

    p = sub.add_parser("linkpred", help="link-prediction utility test")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--fraction", type=float, help="held-out real edge fraction")
    p.add_argument("--embed-dim", type=int, dest="embed_dim")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, dest="embed_lr")

    p = sub.add_parser("progressive", help="snapshot stats while assembling")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--fractions", help="comma list, e.g. 0.1,0.2,...,1.0")

    p = sub.add_parser("fixture-sbm", help="write a stochastic block model dataset")
    _add_common(p)
    p.add_argument("--blocks", type=int, default=4, help="number of blocks")
    p.add_argument("--block-size", type=int, default=400, dest="block_size")
    p.add_argument("--sizes", help="comma list of block sizes (overrides --blocks)")
    p.add_argument("--p-in", type=float, default=0.15, dest="p_in")
    p.add_argument("--p-out", type=float, default=0.01, dest="p_out")

    return parser


def _build_config(args):
    cfg = pipeline.load_config(args.config) if args.config \
        else pipeline.PipelineConfig()
    # argparse dest -> (config section, field); None is the top level
    table = {dest: (None, dest) for dest in ("seed", "out", "dataset", "scheme",
                                             "k", "d", "count", "delta", "T")}
    table.update(
        steps=("denoiser", "steps"), batch=("denoiser", "batch"),
        lam=("denoiser", "lam"), h=("denoiser", "h"),
        lr=("denoiser", "learning_rate"), layers=("denoiser", "L"),
        target_fraction=("assembly", "target_fraction"),
        target_edges=("assembly", "target_edges"), k_gen=("assembly", "k_gen"),
        fraction=("eval", "fraction"), embed_dim=("eval", "h"),
        epochs=("eval", "epochs"), embed_lr=("eval", "learning_rate"))
    for dest, (section, name) in table.items():
        val = getattr(args, dest, None)
        if val is not None:
            setattr(getattr(cfg, section) if section else cfg, name, val)
    if getattr(args, "fractions", None) is not None:
        try:
            cfg.fractions = tuple(float(f) for f in args.fractions.split(","))
        except ValueError:
            raise ConfigError(f"bad --fractions value {args.fractions!r}")
    return cfg.validate()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "fixture-sbm":
            sizes = [int(s) for s in args.sizes.split(",")] if args.sizes \
                else [args.block_size] * args.blocks
            paths = pipeline.cmd_fixture_sbm(cfg, sizes, args.p_in, args.p_out)
        else:
            paths = getattr(pipeline, f"cmd_{args.command}")(cfg)
    except (ConfigError, ParseError, InvalidParameter, InvalidNodeSet,
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"graphstitch: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: stalled assembly, NaN loss, ...
        print(f"graphstitch: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
