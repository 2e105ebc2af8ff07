"""Command-line front end.

    graphstitch sample     --config cfg.json [--seed S --out DIR ...]
    graphstitch train      --config cfg.json
    graphstitch generate   --config cfg.json
    graphstitch eval       --config cfg.json
    graphstitch linkpred   --config cfg.json
    graphstitch progressive --config cfg.json
    graphstitch fixture-sbm --sizes 400,400,400,400 --p-in 0.15 --p-out 0.01

Exit codes: 0 success, 2 config/validation error, 3 runtime failure.
"""

import argparse
import sys

from . import pipeline
from .errors import (ConfigError, InvalidNodeSet, InvalidParameter, ParseError)
from .jsonio import read_json
from .sampling import SCHEMES

# argparse dests that are not config keys
_NOT_KEYS = ("command", "config", "sizes", "p_in", "p_out")


def float_list(text):
    return [float(f) for f in text.split(",")]


def int_list(text):
    return [int(s) for s in text.split(",")]


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
    p.add_argument("--scheme", choices=SCHEMES, help="sampling scheme")
    p.add_argument("--k", type=int, help="subgraph size parameter")
    p.add_argument("--d", type=int, help="samples per node (RW/Ego)")
    p.add_argument("--count", type=int, help="uniform-scheme sample count")
    p.add_argument("--delta", type=float, help="coverage failure probability")

    p = sub.add_parser("train", help="train the denoiser on the corpus")
    _add_common(p)
    p.add_argument("--T", type=int, help="diffusion steps")
    p.add_argument("--steps", type=int, dest="denoiser.steps", help="optimizer steps")
    p.add_argument("--batch", type=int, dest="denoiser.batch")
    p.add_argument("--lr", type=float, dest="denoiser.lr", help="Adam learning rate")
    p.add_argument("--lambda", type=float, dest="denoiser.lambda", help="pair-loss weight")
    p.add_argument("--h", type=int, dest="denoiser.h", help="hidden width")
    p.add_argument("--layers", type=int, dest="denoiser.layers",
                   help="message-passing rounds")

    p = sub.add_parser("generate", help="assemble a synthetic graph")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--target-fraction", type=float, dest="assembly.target_fraction")
    p.add_argument("--target-edges", type=int, dest="assembly.target_edges")
    p.add_argument("--k-gen", type=int, dest="assembly.k_gen", help="generated subgraph size")

    p = sub.add_parser("eval", help="compare real vs synthetic statistics")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")

    p = sub.add_parser("linkpred", help="link-prediction utility test")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--fraction", type=float, dest="eval.fraction",
                   help="held-out real edge fraction")
    p.add_argument("--embed-dim", type=int, dest="eval.h")
    p.add_argument("--epochs", type=int, dest="eval.epochs")
    p.add_argument("--lr", type=float, dest="eval.lr")

    p = sub.add_parser("progressive", help="snapshot stats while assembling")
    _add_common(p)
    p.add_argument("--dataset", help="edge-list file (overrides config)")
    p.add_argument("--fractions", type=float_list, help="comma list, e.g. 0.1,0.2,...,1.0")

    p = sub.add_parser("fixture-sbm", help="write a stochastic block model dataset")
    _add_common(p)
    p.add_argument("--sizes", type=int_list, default=[400, 400, 400, 400],
                   help="comma list of block sizes")
    p.add_argument("--p-in", type=float, default=0.15, dest="p_in")
    p.add_argument("--p-out", type=float, default=0.01, dest="p_out")

    return parser


def _build_config(args):
    """Each override flag's dest is the config key it sets, spelled as a config
    file spells it: the given flags are written into the file's object (or
    {}), which is then parsed once."""
    obj = read_json(args.config, "config")[0] if args.config else {}
    for key, val in vars(args).items():
        if val is not None and key not in _NOT_KEYS:
            section, _, name = key.rpartition(".")
            into = obj.setdefault(section, {}) if section else obj
            if isinstance(into, dict):  # otherwise config_from_obj names the section
                # flags take the alias spellings: drop the file's canonical one
                into.pop(pipeline.ALIASES.get(name), None)
                into[name] = val
    return pipeline.config_from_obj(obj)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "fixture-sbm":
            paths = pipeline.cmd_fixture_sbm(cfg, args.sizes, args.p_in, args.p_out)
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
