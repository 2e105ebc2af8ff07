"""End-to-end pipeline commands over a config file + output directory.

Each command reads its inputs from disk, does one stage (sample / train /
generate / eval / linkpred / progressive), and writes fixed-name artifacts
into the output directory. Every command is deterministic given (config,
seed): re-running produces byte-identical files.
"""

import csv
import io
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

from . import assembly, linkpred, metrics, sampling
from .denoiser import (DenoiserParams, DenoiserSettings, TrainConfig, train,
                       write_loss_csv)
from .diffusion import NoiseSchedule, build_schedule
from .errors import ConfigError, InvalidParameter
from .graphs import graph_summary, load_edge_list_file, pair_codes, save_edge_list
from .jsonio import read_json, to_json
from .sampling import SCHEMES
from .sbm import sbm_graph

DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass
class AssemblySettings:
    target_fraction: float = 1.0
    target_edges: int | None = None
    k_gen: int | None = None  # defaults to the sampling k


@dataclass
class EvalSettings:
    fraction: float = 0.9
    h: int = 16
    epochs: int = 500
    learning_rate: float = 1.0


@dataclass
class PipelineConfig:
    dataset: str | None = None
    scheme: str = "RW"
    k: int = 20
    d: int = 5
    count: int | None = None
    delta: float = 0.05
    T: int = 500
    denoiser: DenoiserSettings = field(default_factory=DenoiserSettings)
    assembly: AssemblySettings = field(default_factory=AssemblySettings)
    eval: EvalSettings = field(default_factory=EvalSettings)
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    seed: int = 0
    out: str = "out"

    def validate(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.k < 1 or self.d < 1 or self.T < 1:
            raise ConfigError("k, d, and T must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.count is not None and self.count < 1:
            raise ConfigError("count must be >= 1")
        try:
            self.denoiser.validate()
        except InvalidParameter as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.assembly.target_fraction:
            raise ConfigError("assembly.target_fraction must be positive")
        for key in ("target_edges", "k_gen"):
            val = getattr(self.assembly, key)
            if val is not None and val < 1:
                raise ConfigError(f"assembly.{key} must be >= 1")
        if not 0.0 < self.eval.fraction <= 1.0:
            raise ConfigError("eval.fraction must be in (0, 1]")
        if self.eval.h < 1:
            raise ConfigError("eval.h must be >= 1")
        if self.eval.epochs < 0:
            raise ConfigError("eval.epochs must be >= 0")
        if self.eval.learning_rate <= 0:
            raise ConfigError("eval.learning_rate must be > 0")
        return self


ALIASES = {"lambda": "lam", "lr": "learning_rate", "layers": "L"}


def _type_ok(typ, val):
    """Whether a JSON value fits a field annotation: ints pass for floats,
    bools only for bools, a list of numbers for a tuple of floats; a float
    must be finite (json reads NaN and Infinity, argparse nan and inf)."""
    if get_origin(typ) is tuple:
        return isinstance(val, (list, tuple)) and all(_type_ok(float, v) for v in val)
    if isinstance(val, float) and not math.isfinite(val):
        return False
    allowed = (get_args(typ) or (typ,)) + ((int,) if typ is float else ())
    return isinstance(val, allowed) and (bool in allowed or not isinstance(val, bool))


def _fill(cls, obj, where):
    """cls from a JSON object; a field that is itself a section recurses."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where!r} must be an object, got {obj!r}")
    types = {f.name: f.type for f in fields(cls)}
    kwargs, spelled = {}, {}
    for key, val in obj.items():
        name = ALIASES.get(key, key)
        if name not in types:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if name in spelled:
            raise ConfigError(f"keys {spelled[name]!r} and {key!r} in {where} both set {name!r}")
        spelled[name] = key
        if is_dataclass(types[name]):
            val = _fill(types[name], val, key)
        elif not _type_ok(types[name], val):
            raise ConfigError(f"key {key!r} in {where} has the wrong type or is not "
                              f"finite: {val!r}")
        kwargs[name] = tuple(map(float, val)) if get_origin(types[name]) is tuple else val
    return cls(**kwargs)


def config_from_obj(obj):
    return _fill(PipelineConfig, obj, "config").validate()


def load_config(path):
    return config_from_obj(read_json(path, "config")[0])


def _path(cfg, name):
    return os.path.join(cfg.out, name)


def _write(cfg, name, text):
    """Write one output file; returns its path."""
    path = _path(cfg, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _require_dataset(cfg):
    if not cfg.dataset:
        raise ConfigError("this command needs a dataset path in the config")
    return load_edge_list_file(cfg.dataset, relabel=True)


def cmd_sample(cfg):
    """Build the training corpus; writes corpus.jsonl + stats sidecar."""
    g, report = _require_dataset(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    corpus = sampling.build_corpus(g, cfg.scheme, cfg.k, d=cfg.d, count=cfg.count,
                                   delta=cfg.delta, seed=cfg.seed)
    corpus_path = _path(cfg, "corpus.jsonl")
    sampling.write_corpus_jsonl(corpus, corpus_path)
    stats = sampling.corpus_stats(corpus)
    stats["self_loops_dropped"] = report.self_loops_dropped
    stats["duplicates_collapsed"] = report.duplicates_collapsed
    return {"corpus": corpus_path,
            "stats": _write(cfg, "corpus_stats.json", to_json(stats)),
            "relabel_map": _write(cfg, "relabel_map.json", to_json(report.id_map.tolist()))}


def _read_corpus(cfg):
    path = _path(cfg, "corpus_stats.json")
    stats, _ = read_json(path, "corpus stats")
    try:
        meta = [stats[key] for key in ("n_parent", "scheme", "k", "d")]
    except KeyError as exc:
        raise ConfigError(f"corpus stats {path}: missing key {exc}") from None
    if type(meta[0]) is not int or meta[0] < 1:
        raise ConfigError(f"corpus stats {path}: n_parent must be a positive integer, "
                          f"got {meta[0]!r}")
    corpus_path = _path(cfg, "corpus.jsonl")
    corpus = sampling.read_corpus_jsonl(corpus_path, *meta)
    if "count" in stats and (type(stats["count"]) is not int
                             or stats["count"] != len(corpus)):
        raise ConfigError(f"corpus {corpus_path} holds {len(corpus)} samples, but "
                          f"corpus stats {path} records count {stats['count']!r}; "
                          "re-run sample")
    return corpus


def cmd_train(cfg):
    """Train the denoiser on the sampled corpus; writes checkpoint,
    schedule, and the per-step loss CSV."""
    corpus = _read_corpus(cfg)
    sched = build_schedule(cfg.T, corpus)
    params, trace = train(corpus, sched, TrainConfig(**asdict(cfg.denoiser), seed=cfg.seed))
    ckpt = _path(cfg, "checkpoint.json")
    params.save(ckpt)
    sched_path = _path(cfg, "schedule.json")
    sched.save(sched_path)
    loss_path = _path(cfg, "loss.csv")
    write_loss_csv(trace, loss_path)
    return {"checkpoint": ckpt, "schedule": sched_path, "loss": loss_path}


def _assembly_inputs(cfg):
    """(params, schedule, target edge count, generated subgraph size) for an
    assembly pass."""
    ckpt, sched_path = _path(cfg, "checkpoint.json"), _path(cfg, "schedule.json")
    params = DenoiserParams.load(ckpt)
    sched = NoiseSchedule.load(sched_path)
    if len(sched.m_x) != params.n:
        raise InvalidParameter(f"schedule {sched_path} has {len(sched.m_x)} node "
                               f"states but checkpoint {ckpt} has n={params.n}")
    target = cfg.assembly.target_edges
    if target is None:
        real, _ = _require_dataset(cfg)
        target = assembly.edge_target(cfg.assembly.target_fraction, real.num_edges)
    k_gen = cfg.k if cfg.assembly.k_gen is None else cfg.assembly.k_gen
    return params, sched, target, k_gen


def _provenance(cfg, params, sched, k_gen):
    """What the subgraphs of an assembly pass depend on; generate records
    it, and progressive reuses a pass only when its own inputs match."""
    return {"checkpoint_sha256": params.digest, "schedule_sha256": sched.digest,
            "seed": cfg.seed, "k_gen": k_gen}


def cmd_generate(cfg):
    """Reverse-diffuse subgraphs and union them into synthetic.edgelist, in
    the order the edges entered the union; assembly_report.json records the
    union size after each subgraph and the pass's provenance."""
    params, sched, target, k_gen = _assembly_inputs(cfg)
    synth, acc = assembly.assemble(params, sched, target, k_gen, cfg.seed)
    synth_path = _path(cfg, "synthetic.edgelist")
    save_edge_list(synth, synth_path, order=acc.entry_codes)
    report = {"subgraphs_used": acc.subgraphs_used, "overshoot": acc.overshoot,
              "edges": synth.num_edges, "nodes_non_isolated": graph_summary(synth)[0],
              "union_sizes": acc.union_sizes,
              "provenance": _provenance(cfg, params, sched, k_gen)}
    return {"synthetic": synth_path,
            "report": _write(cfg, "assembly_report.json", to_json(report))}


def _load_synthetic(cfg, n, source):
    """(Graph, LoadReport) of generate's synthetic graph; ConfigError naming
    the file and `source`, where the expected node count n came from, unless
    the graph is on n nodes."""
    path = _path(cfg, "synthetic.edgelist")
    synth, loaded = load_edge_list_file(path)
    if synth.n != n:
        raise ConfigError(f"synthetic graph {path} has n={synth.n}, but {source} "
                          f"has n={n}; re-run generate")
    return synth, loaded


def cmd_eval(cfg):
    """Structural stats for real vs synthetic + comparison tables."""
    real, _ = _require_dataset(cfg)
    synth, _ = _load_synthetic(cfg, real.n, f"dataset {cfg.dataset}")
    reports = {"real": metrics.stats_report(real),
               "synthetic": metrics.stats_report(synth)}
    paths = {f"{label}_stats": _write(cfg, f"{label}_stats.json", to_json(rep.to_dict()))
             for label, rep in reports.items()}
    paths["comparison_csv"] = _write(cfg, "comparison.csv", metrics.comparison_csv(reports))
    paths["comparison_txt"] = _write(cfg, "comparison.txt", metrics.comparison_text(reports))
    return paths


def cmd_linkpred(cfg):
    """Train the embedding predictor on the synthetic graph, evaluate on
    held-out real edges vs sampled non-edges."""
    real, _ = _require_dataset(cfg)
    synth, _ = _load_synthetic(cfg, real.n, f"dataset {cfg.dataset}")
    ev = cfg.eval
    eval_set = linkpred.build_eval_set(real, ev.fraction, cfg.seed)
    model, _ = linkpred.train_link_predictor(synth, h=ev.h, epochs=ev.epochs,
                                             lr=ev.learning_rate, seed=cfg.seed)
    auc, ap = linkpred.evaluate(model, eval_set)
    dataset = os.path.basename(cfg.dataset)
    results = {"method": "embedding-dot", "dataset": dataset,
               "auc": auc, "ap": ap, "seed": cfg.seed}
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows(
        [("method", "dataset", "auc", "ap", "seed"),
         ("embedding-dot", dataset, auc, ap, cfg.seed)])
    return {"results": _write(cfg, "linkpred.json", to_json(results)),
            "csv": _write(cfg, "linkpred.csv", table.getvalue())}


def _union_sizes(report, path):
    """The report's union size after each subgraph; ConfigError naming the
    file unless they are a non-decreasing list of integers."""
    sizes = report.get("union_sizes")
    if not (isinstance(sizes, list) and sizes and all(type(s) is int for s in sizes)
            and sizes[0] >= 0 and all(a <= b for a, b in zip(sizes, sizes[1:]))):
        raise ConfigError(f"assembly report {path}: union_sizes must be a non-empty, "
                          "non-decreasing list of integers")
    return sizes


def _generated_snapshots(cfg, n, provenance, thresholds):
    """The snapshot graphs at `thresholds`, sliced from the pass that
    generate recorded in the output directory; None unless that pass has
    this provenance and reached the last threshold.

    The recorded pass draws the same subgraphs as a fresh one, in the same
    order, so each snapshot is a prefix of synthetic.edgelist in entry
    order. That file must hold the pass: n nodes, and union_sizes[-1] kept
    lines that are as many distinct pairs.
    """
    report_path = _path(cfg, "assembly_report.json")
    if not os.path.isfile(report_path):
        return None
    report, _ = read_json(report_path, "assembly report")
    if report.get("provenance") != provenance:
        return None
    sizes = _union_sizes(report, report_path)
    if sizes[-1] < thresholds[-1]:
        return None
    synth, loaded = _load_synthetic(cfg, n, f"the pass recorded in {report_path}")
    pairs = loaded.pairs
    if pairs.shape[0] != sizes[-1] or synth.num_edges != sizes[-1]:
        raise ConfigError(f"synthetic graph {_path(cfg, 'synthetic.edgelist')} holds "
                          f"{synth.num_edges} distinct edges on {pairs.shape[0]} lines, "
                          f"but {report_path} records a pass that made {sizes[-1]}; "
                          "re-run generate")
    return assembly.snapshot_graphs(pair_codes(pairs[:, 0], pairs[:, 1], n),
                                    sizes, thresholds, n)


def cmd_progressive(cfg):
    """One assembly pass snapshotted at each fraction of the target edge
    count; writes progressive.csv with the stats columns per snapshot.

    The pass is the one generate recorded when its provenance matches and
    it reached the last threshold; otherwise a fresh pass runs.
    """
    params, sched, total, k_gen = _assembly_inputs(cfg)
    fractions, thresholds = assembly.snapshot_thresholds(cfg.fractions, total)
    graphs = _generated_snapshots(cfg, params.n, _provenance(cfg, params, sched, k_gen),
                                  thresholds)
    if graphs is None:
        snaps = assembly.progressive_assemble(params, sched, fractions, total,
                                              k_gen, cfg.seed)
        graphs = [g for _, g in snaps]
    rows = (((frac, target), metrics.stats_report(g))
            for frac, target, g in zip(fractions, thresholds, graphs))
    csv = metrics.report_csv(("fraction", "target_edges"), rows)
    return {"progressive": _write(cfg, "progressive.csv", csv)}


def cmd_fixture_sbm(cfg, block_sizes, p_in, p_out):
    """Write an SBM edge list to use as a self-contained dataset."""
    g = sbm_graph(block_sizes, p_in, p_out, seed=cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    path = _path(cfg, "sbm.edgelist")
    save_edge_list(g, path)
    return {"dataset": path}
