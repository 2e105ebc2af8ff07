"""End-to-end pipeline commands over a config file + output directory.

Each command reads its inputs from disk, does one stage (sample / train /
generate / eval / linkpred / progressive), and writes fixed-name artifacts
into the output directory. Every command is deterministic given (config,
seed): re-running produces byte-identical files.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args

import numpy as np

from . import assembly, linkpred, metrics, sampling
from .denoiser import (DenoiserParams, DenoiserSettings, TrainConfig, train,
                       write_loss_csv)
from .diffusion import NoiseSchedule, build_schedule
from .errors import ConfigError, InvalidParameter
from .graphs import graph_summary, load_edge_list_file, save_edge_list
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
    fractions: tuple = DEFAULT_FRACTIONS
    seed: int = 0
    out: str = "out"

    def validate(self):
        if self.k < 1 or self.d < 1 or self.T < 1:
            raise ConfigError("k, d, and T must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            self.denoiser.validate()
        except InvalidParameter as exc:
            raise ConfigError(str(exc)) from None
        if not 0.0 < self.assembly.target_fraction:
            raise ConfigError("assembly.target_fraction must be positive")
        if not 0.0 < self.eval.fraction <= 1.0:
            raise ConfigError("eval.fraction must be in (0, 1]")
        return self


_ALIASES = {"lambda": "lam", "lr": "learning_rate", "layers": "L"}


def _type_ok(typ, val):
    """Whether a JSON value fits a field annotation: ints pass for floats,
    bools only for bools."""
    allowed = (get_args(typ) or (typ,)) + ((int,) if typ is float else ())
    return isinstance(val, allowed) and (bool in allowed or not isinstance(val, bool))


def _fill(cls, obj, where):
    """cls from a JSON object; a field that is itself a section recurses."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where!r} must be an object, got {obj!r}")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, val in obj.items():
        name = _ALIASES.get(key, key)
        if name not in types:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if is_dataclass(types[name]):
            val = _fill(types[name], val, key)
        elif not _type_ok(types[name], val):
            raise ConfigError(f"key {key!r} in {where} has the wrong type: {val!r}")
        kwargs[name] = val
    return cls(**kwargs)


def config_from_obj(obj):
    obj = dict(obj)
    fractions = obj.pop("fractions", DEFAULT_FRACTIONS)
    if not isinstance(fractions, (list, tuple)) or not all(
            _type_ok(float, f) for f in fractions):
        raise ConfigError(f"'fractions' must be a list of numbers, got {fractions!r}")
    cfg = _fill(PipelineConfig, obj, "config")
    cfg.fractions = tuple(float(f) for f in fractions)
    return cfg.validate()


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return config_from_obj(obj)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


def _path(cfg, name):
    return os.path.join(cfg.out, name)


def _require_dataset(cfg):
    if not cfg.dataset:
        raise ConfigError("this command needs a dataset path in the config")
    return load_edge_list_file(cfg.dataset, relabel=True)


def cmd_sample(cfg):
    """Build the training corpus; writes corpus.jsonl + stats sidecar."""
    g, report = _require_dataset(cfg)
    _outdir(cfg)
    corpus = sampling.build_corpus(g, cfg.scheme, cfg.k, d=cfg.d, count=cfg.count,
                                   delta=cfg.delta, seed=cfg.seed)
    corpus_path = _path(cfg, "corpus.jsonl")
    sampling.write_corpus_jsonl(corpus, corpus_path)
    stats = sampling.corpus_stats(corpus)
    stats["self_loops_dropped"] = report.self_loops_dropped
    stats["duplicates_collapsed"] = report.duplicates_collapsed
    stats_path = _path(cfg, "corpus_stats.json")
    _write_json(stats_path, stats)
    map_path = _path(cfg, "relabel_map.json")
    _write_json(map_path, report.id_map.tolist() if report.id_map is not None else None)
    return {"corpus": corpus_path, "stats": stats_path, "relabel_map": map_path}


def _read_corpus(cfg):
    stats_path = _path(cfg, "corpus_stats.json")
    with open(stats_path, "r", encoding="utf-8") as fh:
        stats = json.load(fh)
    return sampling.read_corpus_jsonl(_path(cfg, "corpus.jsonl"), stats["n_parent"],
                                      stats["scheme"], stats["k"], stats["d"])


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


def _load_model(cfg):
    params = DenoiserParams.load(_path(cfg, "checkpoint.json"))
    sched = NoiseSchedule.load(_path(cfg, "schedule.json"))
    return params, sched


def _target_edges(cfg):
    if cfg.assembly.target_edges is not None:
        return int(cfg.assembly.target_edges)
    real, _ = _require_dataset(cfg)
    return max(1, math.ceil(cfg.assembly.target_fraction * real.num_edges))


def cmd_generate(cfg):
    """Reverse-diffuse subgraphs and union them into synthetic.edgelist."""
    params, sched = _load_model(cfg)
    target = _target_edges(cfg)
    k_gen = cfg.assembly.k_gen or cfg.k
    synth, acc = assembly.assemble(params, sched, target, k_gen, cfg.seed)
    synth_path = _path(cfg, "synthetic.edgelist")
    save_edge_list(synth, synth_path)
    report_path = _path(cfg, "assembly_report.json")
    _write_json(report_path, {
        "subgraphs_used": acc.subgraphs_used,
        "overshoot": acc.overshoot,
        "edges": synth.num_edges,
        "nodes_non_isolated": graph_summary(synth)[0],
    })
    return {"synthetic": synth_path, "report": report_path}


def cmd_eval(cfg):
    """Structural stats for real vs synthetic + comparison tables."""
    real, _ = _require_dataset(cfg)
    synth, _ = load_edge_list_file(_path(cfg, "synthetic.edgelist"))
    real_rep = metrics.stats_report(real)
    synth_rep = metrics.stats_report(synth)
    paths = {}
    for name, rep in (("real_stats", real_rep), ("synthetic_stats", synth_rep)):
        p = _path(cfg, f"{name}.json")
        _write_json(p, rep.to_dict())
        paths[name] = p
    reports = {"real": real_rep, "synthetic": synth_rep}
    csv_path = _path(cfg, "comparison.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.comparison_csv(reports))
    txt_path = _path(cfg, "comparison.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(metrics.comparison_text(reports))
    paths.update(comparison_csv=csv_path, comparison_txt=txt_path)
    return paths


def cmd_linkpred(cfg):
    """Train the embedding predictor on the synthetic graph, evaluate on
    held-out real edges vs sampled non-edges."""
    real, _ = _require_dataset(cfg)
    synth, _ = load_edge_list_file(_path(cfg, "synthetic.edgelist"))
    ev = cfg.eval
    eval_set = linkpred.build_eval_set(real, ev.fraction, cfg.seed)
    model, _ = linkpred.train_link_predictor(synth, h=ev.h, epochs=ev.epochs,
                                             lr=ev.learning_rate, seed=cfg.seed)
    auc, ap = linkpred.evaluate(model, eval_set)
    results = {"method": "embedding-dot", "dataset": os.path.basename(cfg.dataset),
               "auc": auc, "ap": ap, "seed": cfg.seed}
    json_path = _path(cfg, "linkpred.json")
    _write_json(json_path, results)
    csv_path = _path(cfg, "linkpred.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("method,dataset,auc,ap,seed\n")
        fh.write(f"embedding-dot,{results['dataset']},{auc!r},{ap!r},{cfg.seed}\n")
    return {"results": json_path, "csv": csv_path}


def cmd_progressive(cfg):
    """One assembly pass snapshotted at each fraction of the target edge
    count; writes progressive.csv with the stats columns per snapshot."""
    params, sched = _load_model(cfg)
    total = _target_edges(cfg)
    k_gen = cfg.assembly.k_gen or cfg.k
    snaps = assembly.progressive_assemble(params, sched, cfg.fractions, total,
                                          k_gen, cfg.seed)
    csv_path = _path(cfg, "progressive.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("fraction,target_edges," + ",".join(metrics.REPORT_COLUMNS) + "\n")
        for frac, g in snaps:
            rep = metrics.stats_report(g)
            cells = [metrics._fmt(v) for v in rep.values()]
            fh.write(f"{frac!r},{max(1, math.ceil(frac * total))},"
                     + ",".join(cells) + "\n")
    return {"progressive": csv_path}


def cmd_fixture_sbm(cfg, block_sizes, p_in, p_out):
    """Write an SBM edge list to use as a self-contained dataset."""
    g = sbm_graph(block_sizes, p_in, p_out, seed=cfg.seed)
    _outdir(cfg)
    path = _path(cfg, "sbm.edgelist")
    save_edge_list(g, path)
    return {"dataset": path}
