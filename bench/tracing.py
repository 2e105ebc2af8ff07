"""Traced run: the six pipeline commands in one process, timed per layer.

Timing wrappers are installed from here, around the public functions each
layer module exposes, and removed afterwards; no file of the package
changes. A wrapper goes on the name the *calling* module looks up, because
`from .x import f` binds `f` in the caller at import time.

Each call becomes a span (name, start, end, parent). Spans stay in memory;
self time is a span's duration minus its children's.
"""

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass, field

from workloads import COMMANDS

# (owner, attribute, span name): owner is a module or "module:Class"
TARGETS = (
    ("graphstitch.pipeline", "load_edge_list_file", "graphs.load"),
    ("graphstitch.pipeline", "save_edge_list", "graphs.save"),
    ("graphstitch.sampling", "induced_subgraph", "graphs.induced_subgraph"),
    ("graphstitch.metrics", "induced_subgraph", "graphs.induced_subgraph"),
    ("graphstitch.sampling", "largest_connected_component", "graphs.lcc"),
    ("graphstitch.metrics", "largest_connected_component", "graphs.lcc"),
    ("graphstitch.sampling", "build_corpus", "sampling.build_corpus"),
    ("graphstitch.sampling", "write_corpus_jsonl", "sampling.corpus_write"),
    ("graphstitch.sampling", "read_corpus_jsonl", "sampling.corpus_read"),
    ("graphstitch.sampling", "corpus_stats", "sampling.corpus_stats"),
    ("graphstitch.sampling", "substream", "rng.substream"),
    ("graphstitch.denoiser", "substream", "rng.substream"),
    ("graphstitch.assembly", "substream", "rng.substream"),
    ("graphstitch.linkpred", "substream", "rng.substream"),
    ("graphstitch.pipeline", "build_schedule", "diffusion.build_schedule"),
    ("graphstitch.denoiser", "forward_noise", "diffusion.forward_noise"),
    ("graphstitch.assembly", "prior_sample", "diffusion.prior_sample"),
    ("graphstitch.assembly", "reverse_step", "diffusion.reverse_step"),
    ("graphstitch.diffusion:NoiseSchedule", "save", "diffusion.schedule_save"),
    ("graphstitch.diffusion:NoiseSchedule", "load", "diffusion.schedule_load"),
    ("graphstitch.pipeline", "train", "denoiser.train"),
    ("graphstitch.pipeline", "write_loss_csv", "denoiser.write_loss_csv"),
    ("graphstitch.assembly", "predict", "denoiser.predict"),
    ("graphstitch.denoiser:DenoiserParams", "save", "denoiser.ckpt_save"),
    ("graphstitch.denoiser:DenoiserParams", "load", "denoiser.ckpt_load"),
    ("graphstitch.assembly", "assemble", "assembly.assemble"),
    ("graphstitch.assembly", "progressive_assemble", "assembly.progressive_assemble"),
    ("graphstitch.assembly", "generate_subgraph", "assembly.generate_subgraph"),
    ("graphstitch.metrics", "stats_report", "metrics.stats_report"),
    ("graphstitch.metrics", "count_triangles", "metrics.triangles"),
    ("graphstitch.metrics", "count_squares", "metrics.squares"),
    ("graphstitch.metrics", "degree_stats", "metrics.degree_stats"),
    ("graphstitch.metrics", "characteristic_path_length", "metrics.cpl"),
    ("graphstitch.metrics", "power_law_exponent", "metrics.power_law"),
    ("graphstitch.linkpred", "build_eval_set", "linkpred.eval_set"),
    ("graphstitch.linkpred", "train_link_predictor", "linkpred.train"),
    ("graphstitch.linkpred", "evaluate", "linkpred.evaluate"),
)

# counts taken from a wrapped call's return value, stored on its span
RESULT_COUNTS = {
    "sampling.build_corpus": lambda corpus: {"samples": len(corpus)},
    "assembly.generate_subgraph": lambda sub: {"edges": sub.local.num_edges},
    "assembly.assemble": lambda res: {"edges": res[0].num_edges,
                                      "overshoot": res[1].overshoot},
    "assembly.progressive_assemble": lambda snaps: {"edges": snaps[-1][1].num_edges},
}

GRAD_REPLAY_STEPS = 200  # most train steps whose batches are re-drawn to time grad


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        counts = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec.counts = counts(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner_path, attr, name in targets:
                module, _, cls = owner_path.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                    raw = owner.__dict__[attr]
                else:
                    raw = getattr(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name))
                else:
                    new = self.wrap(raw, name)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


class SpanStats:
    """Totals, call counts and self times over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                self.child_time[s.parent] += s.duration

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def calls(self, name):
        return len(self.named(name))

    def total(self, name):
        return sum(self.spans[i].duration for i in self.named(name))

    def self_time(self, name):
        return sum(self.spans[i].duration - self.child_time[i] for i in self.named(name))

    def count(self, name, key):
        return sum(self.spans[i].counts.get(key, 0) for i in self.named(name))

    def coverage(self, name):
        """Share of the (single) span `name` covered by its children."""
        (i,) = self.named(name)
        return self.child_time[i] / self.spans[i].duration

    def top_self_by_command(self, top=4):
        """{command: [[span name, self s], ...]}, largest self times first,
        over the spans inside each `pipeline.<command>` span."""
        by_cmd = {}
        for i, s in enumerate(self.spans):
            root = i
            while self.spans[root].parent >= 0:
                root = self.spans[root].parent
            cmd = self.spans[root].name.removeprefix("pipeline.")
            acc = by_cmd.setdefault(cmd, {})
            acc[s.name] = acc.get(s.name, 0.0) + s.duration - self.child_time[i]
        return {cmd: [[name, round(t, 4)] for name, t in
                      sorted(acc.items(), key=lambda kv: -kv[1])[:top]]
                for cmd, acc in by_cmd.items()}

    def calls_under(self, name, ancestor):
        """Spans called `name` that run inside a span called `ancestor`."""
        n = 0
        for i in self.named(name):
            p = self.spans[i].parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            n += p >= 0
        return n


@contextlib.contextmanager
def _cwd(path):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


def run_commands(lanes, commands=COMMANDS):
    """Run the commands in-process once per lane; [{command: wall s}].

    A lane is (chain_dir, tracer or None). With a tracer, the layer
    wrappers are installed and the command runs in a `pipeline.<command>`
    span. Lanes take turns going first at each command, so that drift in
    machine speed falls on all of them.
    """
    pipeline = importlib.import_module("graphstitch.pipeline")
    configs = []
    for chain_dir, _ in lanes:
        with _cwd(chain_dir):
            configs.append(pipeline.load_config("config.json"))
    walls = [{} for _ in lanes]
    for n, cmd in enumerate(commands):
        fn = getattr(pipeline, f"cmd_{cmd}")
        order = list(range(len(lanes)))
        for i in order[n % len(lanes):] + order[:n % len(lanes)]:
            chain_dir, tracer = lanes[i]
            none = contextlib.nullcontext()
            with _cwd(chain_dir), tracer.installed() if tracer else none:
                t0 = time.perf_counter()
                with tracer.span(f"pipeline.{cmd}") if tracer else none:
                    fn(configs[i])
                walls[i][cmd] = time.perf_counter() - t0
    return walls


def grad_seconds_per_step(chain_dir):
    """Mean wall time of the public `denoiser.grad` on train's own batches.

    Batches are re-drawn exactly as `denoiser.train` draws them (the
    step's substream, then forward_noise per sample) for up to
    GRAD_REPLAY_STEPS evenly spaced steps, against the saved checkpoint.
    """
    from graphstitch import denoiser, diffusion, pipeline, sampling
    from graphstitch.rng import substream

    with _cwd(chain_dir):
        cfg = pipeline.load_config("config.json")
        with open(os.path.join(cfg.out, "corpus_stats.json"), encoding="utf-8") as fh:
            stats = json.load(fh)
        corpus = sampling.read_corpus_jsonl(os.path.join(cfg.out, "corpus.jsonl"),
                                            stats["n_parent"], stats["scheme"],
                                            stats["k"], stats["d"])
        sched = diffusion.NoiseSchedule.load(os.path.join(cfg.out, "schedule.json"))
        params = denoiser.DenoiserParams.load(os.path.join(cfg.out, "checkpoint.json"))
    dn = cfg.denoiser
    stride = max(1, -(-dn.steps // GRAD_REPLAY_STEPS))
    times = []
    for step in range(0, dn.steps, stride):
        rng = substream(cfg.seed, "train-step", step)
        idx = rng.integers(0, len(corpus), size=dn.batch)
        ts = rng.integers(1, sched.T + 1, size=dn.batch)
        batch = [diffusion.forward_noise(corpus[int(i)], int(t), sched, rng,
                                         freeze_nodes=dn.freeze_node_ids)
                 for i, t in zip(idx, ts)]
        t0 = time.perf_counter()
        denoiser.grad(params, batch, sched, dn.lam)
        times.append(time.perf_counter() - t0)
    return sum(times) / len(times), dn.steps


def layer_metrics(st, out_dir, train_steps, grad_s):
    """Per-layer metric values {name: (value, unit)} from the span stats."""
    samples = st.count("sampling.build_corpus", "samples")
    offered = st.count("assembly.generate_subgraph", "edges")
    union_edges = (st.count("assembly.assemble", "edges")
                   + st.count("assembly.progressive_assemble", "edges"))
    step_s = st.self_time("denoiser.train") / train_steps
    size = lambda name: os.path.getsize(os.path.join(out_dir, name))
    m = {
        "graphs.load_calls": (st.calls("graphs.load"), "count"),
        "graphs.load_s": (st.total("graphs.load"), "s"),
        "graphs.induced_subgraph_calls": (st.calls("graphs.induced_subgraph"), "count"),
        "graphs.induced_subgraph_s": (st.total("graphs.induced_subgraph"), "s"),
        "graphs.lcc_s": (st.total("graphs.lcc"), "s"),
        "sampling.build_corpus_s": (st.total("sampling.build_corpus"), "s"),
        "sampling.samples": (samples, "count"),
        "sampling.induced_per_sample": (
            st.calls_under("graphs.induced_subgraph", "sampling.build_corpus") / samples,
            "ratio"),
        "sampling.corpus_write_s": (st.total("sampling.corpus_write"), "s"),
        "sampling.corpus_read_s": (st.total("sampling.corpus_read"), "s"),
        "sampling.corpus_bytes": (size("corpus.jsonl"), "bytes"),
        "rng.substream_calls": (st.calls("rng.substream"), "count"),
        "rng.substream_s": (st.total("rng.substream"), "s"),
        "diffusion.forward_noise_calls": (st.calls("diffusion.forward_noise"), "count"),
        "diffusion.forward_noise_s": (st.total("diffusion.forward_noise"), "s"),
        "diffusion.prior_sample_s": (st.total("diffusion.prior_sample"), "s"),
        "diffusion.reverse_step_calls": (st.calls("diffusion.reverse_step"), "count"),
        "diffusion.reverse_step_s": (st.total("diffusion.reverse_step"), "s"),
        "diffusion.schedule_io_s": (st.total("diffusion.schedule_save")
                                    + st.total("diffusion.schedule_load"), "s"),
        "denoiser.train_steps": (train_steps, "count"),
        "denoiser.step_s": (step_s, "s"),
        "denoiser.grad_s": (grad_s, "s"),
        "denoiser.adam_s": (step_s - grad_s, "s"),
        "denoiser.predict_calls": (st.calls("denoiser.predict"), "count"),
        "denoiser.predict_s": (st.total("denoiser.predict"), "s"),
        "denoiser.ckpt_save_s": (st.total("denoiser.ckpt_save"), "s"),
        "denoiser.ckpt_load_s": (st.total("denoiser.ckpt_load"), "s"),
        "denoiser.ckpt_bytes": (size("checkpoint.json"), "bytes"),
        "assembly.subgraphs": (st.calls("assembly.generate_subgraph"), "count"),
        "assembly.subgraph_s": (st.total("assembly.generate_subgraph"), "s"),
        "assembly.union_self_s": (st.self_time("assembly.assemble")
                                  + st.self_time("assembly.progressive_assemble"), "s"),
        "assembly.new_edge_yield": (union_edges / offered, "ratio"),
        "assembly.overshoot": (st.count("assembly.assemble", "overshoot"), "edges"),
        "metrics.stats_report_s": (st.total("metrics.stats_report"), "s"),
        "metrics.triangles_s": (st.total("metrics.triangles"), "s"),
        "metrics.squares_s": (st.total("metrics.squares"), "s"),
        "metrics.degree_stats_s": (st.total("metrics.degree_stats"), "s"),
        "metrics.cpl_s": (st.total("metrics.cpl"), "s"),
        "metrics.power_law_s": (st.total("metrics.power_law"), "s"),
        "linkpred.eval_set_s": (st.total("linkpred.eval_set"), "s"),
        "linkpred.train_s": (st.total("linkpred.train"), "s"),
        "linkpred.evaluate_s": (st.total("linkpred.evaluate"), "s"),
    }
    for cmd in COMMANDS:
        m[f"pipeline.{cmd}_s"] = (st.total(f"pipeline.{cmd}"), "s")
    return m
