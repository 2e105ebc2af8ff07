"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q bench/test_bench.py

Run from the repository root. The chains here use a tiny SBM workload, so
the whole file takes well under a minute.
"""

import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracing
from chunglu import chung_lu_edges, expected_degrees
from workloads import COMMANDS, Workload, make_inputs, prepare_chain_dir, program_env

sys.path.insert(0, run.SRC)

TINY = Workload(
    "tiny",
    {"kind": "sbm", "sizes": [12, 12], "p_in": 0.45, "p_out": 0.05},
    {"scheme": "RW", "k": 5, "d": 2, "T": 10,
     "denoiser": {"steps": 20, "batch": 8, "h": 10, "layers": 1},
     "eval": {"fraction": 0.5, "epochs": 20, "lr": 0.5},
     "fractions": [0.5, 1.0]},
)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Inputs of the tiny workload and one passing CLI chain over them."""
    inputs = make_inputs(TINY, 3, str(tmp_path_factory.mktemp("tiny")), run.SRC)
    chain_dir = prepare_chain_dir(inputs, "reference")
    chain = run.run_chain(chain_dir, program_env(run.SRC))
    assert chain.ok, chain.errors
    out = os.path.join(chain_dir, "out")
    hashes = run.check_chain(chain, out, inputs, None)
    assert chain.ok, chain.errors
    return inputs, out, hashes


def _checked_copy(tiny, tmp_path, mutate):
    """Copy the reference outputs, apply `mutate(out_dir)`, run the checks."""
    inputs, out, hashes = tiny
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    mutate(copy)
    chain = run.Chain()
    run.check_chain(chain, copy, inputs, hashes)
    return chain


def test_reference_chain_writes_the_c10_layout(tiny):
    inputs, out, hashes = tiny
    assert len(os.listdir(out)) == 16
    assert set(hashes) == checks.ARTIFACTS | {inputs.dataset}


def test_nonzero_exit_counts_as_failed(tiny, tmp_path):
    inputs, _, _ = tiny
    chain_dir = prepare_chain_dir(inputs, "broken")
    os.remove(os.path.join(chain_dir, "out", inputs.dataset))
    chain = run.run_chain(chain_dir, program_env(run.SRC))
    assert (chain.attempted, chain.failed) == (1, 1)
    assert chain.errors == ["sample exited 2"]
    assert chain.commands["sample"].returncode == 2


def test_hung_child_is_killed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    res = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                        str(tmp_path), None)
    assert res.returncode != 0
    assert res.wall_s < 10


def test_missing_out_file_counts_as_failed(tiny, tmp_path):
    chain = _checked_copy(tiny, tmp_path,
                          lambda d: os.remove(os.path.join(d, "loss.csv")))
    assert chain.failed >= 1
    assert "layout: missing loss.csv" in chain.errors


def test_extra_out_file_counts_as_failed(tiny, tmp_path):
    def add(d):
        with open(os.path.join(d, "trace.jsonl"), "w") as fh:
            fh.write("{}\n")
    chain = _checked_copy(tiny, tmp_path, add)
    assert chain.failed >= 1
    assert "layout: unexpected trace.jsonl" in chain.errors


def test_flipped_byte_counts_as_failed(tiny, tmp_path):
    def flip(d):
        path = os.path.join(d, "checkpoint.json")
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
    chain = _checked_copy(tiny, tmp_path, flip)
    assert chain.failed == 1
    assert chain.errors == ["same_bytes: checkpoint.json differs from the first repetition"]


def test_unchanged_copy_passes(tiny, tmp_path):
    chain = _checked_copy(tiny, tmp_path, lambda d: None)
    assert chain.ok and chain.attempted == 4


def test_edge_count_outside_range_fails(tiny, tmp_path):
    inputs, out, _ = tiny
    k = inputs.k
    assert checks.check_edge_count(out, inputs.target_edges, k) == []
    assert checks.check_edge_count(out, inputs.target_edges + k * k, k)


def test_nan_stat_needs_a_degenerate_flag(tmp_path):
    for name in ("real_stats.json", "synthetic_stats.json"):
        (tmp_path / name).write_text('{"cpl": null, "triangles": 3, "flags": []}')
    assert checks.check_finite_stats(str(tmp_path)) == [
        "real_stats.json: cpl = None without a degenerate flag",
        "synthetic_stats.json: cpl = None without a degenerate flag"]
    for name in ("real_stats.json", "synthetic_stats.json"):
        (tmp_path / name).write_text(
            '{"cpl": null, "triangles": 3, "flags": ["cpl_degenerate"]}')
    assert checks.check_finite_stats(str(tmp_path)) == []


def test_spans_cover_each_command(tiny):
    inputs, _, hashes = tiny
    from graphstitch import assembly, pipeline
    originals = (pipeline.train, assembly.predict, pipeline.DenoiserParams.load)
    tracer = tracing.Tracer()
    traced_dir = prepare_chain_dir(inputs, "traced")
    tracing.run_commands([(traced_dir, tracer)])
    # wrappers are gone afterwards and did not change a byte
    assert (pipeline.train, assembly.predict, pipeline.DenoiserParams.load) == originals
    assert checks.file_hashes(os.path.join(traced_dir, "out")) == hashes
    st = tracing.SpanStats(tracer.spans)
    for cmd in COMMANDS:
        assert st.coverage(f"pipeline.{cmd}") >= 0.9, cmd
    metrics = tracing.layer_metrics(st, os.path.join(traced_dir, "out"), 20, 0.0)
    assert metrics["sampling.samples"][0] == 24 * 2
    assert metrics["denoiser.predict_calls"][0] == metrics["diffusion.reverse_step_calls"][0]
    assert metrics["diffusion.forward_noise_calls"][0] == 20 * 8
    assert 0.0 < metrics["assembly.new_edge_yield"][0] <= 1.0


def test_low_span_coverage_counts_as_failed(tiny, monkeypatch):
    inputs, _, _ = tiny
    attempted, failed, metrics, _ = run.traced_run(inputs)
    assert failed == 0 and metrics["trace_coverage_pct"][0] >= 90.0
    monkeypatch.setattr(run, "MIN_COVERAGE", 1.01)  # no span list covers this
    attempted_low, failed_low, metrics_low, _ = run.traced_run(inputs)
    assert (attempted_low, failed_low) == (attempted, len(COMMANDS))
    assert metrics_low == {}


def test_times_are_rescaled_by_their_own_calibration(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_REF_S", 0.5)
    # the machine ran at half speed for the second sample: it reads as the first
    assert run.at_reference_speed([(2.0, 0.5), (4.0, 1.0), (2.2, 0.5)]) == 2.0
    assert run.at_reference_speed([(1.0, 0.25)]) == 2.0
    assert run.at_reference_speed([]) == 0.0


def test_self_time_subtracts_children():
    spans = [tracing.Span("a", 0.0, 10.0), tracing.Span("b", 1.0, 4.0, parent=0),
             tracing.Span("c", 5.0, 6.0, parent=0), tracing.Span("b", 2.0, 3.0, parent=1)]
    st = tracing.SpanStats(spans)
    assert st.self_time("a") == 6.0
    assert st.self_time("b") == 3.0
    assert st.total("b") == 4.0
    assert st.coverage("a") == 0.4
    assert st.calls_under("b", "a") == 2


def test_chung_lu_is_seeded_simple_and_heavy_tailed():
    edges = list(chung_lu_edges(2000, 8.0, 2.5, seed=5))
    assert edges == list(chung_lu_edges(2000, 8.0, 2.5, seed=5))
    assert edges != list(chung_lu_edges(2000, 8.0, 2.5, seed=6))
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)
    deg = [0] * 2000
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    assert 6.0 < sum(deg) / 2000 < 8.5
    assert max(deg) > 20 * 8 and expected_degrees(2000, 8.0, 2.5).mean() == pytest.approx(8.0)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sbm-rw-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
