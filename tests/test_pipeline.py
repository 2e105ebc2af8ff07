import argparse
import base64
import csv
import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from graphstitch import assembly, cli, pipeline
from graphstitch.denoiser import DenoiserParams, TrainConfig
from graphstitch.diffusion import NoiseSchedule
from graphstitch.errors import ConfigError, InvalidParameter
from graphstitch.graphs import load_edge_list_file, save_edge_list
from graphstitch.sampling import SCHEMES
from graphstitch.sbm import sbm_graph


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny end-to-end run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("pipe")
    dataset = root / "toy.edgelist"
    save_edge_list(sbm_graph([14, 14], 0.4, 0.04, seed=1), dataset)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(dataset),
        "scheme": "RW",
        "k": 6,
        "d": 3,
        "T": 12,
        "denoiser": {"h": 12, "L": 1, "steps": 150, "batch": 8, "lr": 3e-3},
        "eval": {"fraction": 0.5, "epochs": 120, "lr": 0.5},
        "fractions": [0.5, 1.0],
        "seed": 5,
        "out": str(root / "out"),
    }))
    cfg = pipeline.load_config(cfg_path)
    return {"root": root, "cfg_path": cfg_path, "cfg": cfg}


class TestConfig:
    def test_defaults(self):
        cfg = pipeline.PipelineConfig()
        assert cfg.scheme == "RW" and cfg.T == 500
        assert cfg.denoiser.lam == 8.0

    def test_aliases_and_nesting(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"denoiser": {"lambda": 2.0, "lr": 0.01,
                                              "layers": 3}}))
        cfg = pipeline.load_config(p)
        assert cfg.denoiser.lam == 2.0
        assert cfg.denoiser.learning_rate == 0.01
        assert cfg.denoiser.L == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"somekey": 1}))
        with pytest.raises(ConfigError):
            pipeline.load_config(p)

    def test_threads_key_removed(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"threads": 2}))
        with pytest.raises(ConfigError, match="unknown key 'threads'"):
            pipeline.load_config(p)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["sample", "--threads", "2"])

    def test_unif_cap_key_removed(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"unif_cap": 50}))
        with pytest.raises(ConfigError, match="unknown key 'unif_cap'"):
            pipeline.load_config(p)
        assert cli.main(["sample", "--config", str(p)]) == 2
        assert "'unif_cap'" in capsys.readouterr().err

    def test_validation(self):
        with pytest.raises(ConfigError):
            pipeline.config_from_obj({"k": 0})
        with pytest.raises(ConfigError):
            pipeline.config_from_obj({"delta": 1.5})
        with pytest.raises(ConfigError):
            pipeline.config_from_obj({"denoiser": {"batch": 0}})

    @pytest.mark.parametrize("key, val", [("batch", 0), ("steps", -1), ("h", 0),
                                          ("L", 0), ("learning_rate", 0.0), ("lam", -1.0)])
    def test_denoiser_bounds_one_message(self, key, val):
        with pytest.raises(ConfigError) as from_config:
            pipeline.config_from_obj({"denoiser": {key: val}})
        with pytest.raises(InvalidParameter) as direct:
            TrainConfig(**{key: val})
        assert str(from_config.value) == str(direct.value)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            pipeline.load_config(p)
        for text in ('{"k": 4, "k": 5}', '{"eval": {"h": 4, "epochs": 2, "h": 8}}'):
            p.write_text(text)
            with pytest.raises(ConfigError, match=f"{re.escape(str(p))}: key .* twice"):
                pipeline.load_config(p)

    @pytest.mark.parametrize("obj, key", [
        ({"denoiser": 5}, "'denoiser'"),
        ({"eval": [1]}, "'eval'"),
        ({"fractions": "ab"}, "'fractions'"),
        ({"fractions": [0.5, "1"]}, "'fractions'"),
        ({"fractions": None}, "'fractions'"),
        ({"k": "5"}, "'k'"),
        ({"k": 5.0}, "'k'"),
        ({"k": True}, "'k'"),
        ({"dataset": 3}, "'dataset'"),
        ({"eval": {"epochs": 1.5}}, "'epochs' in eval"),
        ({"denoiser": {"lr": "fast"}}, "'lr' in denoiser"),
        ({"denoiser": {"freeze_node_ids": 1}}, "'freeze_node_ids' in denoiser"),
        ({"assembly": {"target_edges": "all"}}, "'target_edges' in assembly"),
        ({"eval": {"lr": float("inf")}}, "'lr' in eval"),
        ({"denoiser": {"lambda": float("nan")}}, "'lambda' in denoiser"),
        ({"denoiser": {"lr": float("-inf")}}, "'lr' in denoiser"),
        ({"assembly": {"target_fraction": float("inf")}}, "'target_fraction' in assembly"),
        ({"delta": float("nan")}, "'delta'"),
        ({"fractions": [0.5, float("nan")]}, "'fractions'"),
        ({"eval": {"lr": 0.5, "learning_rate": 0.25}}, "'lr' and 'learning_rate' in eval"),
        ({"denoiser": {"lam": 1.0, "lambda": 2.0}}, "'lam' and 'lambda' in denoiser"),
        ({"denoiser": {"layers": 2, "L": 3}}, "'layers' and 'L' in denoiser"),
    ])
    def test_malformed_values_name_the_key(self, obj, key):
        with pytest.raises(ConfigError, match=key):
            pipeline.config_from_obj(obj)

    def test_well_typed_values_accepted(self):
        cfg = pipeline.config_from_obj({
            "count": None, "delta": 0.1, "fractions": [0.5, 1],
            "denoiser": {"lr": 1, "freeze_node_ids": True},
            "assembly": {"target_edges": 40, "k_gen": None}})
        assert cfg.fractions == (0.5, 1.0) and cfg.denoiser.learning_rate == 1
        assert cfg.denoiser.freeze_node_ids is True

    @pytest.mark.parametrize("key", ["target_edges", "k_gen"])
    def test_assembly_sizes_checked_at_load(self, key):
        for val in (0, -3):
            with pytest.raises(ConfigError, match=f"assembly.{key}"):
                pipeline.config_from_obj({"assembly": {key: val}})
        cfg = pipeline.config_from_obj({"assembly": {key: 1}})
        assert getattr(cfg.assembly, key) == 1

    @pytest.mark.parametrize("key, bad, good", [("eval.h", (0, -2), 1),
                                                ("eval.epochs", (-1,), 0),
                                                ("eval.learning_rate", (0.0, -0.5), 1e-3),
                                                ("count", (0, -3), 1),
                                                ("fractions", ([0.5, 0.2], [], [0.0, 1.5]),
                                                 (0.5, 1.0))])
    def test_eval_settings_and_count_checked_at_load(self, tmp_path, capsys, key, bad,
                                                     good):
        section, _, name = key.rpartition(".")

        def obj(val):
            return {section: {name: val}} if section else {name: val}

        for val in bad:
            with pytest.raises(ConfigError, match=re.escape(key)):
                pipeline.config_from_obj(obj(val))
        cfg = pipeline.config_from_obj(obj(good))
        assert getattr(cfg.eval if section else cfg, name) == good
        # sample, the first command, already stops
        p = tmp_path / "c.json"
        p.write_text(json.dumps(obj(bad[0])))
        assert cli.main(["sample", "--config", str(p)]) == 2
        assert key in capsys.readouterr().err

    def test_scheme_names_are_exact(self):
        for scheme in ("rw", "random_walk", "uniform", "ego", "EGO"):
            with pytest.raises(ConfigError, match=re.escape(str(SCHEMES))):
                pipeline.config_from_obj({"scheme": scheme})
        for scheme in SCHEMES:
            assert pipeline.config_from_obj({"scheme": scheme}).scheme == scheme


def spy_on_passes(monkeypatch):
    """The edge target of each assembly pass run from here on, in a list."""
    seen = []
    real_pass = assembly._pass

    def spy(params, sched, target, k, seed):
        seen.append(target)
        return real_pass(params, sched, target, k, seed)

    monkeypatch.setattr(assembly, "_pass", spy)
    return seen


def copy_out(cfg, dest, drop=()):
    """cfg on a copy of its output directory at `dest`, minus the files named
    in `drop`."""
    shutil.copytree(cfg.out, dest)
    for name in drop:
        os.remove(os.path.join(dest, name))
    return dataclasses.replace(cfg, out=str(dest))


class TestCommands:
    def test_sample(self, workdir):
        paths = pipeline.cmd_sample(workdir["cfg"])
        stats = json.loads(open(paths["stats"]).read())
        assert stats["count"] == 3 * 28
        assert stats["scheme"] == "RW"
        assert stats["n_parent"] == 28
        lines = open(paths["corpus"]).read().splitlines()
        assert len(lines) == stats["count"]
        assert set(json.loads(lines[0])) == {"ids", "edges"}

    def test_train(self, workdir):
        paths = pipeline.cmd_train(workdir["cfg"])
        assert os.path.exists(paths["checkpoint"])
        sched = json.loads(open(paths["schedule"]).read())
        assert sched["T"] == 12
        assert len(sched["m_X"]) == 28
        loss_lines = open(paths["loss"]).read().splitlines()
        assert loss_lines[0] == "step,loss"
        assert len(loss_lines) == 1 + 150

    def test_generate(self, workdir):
        paths = pipeline.cmd_generate(workdir["cfg"])
        report = json.loads(open(paths["report"]).read())
        synth, _ = load_edge_list_file(paths["synthetic"])
        real, _ = load_edge_list_file(workdir["cfg"].dataset)
        assert synth.num_edges == report["edges"]
        assert synth.num_edges >= real.num_edges
        assert report["overshoot"] == synth.num_edges - real.num_edges
        assert report["subgraphs_used"] >= 1

    def test_eval(self, workdir):
        paths = pipeline.cmd_eval(workdir["cfg"])
        real_stats = json.loads(open(paths["real_stats"]).read())
        assert set(real_stats) >= {"num_nodes", "num_edges", "triangles",
                                   "clustering", "cpl", "flags"}
        csv_lines = open(paths["comparison_csv"]).read().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[1].startswith("real,")
        assert csv_lines[2].startswith("synthetic,")

    def test_linkpred(self, workdir):
        paths = pipeline.cmd_linkpred(workdir["cfg"])
        results = json.loads(open(paths["results"]).read())
        assert set(results) == {"method", "dataset", "auc", "ap", "seed"}
        assert results["method"] == "embedding-dot"
        assert results["dataset"] == "toy.edgelist"
        assert results["seed"] == 5
        assert 0.0 <= results["auc"] <= 1.0

    @pytest.mark.parametrize("name", ["a,b.edgelist", 'a"b.edgelist'])
    def test_linkpred_csv_keeps_the_dataset_name_one_field(self, workdir, tmp_path, name):
        cfg = copy_out(workdir["cfg"], tmp_path / "out")
        shutil.copyfile(cfg.dataset, tmp_path / name)
        paths = pipeline.cmd_linkpred(dataclasses.replace(cfg, dataset=str(tmp_path / name)))
        results = json.loads(open(paths["results"]).read())
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["method", "dataset", "auc", "ap", "seed"],
                        ["embedding-dot", name, repr(results["auc"]),
                         repr(results["ap"]), "5"]]

    def test_progressive(self, workdir):
        paths = pipeline.cmd_progressive(workdir["cfg"])
        lines = open(paths["progressive"]).read().splitlines()
        assert len(lines) == 3  # header + 2 fractions
        header = lines[0].split(",")
        assert header[0] == "fraction" and "triangles" in header
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["0.5", "1.0"]
        assert int(rows[0][3]) <= int(rows[1][3])  # num_edges monotone

    def test_progressive_targets_are_the_snapshot_thresholds(self, workdir, monkeypatch,
                                                              tmp_path):
        # without generate's report, progressive runs its own pass
        seen = spy_on_passes(monkeypatch)
        cfg = copy_out(workdir["cfg"], tmp_path / "out", drop=("assembly_report.json",))
        paths = pipeline.cmd_progressive(cfg)
        rows = [l.split(",") for l in open(paths["progressive"]).read().splitlines()[1:]]
        total = load_edge_list_file(cfg.dataset)[0].num_edges
        want = [assembly.edge_target(f, total) for f in cfg.fractions]
        assert [int(r[1]) for r in rows] == want and seen == [want[-1]]
        assert all(int(r[3]) >= int(r[1]) for r in rows)  # num_edges reached the target

    def test_progressive_reuses_the_pass_of_generate(self, workdir, monkeypatch):
        seen = spy_on_passes(monkeypatch)
        pipeline.cmd_progressive(workdir["cfg"])
        assert seen == []

    def test_rerun_byte_identical(self, workdir):
        out = workdir["cfg"].out
        before = {}
        for name in os.listdir(out):
            before[name] = open(os.path.join(out, name), "rb").read()
        pipeline.cmd_sample(workdir["cfg"])
        pipeline.cmd_train(workdir["cfg"])
        pipeline.cmd_generate(workdir["cfg"])
        pipeline.cmd_eval(workdir["cfg"])
        pipeline.cmd_linkpred(workdir["cfg"])
        pipeline.cmd_progressive(workdir["cfg"])
        for name, blob in before.items():
            assert open(os.path.join(out, name), "rb").read() == blob, name

    def test_commands_print_nothing(self, workdir, tmp_path, capsys):
        """stdout stays free for a caller that runs the commands in-process;
        the files match the first run's in another output directory."""
        cfg = dataclasses.replace(workdir["cfg"], out=str(tmp_path))
        capsys.readouterr()
        for name in ("sample", "train", "generate", "eval", "linkpred", "progressive"):
            getattr(pipeline, f"cmd_{name}")(cfg)
        assert capsys.readouterr().out == ""
        first = workdir["cfg"].out
        for name in os.listdir(first):
            with open(os.path.join(first, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name

    def test_fixture_sbm(self, tmp_path):
        cfg = pipeline.PipelineConfig(out=str(tmp_path / "fx"), seed=2)
        paths = pipeline.cmd_fixture_sbm(cfg, [10, 10], 0.5, 0.05)
        g, _ = load_edge_list_file(paths["dataset"])
        assert g.n == 20

    def test_train_forwards_denoiser_settings(self, tmp_path, monkeypatch):
        dataset = tmp_path / "g.edgelist"
        save_edge_list(sbm_graph([6, 6], 0.5, 0.1, seed=0), dataset)
        settings = {"h": 7, "L": 3, "lam": 2.5, "steps": 4, "batch": 3,
                    "learning_rate": 0.02, "freeze_node_ids": True}
        cfg = pipeline.config_from_obj({
            "dataset": str(dataset), "k": 4, "d": 1, "T": 6, "seed": 9,
            "denoiser": settings, "out": str(tmp_path / "out")})
        seen = []

        def fake_train(corpus, sched, tc):
            seen.append(tc)
            return DenoiserParams.init(len(sched.m_x), tc.h, tc.L, tc.seed), np.zeros(1)

        monkeypatch.setattr(pipeline, "train", fake_train)
        pipeline.cmd_sample(cfg)
        pipeline.cmd_train(cfg)
        assert [dataclasses.asdict(tc) for tc in seen] == [dict(settings, seed=9)]

    def test_missing_dataset_is_config_error(self, tmp_path):
        cfg = pipeline.PipelineConfig(out=str(tmp_path))
        with pytest.raises(ConfigError):
            pipeline.cmd_sample(cfg)


class TestCLI:
    def test_fixture_then_sample(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["fixture-sbm", "--sizes", "12,12", "--p-in", "0.4",
                       "--p-out", "0.05", "--seed", "3", "--out", str(out)])
        assert rc == 0
        dataset = out / "sbm.edgelist"
        assert dataset.exists()
        rc = cli.main(["sample", "--dataset", str(dataset), "--scheme", "Ego",
                       "--k", "5", "--d", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "corpus.jsonl").exists()
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert stats["scheme"] == "Ego"

    def test_exit_code_2_on_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"k": -1}))
        rc = cli.main(["sample", "--config", str(p)])
        assert rc == 2
        assert "graphstitch:" in capsys.readouterr().err

    def test_exit_code_2_on_malformed_value(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        for obj in ({"denoiser": 5}, {"fractions": "ab"}, {"k": "5"}):
            p.write_text(json.dumps(obj))
            rc = cli.main(["progressive", "--config", str(p)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("graphstitch:") and repr(next(iter(obj))) in err
        # argparse reads nan and inf as floats; they meet the same check
        assert cli.main(["linkpred", "--lr", "nan"]) == 2
        assert "'lr' in eval" in capsys.readouterr().err

    def test_exit_code_2_on_missing_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--out", str(tmp_path / "nowhere")])
        assert rc == 2

    @pytest.mark.parametrize("scheme", ["RW", "Ego", "Unif"])
    def test_exit_code_2_on_empty_dataset(self, tmp_path, capsys, scheme):
        dataset = tmp_path / "empty.edgelist"
        dataset.write_text("3 3\n")  # a self-loop only: no edges, no nodes
        rc = cli.main(["sample", "--dataset", str(dataset), "--scheme", scheme,
                       "--k", "3", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("graphstitch:")

    def test_exit_code_2_on_header_below_max_id(self, tmp_path, capsys):
        dataset = tmp_path / "bad.edgelist"
        dataset.write_text("n=5\n0 9\n1 2\n")
        rc = cli.main(["sample", "--dataset", str(dataset), "--scheme", "RW",
                       "--k", "3", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "n=5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "linkpred"])
    @pytest.mark.parametrize("n", [10, 40, 4000000000])  # the last would need 30 GiB
    def test_exit_code_2_on_synthetic_node_count(self, tmp_path, capsys, command, n):
        dataset = tmp_path / "sbm.edgelist"
        save_edge_list(sbm_graph([12, 12], 0.5, 0.1, seed=0), dataset)
        assert load_edge_list_file(dataset, relabel=True)[0].n == 24
        out = tmp_path / "out"
        out.mkdir()
        (out / "synthetic.edgelist").write_text(f"n={n}\n0 1\n1 2\n")
        rc = cli.main([command, "--dataset", str(dataset), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(out / "synthetic.edgelist") in err and str(dataset) in err

    def test_exit_code_2_on_foreign_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        ckpt = out / "checkpoint.json"
        DenoiserParams.init(5, 3, 1, seed=0).save(ckpt)
        obj = json.loads(ckpt.read_text())
        obj["time_dim"] = 4
        ckpt.write_text(json.dumps(obj))
        rc = cli.main(["generate", "--target-edges", "3", "--out", str(out)])
        assert rc == 2
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["missing", "extra", "shape", "data", "truncated",
                                      "not_base64", "short_bytes", "nan", "version_1",
                                      "repeated_key", "utf16", "version_float",
                                      "time_dim_float", "shape_float"])
    def test_exit_code_2_on_mismatched_checkpoint(self, tmp_path, capsys, edit):
        out = tmp_path / "out"
        out.mkdir()
        ckpt = out / "checkpoint.json"
        DenoiserParams.init(5, 3, 1, seed=0).save(ckpt)
        obj = json.loads(ckpt.read_text())
        tensors = obj["tensors"]
        raw = base64.b64decode(tensors["node_embed"]["data"])
        if edit == "missing":
            del tensors["layer0.w_msg"]
        elif edit == "extra":
            tensors["layer1.b"] = tensors["layer0.b"]
        elif edit == "shape":
            tensors["node_head_w"]["shape"] = [5, 3]
        elif edit == "data":  # one float64 short
            tensors["node_embed"]["data"] = base64.b64encode(raw[:-8]).decode()
        elif edit == "not_base64":  # a decoder that skips stray characters would accept it
            data = tensors["node_embed"]["data"]
            tensors["node_embed"]["data"] = data[:8] + "*" + data[8:]
        elif edit == "short_bytes":
            tensors["node_embed"]["data"] = base64.b64encode(raw[:-3]).decode()
        elif edit == "nan":
            values = np.frombuffer(raw, "<f8").copy()
            values[4] = np.nan
            tensors["node_embed"]["data"] = base64.b64encode(values.tobytes()).decode()
        elif edit == "version_1":
            obj["version"] = 1
        elif edit in ("version_float", "time_dim_float"):  # the right values, as floats
            key = edit.removesuffix("_float")
            obj[key] = float(obj[key])
        elif edit == "shape_float":
            tensors["node_head_w"]["shape"] = [float(v) for v in tensors["node_head_w"]["shape"]]
        text = json.dumps(obj)
        if edit == "truncated":
            text = text[:len(text) // 2]
        elif edit == "repeated_key":  # "L" comes first; a decoder keeping the last passes
            text = '{"L": 7, ' + text[1:]
        ckpt.write_bytes(text.encode("utf-16" if edit == "utf16" else "utf-8"))
        rc = cli.main(["generate", "--target-edges", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "checkpoint.json" in err
        if edit == "repeated_key":
            assert "'L' appears twice" in err
        if edit == "nan":
            assert "node_embed" in err and "non-finite" in err
        if edit == "version_1":
            assert "re-run train" in err

    @pytest.mark.parametrize("flag, key", [("--k-gen", "k_gen"),
                                           ("--target-edges", "target_edges")])
    def test_exit_code_2_on_assembly_size_below_1(self, tmp_path, capsys, flag, key):
        assert cli.main(["generate", flag, "0", "--out", str(tmp_path)]) == 2
        assert f"assembly.{key}" in capsys.readouterr().err
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"assembly": {key: 0}}))
        assert cli.main(["generate", "--config", str(p)]) == 2
        assert f"assembly.{key}" in capsys.readouterr().err

    BAD_ALPHA_BAR = {"alpha_bar_negative": [1.0, -0.5, -1.0],
                     "alpha_bar_nan": [1.0, float("nan"), 0.0],
                     "alpha_bar_zero_early": [1.0, 0.0, 0.0],
                     "alpha_bar_negative_last": [1.0, 0.5, -0.5]}

    BAD_T = {"T_float": 2.9, "T_string": "2", "T_bool": True}

    # each marginal sums to 1, so only a field's shape or entry type rejects it
    BAD_FIELD = {"m_X_halves": {"m_X": [[0.1, 0.1]] * 5},
                 "m_X_rows": {"m_X": [[0.2]] * 5},
                 "m_E_three": {"m_E": [0.5, 0.25, 0.25]},
                 "m_X_strings": {"m_X": ["0.2"] * 5},
                 "alpha_bar_bool": {"alpha_bar": [True, 0.5, 0]}}

    @pytest.mark.parametrize("edit", ["truncated", "missing", "not_an_object", "m_X",
                                      "repeated_key", "utf16", *BAD_ALPHA_BAR, *BAD_T,
                                      *BAD_FIELD])
    def test_exit_code_2_on_bad_schedule(self, tmp_path, capsys, recwarn, edit):
        out = tmp_path / "out"
        out.mkdir()
        ckpt = out / "checkpoint.json"
        DenoiserParams.init(5, 3, 1, seed=0).save(ckpt)
        sched = out / "schedule.json"
        n = 7 if edit == "m_X" else 5
        NoiseSchedule(2, [0.5, 0.0], [1.0, 0.5, 0.0], np.full(n, 1 / n), [0.5, 0.5]).save(sched)
        obj = json.loads(sched.read_text())
        if edit == "truncated":
            sched.write_text(sched.read_text()[:40])
        elif edit == "missing":
            del obj["m_E"]
            sched.write_text(json.dumps(obj))
        elif edit == "not_an_object":
            sched.write_text(json.dumps([obj]))
        elif edit == "repeated_key":  # "T" comes first; a decoder keeping the last passes
            sched.write_text('{"T": 9, ' + sched.read_text()[1:])
        elif edit == "utf16":
            sched.write_bytes(sched.read_text().encode("utf-16"))
        elif edit in self.BAD_FIELD:
            obj.update(self.BAD_FIELD[edit])
            sched.write_text(json.dumps(obj))
        elif edit in self.BAD_ALPHA_BAR:
            obj["alpha_bar"] = self.BAD_ALPHA_BAR[edit]
            sched.write_text(json.dumps(obj))
        elif edit in self.BAD_T:
            # alpha_bar keeps the length int(T) gives, so only T's type is wrong
            obj["T"] = self.BAD_T[edit]
            obj["alpha_bar"] = obj["alpha_bar"][:int(obj["T"]) + 1]
            sched.write_text(json.dumps(obj))
        rc = cli.main(["generate", "--target-edges", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(sched) in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        if edit == "m_X":
            assert str(ckpt) in err

    @pytest.mark.parametrize("text", ['{"n_parent": 5, "sch', '[1, 2]', '{"n_parent": 5}',
                                      '{"n_parent": 0, "scheme": "RW", "k": 2, "d": 1}',
                                      '{"n_parent": "5", "scheme": "RW", "k": 2, "d": 1}',
                                      '{"n_parent": 5, "scheme": "RW", "k": "2", "d": 1}',
                                      '{"n_parent": 5, "scheme": "RW", "k": 2, "d": 1.5}',
                                      '{"n_parent": 5, "scheme": 3, "k": 2, "d": 1}'])
    def test_exit_code_2_on_bad_corpus_stats(self, tmp_path, capsys, text):
        stats = tmp_path / "corpus_stats.json"
        stats.write_text(text)
        (tmp_path / "corpus.jsonl").write_text("")
        assert cli.main(["train", "--out", str(tmp_path)]) == 2
        assert str(stats) in capsys.readouterr().err

    GOOD_LINE = '{"edges":[[0,1]],"ids":[3,7]}\n'

    @pytest.mark.parametrize("edit", [
        {"scheme": "nonsense"}, {"scheme": "rw"},
        {"k": -7}, {"k": 0},
        {"d": -1}, {"d": 0}, {"d": None}, {"scheme": "Ego", "d": None},
        {"scheme": "Unif", "d": 1},
    ], ids=["scheme-unknown", "scheme-case", "k-negative", "k-zero", "d-negative",
            "d-zero", "d-null-for-RW", "d-null-for-Ego", "d-set-for-Unif"])
    def test_exit_code_2_on_corpus_stats_values(self, tmp_path, capsys, edit):
        stats = tmp_path / "corpus_stats.json"
        stats.write_text(json.dumps({"n_parent": 20, "scheme": "RW", "k": 3, "d": 1} | edit))
        (tmp_path / "corpus.jsonl").write_text(self.GOOD_LINE)
        assert cli.main(["train", "--steps", "2", "--out", str(tmp_path)]) == 2
        assert str(stats) in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.json").exists()

    def test_unif_corpus_stats_with_null_d_train(self, tmp_path):
        stats = {"n_parent": 20, "scheme": "Unif", "k": 3, "d": None}
        (tmp_path / "corpus_stats.json").write_text(json.dumps(stats))
        (tmp_path / "corpus.jsonl").write_text(self.GOOD_LINE)
        assert cli.main(["train", "--steps", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "checkpoint.json").exists()

    @pytest.mark.parametrize("text, line", [
        (GOOD_LINE + '{"edges": [[0, 1]], "ids": [3', 2),  # truncated
        (GOOD_LINE * 2 + GOOD_LINE[:-1], 3),  # the last line cut before its newline
        ("", None),  # no samples
        ("\n\n", None),
        ("[[0, 1]]\n", 1),
        (GOOD_LINE + '{"ids": [0, 1]}\n', 2),
        ('{"edges": []}\n', 1),
        ('{"edges": [[0, 1]], "ids": [0, 99]}\n', 1),  # an ID past n_parent
        ('{"edges": [], "ids": [-1, 2]}\n', 1),
        ('{"edges": [], "ids": [4, 2]}\n', 1),
        ('{"edges": [], "ids": [2, 2]}\n', 1),
        ('{"edges": [], "ids": [0, 1.5]}\n', 1),
        ('{"edges": [], "ids": []}\n', 1),
        ('{"edges": [[0, 2]], "ids": [0, 1]}\n', 1),  # an endpoint past k
        ('{"edges": [[1, 1]], "ids": [0, 1]}\n', 1),  # a self-loop
        ('{"edges": [[0, 1, 1]], "ids": [0, 1, 2]}\n', 1),
        ('{"edges": [[0, "1"]], "ids": [0, 1]}\n', 1),
        ('{"edges": [[0, 1], [2]], "ids": [0, 1, 2]}\n', 1),
    ])
    def test_exit_code_2_on_bad_corpus(self, tmp_path, capsys, text, line):
        stats = {"n_parent": 20, "scheme": "RW", "k": 3, "d": 1}
        (tmp_path / "corpus_stats.json").write_text(json.dumps(stats))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text)
        assert cli.main(["train", "--steps", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err
        if line is not None:
            assert f"line {line}:" in err

    def test_exit_code_2_on_truncated_corpus(self, tmp_path, capsys):
        dataset = tmp_path / "d.edgelist"
        save_edge_list(sbm_graph([10, 10], 0.4, 0.1, seed=0), dataset)
        assert cli.main(["sample", "--dataset", str(dataset), "--k", "4", "--d", "1",
                         "--out", str(tmp_path)]) == 0
        corpus = tmp_path / "corpus.jsonl"
        lines = corpus.read_text().splitlines(keepends=True)
        corpus.write_text("".join(lines[:-3]))  # whole lines gone: each left is valid
        capsys.readouterr()
        assert cli.main(["train", "--steps", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err and str(tmp_path / "corpus_stats.json") in err
        assert "holds 17 samples" in err

    def test_scheme_choices_are_schemes(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flag = next(a for a in sub.choices["sample"]._actions if "--scheme" in a.option_strings)
        assert tuple(flag.choices) == SCHEMES

    def test_exit_code_2_on_malformed_fractions(self, capsys):
        for text in ("0.5,half", "", "0.5,,1.0"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["progressive", "--fractions", text])
            assert exc.value.code == 2 and "--fractions" in capsys.readouterr().err

    def test_exit_code_2_on_malformed_sizes(self, capsys):
        for text in ("5,x", "", "5,,6", "5.5"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["fixture-sbm", "--sizes", text])
            assert exc.value.code == 2 and "--sizes" in capsys.readouterr().err

    def test_fixture_sbm_sizes_default_to_four_blocks_of_400(self):
        assert cli.build_parser().parse_args(["fixture-sbm"]).sizes == [400] * 4

    def test_flag_overrides_file_under_either_spelling(self, tmp_path):
        p = tmp_path / "c.json"
        for spelling in ("lr", "learning_rate"):
            p.write_text(json.dumps({"k": 4, "denoiser": {spelling: 0.5, "h": 9}}))
            args = cli.build_parser().parse_args(["train", "--config", str(p), "--lr", "0.1"])
            cfg = cli._build_config(args)
            assert (cfg.k, cfg.denoiser.h, cfg.denoiser.learning_rate) == (4, 9, 0.1)

    def test_flag_into_malformed_section_names_it(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"denoiser": 5}))
        assert cli.main(["train", "--config", str(p), "--steps", "3"]) == 2
        assert "'denoiser'" in capsys.readouterr().err

    def test_exit_code_3_on_runtime_failure(self, tmp_path, capsys):
        # corpus/schedule that cannot reach the target: a single possible
        # edge but target 10 -> stalled assembly
        out = tmp_path / "r"
        out.mkdir()
        dataset = tmp_path / "d.edgelist"
        save_edge_list(sbm_graph([3, 3], 1.0, 1.0, seed=0), dataset)
        rc = cli.main(["sample", "--dataset", str(dataset), "--scheme", "RW",
                       "--k", "2", "--d", "1", "--out", str(out)])
        assert rc == 0
        rc = cli.main(["train", "--T", "6", "--steps", "5", "--batch", "2",
                       "--h", "6", "--layers", "1", "--out", str(out)])
        assert rc == 0
        rc = cli.main(["generate", "--dataset", str(dataset), "--out", str(out),
                       "--target-edges", "400", "--k-gen", "2"])
        assert rc == 3
        assert "StalledAssembly" in capsys.readouterr().err

    def test_seed_override_changes_output(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        dataset = tmp_path / "d.edgelist"
        save_edge_list(sbm_graph([10, 10], 0.4, 0.1, seed=0), dataset)
        for out, seed in ((out1, "1"), (out2, "2")):
            rc = cli.main(["sample", "--dataset", str(dataset), "--scheme",
                           "Unif", "--k", "4", "--count", "20",
                           "--seed", seed, "--out", str(out)])
            assert rc == 0
        assert (out1 / "corpus.jsonl").read_bytes() != \
            (out2 / "corpus.jsonl").read_bytes()

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = capsys.readouterr().out
        for name in ("sample", "train", "generate", "eval", "linkpred",
                     "progressive", "fixture-sbm"):
            assert name in text


def common_overrides(command, dataset=True):
    flags = [("--seed", "7", None, "seed", 7), ("--out", "o", None, "out", "o")]
    if dataset:
        flags.append(("--dataset", "g.txt", None, "dataset", "g.txt"))
    return [(command,) + f for f in flags]


OVERRIDES = (
    common_overrides("sample") + [
        ("sample", "--scheme", "Ego", None, "scheme", "Ego"),
        ("sample", "--k", "9", None, "k", 9),
        ("sample", "--d", "2", None, "d", 2),
        ("sample", "--count", "33", None, "count", 33),
        ("sample", "--delta", "0.2", None, "delta", 0.2)]
    + common_overrides("train", dataset=False) + [
        ("train", "--T", "40", None, "T", 40),
        ("train", "--steps", "11", "denoiser", "steps", 11),
        ("train", "--batch", "4", "denoiser", "batch", 4),
        ("train", "--lr", "0.01", "denoiser", "learning_rate", 0.01),
        ("train", "--lambda", "2.5", "denoiser", "lam", 2.5),
        ("train", "--h", "16", "denoiser", "h", 16),
        ("train", "--layers", "3", "denoiser", "L", 3)]
    + common_overrides("generate") + [
        ("generate", "--target-fraction", "0.5", "assembly", "target_fraction", 0.5),
        ("generate", "--target-edges", "99", "assembly", "target_edges", 99),
        ("generate", "--k-gen", "7", "assembly", "k_gen", 7)]
    + common_overrides("eval")
    + common_overrides("linkpred") + [
        ("linkpred", "--fraction", "0.3", "eval", "fraction", 0.3),
        ("linkpred", "--embed-dim", "8", "eval", "h", 8),
        ("linkpred", "--epochs", "12", "eval", "epochs", 12),
        ("linkpred", "--lr", "0.25", "eval", "learning_rate", 0.25)]
    + common_overrides("progressive") + [
        ("progressive", "--fractions", "0.5,1.0", None, "fractions", (0.5, 1.0))]
    + common_overrides("fixture-sbm", dataset=False))


@pytest.mark.parametrize("command, flag, value, section, name, want", OVERRIDES,
                         ids=[f"{o[0]}{o[1]}" for o in OVERRIDES])
def test_override_lands_in_its_field(command, flag, value, section, name, want):
    args = cli.build_parser().parse_args([command, flag, value])
    got = dataclasses.asdict(cli._build_config(args))
    expect = dataclasses.asdict(pipeline.PipelineConfig())
    (expect[section] if section else expect)[name] = want
    assert got == expect


def test_freeze_node_ids_end_to_end(tmp_path):
    """Frozen node IDs train deterministically, on a different loss."""
    dataset = tmp_path / "g.edgelist"
    save_edge_list(sbm_graph([8, 8], 0.5, 0.1, seed=2), dataset)
    outputs = {}
    for run, frozen in (("a", True), ("b", True), ("c", False)):
        cfg = pipeline.config_from_obj({
            "dataset": str(dataset), "k": 5, "d": 2, "T": 8, "seed": 1,
            "denoiser": {"h": 8, "L": 1, "steps": 12, "batch": 4,
                         "freeze_node_ids": frozen},
            "out": str(tmp_path / run)})
        pipeline.cmd_sample(cfg)
        pipeline.cmd_train(cfg)
        outputs[run] = {name: (tmp_path / run / name).read_bytes()
                        for name in sorted(os.listdir(tmp_path / run))}
    assert len(outputs["a"]) == 6
    assert outputs["a"] == outputs["b"]
    assert outputs["a"]["loss.csv"] != outputs["c"]["loss.csv"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A sampled and trained output directory on which generate has not run."""
    root = tmp_path_factory.mktemp("reuse")
    dataset = root / "toy.edgelist"
    save_edge_list(sbm_graph([12, 12], 0.45, 0.05, seed=3), dataset)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(dataset), "k": 5, "d": 2, "T": 10,
        "denoiser": {"h": 10, "L": 1, "steps": 40, "batch": 8, "lr": 3e-3},
        "fractions": [0.25, 0.5, 1.0], "seed": 5, "out": str(root / "out")}))
    cfg = pipeline.load_config(cfg_path)
    pipeline.cmd_sample(cfg)
    pipeline.cmd_train(cfg)
    return {"cfg": cfg, "cfg_path": str(cfg_path)}


def progressive_csv(cfg):
    with open(pipeline.cmd_progressive(cfg)["progressive"], "rb") as fh:
        return fh.read()


class TestProgressiveReuse:
    @pytest.mark.parametrize("seed", [5, 8])
    @pytest.mark.parametrize("fractions", [(0.25, 0.5, 1.0), (0.3, 0.7),
                                           (0.001, 0.002, 0.01, 0.6)],
                             ids=["to_1", "short_of_1", "equal_thresholds"])
    def test_same_csv_with_and_without_generate(self, trained, tmp_path, monkeypatch,
                                                seed, fractions):
        cfg = dataclasses.replace(copy_out(trained["cfg"], tmp_path / "out"),
                                  seed=seed, fractions=fractions)
        seen = spy_on_passes(monkeypatch)
        fresh = progressive_csv(cfg)
        pipeline.cmd_generate(cfg)
        assert progressive_csv(cfg) == fresh
        assert len(seen) == 2  # progressive's own pass, then generate's

    @pytest.mark.parametrize("change", ["seed", "k_gen", "checkpoint", "schedule",
                                        "no_provenance", "short"])
    def test_falls_back_to_a_fresh_pass(self, trained, tmp_path, monkeypatch, change):
        cfg = copy_out(trained["cfg"], tmp_path / "out")
        out = tmp_path / "out"
        short = pipeline.AssemblySettings(target_edges=5)
        pipeline.cmd_generate(dataclasses.replace(cfg, assembly=short)
                              if change == "short" else cfg)
        if change == "seed":
            cfg = dataclasses.replace(cfg, seed=cfg.seed + 1)
        elif change == "k_gen":
            cfg = dataclasses.replace(cfg, assembly=pipeline.AssemblySettings(k_gen=cfg.k - 1))
        elif change == "checkpoint":
            params = DenoiserParams.load(out / "checkpoint.json")
            params.tensors["node_head_b"] += 0.5
            params.save(out / "checkpoint.json")
        elif change == "schedule":  # the same schedule in other bytes
            sched = json.loads((out / "schedule.json").read_text())
            (out / "schedule.json").write_text(json.dumps(sched))
        elif change == "no_provenance":  # a report as written before it had them
            report = json.loads((out / "assembly_report.json").read_text())
            del report["provenance"], report["union_sizes"]
            (out / "assembly_report.json").write_text(json.dumps(report))
        seen = spy_on_passes(monkeypatch)
        got = progressive_csv(cfg)
        assert len(seen) == 1
        fresh = copy_out(cfg, tmp_path / "fresh", drop=("assembly_report.json",))
        assert got == progressive_csv(fresh)

    @pytest.mark.parametrize("edit", ["truncated", "extended", "header", "huge_header",
                                      "garbled", "not_utf8", "union_sizes", "duplicated",
                                      "repeated"])
    def test_mismatched_pass_exits_2_naming_the_file(self, trained, tmp_path, capsys,
                                                     edit):
        out = tmp_path / "out"
        cfg = copy_out(trained["cfg"], out)
        pipeline.cmd_generate(cfg)
        synth = out / "synthetic.edgelist"
        lines = synth.read_text().splitlines(keepends=True)
        n = int(lines[0][2:])
        if edit == "truncated":
            synth.write_text("".join(lines[:-1]))
        elif edit == "extended":
            present = {tuple(map(int, l.split())) for l in lines[1:]}
            extra = next((u, v) for u in range(n) for v in range(u + 1, n)
                         if (u, v) not in present)
            synth.write_text("".join(lines) + "%d %d\n" % extra)
        elif edit == "header":
            synth.write_text(f"n={n + 1}\n" + "".join(lines[1:]))
        elif edit == "huge_header":  # a graph on this many nodes would need 30 GiB
            synth.write_text("n=4000000000\n" + "".join(lines[1:]))
        elif edit == "garbled":
            synth.write_text("".join(lines[:-1]) + "1 x\n")
        elif edit == "not_utf8":
            synth.write_bytes(synth.read_bytes() + b"\xff\n")
        elif edit == "duplicated":  # as many lines, one distinct pair fewer
            synth.write_text("".join(lines[:-1] + lines[1:2]))
        elif edit == "repeated":  # one line more, as many distinct pairs
            synth.write_text("".join(lines + lines[1:2]))
        elif edit == "union_sizes":
            report = json.loads((out / "assembly_report.json").read_text())
            report["union_sizes"] = [3, 2]
            (out / "assembly_report.json").write_text(json.dumps(report))
        rc = cli.main(["progressive", "--config", trained["cfg_path"], "--out", str(out)])
        assert rc == 2
        name = "assembly_report.json" if edit == "union_sizes" else "synthetic.edgelist"
        assert str(out / name) in capsys.readouterr().err

    def test_edits_eval_accepts_keep_the_pass(self, trained, tmp_path, monkeypatch):
        """A comment, a blank line, a pair written v u and no final newline:
        eval reads the same graph and progressive the same pass."""
        out = tmp_path / "out"
        cfg = copy_out(trained["cfg"], out)
        pipeline.cmd_generate(cfg)
        before = progressive_csv(cfg)
        pipeline.cmd_eval(cfg)
        comparison = (out / "comparison.csv").read_bytes()
        synth = out / "synthetic.edgelist"
        lines = synth.read_text().splitlines()
        u, v = lines[2].split()
        lines[2] = f"{v} {u}"
        synth.write_text("\n".join(lines[:1] + ["# edited by hand", ""] + lines[1:]))
        seen = spy_on_passes(monkeypatch)
        assert progressive_csv(cfg) == before
        assert not seen  # the recorded pass, not a fresh one
        pipeline.cmd_eval(cfg)
        assert (out / "comparison.csv").read_bytes() == comparison

    @pytest.mark.parametrize("generated", [False, True])
    def test_bad_fractions_exit_2_on_either_path(self, trained, tmp_path, capsys,
                                                 generated):
        out = tmp_path / "out"
        cfg = copy_out(trained["cfg"], out)
        if generated:
            pipeline.cmd_generate(cfg)
        rc = cli.main(["progressive", "--config", trained["cfg_path"], "--out", str(out),
                       "--fractions", "0.9,0.4"])
        assert rc == 2 and "fractions" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    ("sample", "cfg.json"), ("sample", "toy.edgelist"), ("train", "corpus_stats.json"),
    ("eval", "synthetic.edgelist"), ("progressive", "assembly_report.json")])
def test_input_not_utf8_exits_2_naming_it(trained, tmp_path, capsys, command, name):
    out = tmp_path / "out"
    copy_out(trained["cfg"], out)
    (out / "synthetic.edgelist").write_text("n=24\n0 1\n1 2\n")
    (out / "assembly_report.json").write_text(json.dumps({"union_sizes": [2]}))
    obj = json.loads(pathlib.Path(trained["cfg_path"]).read_text())
    shutil.copy(obj["dataset"], tmp_path / "toy.edgelist")
    obj.update(dataset=str(tmp_path / "toy.edgelist"), out=str(out))
    (tmp_path / "cfg.json").write_text(json.dumps(obj))
    bad = out / name if (out / name).exists() else tmp_path / name
    text = bad.read_bytes()
    bad.write_bytes(text[:8] + b"\xff" + text[8:])
    assert cli.main([command, "--config", str(tmp_path / "cfg.json")]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["cfg.json", "checkpoint.json", "schedule.json"])
def test_deeply_nested_json_exits_2_naming_it(tmp_path, capsys, name):
    # deeper than the JSON decoder recurses: RecursionError, not ValueError
    out = tmp_path / "out"
    out.mkdir()
    DenoiserParams.init(5, 3, 1, seed=0).save(out / "checkpoint.json")
    NoiseSchedule(2, [0.5, 0.0], [1.0, 0.5, 0.0], np.full(5, 0.2),
                  [0.5, 0.5]).save(out / "schedule.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(out), "assembly": {"target_edges": 3}}))
    bad = cfg if name == "cfg.json" else out / name
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.main(["generate", "--config", str(cfg)]) == 2
    assert str(bad) in capsys.readouterr().err


def _n1000_config(tmp_path):
    """Config of a 4x250 SBM (n=1000), RW k=20 d=1, T=40, 3 train steps and
    80 target edges, writing to tmp_path/out."""
    dataset = tmp_path / "sbm.edgelist"
    save_edge_list(sbm_graph([250] * 4, 0.03, 0.002, seed=2), dataset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(dataset), "k": 20, "d": 1, "T": 40, "seed": 3,
        "denoiser": {"steps": 3}, "assembly": {"target_edges": 80},
        "out": str(tmp_path / "out")}))
    return cfg_path


def _child_outputs(cfg_path, command, names, out, env):
    """Bytes of `names` after `command` runs in a child process under `env`
    on a copy, at `out`, of the config's out/."""
    shutil.copytree(cfg_path.parent / "out", out)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "graphstitch", command,
                    "--config", str(cfg_path), "--out", str(out)],
                   env=env, check=True, timeout=300)
    return [(out / name).read_bytes() for name in names]


def test_generate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at n=1000 the reverse chain runs no product over n, so generate writes
    # the same bytes from one checkpoint under one and two OpenBLAS threads
    cfg_path = _n1000_config(tmp_path)
    cfg = pipeline.load_config(cfg_path)
    pipeline.cmd_sample(cfg)
    pipeline.cmd_train(cfg)
    written = {threads: _child_outputs(cfg_path, "generate",
                                       ("synthetic.edgelist", "assembly_report.json"),
                                       tmp_path / f"threads-{threads}",
                                       dict(os.environ, OPENBLAS_NUM_THREADS=threads))
               for threads in ("1", "2")}
    assert written["1"] == written["2"]
    assert written["1"][0].count(b"\n") > 80  # the header plus at least 80 edges


def test_train_bytes_do_not_depend_on_the_blas_thread_timeout(tmp_path):
    # the package lets OpenBLAS's idle worker sleep (OPENBLAS_THREAD_TIMEOUT
    # 4) instead of spinning; both threads still run, so train at n=1000
    # writes the same bytes as under OpenBLAS's own timeout (2**28 cycles)
    cfg_path = _n1000_config(tmp_path)
    pipeline.cmd_sample(pipeline.load_config(cfg_path))
    unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    written = {timeout: _child_outputs(cfg_path, "train", ("checkpoint.json", "loss.csv"),
                                       tmp_path / f"timeout-{timeout}", env)
               for timeout, env in (("default", unset),
                                    ("28", dict(unset, OPENBLAS_THREAD_TIMEOUT="28")))}
    assert written["default"] == written["28"]
    assert written["default"][1].count(b"\n") == 4  # the header and three steps
