"""Benchmark workloads and the inputs they are built from.

A workload is a graph shape plus a pipeline config. Its inputs (one edge
list and one config file) are made from the benchmark's seed; the program
under test sees only those two files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

from checks import count_edges
from chunglu import write_chung_lu

COMMANDS = ("sample", "train", "generate", "eval", "linkpred", "progressive")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in bench/README.md and BENCHMARK.json."""

    name: str
    graph: dict  # {"kind": "sbm", sizes, p_in, p_out} or {"kind": "chunglu", n, mean_degree, exponent}
    config: dict = field(default_factory=dict)  # pipeline config without dataset/seed/out


WORKLOADS = {w.name: w for w in (
    Workload(
        "sbm-rw-train",
        {"kind": "sbm", "sizes": [60, 60], "p_in": 0.15, "p_out": 0.01},
        {"scheme": "RW", "k": 12, "d": 5, "T": 100,
         "denoiser": {"steps": 30, "batch": 32, "h": 64, "lr": 1e-6},
         "assembly": {"target_fraction": 0.4},
         "eval": {"epochs": 80}},
    ),
    Workload(
        "sbm-ego-dense",
        {"kind": "sbm", "sizes": [48, 48, 48, 48], "p_in": 0.8, "p_out": 0.1},
        {"scheme": "Ego", "k": 20, "d": 1, "T": 100,
         "denoiser": {"steps": 15, "batch": 32, "h": 64, "lr": 1e-6},
         "assembly": {"target_edges": 450},
         "eval": {"epochs": 120}},
    ),
    Workload(
        "chunglu-rw-large",
        {"kind": "chunglu", "n": 1000, "mean_degree": 8.0, "exponent": 2.5},
        {"scheme": "RW", "k": 20, "d": 1, "T": 100,
         "denoiser": {"steps": 6, "batch": 32, "h": 64, "lr": 1e-6},
         "assembly": {"target_edges": 300},
         "eval": {"epochs": 20}},
    ),
)}


@dataclass(frozen=True)
class Inputs:
    workdir: str
    dataset: str  # edge-list file name, in workdir and in every chain's out/
    real_edges: int  # edge count of the dataset, counted by the benchmark
    target_edges: int  # the edge count generate must reach
    k: int


def program_env(src):
    """Environment for a child running the checkout's package from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_inputs(workload, seed, workdir, src):
    """Write the workload's edge list and config into `workdir`.

    The config reads the dataset from out/ and writes there, as in the
    acceptance layout: a chain run from a directory holding config.json
    leaves the dataset plus its 15 artifacts in out/.
    """
    os.makedirs(workdir, exist_ok=True)
    spec = workload.graph
    if spec["kind"] == "sbm":
        dataset = "sbm.edgelist"
        subprocess.run(
            [sys.executable, "-m", "graphstitch", "fixture-sbm",
             "--sizes", ",".join(str(s) for s in spec["sizes"]),
             "--p-in", repr(spec["p_in"]), "--p-out", repr(spec["p_out"]),
             "--seed", str(seed), "--out", "."],
            cwd=workdir, env=program_env(src), check=True,
            stdout=subprocess.DEVNULL)
    elif spec["kind"] == "chunglu":
        dataset = "chunglu.edgelist"
        write_chung_lu(os.path.join(workdir, dataset), spec["n"],
                       spec["mean_degree"], spec["exponent"], seed)
    else:
        raise ValueError(f"unknown graph kind {spec['kind']!r}")

    cfg = dict(workload.config, dataset=f"out/{dataset}", seed=seed, out="out")
    with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    m = count_edges(os.path.join(workdir, dataset))
    asm = cfg.get("assembly", {})
    if asm.get("target_edges") is not None:
        target = int(asm["target_edges"])
    else:
        target = max(1, math.ceil(asm.get("target_fraction", 1.0) * m))
    return Inputs(workdir, dataset, m, target, asm.get("k_gen") or cfg["k"])


def prepare_chain_dir(inputs, name):
    """A fresh directory `name` under the workdir holding config.json and
    out/ with a copy of the dataset; returns its path."""
    chain_dir = os.path.join(inputs.workdir, name)
    shutil.rmtree(chain_dir, ignore_errors=True)
    os.makedirs(os.path.join(chain_dir, "out"))
    shutil.copyfile(os.path.join(inputs.workdir, "config.json"),
                    os.path.join(chain_dir, "config.json"))
    shutil.copyfile(os.path.join(inputs.workdir, inputs.dataset),
                    os.path.join(chain_dir, "out", inputs.dataset))
    return chain_dir
