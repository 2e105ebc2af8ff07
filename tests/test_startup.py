"""What each CLI command's process loads and sets at start-up.

Every command runs as its own process, so a module-level scipy import
costs each one about 0.3 s of start-up, and numpy.ma (which np.unique
imports on its first call) about 9 ms. graphstitch imports scipy inside
the functions that compute with it and calls no np.unique; these tests run
each command in a fresh interpreter on a tiny dataset and read
`sys.modules` afterwards, so a later import shows up here. They also read
the OpenBLAS thread timeout the package sets before numpy loads.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# imports the package, runs cli.main on the JSON argv (if any), and prints
# the exit code, the scipy modules loaded, whether numpy.ma is loaded and
# OPENBLAS_THREAD_TIMEOUT as its last stdout line
PROBE = """
import json, os, sys
import graphstitch
from graphstitch import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps({"rc": rc, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "numpy.ma": "numpy.ma" in sys.modules,
    "blas_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def probe(argv, cwd, blas_timeout=None):
    """The probe's report; OPENBLAS_THREAD_TIMEOUT is `blas_timeout` in its
    environment, or unset when None."""
    env = dict(os.environ)
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if blas_timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = blas_timeout
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", PROBE] + ([json.dumps(argv)] if argv is not None else [])
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """{run name: the probe's report} for one tiny chain, each command in a
    fresh process, in dependency order."""
    root = tmp_path_factory.mktemp("startup")
    out = root / "out"
    dataset = root / "sbm.edgelist"
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": str(dataset), "scheme": "RW", "k": 5, "d": 2, "T": 10,
        "denoiser": {"h": 8, "L": 1, "steps": 4, "batch": 4},
        "assembly": {"target_edges": 8},
        "eval": {"fraction": 0.5, "epochs": 5},
        "fractions": [0.5, 1.0], "seed": 2, "out": str(out)}))
    common = ["--config", str(cfg)]
    runs = [
        ("import", None),
        ("fixture-sbm", ["fixture-sbm", "--sizes", "10,10", "--p-in", "0.5",
                         "--p-out", "0.05", "--out", str(root)]),
        ("sample-RW", ["sample"] + common),
        ("sample-Unif", ["sample", "--scheme", "Unif", "--count", "20",
                         "--out", str(root / "unif")] + common),
        ("sample-Ego", ["sample", "--scheme", "Ego", "--out", str(root / "ego")] + common),
        ("train", ["train"] + common),
        ("generate", ["generate"] + common),
        ("linkpred", ["linkpred"] + common),
        ("eval", ["eval"] + common),
        ("progressive", ["progressive"] + common),
    ]
    return {name: probe(argv, root) for name, argv in runs}


NO_SCIPY = ["import", "fixture-sbm", "sample-RW", "sample-Unif", "sample-Ego", "train",
            "generate", "linkpred"]


@pytest.mark.parametrize("name", NO_SCIPY)
def test_loads_no_scipy(loaded, name):
    assert loaded[name]["rc"] in (None, 0)
    assert loaded[name]["scipy"] == []


@pytest.mark.parametrize("name", ["eval", "progressive"])
def test_scipy_commands_run(loaded, name):
    assert loaded[name]["rc"] == 0
    assert "scipy.sparse.csgraph" in loaded[name]["scipy"]


# eval and progressive load numpy.ma with scipy.sparse, which imports it
@pytest.mark.parametrize("name", NO_SCIPY)
def test_loads_no_numpy_ma(loaded, name):
    assert loaded[name]["rc"] in (None, 0)
    assert loaded[name]["numpy.ma"] is False


@pytest.mark.parametrize("name", NO_SCIPY + ["eval", "progressive"])
def test_openblas_idle_worker_sleeps(loaded, name):
    assert loaded[name]["blas_timeout"] == "4"


def test_exported_blas_thread_timeout_wins(tmp_path):
    assert probe(None, tmp_path, blas_timeout="20")["blas_timeout"] == "20"
