"""Which CLI commands load scipy.

Every command runs as its own process, so a module-level scipy import
costs each one about 0.3 s of start-up. graphstitch imports scipy inside
the functions that compute with it; these tests run each command in a
fresh interpreter on a tiny dataset and read `sys.modules` afterwards, so
a later module-level import shows up here.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# imports the package, runs cli.main on the JSON argv (if any), and prints
# the exit code and the scipy modules loaded as its last stdout line
PROBE = """
import json, sys
import graphstitch
from graphstitch import cli
rc = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps({"rc": rc, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def probe(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", PROBE] + ([json.dumps(argv)] if argv is not None else [])
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """{run name: {"rc", "scipy"}} for one tiny chain, each command in a
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


@pytest.mark.parametrize("name", ["import", "fixture-sbm", "sample-RW", "sample-Unif",
                                  "sample-Ego", "train", "generate", "linkpred"])
def test_loads_no_scipy(loaded, name):
    assert loaded[name]["rc"] in (None, 0)
    assert loaded[name]["scipy"] == []


@pytest.mark.parametrize("name", ["eval", "progressive"])
def test_scipy_commands_run(loaded, name):
    assert loaded[name]["rc"] == 0
    assert "scipy.sparse.csgraph" in loaded[name]["scipy"]
