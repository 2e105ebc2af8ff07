"""Output checks run on every pipeline chain the benchmark makes.

Each check returns a list of failure messages; an empty list is a pass.
"""

import hashlib
import json
import math
import os

# The artifacts a full chain writes next to its dataset; with the dataset
# file they are the 16 files of the C10 output layout.
ARTIFACTS = frozenset({
    "corpus.jsonl", "corpus_stats.json", "relabel_map.json",
    "checkpoint.json", "schedule.json", "loss.csv",
    "synthetic.edgelist", "assembly_report.json",
    "real_stats.json", "synthetic_stats.json", "comparison.csv", "comparison.txt",
    "linkpred.json", "linkpred.csv",
    "progressive.csv",
})

# stats-report column -> flag that marks it degenerate (NaN allowed)
DEGENERATE_FLAGS = {
    "clustering": "clustering_degenerate",
    "assortativity": "assortativity_degenerate",
    "power_law_exp": "power_law_degenerate",
    "cpl": "cpl_degenerate",
}


def check_layout(out_dir, dataset):
    """`out_dir` holds exactly the dataset file and the chain's artifacts."""
    expected = ARTIFACTS | {dataset}
    present = set(os.listdir(out_dir))
    errors = [f"missing {name}" for name in sorted(expected - present)]
    errors += [f"unexpected {name}" for name in sorted(present - expected)]
    return errors


def file_hashes(out_dir):
    """{file name: SHA-256 hex} for every regular file in `out_dir`."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_same_bytes(reference, hashes):
    """Every output file has the bytes of the reference repetition."""
    names = sorted(set(reference) | set(hashes))
    return [f"{name} differs from the first repetition" for name in names
            if reference.get(name) != hashes.get(name)]


def count_edges(path):
    """Edge lines of an edge-list file (comments and the n= header skipped)."""
    m = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line.startswith("n="):
                m += 1
    return m


def check_edge_count(out_dir, target, k):
    """Synthetic edges lie in [target, target + k(k-1)/2 - 1], in both the
    edge list and the assembly report."""
    listed = count_edges(os.path.join(out_dir, "synthetic.edgelist"))
    with open(os.path.join(out_dir, "assembly_report.json"), "r", encoding="utf-8") as fh:
        reported = json.load(fh)["edges"]
    hi = target + k * (k - 1) // 2 - 1
    errors = []
    if listed != reported:
        errors.append(f"synthetic.edgelist has {listed} edges, report says {reported}")
    if not target <= listed <= hi:
        errors.append(f"{listed} synthetic edges outside [{target}, {hi}]")
    return errors


def check_finite_stats(out_dir):
    """Stats values are finite numbers unless the report flags them degenerate."""
    errors = []
    for name in ("real_stats.json", "synthetic_stats.json"):
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        flags = set(report.pop("flags", ()))
        for column, value in report.items():
            if DEGENERATE_FLAGS.get(column) in flags:
                continue
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                errors.append(f"{name}: {column} = {value!r} without a degenerate flag")
    return errors


def check_chain_outputs(out_dir, dataset, target, k):
    """All per-chain checks on one output directory: {check name: errors}."""
    results = {"layout": check_layout(out_dir, dataset)}
    if results["layout"]:
        return results
    results["edge_count"] = check_edge_count(out_dir, target, k)
    results["finite_stats"] = check_finite_stats(out_dir)
    return results
