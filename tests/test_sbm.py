import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import graph_oracle as oracle
from graphstitch.errors import InvalidParameter
from graphstitch.sbm import block_labels, sbm_graph

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_block_labels():
    assert block_labels([2, 3]).tolist() == [0, 0, 1, 1, 1]
    with pytest.raises(InvalidParameter):
        block_labels([])
    with pytest.raises(InvalidParameter):
        block_labels([3, 0])


def test_edge_count_in_binomial_band():
    g = sbm_graph([50, 50, 50], 0.2, 0.02, seed=3)
    n_in = 3 * 50 * 49 // 2
    n_out = 3 * 50 * 50
    mean = n_in * 0.2 + n_out * 0.02
    var = n_in * 0.2 * 0.8 + n_out * 0.02 * 0.98
    assert abs(g.num_edges - mean) <= 4 * np.sqrt(var)


def test_density_split_by_block():
    g = sbm_graph([40, 40], 0.3, 0.02, seed=1)
    labels = block_labels([40, 40])
    within = sum(1 for u, v in g.edge_array.tolist() if labels[u] == labels[v])
    across = g.num_edges - within
    assert within / (2 * 40 * 39 / 2) > 0.2
    assert across / (40 * 40) < 0.05


def test_deterministic():
    a = sbm_graph([20, 20], 0.2, 0.05, seed=9)
    b = sbm_graph([20, 20], 0.2, 0.05, seed=9)
    assert a == b


def test_probability_validation():
    with pytest.raises(InvalidParameter):
        sbm_graph([5, 5], 1.5, 0.1)
    with pytest.raises(InvalidParameter):
        sbm_graph([5, 5], 0.5, -0.1)


def test_extreme_probabilities():
    g = sbm_graph([4, 4], 1.0, 0.0, seed=0)
    assert g.num_edges == 2 * 6
    g2 = sbm_graph([4, 4], 0.0, 0.0, seed=0)
    assert g2.num_edges == 0


@pytest.mark.parametrize("sizes,p_in,p_out,seed", [
    ([1], 0.5, 0.5, 0),
    ([1, 1, 3], 1.0, 0.0, 2),
    ([5, 1, 7], 0.0, 1.0, 4),
    ([2, 1, 1, 4], 0.4, 0.3, 6),
    ([60, 60], 0.15, 0.01, 1),
    ([48, 48, 48, 48], 0.8, 0.1, 3),
])
def test_row_draws_match_one_shot_oracle(sizes, p_in, p_out, seed):
    assert sbm_graph(sizes, p_in, p_out, seed=seed) == oracle.sbm_graph(sizes, p_in, p_out, seed=seed)


def test_peak_memory_linear_in_n():
    # the one-shot draw over all n(n-1)/2 pairs took about 1 GB at n=8,000
    code = ("import resource\n"
            "from graphstitch.sbm import sbm_graph\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "sbm_graph([4000, 4000], 0.01, 0.001, seed=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(proc.stdout) / 1024 < 150  # ru_maxrss is in KiB on Linux
