"""Stitch generated subgraphs into one synthetic graph by edge union.

Subgraphs come out of the reverse diffusion chain carrying original node
IDs, so assembly is just set union over the pair codes of translated edges:
keep generating until the union reaches the target edge count, always
inserting the whole final subgraph (bounded overshoot), and abort if a long
run of subgraphs contributes nothing new.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import prior_sample, reverse_step
from .denoiser import predict
from .errors import InvalidParameter, StalledAssembly
from .graphs import Graph, decode_pairs, pair_codes
from .rng import as_generator, substream
from .sampling import SubgraphSample, local_pairs

STALL_LIMIT = 50


@dataclass
class SynthAccumulator:
    """Counters of an assembly pass."""

    subgraphs_used: int = 0
    num_edges: int = 0
    overshoot: int = 0


def generate_subgraph(params, sched, k, seed):
    """Run the reverse chain from a prior draw down to t=0 and decode.

    Node slots that sampled the same parent ID are merged; pair states
    that became self-pairs under the merge are dropped.
    """
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    rng = as_generator(seed)
    noisy = prior_sample(k, sched, rng)
    while noisy.t > 0:
        p_x, p_e = predict(params, noisy, sched)
        noisy = reverse_step(noisy, p_x, p_e, sched, rng)

    ids = noisy.x_t
    uniq = np.unique(ids)
    remap = np.searchsorted(uniq, ids)
    iu, ju = local_pairs(k)
    present = noisy.e_t == 1
    a = remap[iu[present]]
    b = remap[ju[present]]
    keep = a != b
    edges = np.column_stack([a[keep], b[keep]])
    return SubgraphSample(Graph(int(uniq.size), edges), uniq, params.n)


def edge_target(fraction, total):
    """Edge count at `fraction` of `total`: ceil(fraction * total), at least 1."""
    return max(1, math.ceil(fraction * total))


def _union_loop(make_subgraph, n, thresholds):
    """Generate-and-union until the last threshold is reached.

    Returns (snapshots, acc): one sorted int64 array of the union's pair
    codes per threshold, taken the first time the union size crosses it (a
    single subgraph may cross several). Raises StalledAssembly after
    STALL_LIMIT consecutive subgraphs that add no new edge.
    """
    acc = SynthAccumulator()
    union = set()  # Python ints: an insert costs the subgraph, not the union
    snapshots = []
    pending = list(thresholds)
    streak = 0
    while pending:
        sub = make_subgraph(acc.subgraphs_used)
        acc.subgraphs_used += 1
        ea = sub.id_map[sub.local.edge_array]
        union.update(pair_codes(ea[:, 0], ea[:, 1], n).tolist())
        streak = 0 if len(union) > acc.num_edges else streak + 1
        acc.num_edges = len(union)
        while pending and acc.num_edges >= pending[0]:
            snapshots.append(np.sort(np.fromiter(union, np.int64, len(union))))
            pending.pop(0)
        if pending and streak >= STALL_LIMIT:
            raise StalledAssembly(
                f"{STALL_LIMIT} consecutive subgraphs added no new edges "
                f"({acc.num_edges}/{pending[-1]} edges after "
                f"{acc.subgraphs_used} subgraphs)",
                edges=acc.num_edges, subgraphs_used=acc.subgraphs_used)
    acc.overshoot = acc.num_edges - thresholds[-1]
    return snapshots, acc


def _assemble(params, sched, thresholds, k, seed):
    """One assembly pass of generated subgraphs: a Graph per threshold and
    the pass's counters."""
    def make(i):
        return generate_subgraph(params, sched, k, substream(seed, "assemble", i))

    snapshots, acc = _union_loop(make, params.n, thresholds)
    return [Graph(params.n, decode_pairs(c, params.n)) for c in snapshots], acc


def assemble(params, sched, target_edges, k, seed):
    """Union generated subgraphs until >= target_edges; returns (Graph, acc).

    Overshoot is bounded by k*(k-1)/2 - 1 since the final subgraph is
    inserted whole.
    """
    if target_edges < 1:
        raise InvalidParameter("target_edges must be >= 1")
    graphs, acc = _assemble(params, sched, [target_edges], k, seed)
    return graphs[0], acc


def progressive_assemble(params, sched, fractions, total_edges, k, seed):
    """Snapshots of the growing union at ceil(f * total_edges) for each f.

    fractions must be strictly increasing within (0, 1]. Returns
    [(fraction, Graph), ...] in order; the underlying run is a single
    assembly pass, so later snapshots are supersets of earlier ones.
    """
    fr = [float(f) for f in fractions]
    if not fr or any(not 0.0 < f <= 1.0 for f in fr) or any(
            b <= a for a, b in zip(fr, fr[1:])):
        raise InvalidParameter("fractions must be strictly increasing in (0, 1]")
    if total_edges < 1:
        raise InvalidParameter("total_edges must be >= 1")
    graphs, _ = _assemble(params, sched, [edge_target(f, total_edges) for f in fr], k, seed)
    return list(zip(fr, graphs))
