"""Stitch generated subgraphs into one synthetic graph by edge union.

Subgraphs come out of the reverse diffusion chain carrying original node
IDs, so assembly is just set union over the pair codes of translated edges:
keep generating until the union reaches the target edge count, always
inserting the whole final subgraph (bounded overshoot), and abort if a long
run of subgraphs contributes nothing new. A pass records the order in
which edges entered the union and its size after each subgraph, so the
union at any point of the pass is a prefix of that order.
"""

import math
from dataclasses import dataclass, field

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
    """Record of an assembly pass: the union's size after each subgraph, and
    its pair codes in entry order (grouped by the subgraph that first added
    them, ascending within a group)."""

    union_sizes: list = field(default_factory=list)
    entry_codes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    overshoot: int = 0

    @property
    def subgraphs_used(self):
        return len(self.union_sizes)

    @property
    def num_edges(self):
        return self.union_sizes[-1] if self.union_sizes else 0


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


def snapshot_graphs(entry_codes, union_sizes, thresholds, n):
    """A Graph on n nodes of a pass's union at each of the ascending
    `thresholds`, sliced from the pass's record.

    The snapshot at threshold t is the union right after the first subgraph
    that brought it to >= t (a single subgraph may cross several): the first
    union_sizes[i] entry codes, for the first i with union_sizes[i] >= t.
    Thresholds that end at one prefix share one Graph. The last union size
    must reach every threshold.
    """
    sizes = np.asarray(union_sizes, dtype=np.int64)
    ends = sizes[np.searchsorted(sizes, thresholds)].tolist()
    graphs = {m: Graph(n, decode_pairs(entry_codes[:m], n)) for m in set(ends)}
    return [graphs[m] for m in ends]


def _union_loop(make_subgraph, n, target):
    """Generate-and-union until the union holds >= target edges; returns the
    pass's record.

    Raises StalledAssembly after STALL_LIMIT consecutive subgraphs that add
    no new edge.
    """
    acc = SynthAccumulator()
    union = set()  # Python ints: an insert costs the subgraph, not the union
    entered = []
    streak = 0
    while acc.num_edges < target:
        sub = make_subgraph(acc.subgraphs_used)
        ea = sub.id_map[sub.local.edge_array]
        codes = np.unique(pair_codes(ea[:, 0], ea[:, 1], n)).tolist()
        new = [c for c in codes if c not in union]
        union.update(new)
        entered += new
        streak = 0 if new else streak + 1
        acc.union_sizes.append(len(union))
        if acc.num_edges < target and streak >= STALL_LIMIT:
            raise StalledAssembly(
                f"{STALL_LIMIT} consecutive subgraphs added no new edges "
                f"({acc.num_edges}/{target} edges after "
                f"{acc.subgraphs_used} subgraphs)",
                edges=acc.num_edges, subgraphs_used=acc.subgraphs_used)
    acc.entry_codes = np.array(entered, dtype=np.int64)
    acc.overshoot = acc.num_edges - target
    return acc


def _pass(params, sched, target, k, seed):
    """The record of one assembly pass of generated subgraphs to `target`
    edges; subgraph i is drawn from substream(seed, "assemble", i)."""
    def make(i):
        return generate_subgraph(params, sched, k, substream(seed, "assemble", i))

    return _union_loop(make, params.n, target)


def assemble(params, sched, target_edges, k, seed):
    """Union generated subgraphs until >= target_edges; returns (Graph, acc).

    Overshoot is bounded by k*(k-1)/2 - 1 since the final subgraph is
    inserted whole.
    """
    if target_edges < 1:
        raise InvalidParameter("target_edges must be >= 1")
    acc = _pass(params, sched, target_edges, k, seed)
    return Graph(params.n, decode_pairs(acc.entry_codes, params.n)), acc


def snapshot_thresholds(fractions, total_edges):
    """(fractions as floats, edge_target of each against total_edges).

    fractions must be strictly increasing within (0, 1], total_edges >= 1.
    """
    fr = [float(f) for f in fractions]
    if not fr or any(not 0.0 < f <= 1.0 for f in fr) or any(
            b <= a for a, b in zip(fr, fr[1:])):
        raise InvalidParameter("fractions must be strictly increasing in (0, 1]")
    if total_edges < 1:
        raise InvalidParameter("total_edges must be >= 1")
    return fr, [edge_target(f, total_edges) for f in fr]


def progressive_assemble(params, sched, fractions, total_edges, k, seed):
    """Snapshots of the growing union at ceil(f * total_edges) for each f.

    fractions must be strictly increasing within (0, 1]. Returns
    [(fraction, Graph), ...] in order; the underlying run is a single
    assembly pass, so later snapshots are supersets of earlier ones.
    """
    fr, thresholds = snapshot_thresholds(fractions, total_edges)
    acc = _pass(params, sched, thresholds[-1], k, seed)
    return list(zip(fr, snapshot_graphs(acc.entry_codes, acc.union_sizes,
                                        thresholds, params.n)))
