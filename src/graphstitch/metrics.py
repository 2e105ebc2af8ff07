"""Structural statistics for comparing a synthetic graph to the original.

Counts (triangles, squares) are exact integers; real-valued summaries
(clustering, assortativity, power-law exponent, characteristic path
length) follow the standard estimators. Degenerate inputs yield NaN plus
a flag in the report instead of raising, so comparison tables always
render.
"""

import math
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that compute with it (see graphs)
from .errors import DegenerateDegrees
from .graphs import graph_summary, induced_subgraph, largest_connected_component

REPORT_COLUMNS = ("num_nodes", "num_edges", "triangles", "squares", "max_degree",
                  "clustering", "assortativity", "power_law_exp", "cpl")


@dataclass
class StatsReport:
    num_nodes: int  # non-isolated nodes
    num_edges: int
    triangles: int
    squares: int
    max_degree: int
    clustering: float
    assortativity: float
    power_law_exp: float
    cpl: float
    flags: tuple = ()

    def to_dict(self):
        out = {}
        for name in REPORT_COLUMNS:
            val = getattr(self, name)
            if isinstance(val, float) and math.isnan(val):
                val = None
            out[name] = val
        out["flags"] = list(self.flags)
        return out

    def values(self):
        return [getattr(self, name) for name in REPORT_COLUMNS]


def _per_node_triangles(g):
    """t[v] = number of triangles containing v: row sums of A * (A @ A),
    which count each triangle at v once per incident edge, so twice."""
    A = g.to_csr()
    return np.asarray(A.multiply(A @ A).sum(axis=1)).ravel() // 2


def count_triangles(g):
    """Number of triangles."""
    total = int(_per_node_triangles(g).sum())
    if total % 3:
        raise RuntimeError(f"per-node triangle counts sum to {total}, not a multiple of 3")
    return total // 3


def count_squares(g):
    """Number of 4-cycles: half the sum over u<v of C(codegree(u,v), 2)."""
    if g.n < 4 or g.num_edges < 4:
        return 0
    import scipy.sparse as sp
    A = g.to_csr()
    codeg = sp.triu(A @ A, k=1).tocoo().data
    paired = int((codeg * (codeg - 1) // 2).sum())
    if paired % 2:
        raise RuntimeError(f"codegree pair count {paired} is odd; each 4-cycle counts twice")
    return paired // 2


def degree_stats(g):
    """(max_degree, mean local clustering, degree assortativity).

    Clustering averages over non-isolated nodes, degree < 2 contributing 0;
    NaN when every node is isolated. Assortativity is the Pearson
    correlation of endpoint degrees over both edge orientations; NaN when
    either marginal has zero variance (e.g. regular graphs) or m = 0.
    """
    deg = g.degrees
    max_degree = int(deg.max()) if g.n else 0

    active = deg > 0
    if active.any():
        tri = _per_node_triangles(g)
        possible = deg * (deg - 1) / 2.0
        local = np.zeros(g.n)
        two_plus = deg >= 2
        local[two_plus] = tri[two_plus] / possible[two_plus]
        clustering = float(local[active].mean())
    else:
        clustering = float("nan")

    if g.num_edges == 0:
        return max_degree, clustering, float("nan")
    du = deg[g.edge_array[:, 0]].astype(np.float64)
    dv = deg[g.edge_array[:, 1]].astype(np.float64)
    x = np.concatenate([du, dv])
    y = np.concatenate([dv, du])
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return max_degree, clustering, float("nan")
    assortativity = float((xc * yc).sum() / denom)
    return max_degree, clustering, assortativity


def power_law_exponent(g, d_min=1):
    """MLE exponent 1 + m / sum(ln(d_i / (d_min - 1/2))) over degrees >= d_min."""
    deg = g.degrees
    deg = deg[deg >= d_min]
    if deg.size < 2:
        raise DegenerateDegrees("need at least 2 nodes with degree >= d_min")
    s = float(np.log(deg / (d_min - 0.5)).sum())
    if s <= 0.0:
        raise DegenerateDegrees("log-sum of degree ratios is not positive")
    return 1.0 + deg.size / s


def characteristic_path_length(g):
    """Mean shortest-path distance over ordered pairs of the largest
    connected component. NaN if the graph has no edges."""
    from scipy.sparse import csgraph
    if g.num_edges == 0:
        return float("nan")
    comp = largest_connected_component(g)
    sub, _ = induced_subgraph(g, comp)
    dist = csgraph.shortest_path(sub.to_csr(), directed=False, unweighted=True)
    nc = sub.n
    # distances within a component are finite; diagonal contributes zeros
    return float(dist.sum() / (nc * (nc - 1)))


def stats_report(g):
    nodes, edges = graph_summary(g)
    max_degree, clustering, assort = degree_stats(g)
    flags = []
    if math.isnan(clustering):
        flags.append("clustering_degenerate")
    if math.isnan(assort):
        flags.append("assortativity_degenerate")
    try:
        plaw = power_law_exponent(g)
    except DegenerateDegrees:
        plaw = float("nan")
        flags.append("power_law_degenerate")
    cpl = characteristic_path_length(g)
    if math.isnan(cpl):
        flags.append("cpl_degenerate")
    return StatsReport(nodes, edges, count_triangles(g), count_squares(g),
                       max_degree, clustering, assort, plaw, cpl, tuple(flags))


def _fmt(val):
    if isinstance(val, float):
        return "nan" if math.isnan(val) else f"{val:.5f}"
    return str(val)


def report_csv(lead_columns, rows):
    """CSV text of (lead values, StatsReport) rows under lead_columns plus
    REPORT_COLUMNS; lead values are written with str()."""
    lines = [",".join([*lead_columns, *REPORT_COLUMNS])]
    for lead, rep in rows:
        lines.append(",".join([*map(str, lead), *map(_fmt, rep.values())]))
    return "\n".join(lines) + "\n"


def comparison_csv(reports):
    """CSV text from an ordered {label: StatsReport} mapping."""
    return report_csv(["label"], (((label,), rep) for label, rep in reports.items()))


def comparison_text(reports):
    """Aligned table for terminal output."""
    headers = ["label"] + list(REPORT_COLUMNS)
    rows = [[label] + [_fmt(v) for v in rep.values()]
            for label, rep in reports.items()]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return "\n".join([line(headers)] + [line(r) for r in rows]) + "\n"
