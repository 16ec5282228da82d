"""Regular-vine dependence models.

Structure selection follows the sequential tree-by-tree method: tree 1 is
a maximum spanning tree of the complete graph weighted by absolute
empirical Kendall's tau, and each deeper tree is an MST over the
proximity-respecting edges of the previous tree, with pseudo-observations
propagated through fitted h-functions.

The fitted model is stored as a lower-triangular structure matrix plus
aligned family/parameter matrices; log-density and inverse-Rosenblatt
sampling walk the matrix columns right-to-left with conditional-CDF
caches keyed by (variable, conditioning set), which doubles as a
structural consistency check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import bicop
from .bicop import ALL_FAMILIES, CopulaFamily, FittedBicop
from .errors import FitFailure

@dataclass(frozen=True)
class _Edge:
    """One pair-copula edge: conditioned pair (a, b) given conditioning set."""

    a: int
    b: int
    conditioning: frozenset[int]
    copula: FittedBicop

    @property
    def node_set(self) -> frozenset[int]:
        return self.conditioning | {self.a, self.b}


@dataclass(frozen=True)
class RVineSpec:
    """Fitted R-vine: structure matrix with per-edge families and parameters.

    All matrices are n x n, lower triangular, with 1-based variable
    indices in `structure`. Column j's diagonal entry d pairs with each
    entry below it; the cell in row i belongs to tree n - i (0-based
    rows), conditioned (d, structure[i][j]), conditioning
    {structure[i+1][j], ..., structure[n-1][j]}. Cell copulas are
    oriented with the diagonal variable as first argument.
    """

    dimension: int
    structure: np.ndarray
    copulas: dict[tuple[int, int], FittedBicop] = field(repr=False)

    def cell_edge(self, i: int, j: int) -> tuple[int, int, frozenset[int]]:
        d = int(self.structure[j, j])
        other = int(self.structure[i, j])
        cond = frozenset(int(x) for x in self.structure[i + 1 :, j])
        return d, other, cond

    def edges(self):
        """Yield (tree, conditioned pair, conditioning set, copula)."""
        n = self.dimension
        for j in range(n - 1):
            for i in range(j + 1, n):
                d, other, cond = self.cell_edge(i, j)
                yield n - i, (d, other), cond, self.copulas[(i, j)]


def check_proximity(spec: RVineSpec) -> bool:
    """Structural validity: tree sizes, diag permutation, proximity."""
    n = spec.dimension
    diag = [int(spec.structure[j, j]) for j in range(n)]
    if sorted(diag) != list(range(1, n + 1)):
        return False
    by_tree: dict[int, list[tuple[frozenset, frozenset]]] = {}
    for tree, (a, b), cond, _ in spec.edges():
        by_tree.setdefault(tree, []).append((frozenset({a, b}), cond))
    for t in range(1, n):
        if len(by_tree.get(t, [])) != n - t:
            return False
    # Proximity: every tree-(t+1) edge joins two tree-t node sets sharing
    # all but one variable, i.e. its halves are tree-t edges.
    tree_nodes = {1: {frozenset({v}) for v in range(1, n + 1)}}
    for t in range(1, n):
        edges_t = by_tree[t]
        node_sets = set()
        for pair, cond in edges_t:
            a, b = sorted(pair)
            half_a, half_b = cond | {a}, cond | {b}
            if t == 1:
                if cond:
                    return False
            else:
                if half_a not in tree_nodes[t] or half_b not in tree_nodes[t]:
                    return False
            node_sets.add(pair | cond)
        tree_nodes[t + 1] = node_sets
    return True


# ---------------------------------------------------------------------------
# Sequential selection and fitting
# ---------------------------------------------------------------------------


def _mst_max(num_nodes: int, taus: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """Maximum spanning tree by Prim's algorithm, weighted by |tau|.

    Nodes are 0..num_nodes-1; `taus` is keyed by sorted index pairs.
    Ties break on lexicographic edge index for determinism.
    """
    in_tree = {0}
    chosen: list[tuple[int, int]] = []
    while len(in_tree) < num_nodes:
        best: tuple[float, int, int] | None = None
        for (a, b), tau in sorted(taus.items()):
            if (a in in_tree) == (b in in_tree):
                continue
            if best is None or abs(tau) > best[0]:
                best = (abs(tau), a, b)
        if best is None:
            raise FitFailure("graph disconnected during MST")
        _, a, b = best
        chosen.append((a, b))
        in_tree.add(a)
        in_tree.add(b)
    return chosen


def _pair(node_a, node_b):
    """(var_a, var_b, conditioning set, u_a, u_b) of the edge joining two
    tree nodes (variable set, {conditioned var: pseudo-obs})."""
    (set_a, obs_a), (set_b, obs_b) = node_a, node_b
    cond = set_a & set_b
    (var_a,) = set_a - cond
    (var_b,) = set_b - cond
    return var_a, var_b, cond, obs_a[var_a], obs_b[var_b]


def _fit_edge(u_a, u_b, tau: float, candidates, m: int) -> FittedBicop:
    if abs(tau) < bicop.tau_independence_threshold(m):
        return FittedBicop(CopulaFamily.INDEPENDENCE, loglik=0.0, n_obs=m)
    cands = set(candidates) - {CopulaFamily.INDEPENDENCE}
    if not cands:
        cands = {CopulaFamily.INDEPENDENCE}
    return bicop.select_family(u_a, u_b, cands, tau)


def select_and_fit(u_panel: dict[str, np.ndarray] | np.ndarray,
                   candidates=ALL_FAMILIES,
                   column_order: list[str] | None = None) -> RVineSpec:
    """Select the R-vine structure and fit all pair copulas.

    `u_panel` is either an m x n array of uniforms or a mapping from
    column name to u-series. Variables are numbered 1..n in column order.
    """
    if isinstance(u_panel, dict):
        names = column_order or list(u_panel)
        data = np.column_stack([u_panel[k] for k in names])
    else:
        data = np.asarray(u_panel, dtype=float)
    m, n = data.shape
    if n < 2 or m < 8:
        raise FitFailure(f"need n >= 2 and m >= 8, got n={n} m={m}")

    # Tree 1 over variables 1..n. A pair's one tau is its MST weight and fit start.
    taus = {}
    for a in range(n):
        for b in range(a + 1, n):
            taus[(a, b)] = bicop.empirical_tau(data[:, a], data[:, b])
    mst = _mst_max(n, taus)

    all_edges: list[_Edge] = []
    # Per tree node: (node id -> (variable set, {conditioned var: pseudo-obs}))
    prev_nodes: list[tuple[frozenset[int], dict[int, np.ndarray]]] = [
        (frozenset({v + 1}), {v + 1: data[:, v]}) for v in range(n)
    ]
    prev_edges: list[tuple[int, int]] = [(a, b) for a, b in mst]

    for tree in range(1, n):
        new_nodes: list[tuple[frozenset[int], dict[int, np.ndarray]]] = []
        for a_idx, b_idx in prev_edges:
            var_a, var_b, cond, u_a, u_b = _pair(prev_nodes[a_idx], prev_nodes[b_idx])
            try:
                fitted = _fit_edge(u_a, u_b, taus[(a_idx, b_idx)], candidates, m)
            except FitFailure as exc:
                raise FitFailure(
                    f"edge ({var_a},{var_b}|{sorted(cond)}): {exc}"
                ) from exc
            all_edges.append(_Edge(var_a, var_b, frozenset(cond), fitted))
            # Pseudo-observations for the next tree.
            new_nodes.append((
                cond | {var_a, var_b},
                {
                    var_a: np.asarray(bicop.h_func(fitted, u_a, u_b)),
                    var_b: np.asarray(bicop.h_func_cond_first(fitted, u_a, u_b)),
                },
            ))
        if tree == n - 1:
            break
        # MST over proximity-allowed pairs of the new nodes.
        taus = {}
        for a_idx, node_a in enumerate(new_nodes):
            for b_idx in range(a_idx + 1, len(new_nodes)):
                # Proximity: the two node sets share all but one variable.
                if len(node_a[0] & new_nodes[b_idx][0]) == len(node_a[0]) - 1:
                    _, _, _, u_a, u_b = _pair(node_a, new_nodes[b_idx])
                    taus[(a_idx, b_idx)] = bicop.empirical_tau(u_a, u_b)
        prev_edges = _mst_max(len(new_nodes), taus)
        prev_nodes = new_nodes

    return _edges_to_spec(n, all_edges)


def _edges_to_spec(n: int, edges: list[_Edge]) -> RVineSpec:
    """Build the structure matrix from the fitted edge list."""
    by_tree: dict[int, list[_Edge]] = {}
    for e in edges:
        by_tree.setdefault(len(e.conditioning) + 1, []).append(e)

    lookup = {(frozenset({e.a, e.b}), e.conditioning): e for e in edges}
    # Child descent: for edge e and conditioned variable d, the tree-(t-1)
    # node containing d has node set = e.node_set minus the other
    # conditioned variable.
    structure = np.zeros((n, n), dtype=int)
    copulas: dict[tuple[int, int], FittedBicop] = {}
    used: set[tuple[frozenset, frozenset]] = set()

    for j in range(n - 1):
        top_tree = n - 1 - j
        remaining = [
            e for e in by_tree[top_tree]
            if (frozenset({e.a, e.b}), e.conditioning) not in used
        ]
        e = remaining[0]
        d, other = max(e.a, e.b), min(e.a, e.b)
        structure[j, j] = d
        structure[j + 1, j] = other
        used.add((frozenset({e.a, e.b}), e.conditioning))
        # Conditioning set fills the rest of the column, ordered by descent.
        node_set = e.node_set - {other}
        for row in range(j + 2, n):
            # The unique edge of the lower tree whose node set is node_set
            # and whose conditioned set contains d.
            tree = n - row
            child = None
            for cand in by_tree[tree]:
                if cand.node_set == node_set and d in (cand.a, cand.b):
                    child = cand
                    break
            if child is None:
                raise FitFailure("inconsistent vine edge list")
            partner = child.b if child.a == d else child.a
            structure[row, j] = partner
            used.add((frozenset({child.a, child.b}), child.conditioning))
            node_set = child.node_set - {partner}
    structure[n - 1, n - 1] = int(next(iter(
        set(range(1, n + 1)) - {int(structure[j, j]) for j in range(n - 1)}
    )))

    spec = RVineSpec(dimension=n, structure=structure, copulas=copulas)
    for j in range(n - 1):
        for i in range(j + 1, n):
            d, other, cond = spec.cell_edge(i, j)
            e = lookup.get((frozenset({d, other}), cond))
            if e is None:
                raise FitFailure("structure matrix does not match fitted edges")
            cop = e.copula if e.a == d else bicop.swap_args(e.copula)
            copulas[(i, j)] = cop
    return spec


# ---------------------------------------------------------------------------
# Density and sampling
# ---------------------------------------------------------------------------


def log_density(spec: RVineSpec, u) -> np.ndarray | float:
    """Log copula density at u (marginal densities excluded).

    Accepts a single n-vector or an (N, n) array of interior points.
    """
    arr = np.atleast_2d(np.asarray(u, dtype=float))
    arr = np.clip(arr, bicop.EPS, 1.0 - bicop.EPS)
    n = spec.dimension
    out = np.zeros(arr.shape[0])
    cache: dict[tuple[int, frozenset[int]], np.ndarray] = {
        (v, frozenset()): arr[:, v - 1] for v in range(1, n + 1)
    }
    # Columns right to left, so that every lookup is already cached.
    for j in range(n - 2, -1, -1):
        d = int(spec.structure[j, j])
        cur = cache[(d, frozenset())]
        for i in range(n - 1, j, -1):
            _, other, cond = spec.cell_edge(i, j)
            v = cache[(other, cond)]
            cop = spec.copulas[(i, j)]
            out += np.log(np.maximum(bicop.density(cop, cur, v), 1e-300))
            new_cond = cond | {other}
            cache[(d, new_cond)] = np.asarray(bicop.h_func(cop, cur, v))
            cache[(other, cond | {d})] = np.asarray(
                bicop.h_func_cond_first(cop, cur, v)
            )
            cur = cache[(d, new_cond)]
    return out if np.asarray(u).ndim > 1 else float(out[0])


def sample(spec: RVineSpec, N: int, seed: int) -> np.ndarray:
    """Draw N joint uniform rows by inverse-Rosenblatt transformation."""
    n = spec.dimension
    rng = np.random.default_rng(seed)
    w = rng.random((N, n))
    out = np.empty((N, n))
    cache: dict[tuple[int, frozenset[int]], np.ndarray] = {}
    for j in range(n - 1, -1, -1):  # right to left, as in `log_density`
        d = int(spec.structure[j, j])
        cur = w[:, d - 1]
        # Peel inverse h-functions from the deepest tree down to tree 1;
        # the intermediate values are exactly the conditional CDFs of d.
        levels = []
        for i in range(j + 1, n):
            _, other, cond = spec.cell_edge(i, j)
            v = cache[(other, cond)]
            cop = spec.copulas[(i, j)]
            levels.append((cop, other, cond, v, cur))
            cur = np.asarray(bicop.inv_h(cop, cur, v))
        out[:, d - 1] = cur
        cache[(d, frozenset())] = cur
        for idx, (cop, other, cond, v, before) in enumerate(levels):
            cache[(d, cond | {other})] = before
            f_d_cond = levels[idx + 1][4] if idx + 1 < len(levels) else cur
            cache[(other, cond | {d})] = np.asarray(
                bicop.h_func_cond_first(cop, f_d_cond, v)
            )
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


_EDGE_KEYS = ("families", "theta", "theta2", "loglik", "n_obs", "tau", "aic")


def to_json(spec: RVineSpec) -> str:
    """Structure and one n x n matrix per key of `_EDGE_KEYS`: family,
    parameters, log-likelihood, observation count, implied Kendall's tau
    and AIC of each edge. Cells without an edge hold "", 0.0 and nulls."""
    n = spec.dimension
    cells = [[("", 0.0) + (None,) * 5] * n for _ in range(n)]
    for (i, j), cop in spec.copulas.items():
        cells[i][j] = (cop.family.value, cop.theta, cop.theta2, cop.loglik,
                       cop.n_obs, bicop.model_tau(cop), cop.aic)
    doc = {"dimension": n, "structure": spec.structure.astype(int).ravel().tolist()}
    for k, key in enumerate(_EDGE_KEYS):
        doc[key] = [[cell[k] for cell in row] for row in cells]
    return json.dumps(doc, indent=2)


def from_json(text: str) -> RVineSpec:
    doc = json.loads(text)
    n = int(doc["dimension"])
    structure = np.asarray(doc["structure"], dtype=int).reshape(n, n)
    copulas: dict[tuple[int, int], FittedBicop] = {}
    for j in range(n - 1):
        for i in range(j + 1, n):
            fam = CopulaFamily(doc["families"][i][j])
            copulas[(i, j)] = FittedBicop(
                fam, float(doc["theta"][i][j]),
                None if doc["theta2"][i][j] is None else float(doc["theta2"][i][j]),
                loglik=float(doc["loglik"][i][j]), n_obs=int(doc["n_obs"][i][j]),
            )
    return RVineSpec(dimension=n, structure=structure, copulas=copulas)
