"""Abelian-group convolution, (partial) difference sets, strongly regular
graphs, and their hypergraph colorings.

A partial difference set with parameters (v,k,lambda,mu) is a k-subset D
of a group of order v such that every nonzero a in D arises exactly
lambda times as a difference d1 - d2 of members, and every nonzero a
outside D exactly mu times.  Equivalently (with unit delta, the 0/1
indicator of the identity):

    chi_D * chi_{-D} = lambda chi_D + mu (1 - chi_D) + (k - mu) delta

holds at every nonzero element; at the identity it additionally holds
whenever 0 is not in D or lambda = mu.  The pair-count definition is the
ground truth here and both checks are run and compared.

For D = -D with 0 not in D, the Cayley graph of D is strongly regular
with the same parameters, and the indicator of the edge set of any graph
G is a perfect 2-coloring of the triangle hypergraph exactly when G is
strongly regular.
"""

from dataclasses import dataclass

import numpy as np

from .designs import BlockDesign, verify_design
from .families import AbelianGroup, ksubsets, triangle_hypergraph
from .multigraph import Coloring


class GroupFunction:
    """Function on an abelian group, stored by canonical element order."""

    def __init__(self, group, values):
        values = np.asarray(values)
        if values.shape != (group.order,):
            raise ValueError("value array length must equal the group order")
        self.group = group
        self.values = values

    @classmethod
    def indicator(cls, group, members):
        values = np.zeros(group.order, dtype=np.int64)
        values[[group.index(e) for e in group.coerce(members)]] = 1
        return cls(group, values)

    @classmethod
    def unit_delta(cls, group):
        """0/1 indicator of the identity element."""
        return cls.indicator(group, [group.zero])

    def __call__(self, x):
        return self.values[self.group.index(x)]

    def __eq__(self, other):
        return (isinstance(other, GroupFunction) and self.group is other.group
                and np.array_equal(self.values, other.values))


def convolve(f, g):
    """Convolution f*g(y) = sum_x f(x) g(y - x); exact on integer input."""
    if f.group is not g.group and f.group.orders != g.group.orders:
        raise ValueError("functions must live on the same group")
    K = f.group
    out = np.zeros(K.order, dtype=np.result_type(f.values, g.values))
    for x in np.flatnonzero(f.values):
        out += f.values[x] * g.values[K.minus(x)]
    return GroupFunction(K, out.astype(f.values.dtype, copy=False))


@dataclass(frozen=True)
class PDSParams:
    v: int
    k: int
    lam: int
    mu: int


@dataclass(frozen=True)
class NotPDS:
    """Witness: two elements of the same class with different difference
    counts (or an empty/full degenerate class)."""

    reason: str
    a: tuple = None
    count_a: int = None
    b: tuple = None
    count_b: int = None

    def __bool__(self):
        return False


def _difference_counts(K, D):
    """counts[i]: the pairs (d1, d2) of D, given as element indices, with
    d1 - d2 = elements[i]."""
    return sum((np.bincount(K.minus(d)[D], minlength=K.order) for d in D),
               np.zeros(K.order, dtype=np.int64))


def pds_params_from_set(K, D):
    """Infer (v,k,lambda,mu) from difference counts, or return a witness.

    lambda must be constant over nonzero members of D, mu over nonzero
    non-members.  An empty comparison class makes the parameter 0.  The
    witness pair is the first mismatch, scanning D in its given order and
    non-members in element order.
    """
    D = np.array([K.index(e) for e in dict.fromkeys(K.coerce(D))], dtype=np.int64)
    counts = _difference_counts(K, D)
    zero = K.index(K.zero)
    outside = np.ones(K.order, dtype=bool)
    outside[D] = False
    outside[zero] = False
    params = []
    for where, cls in (("inside", D[D != zero]), ("outside", np.flatnonzero(outside))):
        c = counts[cls]
        bad = np.flatnonzero(c != c[:1])
        if len(bad):
            j = bad[0]
            return NotPDS(f"difference counts differ {where} D",
                          K.elements[cls[0]], int(c[0]), K.elements[cls[j]], int(c[j]))
        params.append(int(c[0]) if len(c) else 0)
    return PDSParams(v=K.order, k=len(D), lam=params[0], mu=params[1])


def verify_pds(K, D, params):
    """Check a partial difference set against given parameters.

    Runs both the pair-count definition and the convolution identity
    (with unit delta); the identity is checked at every nonzero element,
    and at the identity as well unless 0 is in D with lambda != mu, the
    one point where the two formulations legitimately diverge.  The two
    routes must agree on all compared points.
    """
    D = list(dict.fromkeys(K.coerce(D)))
    if params.v != K.order or params.k != len(D):
        return False
    direct = pds_params_from_set(K, D)
    direct_ok = bool(direct) and direct == params

    chi = GroupFunction.indicator(K, D)
    neg = np.zeros(K.order, dtype=np.int64)
    neg[[K.minus(K.index(d))[0] for d in D]] = 1        # -d = 0 - d
    conv = convolve(chi, GroupFunction(K, neg))
    delta = GroupFunction.unit_delta(K)
    rhs = (params.lam * chi.values + params.mu * (1 - chi.values)
           + (params.k - params.mu) * delta.values)
    skip_identity = K.zero in set(D) and params.lam != params.mu
    mask = np.ones(K.order, dtype=bool)
    if skip_identity:
        mask[K.index(K.zero)] = False
    conv_ok = bool((conv.values[mask] == rhs[mask]).all())

    if direct_ok != conv_ok:
        raise RuntimeError("pair-count and convolution checks disagree; "
                           "this is a bug, not a property of the input")
    return direct_ok


@dataclass(frozen=True)
class SRGParams:
    v: int
    k: int
    lam: int
    mu: int


@dataclass(frozen=True)
class NotSRG:
    reason: str
    witness: tuple = None

    def __bool__(self):
        return False


def _connected(adj):
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in np.flatnonzero(adj[v]):
            if int(u) not in seen:
                seen.add(int(u))
                frontier.append(int(u))
    return len(seen) == n


def verify_srg(G):
    """Strong-regularity parameters of a simple graph, or a witness.

    Follows the usual convention: the graph must be connected, regular,
    and neither complete nor edgeless; lambda counts common neighbors of
    adjacent pairs, mu of distinct non-adjacent pairs.
    """
    if not G.is_simple():
        raise ValueError("strong regularity is defined for simple graphs")
    n = G.n
    deg = G.degrees()
    if not (deg == deg[0]).all():
        i = int(np.flatnonzero(deg != deg[0])[0])
        return NotSRG("not regular", (0, i))
    k = int(deg[0])
    if k == 0:
        return NotSRG("edgeless graph (degenerate)")
    if k == n - 1:
        return NotSRG("complete graph (degenerate)")
    if not _connected(G.adj):
        return NotSRG("not connected")
    common = G.adj @ G.adj
    lam = mu = None
    for u in range(n):
        for v in range(u + 1, n):
            c = int(common[u, v])
            if G.adj[u, v]:
                if lam is None:
                    lam = c
                elif c != lam:
                    return NotSRG("common-neighbor count differs on adjacent pairs", (u, v))
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    return NotSRG("common-neighbor count differs on non-adjacent pairs", (u, v))
    return SRGParams(v=n, k=k, lam=lam, mu=mu)


def srg_gamma_coloring(G):
    """Indicator coloring of the triangle hypergraph's vertices by G.

    Vertex (i,j) of the triangle hypergraph on n points gets color 0 when
    ij is an edge of G, color 1 otherwise.  The coloring is perfect exactly
    when, for every pair of points, the counts (common neighbors, neighbors
    of exactly one, neighbors of neither) depend only on the pair's
    adjacency.  Every strongly regular graph qualifies, but so do a few
    irregular stragglers: the star K_{1,m}, its complement K_m plus an
    isolated point, and disjoint unions of equal complete graphs, none of
    which verify_srg accepts.  Complete and edgeless graphs degenerate to
    a monochromatic, trivially perfect coloring.
    """
    if not G.is_simple():
        raise ValueError("requires a simple graph")
    pairs = ksubsets(G.n, 2)
    members = [idx for idx, (i, j) in enumerate(pairs) if G.adj[i, j]]
    return Coloring.from_set(len(pairs), members)


def pds_delta_coloring(n, D):
    """Indicator coloring of the zero-sum-triple hypergraph's vertices.

    D is a set of nonzero GF(2)^n vectors, given as little-endian
    integers in 1..2^n-1; vertex i of the hypergraph is the vector i+1
    and gets color 0 iff i+1 is in D.  The coloring is perfect exactly
    when D is a partial difference set.
    """
    D = set(int(x) for x in D)
    if not D <= set(range(1, 1 << n)):
        raise ValueError("D must consist of nonzero n-bit vectors")
    return Coloring.from_set((1 << n) - 1, [x - 1 for x in D])


def difference_set_to_symmetric_design(K, D):
    """Symmetric 2-(v,k,lambda) design whose blocks are the translates of D.

    D must be a (v,k,lambda) difference set (lambda = mu); block x is
    {y : x - y in D} = {x - d : d in D}, one per group element.
    """
    D = list(dict.fromkeys(K.coerce(D)))
    params = pds_params_from_set(K, D)
    if not params or params.lam != params.mu:
        raise ValueError("D is not a difference set (constant difference counts "
                         "with lambda = mu required)")
    blocks = np.array([K.minus(K.index(d)) for d in D]).reshape(len(D), K.order).T
    design = BlockDesign(n=K.order, k=len(D), t=2, lam=params.lam, blocks=blocks)
    if not verify_design(design):
        raise RuntimeError("translate blocks failed design verification; "
                           "this is a bug, not a property of the input")
    return design


@dataclass
class CayleySRGReport:
    """Both sides of the Cayley bridge: graph strong regularity and set
    difference counts, plus whether they tell the same story."""

    srg: object                 # SRGParams or NotSRG
    pds: object                 # PDSParams or NotPDS
    consistent: bool
    degenerate: bool            # complete/edgeless/disconnected Cayley graph

    def __bool__(self):
        return bool(self.srg) and bool(self.pds) and self.consistent


def cayley_srg_bridge(K, D):
    """Cross-check strong regularity of the Cayley graph of D against the
    difference counts of D (requires D = -D, 0 not in D).

    For non-degenerate graphs both sides must succeed with equal
    parameters or both must fail; degenerate graphs (complete, edgeless,
    disconnected) are flagged since the graph-side convention rejects
    them regardless of difference counts.
    """
    from .families import cayley
    G = cayley(K, D)
    srg = verify_srg(G)
    pds = pds_params_from_set(K, D)
    degenerate = (not srg) and srg.reason in ("edgeless graph (degenerate)",
                                              "complete graph (degenerate)",
                                              "not connected")
    if srg and pds:
        consistent = (srg.v, srg.k, srg.lam, srg.mu) == (pds.v, pds.k, pds.lam, pds.mu)
    elif degenerate:
        consistent = True       # graph-side convention, not a mismatch
    else:
        consistent = bool(srg) == bool(pds)
    return CayleySRGReport(srg=srg, pds=pds, consistent=consistent, degenerate=degenerate)
