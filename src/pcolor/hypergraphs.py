"""Hypergraphs, their incidence bipartite graphs, and derived multigraphs.

A hypergraph with 0/1 incidence matrix Y (vertices x hyperedges) yields:

* the bipartite incidence graph with biadjacency Y;
* the vertex multigraph with adjacency Y Y^T ("m12"); its diagonal holds
  one loop per incident hyperedge, or can be zeroed via keep_loops=False;
* the hyperedge (line) multigraph with adjacency Y^T Y - k I for a
  k-uniform hypergraph.

A vertex coloring of a hypergraph is perfect when same-colored vertices
are incident to identical counts of hyperedges of every color composition
(composition = vector of per-color member counts).  An l-fold transversal
is a vertex set meeting every hyperedge in exactly l vertices; its
indicator 2-coloring of the loop-keeping m12 of an r-regular k-uniform
hypergraph is equitable with quotient [[l r, (k-l) r], [l r, (k-l) r]].
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .multigraph import (Coloring, Multigraph, QuotientMatrix, Verdict, quotient_matrix,
                         verify_quotient)


class Hypergraph:
    """Vertex set {0..n-1} plus a list of hyperedges (sorted vertex tuples).

    Duplicate hyperedges are allowed and kept as distinct incidence
    columns; every hyperedge must be nonempty with distinct members.
    """

    def __init__(self, n, edges):
        self.n = int(n)
        if self.n < 1:
            raise ValueError("hypergraph needs at least one vertex")
        clean = []
        for e in edges:
            e = tuple(sorted(int(v) for v in e))
            if not e or len(set(e)) != len(e):
                raise ValueError("hyperedges must be nonempty with distinct members")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError("hyperedge vertex out of range")
            clean.append(e)
        self.edges = clean

    @property
    def num_edges(self):
        return len(self.edges)

    def incidence(self):
        """0/1 incidence matrix Y, vertices x hyperedges."""
        Y = np.zeros((self.n, len(self.edges)), dtype=np.int64)
        for j, e in enumerate(self.edges):
            Y[list(e), j] = 1
        return Y

    def uniform_size(self):
        """Common hyperedge size k, or None if not uniform (or edgeless)."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def regularity(self):
        """Common vertex degree r, or None if not regular."""
        members = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64)
        deg = np.bincount(members, minlength=self.n)
        return int(deg[0]) if (deg == deg[0]).all() else None

    def __repr__(self):
        return f"Hypergraph(n={self.n}, edges={len(self.edges)})"


class BipartiteGraph:
    """Two-part graph with nonnegative integer biadjacency Y (n1 x n2)."""

    def __init__(self, Y):
        Y = np.asarray(Y, dtype=np.int64)
        if Y.ndim != 2 or (Y < 0).any():
            raise ValueError("biadjacency must be a nonnegative integer matrix")
        self.Y = Y
        self.n1, self.n2 = Y.shape

    def adjacency(self):
        """Full (n1+n2) x (n1+n2) adjacency [[0, Y], [Y^T, 0]]."""
        M = np.zeros((self.n1 + self.n2, self.n1 + self.n2), dtype=np.int64)
        M[:self.n1, self.n1:] = self.Y
        M[self.n1:, :self.n1] = self.Y.T
        return M

    def as_multigraph(self):
        return Multigraph(self.adjacency())

    def __repr__(self):
        return f"BipartiteGraph({self.n1}x{self.n2})"


def incidence_bipartite(H):
    """Bipartite incidence graph: part 1 = vertices, part 2 = hyperedges."""
    return BipartiteGraph(H.incidence())


def m12(B, keep_loops=True):
    """Vertex multigraph of a bipartite graph: adjacency Y Y^T.

    The diagonal entry at v counts v's incident part-2 neighbors (as
    loops); keep_loops=False zeroes the diagonal.
    """
    adj = B.Y @ B.Y.T
    if not keep_loops:
        np.fill_diagonal(adj, 0)
    return Multigraph(adj)


def line_multigraph(H):
    """Hyperedge multigraph of a k-uniform hypergraph: Y^T Y - k I."""
    k = H.uniform_size()
    if k is None:
        raise ValueError("line multigraph requires a uniform hypergraph")
    Y = H.incidence()
    return Multigraph(Y.T @ Y - k * np.eye(len(H.edges), dtype=np.int64))


def _composition(edge, f):
    counts = [0] * f.num_colors
    for v in edge:
        counts[f.assignment[v]] += 1
    return tuple(counts)


def _vertex_tables(H, f):
    tables = [dict() for _ in range(H.n)]
    for e in H.edges:
        comp = _composition(e, f)
        for v in e:
            tables[v][comp] = tables[v].get(comp, 0) + 1
    return tables


def _table(counts):
    """A composition table as JSON-ready rows, in composition order."""
    return [{"composition": list(comp), "count": int(c)}
            for comp, c in sorted(counts.items())]


@dataclass
class PerfectHypergraphReport:
    """Per-color composition tables of a perfect hypergraph coloring."""

    tables: list                # tables[i]: dict composition -> count, for color i

    def __bool__(self):
        return True

    @property
    def evidence(self):
        return {"tables": [_table(t) for t in self.tables]}


@dataclass(frozen=True)
class NotPerfect:
    """Witness: two same-colored vertices with different composition tables."""

    color: int
    u: int
    v: int
    table_u: dict
    table_v: dict

    def __bool__(self):
        return False

    @property
    def evidence(self):
        return {"witness": {"color": self.color, "u": self.u, "v": self.v,
                            "table_u": _table(self.table_u), "table_v": _table(self.table_v)}}


def hypergraph_is_perfect(H, f):
    """Check hypergraph perfection; report tables or a witness pair.

    For each vertex color the map {hyperedge composition -> number of
    incident hyperedges} must be identical across the color class.
    """
    if f.n != H.n:
        raise ValueError("coloring length does not match vertex count")
    tables = _vertex_tables(H, f)
    color_tables = [None] * f.num_colors
    first = [None] * f.num_colors
    for v in range(H.n):
        i = int(f.assignment[v])
        if color_tables[i] is None:
            color_tables[i] = tables[v]
            first[i] = v
        elif tables[v] != color_tables[i]:
            return NotPerfect(i, first[i], v, color_tables[i], tables[v])
    return PerfectHypergraphReport(color_tables)


def induce_edge_coloring(H, f):
    """Color hyperedges by their color composition.

    Composition vectors are renumbered contiguously in lexicographic
    order, so the induced color ids are stable across runs.  A perfect
    vertex coloring induces a perfect coloring of line_multigraph(H).
    """
    if f.n != H.n:
        raise ValueError("coloring length does not match vertex count")
    if not H.edges:
        raise ValueError("hypergraph has no hyperedges to color")
    comps = [_composition(e, f) for e in H.edges]
    order = {comp: i for i, comp in enumerate(sorted(set(comps)))}
    return Coloring([order[c] for c in comps])


def restrict_bipartite_coloring(B, f):
    """Restrict a two-part equitable coloring to part 1.

    `f` colors all n1+n2 vertices of the bipartite graph (part-2 vertex j
    is index n1+j) and no color may span both parts.  Returns the part-1
    coloring (colors renumbered, preserving relative order) and the
    quotient S1 S2 it verifies on the loop-keeping m12.
    """
    G = B.as_multigraph()
    if f.n != G.n:
        raise ValueError("coloring length does not match vertex count")
    S = quotient_matrix(G, f)
    if not S:
        raise ValueError("coloring is not equitable on the bipartite graph")
    part1_colors = sorted(set(int(c) for c in f.assignment[:B.n1]))
    part2_colors = sorted(set(int(c) for c in f.assignment[B.n1:]))
    if set(part1_colors) & set(part2_colors):
        raise ValueError("colors may not be shared across the two parts")
    S1 = S.S[np.ix_(part1_colors, part2_colors)]
    S2 = S.S[np.ix_(part2_colors, part1_colors)]
    relabel = {c: i for i, c in enumerate(part1_colors)}
    restricted = Coloring([relabel[int(c)] for c in f.assignment[:B.n1]])
    product = QuotientMatrix(S1 @ S2)
    if not verify_quotient(m12(B, keep_loops=True), restricted, product):
        raise RuntimeError("restriction failed to verify S1*S2 on the vertex multigraph")
    return restricted, product


def check_transversal(H, A, l):
    """Whether every hyperedge meets A in exactly l vertices, with evidence.

    The witness is the first hyperedge, in edge order, meeting A in other
    than l vertices.
    """
    A = set(int(v) for v in A)
    if not A <= set(range(H.n)):
        raise ValueError("A must be a set of vertices")
    for e in H.edges:
        meets = sum(v in A for v in e)
        if meets != l:
            return Verdict(False, {"witness": {"edge": list(e), "meets": meets, "expected": l}})
    return Verdict(True, {"l": l, "set_size": len(A), "edges": len(H.edges)})


def verify_transversal(H, A, l):
    """True iff every hyperedge meets A in exactly l vertices."""
    return bool(check_transversal(H, A, l))


def transversal_quotient(k, r, l):
    """Quotient matrix of an l-fold transversal's indicator coloring.

    For a k-uniform r-regular hypergraph and 0 < l < k, the indicator
    2-coloring of the loop-keeping m12 has quotient
    [[l r, (k-l) r], [l r, (k-l) r]].
    """
    if not 0 < l < k:
        raise ValueError("l must satisfy 0 < l < k")
    if r < 1:
        raise ValueError("regularity must be positive")
    return QuotientMatrix([[l * r, (k - l) * r], [l * r, (k - l) * r]])
