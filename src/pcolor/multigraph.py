"""Multigraphs, vertex colorings, and the MF = FS equitability test.

Conventions used throughout the package:

* adjacency matrices are symmetric nonnegative integer matrices;
  adj[v][v] counts loops at v, and each loop adds exactly 1 to both
  adj[v][v] and degree(v) = sum_u adj[v][u];
* colors are 0-based and contiguous, and every color is used at least
  once (a coloring with c colors is a surjection onto {0, ..., c-1});
* a coloring is equitable (perfect) iff M F = F S for some c x c integer
  matrix S, where F is the n x c 0/1 color indicator matrix.  S is the
  quotient matrix: S[i][j] counts edges from any color-i vertex into
  color j, with multiplicity.

All checks here are exact integer arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _as_adj(matrix):
    adj = np.asarray(matrix, dtype=np.int64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if (adj < 0).any():
        raise ValueError("adjacency entries must be nonnegative")
    return adj


class DirectedMultigraph:
    """Directed multigraph given by a nonnegative integer adjacency matrix."""

    def __init__(self, adj):
        self.adj = _as_adj(adj)
        self.n = self.adj.shape[0]

    def degrees(self):
        """Out-degrees, loops counted once."""
        return self.adj.sum(axis=1)

    def is_regular(self):
        deg = self.degrees()
        return bool((deg == deg[0]).all())

    def degree(self):
        """Common degree of a regular graph."""
        deg = self.degrees()
        if not (deg == deg[0]).all():
            raise ValueError("graph is not regular")
        return int(deg[0])

    def __eq__(self, other):
        return isinstance(other, DirectedMultigraph) and np.array_equal(self.adj, other.adj)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class Multigraph(DirectedMultigraph):
    """Undirected multigraph; the adjacency matrix must be symmetric."""

    def __init__(self, adj):
        super().__init__(adj)
        if not np.array_equal(self.adj, self.adj.T):
            raise ValueError("adjacency matrix must be symmetric")

    def is_simple(self):
        return bool((self.adj <= 1).all() and (np.diag(self.adj) == 0).all())

    def without_loops(self):
        adj = self.adj.copy()
        np.fill_diagonal(adj, 0)
        return Multigraph(adj)

    def complement(self):
        """Simple-graph complement (requires a simple graph)."""
        if not self.is_simple():
            raise ValueError("complement is defined for simple graphs")
        adj = 1 - self.adj
        np.fill_diagonal(adj, 0)
        return Multigraph(adj)


class Coloring:
    """Surjective assignment of n vertices to colors 0..c-1."""

    def __init__(self, assignment):
        a = np.asarray(assignment, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("assignment must be a nonempty 1-d sequence")
        c = int(a.max()) + 1
        if a.min() < 0 or len(np.unique(a)) != c:
            raise ValueError("colors must be 0-based and contiguous, each used at least once")
        self.assignment = a
        self.n = a.size
        self.num_colors = c

    @classmethod
    def from_set(cls, n, members):
        """Indicator 2-coloring: color 0 on `members`, color 1 elsewhere.

        The distinguished set is always color 0.  Degenerate inputs (empty
        set or the full vertex set) give a monochromatic coloring.
        """
        members = set(int(v) for v in members)
        if not members <= set(range(n)):
            raise ValueError("members out of range")
        if not members or len(members) == n:
            return cls(np.zeros(n, dtype=np.int64))
        return cls([0 if v in members else 1 for v in range(n)])

    def indicator(self):
        """The n x c 0/1 matrix F with F[v][f(v)] = 1."""
        F = np.zeros((self.n, self.num_colors), dtype=np.int64)
        F[np.arange(self.n), self.assignment] = 1
        return F

    def color_class(self, i):
        return np.flatnonzero(self.assignment == i)

    def __eq__(self, other):
        return isinstance(other, Coloring) and np.array_equal(self.assignment, other.assignment)

    def __repr__(self):
        return f"Coloring({self.assignment.tolist()})"


class QuotientMatrix:
    """c x c nonnegative integer quotient matrix of an equitable coloring."""

    def __init__(self, S):
        S = np.asarray(S, dtype=np.int64)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("quotient matrix must be square")
        if (S < 0).any():
            raise ValueError("quotient entries must be nonnegative")
        self.S = S
        self.num_colors = S.shape[0]

    def row_sums(self):
        return self.S.sum(axis=1)

    def tolist(self):
        return self.S.tolist()

    def __eq__(self, other):
        if isinstance(other, QuotientMatrix):
            other = other.S
        try:
            other = np.asarray(other, dtype=np.int64)
        except (TypeError, ValueError):
            return NotImplemented
        return self.S.shape == other.shape and np.array_equal(self.S, other)

    def __bool__(self):
        return True

    def __repr__(self):
        return f"QuotientMatrix({self.S.tolist()})"


@dataclass(frozen=True)
class NotEquitable:
    """Witness that a coloring is not equitable.

    Vertices u and v share a color but see different per-color edge counts.
    """

    u: int
    v: int
    profile_u: tuple
    profile_v: tuple

    def __bool__(self):
        return False


def quotient_matrix(G, f):
    """Quotient matrix S with MF = FS, or a NotEquitable witness.

    Row v of MF counts edges from v into each color class with
    multiplicity; a loop at v contributes adj[v][v] to v's own color.
    """
    if f.n != G.n:
        raise ValueError("coloring length does not match vertex count")
    F = f.indicator()
    MF = G.adj @ F
    S = np.zeros((f.num_colors, f.num_colors), dtype=np.int64)
    for i in range(f.num_colors):
        members = f.color_class(i)
        rows = MF[members]
        mismatch = np.flatnonzero((rows != rows[0]).any(axis=1))
        if mismatch.size:
            v = members[mismatch[0]]
            return NotEquitable(int(members[0]), int(v),
                                tuple(rows[0].tolist()), tuple(MF[v].tolist()))
        S[i] = rows[0]
    return QuotientMatrix(S)


def is_perfect(G, f):
    """True iff the coloring is equitable (MF = FS has a solution S)."""
    return bool(quotient_matrix(G, f))


def verify_quotient(G, f, expected):
    """True iff MF = F * expected exactly, in integer arithmetic."""
    if f.n != G.n:
        raise ValueError("coloring length does not match vertex count")
    S = expected.S if isinstance(expected, QuotientMatrix) else np.asarray(expected, dtype=np.int64)
    if S.shape != (f.num_colors, f.num_colors):
        return False
    F = f.indicator()
    return bool(np.array_equal(G.adj @ F, F @ S))


def merge_colors(f, groups):
    """Coarsen a coloring by merging color groups.

    `groups` must partition {0..c-1}; merged colors are renumbered
    contiguously, ordered by the smallest original color in each group.
    """
    groups = [sorted(set(int(c) for c in g)) for g in groups]
    flat = sorted(c for g in groups for c in g)
    if flat != list(range(f.num_colors)):
        raise ValueError("groups must partition the color set")
    groups.sort(key=lambda g: g[0])
    relabel = np.zeros(f.num_colors, dtype=np.int64)
    for new, g in enumerate(groups):
        relabel[g] = new
    return Coloring(relabel[f.assignment])


def lift_quotient_eigenvector(f, u):
    """Lift a quotient-space vector to the vertex space: F u.

    If S u = theta u then M (F u) = theta (F u); Fractions are preserved.
    """
    u = list(u)
    if len(u) != f.num_colors:
        raise ValueError("vector length does not match color count")
    exact = any(isinstance(x, Fraction) for x in u) or all(isinstance(x, int) for x in u)
    if exact:
        return np.array([u[c] for c in f.assignment], dtype=object)
    return np.array([float(u[c]) for c in f.assignment])


def two_coloring_eigenfunction(G, f):
    """Eigenfunction carried by an equitable 2-coloring of a regular graph.

    With quotient [[r-b, b], [c, r-c]], returns (h, theta) where h is
    b/(b+c) on color 0 and -c/(b+c) on color 1, and M h = theta h with
    theta = r - b - c, all in exact rational arithmetic.
    """
    r = G.degree()
    if f.num_colors != 2:
        raise ValueError("a 2-coloring is required")
    S = quotient_matrix(G, f)
    if not S:
        raise ValueError("coloring is not equitable")
    b, c = int(S.S[0, 1]), int(S.S[1, 0])
    theta = r - b - c
    hi, lo = Fraction(b, b + c), Fraction(-c, b + c)
    h = np.array([hi if col == 0 else lo for col in f.assignment], dtype=object)
    return h, theta
