"""Spectra and the ratio-type bound for sparse vertex sets.

For an r-regular multigraph with least eigenvalue theta, any vertex set A
in which every member has at most t neighbors inside A (with multiplicity,
loops included) satisfies

    |A| <= (t - theta) |V| / (r - theta),

and a set attaining the bound makes its indicator 2-coloring equitable
with quotient [[t, r-t], [t-theta, r-t+theta]].

Eigenvalues come from numpy's symmetric solver; values within 1e-6 of an
integer are snapped, and the bound is computed as an exact rational
whenever theta snapped (every graph family in this package has an integer
spectrum).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multigraph import Coloring, QuotientMatrix, verify_quotient

SNAP_TOL = 1e-6


class Spectrum:
    """Eigenvalues of a symmetric adjacency matrix, ascending, with
    integer-snap annotations."""

    def __init__(self, values):
        self.values = np.sort(np.asarray(values, dtype=float))
        self.snapped = [int(round(v)) if abs(v - round(v)) <= SNAP_TOL else None
                        for v in self.values]

    def min(self):
        v = self.values[0]
        s = self.snapped[0]
        return s if s is not None else float(v)

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"Spectrum({np.round(self.values, 6).tolist()})"


def spectrum(G):
    """Spectrum of the adjacency matrix (loops on the diagonal)."""
    if G.n < 1:
        raise ValueError("empty graph")
    return Spectrum(np.linalg.eigvalsh(G.adj.astype(float)))


def min_eigenvalue(G):
    """Least adjacency eigenvalue (snapped to int when within 1e-6)."""
    return spectrum(G).min()


def _ratio_bound(n, r, t, theta):
    if isinstance(theta, int):
        if r == theta:
            raise ValueError("degenerate spectrum: r equals the least eigenvalue")
        return Fraction((t - theta) * n, r - theta)
    return (t - theta) * n / (r - theta)


def dh_bound(G, t):
    """Upper bound (t - theta) n / (r - theta) on sets of inner degree <= t.

    Exact (a Fraction) when the least eigenvalue snaps to an integer,
    floating point otherwise.  Requires a regular graph and t < r.
    """
    r = G.degree()
    if t < 0 or t >= r:
        raise ValueError("t must satisfy 0 <= t < r")
    return _ratio_bound(G.n, r, t, min_eigenvalue(G))


class OverFullVertex(ValueError):
    """A member of A with more than t neighbors inside A."""

    def __init__(self, vertex, inner_degree, t):
        super().__init__(f"vertex {vertex} has {inner_degree} neighbors in A, more than t={t}")
        self.vertex = vertex
        self.inner_degree = inner_degree
        self.t = t

    @property
    def evidence(self):
        return {"witness": {"vertex": self.vertex, "inner_degree": self.inner_degree,
                            "max_allowed": self.t}}


@dataclass
class DHReport:
    """Result of checking a vertex set against the ratio bound."""

    r: int
    theta_min: object           # int when snapped, else float
    t: int
    bound: object               # Fraction when theta snapped, else float
    set_size: int
    extremal: bool
    quotient_if_extremal: QuotientMatrix = None

    def __bool__(self):
        return self.extremal

    @property
    def evidence(self):
        """The report as a dict (`bound` stays exact); an extremal set adds its quotient."""
        fields = {"r": self.r, "theta_min": self.theta_min, "t": self.t, "bound": self.bound,
                  "bound_float": float(self.bound), "set_size": self.set_size,
                  "extremal": self.extremal}
        if self.extremal:
            fields["quotient"] = self.quotient_if_extremal.tolist()
        return fields


def check_dh_extremal(G, A, t):
    """Check a sparse set against the ratio bound; verify the quotient if tight.

    Every vertex of A must have at most t neighbors inside A, counted with
    multiplicity and including loops at members of A; otherwise
    OverFullVertex (a ValueError) names the smallest member over the cap.
    When |A| matches the bound (exactly if theta snapped, else within 1e-6)
    the indicator coloring with color 0 = A is verified against
    [[t, r-t], [t-theta, r-t+theta]].
    """
    r = G.degree()
    if t < 0 or t >= r:
        raise ValueError("t must satisfy 0 <= t < r")
    A = sorted(set(int(v) for v in A))
    if not A or A[0] < 0 or A[-1] >= G.n:
        raise ValueError("A must be a nonempty set of vertices")
    inner = G.adj[np.ix_(A, A)].sum(axis=1)
    bad = np.flatnonzero(inner > t)
    if bad.size:
        raise OverFullVertex(A[bad[0]], int(inner[bad[0]]), t)
    theta = min_eigenvalue(G)
    bound = _ratio_bound(G.n, r, t, theta)
    size = len(A)
    extremal = (size == bound) if isinstance(bound, Fraction) else abs(size - bound) <= 1e-6
    quotient = None
    if extremal:
        if not isinstance(theta, int):
            raise ValueError("bound attained but least eigenvalue is not integral; "
                             "no integer quotient matrix exists")
        quotient = QuotientMatrix([[t, r - t], [t - theta, r - t + theta]])
        f = Coloring.from_set(G.n, A)
        if f.num_colors != 2 or not verify_quotient(G, f, quotient):
            raise RuntimeError("set attains the bound but the indicator coloring "
                               "does not verify the extremal quotient")
    return DHReport(r=r, theta_min=theta, t=t, bound=bound,
                    set_size=size, extremal=extremal, quotient_if_extremal=quotient)


def delsarte_clique_bound(G):
    """Clique-size bound 1 - r/theta for a regular graph.

    Computed unconditionally from the degree and the least eigenvalue;
    meaningful as a clique bound only for suitably symmetric graphs, which
    this function does not attempt to recognize.  Errors when the least
    eigenvalue is nonnegative (e.g. loop-only graphs).
    """
    r = G.degree()
    theta = min_eigenvalue(G)
    if theta >= 0:
        raise ValueError("clique bound undefined: least eigenvalue is nonnegative")
    if isinstance(theta, int):
        return 1 - Fraction(r, theta)
    return 1 - r / theta
