"""Block designs, subspace designs, their quotient matrices, and Hadamard
matrices.

A t-(n,k,lambda) design is a collection of k-subsets (blocks) of an
n-set covering every t-subset exactly lambda times; equivalently its
block set is a lambda-fold transversal of the hypergraph whose
hyperedges group the k-subsets containing a fixed t-subset.  Stripping
loops from that transversal quotient gives, with R = C(k,t) and
K = C(n-t,k-t), the matrix

    [[(lambda-1) R, (K-lambda) R], [lambda R, (K-1-lambda) R]]

which the indicator coloring of a true design verifies on the multigraph
whose edge multiplicities are C(|u & v|, t) ("actual" form below).  A
widely quoted closed form replaces K-1 by C(n-k,k-t); it agrees only at
t = k-1 (and disagrees for the subspace analog even there), so both
variants are exposed together with a comparison report rather than
silently picking one.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .families import (Subspace, _binom, _design_multigraph, _objects,
                       containment, enumerate_subspaces, gaussian_binomial,
                       point_incidence)
from .multigraph import Coloring, QuotientMatrix, Verdict
from .spectral import check_dh_extremal


@dataclass
class BlockDesign:
    """Candidate t-(n,k,lambda) design; validity via verify_design."""

    n: int
    k: int
    t: int
    lam: int
    blocks: list

    def __post_init__(self):
        self.blocks = [tuple(sorted(int(v) for v in b)) for b in self.blocks]
        for b in self.blocks:
            if len(b) != self.k or len(set(b)) != self.k:
                raise ValueError("every block must have k distinct members")
            if not b:
                raise ValueError("blocks must be nonempty")
            if b[0] < 0 or b[-1] >= self.n:
                raise ValueError("block member out of range")


@dataclass
class SubspaceDesign:
    """Candidate t-(n,k,lambda)_q subspace design."""

    n: int
    k: int
    t: int
    lam: int
    q: int
    subspaces: list

    def __post_init__(self):
        for s in self.subspaces:
            if not isinstance(s, Subspace) or s.k != self.k or s.n != self.n or s.q != self.q:
                raise ValueError("members must be k-subspaces of the same ambient space")


def check_design(D):
    """Whether every t-subset lies in exactly lambda blocks, with evidence.

    The witness is the lexicographically first t-subset covered by the
    wrong number of blocks.

    A bitmask loop, not a containment product: at 2-(255,127,63) that needs
    a 32,385 x 255 incidence and 2.1 G int64 multiply-adds, which numpy runs
    without BLAS at about 0.55 G/s on a 2-CPU x86 machine (4 s vs 1 s).
    """
    masks = [sum(1 << v for v in b) for b in D.blocks]
    for T in itertools.combinations(range(D.n), D.t):
        tmask = sum(1 << v for v in T)
        count = sum((m & tmask) == tmask for m in masks)
        if count != D.lam:
            return Verdict(False, {"witness": {"t_subset": list(T), "count": count,
                                               "expected": D.lam}})
    return Verdict(True, {"parameters": [D.t, D.n, D.k, D.lam], "blocks": len(D.blocks)})


def verify_design(D):
    """True iff every t-subset lies in exactly lambda blocks."""
    return bool(check_design(D))


def check_subspace_design(D):
    """Whether every t-subspace lies in exactly lambda members, with evidence.

    The witness is the first t-subspace, in canonical enumeration order,
    covered by the wrong number of members, given by its RREF basis.
    """
    tspaces = enumerate_subspaces(D.n, D.t, D.q)
    counts = containment(point_incidence(tspaces, D.n, D.q),
                         point_incidence(D.subspaces, D.n, D.q),
                         gaussian_binomial(D.t, 1, D.q)).sum(axis=1)
    bad = np.flatnonzero(counts != D.lam)
    if bad.size:
        return Verdict(False, {"witness": {"t_subspace": tspaces[bad[0]].basis.tolist(),
                                           "count": int(counts[bad[0]]), "expected": D.lam}})
    return Verdict(True, {"parameters": [D.t, D.n, D.k, D.lam], "q": D.q,
                          "subspaces": len(D.subspaces)})


def verify_subspace_design(D):
    """True iff every t-subspace lies in exactly lambda member subspaces."""
    return bool(check_subspace_design(D))


@dataclass
class QuotientComparison:
    """Side-by-side of the derived and the quoted quotient formulas."""

    actual: QuotientMatrix
    reference: QuotientMatrix
    agree: bool


def design_quotient_report(n, k, t, lam, q=None):
    """Derived and quoted quotient of a t-(n,k,lambda) design's indicator.

    One body for block designs (q None, binomials) and subspace designs
    (prime q, Gaussian binomials).  `actual` is the quotient a true design
    verifies, with R = [k t] and K = [n-t k-t], on
    johnson_design_multigraph(n,k,t) or on the loopless m12 of the
    k-subspace hypergraph grouped by t-subspaces; the degenerate
    lambda = K (all blocks) gives the 1x1 monochromatic case.  `reference`
    is the commonly quoted closed form, with [n-k k-t] in place of K-1,
    kept verbatim: it agrees only for block designs at t = k-1.
    """
    if not 0 < t < k < n:
        raise ValueError("requires 0 < t < k < n")
    R, K, C = _binom(k, t, q), _binom(n - t, k - t, q), _binom(n - k, k - t, q)
    if not 0 < lam <= K:
        raise ValueError("lambda must satisfy 0 < lambda <= max block count per t-set")
    # The complement color class is empty when every k-object is a block.
    actual = QuotientMatrix([[(lam - 1) * R]] if lam == K else
                            [[(lam - 1) * R, (K - lam) * R], [lam * R, (K - 1 - lam) * R]])
    reference = QuotientMatrix([[(lam - 1) * R]] if lam == C + 1 else
                               [[(lam - 1) * R, (C - lam + 1) * R], [lam * R, (C - lam) * R]])
    return QuotientComparison(actual, reference, actual == reference)


def _indicator(D, members, q, G, empty, mismatch):
    """Color 0 on members among all k-objects of D's space, in their order."""
    if not members:
        raise ValueError(empty)
    verts = _objects(D.n, D.k, q)
    if G is not None and G.n != len(verts):
        raise ValueError(mismatch)
    index = {u: i for i, u in enumerate(verts)}
    return Coloring.from_set(len(verts), [index[u] for u in members])


def design_to_coloring(D, G=None):
    """Indicator coloring of the k-subset vertices: color 0 on blocks.

    The vertex order is the lexicographic k-subset order; pass G (the
    Johnson-type multigraph) only to cross-check the vertex count.
    A design containing every k-subset colors everything 0 (monochromatic);
    an empty design is an error.
    """
    return _indicator(D, D.blocks, None, G, "design has no blocks",
                      "graph vertex count does not match C(n,k)")


def subspace_design_to_coloring(D, G=None):
    """Indicator coloring of the k-subspace vertices: color 0 on members."""
    return _indicator(D, D.subspaces, D.q, G, "design has no subspaces",
                      "graph vertex count does not match the subspace count")


def steiner_independence_check(D):
    """Ratio-bound report for a lambda = 1 design's block set.

    Blocks of a Steiner-type design pairwise share fewer than t points
    (subspaces: dimension < t), so they form an independent set in the
    multigraph joining two k-objects once per common t-object; a true
    design attains the ratio bound with t = 0 there.
    """
    if D.lam != 1:
        raise ValueError("independence check applies to lambda = 1 designs")
    q, to_coloring = ((D.q, subspace_design_to_coloring) if isinstance(D, SubspaceDesign)
                      else (None, design_to_coloring))
    G = _design_multigraph(D.n, D.k, D.t, q)
    return check_dh_extremal(G, np.flatnonzero(to_coloring(D).assignment == 0), t=0)


# ------------------------------------------------------------- Hadamard

class HadamardMatrix:
    """Square +-1 matrix; verify_hadamard checks H H^T = n I."""

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=np.int64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if not np.isin(mat, (-1, 1)).all():
            raise ValueError("entries must be +1 or -1")
        self.mat = mat
        self.order = mat.shape[0]

    def __repr__(self):
        return f"HadamardMatrix(order={self.order})"


def check_hadamard(H):
    """Whether H H^T = n I, with evidence (exact integer arithmetic).

    The witness is the first entry of H H^T, in row-major order, that
    differs from n I.
    """
    n = H.order
    gram = H.mat @ H.mat.T
    bad = np.argwhere(gram != n * np.eye(n, dtype=np.int64))
    if not bad.size:
        return Verdict(True, {"order": n})
    i, j = (int(x) for x in bad[0])
    return Verdict(False, {"witness": {"rows": [i, j], "dot": int(gram[i, j]),
                                       "expected": n if i == j else 0}})


def verify_hadamard(H):
    """True iff H H^T = n I (exact integer arithmetic)."""
    return bool(check_hadamard(H))


def sylvester(order):
    """Tensor-power +-1 matrix of 2-power order."""
    if order < 1 or order & (order - 1):
        raise ValueError("order must be a power of 2")
    H = np.array([[1]], dtype=np.int64)
    while H.shape[0] < order:
        H = np.block([[H, H], [H, -H]])
    return HadamardMatrix(H)


def paley_hadamard(p):
    """Order p+1 matrix from quadratic residues of a prime p = 3 (mod 4)."""
    if p % 4 != 3:
        raise ValueError("prime must be congruent to 3 mod 4")
    squares = {(x * x) % p for x in range(1, p)}
    chi = np.array([0] + [1 if x in squares else -1 for x in range(1, p)], dtype=np.int64)
    Q = np.array([[chi[(j - i) % p] for j in range(p)] for i in range(p)], dtype=np.int64)
    S = np.zeros((p + 1, p + 1), dtype=np.int64)
    S[0, 1:] = 1
    S[1:, 0] = -1
    S[1:, 1:] = Q
    H = HadamardMatrix(S + np.eye(p + 1, dtype=np.int64))
    if not verify_hadamard(H):
        raise ValueError(f"{p} did not yield a valid matrix (is it prime?)")
    return H


def hadamard_to_design(H):
    """2-(4m+3, 2m+1, m) design from a Hadamard matrix of order 4m+4.

    Normalizes the first row and column to +1 (rows negated before
    columns), deletes them, and reads the rows of the remaining core as
    block indicators (+1 membership).  Order 4 (m = 0) is rejected as
    degenerate.
    """
    if not verify_hadamard(H):
        raise ValueError("matrix is not Hadamard")
    if H.order % 4 != 0:
        raise ValueError("order must be divisible by 4")
    if H.order == 4:
        raise ValueError("order 4 gives the degenerate m = 0 design")
    mat = H.mat * H.mat[:, :1]
    mat *= mat[:1]
    m = (H.order - 4) // 4
    blocks = [tuple(np.flatnonzero(row == 1)) for row in mat[1:, 1:]]
    return BlockDesign(n=H.order - 1, k=2 * m + 1, t=2, lam=m, blocks=blocks)


def fano():
    """The 2-(7,3,1) design on points 0..6."""
    return BlockDesign(7, 3, 2, 1, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                                    (1, 4, 6), (2, 3, 6), (2, 4, 5)])
