"""Bent Boolean functions and their subspace colorings.

A Boolean function b on n variables (truth table indexed little-endian:
bit j of the index is coordinate j) is bent when the autoconvolution of
its +-1 sign function equals 2^n at zero and vanishes elsewhere;
equivalently every Walsh coefficient squares to 2^n.  Both criteria are
checked in exact integer arithmetic and must agree.

A bent function with b(0) = 1 and |supp(b)| = 2^{n-1} + 2^{n/2-1} (the
"heavy" branch; the other branch is its complement) colors each
2-dimensional subspace of GF(2)^n by its number of ones minus one, and
this 4-coloring of the Grassmann graph of 2-subspaces is equitable with
the fixed matrix theorem_avg_matrix(n).  The reverse direction rebuilds
b from the color-3 subspaces.  Merging colors {0,2} and {1,3} gives an
equitable 2-coloring with merged_two_coloring_matrix(n).
"""

import itertools

import numpy as np

from .difference_sets import PDSParams, verify_pds
from .families import (AbelianGroup, enumerate_subspaces, grassmann,
                       int_to_vec, vec_to_int)
from .multigraph import Coloring, QuotientMatrix, Verdict, verify_quotient


class BooleanFunction:
    """Truth table over {0,1}^n, little-endian indexed."""

    def __init__(self, tt):
        tt = np.asarray(tt, dtype=np.int64)
        if tt.ndim != 1 or tt.size == 0 or tt.size & (tt.size - 1):
            raise ValueError("truth table length must be a power of 2")
        if not np.isin(tt, (0, 1)).all():
            raise ValueError("truth table entries must be 0 or 1")
        self.tt = tt
        self.n = tt.size.bit_length() - 1

    @classmethod
    def from_string(cls, s):
        """Truth table from a '0'/'1' string, index 0 first."""
        return cls([int(ch) for ch in s])

    def __call__(self, x):
        return int(self.tt[x])

    def weight(self):
        return int(self.tt.sum())

    def support(self):
        """Inputs mapped to 1, as little-endian integers."""
        return [int(x) for x in np.flatnonzero(self.tt)]

    def sign(self):
        """The +-1 function (-1)^b as an integer array."""
        return 1 - 2 * self.tt

    def complement(self):
        return BooleanFunction(1 - self.tt)

    def __eq__(self, other):
        return isinstance(other, BooleanFunction) and np.array_equal(self.tt, other.tt)

    def __repr__(self):
        return f"BooleanFunction({''.join(map(str, self.tt.tolist()))})"


def walsh_rows(signs):
    """Walsh coefficients of every row of a (tables, 2^n) stack of +-1
    signs: W[r, u] = sum_x signs[r, x] (-1)^{<u,x>}, by n butterfly steps."""
    W = np.asarray(signs, dtype=np.int64)
    rows, size = W.shape
    half = 1
    while half < size:
        # Axis 2 splits each block of 2*half into its low and high half.
        W = W.reshape(rows, -1, 2, half)
        lo, hi = W[:, :, 0], W[:, :, 1]
        W = np.stack((lo + hi, lo - hi), axis=2)
        half *= 2
    return W.reshape(rows, size)


def autoconvolution_rows(signs):
    """Sign autoconvolution of every row of a (tables, 2^n) stack:
    c[r, y] = sum_x signs[r, x] signs[r, x + y], one pass per shift y."""
    signs = np.asarray(signs, dtype=np.int64)
    x = np.arange(signs.shape[1])
    return np.stack([(signs * signs[:, x ^ y]).sum(axis=1) for y in x], axis=1)


def bent_rows(signs):
    """Exact bentness of every row of a (tables, 2^n) stack of +-1 signs.

    Both characterizations run on every row and must agree: the sign
    autoconvolution is 2^n at zero and zero elsewhere, and every Walsh
    coefficient squares to 2^n.  (No Boolean function on an odd number of
    variables satisfies either.)  Returns a boolean array, one per row.
    """
    size = np.shape(signs)[1]
    conv = autoconvolution_rows(signs)
    conv_ok = (conv[:, 0] == size) & ~conv[:, 1:].any(axis=1)
    W = walsh_rows(signs)
    walsh_ok = (W * W == size).all(axis=1)
    if (conv_ok != walsh_ok).any():
        raise RuntimeError("autoconvolution and Walsh checks disagree; "
                           "this is a bug, not a property of the input")
    return conv_ok


def walsh_transform(b):
    """All Walsh coefficients W(u) = sum_x (-1)^{b(x) + <u,x>}."""
    return walsh_rows(b.sign()[None])[0]


def sign_autoconvolution(b):
    """c(y) = sum_x (-1)^{b(x)} (-1)^{b(x + y)} over GF(2)^n."""
    return autoconvolution_rows(b.sign()[None])[0]


def is_bent(b):
    """Exact bentness test; both characterizations are run and compared
    (see bent_rows)."""
    return bool(bent_rows(b.sign()[None])[0])


def check_bent(b):
    """Exact bentness test (is_bent) with its evidence.

    The witness is the first y != 0 with a nonzero sign autoconvolution
    c(y); c(0) = 2^n, so every b that is not bent has one.
    """
    if is_bent(b):
        return Verdict(True, {"n": b.n, "support_size": b.weight()})
    conv = sign_autoconvolution(b)
    y = int(np.flatnonzero(conv[1:])[0]) + 1
    return Verdict(False, {"witness": {"y": y, "autoconvolution": int(conv[y]), "expected": 0}})


def _heavy_weight(n):
    return (1 << (n - 1)) + (1 << (n // 2 - 1))


def bent_to_difference_set(b):
    """Support of a bent function as a difference set in GF(2)^n.

    Returns (B, params) where B = supp(b) as little-endian integers and
    params is (2^n, 2^{n-1} +- 2^{n/2-1}, 2^{n-2} +- 2^{n/2-1}) with the
    sign matching the support size; verified via the pair-count and
    convolution checks before returning.
    """
    if not is_bent(b):
        raise ValueError("not a bent function")
    n, k = b.n, b.weight()
    if k == _heavy_weight(n):
        lam = (1 << (n - 2)) + (1 << (n // 2 - 1))
    else:
        lam = (1 << (n - 2)) - (1 << (n // 2 - 1))
    params = PDSParams(v=1 << n, k=k, lam=lam, mu=lam)
    K = AbelianGroup([2] * n)
    B = b.support()
    if not verify_pds(K, [int_to_vec(x, n) for x in B], params):
        raise RuntimeError("support failed difference-set verification; "
                           "this is a bug, not a property of the input")
    return B, params


class PairSpectrum:
    """Counts of value pairs (b(x), b(x+y)) over all x, for a fixed y != 0."""

    def __init__(self, a00, a01, a10, a11):
        if a01 != a10:
            raise ValueError("pair counts must satisfy A01 = A10")
        self.a00, self.a01, self.a10, self.a11 = a00, a01, a10, a11

    def as_tuple(self):
        return (self.a00, self.a01, self.a10, self.a11)

    def __eq__(self, other):
        if isinstance(other, PairSpectrum):
            other = other.as_tuple()
        return self.as_tuple() == tuple(other)

    def __repr__(self):
        return f"PairSpectrum{self.as_tuple()}"


def pair_spectrum(b, y):
    """Pair counts of (b(x), b(x + y)); for a bent b they do not depend on y.

    For the heavy branch: A01 = A10 = 2^{n-2}, A00 = 2^{n-2} - 2^{n/2-1},
    A11 = 2^{n-2} + 2^{n/2-1} (forced by the total 2^n and the balance of
    b(x) + b(x+y), which pins A11 despite the tempting extra factor of 2).
    """
    if not 0 < y < (1 << b.n):
        raise ValueError("y must be a nonzero n-bit vector")
    idx = np.arange(1 << b.n)
    bx = b.tt
    bxy = b.tt[idx ^ y]
    a11 = int((bx & bxy).sum())
    a10 = int((bx & (1 - bxy)).sum())
    a01 = int(((1 - bx) & bxy).sum())
    a00 = int(((1 - bx) & (1 - bxy)).sum())
    return PairSpectrum(a00, a01, a10, a11)


def theorem_avg_matrix(n):
    """The fixed 4x4 quotient matrix of heavy-bent subspace colorings.

    Entry (i, j) counts the color-j neighbors of a color-i 2-subspace in
    the Grassmann graph of GF(2)^n, where a subspace's color is its
    number of ones under the bent function, minus one.  Each row sums to
    the Grassmann degree 6 (2^{n-2} - 1).  Requires n even, n >= 4.
    """
    if n % 2 or n < 4:
        raise ValueError("requires even n >= 4")
    a = 1 << (n - 3)            # 2^{n-3}
    s = 1 << (n // 2 - 2)       # 2^{n/2-2}
    S = QuotientMatrix([
        [3 * (a - s - 1), 6 * a - 3, 3 * (a + s), 0],
        [2 * a - 2 * s, 5 * a - s - 5, 4 * a + 2 * s, a + s - 1],
        [a - s, 4 * a - 2 * s - 1, 5 * a + s - 3, 2 * a + 2 * s - 2],
        [0, 3 * (a - s), 6 * a, 3 * (a + s - 2)],
    ])
    degree = 6 * ((1 << (n - 2)) - 1)
    assert (S.row_sums() == degree).all()
    return S


def merged_two_coloring_matrix(n):
    """Quotient of the {0,2} / {1,3} merge of the 4-coloring above."""
    if n % 2 or n < 4:
        raise ValueError("requires even n >= 4")
    d = 3 * (1 << (n - 2))
    return QuotientMatrix([[d - 3, d - 3], [d, d - 6]])


def _subspace_ones(b, subspaces):
    return [sum(b.tt[vec_to_int(v)] for v in s.vectors()) for s in subspaces]


def bent_to_grassmann_coloring(b, subspaces=None, graph=None, verify=True):
    """Color the 2-subspaces of GF(2)^n by ones of b, minus one.

    Requires a heavy-branch bent function with b(0) = 1, so every
    2-subspace carries 1..4 ones and the colors 0..3 all occur.  The
    resulting coloring is verified against theorem_avg_matrix(n) unless
    verify=False.  Pass precomputed `subspaces` / `graph` to amortize
    repeated calls.
    """
    n = b.n
    if n % 2 or n < 4:
        raise ValueError("requires even n >= 4")
    if not is_bent(b):
        raise ValueError("not a bent function")
    if b(0) != 1:
        raise ValueError("requires b(0) = 1")
    if b.weight() != _heavy_weight(n):
        raise ValueError("requires the heavy support size 2^{n-1} + 2^{n/2-1} "
                         "(complement the function for the other branch)")
    if subspaces is None:
        subspaces = enumerate_subspaces(n, 2, 2)
    f = Coloring([ones - 1 for ones in _subspace_ones(b, subspaces)])
    if verify:
        if graph is None:
            graph = grassmann(n, 2, 2)
        if not verify_quotient(graph, f, theorem_avg_matrix(n)):
            raise RuntimeError("bent coloring failed quotient verification; "
                               "this is a bug, not a property of the input")
    return f


def grassmann_coloring_to_bent(f, n, color_order=None, subspaces=None, graph=None):
    """Rebuild the bent function from a 4-coloring of the 2-subspaces.

    The coloring must verify theorem_avg_matrix(n) with colors labeled by
    ones-count (color i = i+1 ones); pass color_order (a permutation p
    with p[i] = the caller's color that plays role i) to relabel first,
    or use infer_ones_count_labeling.  b is 1 at zero and at every vector
    covered by a color-3 subspace; the result is verified to be a heavy
    bent function whose coloring reproduces f.
    """
    if subspaces is None:
        subspaces = enumerate_subspaces(n, 2, 2)
    if f.n != len(subspaces):
        raise ValueError("coloring length does not match the subspace count")
    if color_order is not None:
        relabel = {int(c): i for i, c in enumerate(color_order)}
        if sorted(relabel) != list(range(4)):
            raise ValueError("color_order must be a permutation of 0..3")
        f = Coloring([relabel[int(c)] for c in f.assignment])
    if f.num_colors != 4:
        raise ValueError("a 4-coloring is required")
    if graph is None:
        graph = grassmann(n, 2, 2)
    if not verify_quotient(graph, f, theorem_avg_matrix(n)):
        raise ValueError("quotient mismatch: coloring does not verify the fixed "
                         "matrix (are the colors labeled by ones-count?)")
    tt = np.zeros(1 << n, dtype=np.int64)
    tt[0] = 1
    for s, color in zip(subspaces, f.assignment):
        if color == 3:
            for v in s.vectors():
                tt[vec_to_int(v)] = 1
    b = BooleanFunction(tt)
    if not is_bent(b) or b(0) != 1 or b.weight() != _heavy_weight(n):
        raise RuntimeError("recovered function is not heavy bent; "
                           "this is a bug, not a property of the input")
    if bent_to_grassmann_coloring(b, subspaces=subspaces, graph=graph, verify=False) != f:
        raise RuntimeError("round trip failed to reproduce the coloring; "
                           "this is a bug, not a property of the input")
    return b


def infer_ones_count_labeling(f, n, subspaces=None, graph=None):
    """Find the relabeling that puts a permuted 4-coloring into ones-count
    order, by trying all 24 candidates against the fixed matrix.

    Returns the relabeled Coloring, or None when no relabeling verifies.
    """
    if f.num_colors != 4:
        raise ValueError("a 4-coloring is required")
    if graph is None:
        graph = grassmann(n, 2, 2)
    target = theorem_avg_matrix(n)
    for perm in itertools.permutations(range(4)):
        relabel = {c: i for i, c in enumerate(perm)}
        candidate = Coloring([relabel[int(c)] for c in f.assignment])
        if verify_quotient(graph, candidate, target):
            return candidate
    return None


def bent_delta_coloring(b):
    """Indicator 2-coloring of the zero-sum-triple hypergraph by supp(b).

    Color 0 marks the nonzero support vectors; this is the perfect
    2-coloring carried by the difference set of the bent function.
    """
    from .difference_sets import pds_delta_coloring
    if not is_bent(b):
        raise ValueError("not a bent function")
    D = [x for x in b.support() if x != 0]
    return pds_delta_coloring(b.n, D)
