"""Expected answers that do not come from the code under test.

Closed forms from the paper and the classical literature, and brute-force
routes that share no logic with pcolor's matrix arithmetic.  The benchmark
runs them outside the timed region.
"""

import itertools
from fractions import Fraction
from math import comb, isqrt

import numpy as np


def gaussian(m, t, q):
    """Number of t-subspaces of GF(q)^m."""
    if not 0 <= t <= m:
        return 0
    num = den = 1
    for i in range(t):
        num *= q ** (m - i) - 1
        den *= q ** (t - i) - 1
    return num // den


def grassmann_srg(n, q):
    """(v, k, lambda, mu) of the Grassmann graph of 2-subspaces of GF(q)^n."""
    v = gaussian(n, 2, q)
    k = q * (q + 1) * gaussian(n - 2, 1, q)
    # Adjacent lines U, V meet in a point P: the other lines through P, plus
    # the q^2 lines of the plane U + V that miss P.
    lam = gaussian(n - 1, 1, q) - 2 + q ** 2
    mu = (q + 1) ** 2
    return v, k, lam, mu


def srg_ratio_bound(v, k, lam, mu):
    """Ratio bound (0 - s) v / (k - s) for independent sets, s the least
    eigenvalue (lambda - mu - sqrt((lambda - mu)^2 + 4 (k - mu))) / 2."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(disc)
    if root * root != disc:
        raise ValueError("irrational least eigenvalue")
    s = Fraction(lam - mu - root, 2)
    return -s * v / (k - s)


def bent_avg_matrix(n):
    """The 4x4 quotient of a heavy bent 4-coloring of the 2-subspaces."""
    a, s = 2 ** (n - 3), 2 ** (n // 2 - 2)
    return ((3 * (a - s - 1), 6 * a - 3, 3 * (a + s), 0),
            (2 * a - 2 * s, 5 * a - s - 5, 4 * a + 2 * s, a + s - 1),
            (a - s, 4 * a - 2 * s - 1, 5 * a + s - 3, 2 * a + 2 * s - 2),
            (0, 3 * (a - s), 6 * a, 3 * (a + s - 2)))


def bent_merged_matrix(n):
    """The quotient of the {0,2} / {1,3} merge of that 4-coloring."""
    d = 3 * 2 ** (n - 2)
    return ((d - 3, d - 3), (d, d - 6))


# ------------------------------------------------------ brute force

def profiles(adj, colors, num_colors):
    """Per-vertex color profile, by plain loops over the nonzero entries
    (the naive_profile_check method)."""
    rows, cols = np.nonzero(adj)
    mults = adj[rows, cols].tolist()
    colors = [int(c) for c in colors]
    out = [[0] * num_colors for _ in range(adj.shape[0])]
    for v, u, m in zip(rows.tolist(), cols.tolist(), mults):
        out[v][colors[u]] += m
    return out


def quotient_or_none(profile, colors, num_colors):
    """The quotient matrix as a tuple of rows, or None if not equitable."""
    rows = [None] * num_colors
    for v, c in enumerate(colors):
        c = int(c)
        if rows[c] is None:
            rows[c] = profile[v]
        elif rows[c] != profile[v]:
            return None
    return tuple(tuple(r) for r in rows)


def simple_graphs(n):
    """Every simple graph on n labeled vertices, by edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = np.zeros((n, n), dtype=np.int64)
        for idx, (u, v) in enumerate(pairs):
            if (mask >> idx) & 1:
                adj[u, v] = adj[v, u] = 1
        yield adj


def two_colorings(n):
    """Every surjective 2-coloring of n vertices, by bit pattern."""
    return [[(pattern >> v) & 1 for v in range(n)] for pattern in range(1, (1 << n) - 1)]


def hypergraph_tables(n, edges, colors, num_colors):
    """Per-vertex {composition: incident hyperedges}, by numpy counting.

    Returns the per-color tables if every color class agrees, else None.
    """
    E = np.asarray(edges, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    comp = np.zeros((E.shape[0], num_colors), dtype=np.int64)
    for c in range(num_colors):
        comp[:, c] = (colors[E] == c).sum(axis=1)
    keys, code = np.unique(comp, axis=0, return_inverse=True)
    hist = np.zeros((n, keys.shape[0]), dtype=np.int64)
    for p in range(E.shape[1]):
        np.add.at(hist, (E[:, p], code.ravel()), 1)
    tables = []
    for c in range(num_colors):
        rows = hist[colors == c]
        if (rows != rows[0]).any():
            return None
        tables.append({tuple(int(x) for x in keys[j]): int(rows[0, j])
                       for j in np.flatnonzero(rows[0])})
    return tables


def walsh_census(n):
    """Bent count and sorted heavy b(0) = 1 codes over all 2^(2^n) tables,
    by one batched Walsh product (bit x of a code is b(x))."""
    size = 1 << n
    codes = np.arange(1 << size, dtype=np.int64)
    tt = (codes[:, None] >> np.arange(size)) & 1
    x = np.arange(size)
    parity = np.array([[bin(u & v).count("1") & 1 for v in x] for u in x])
    walsh = (1 - 2 * tt).astype(np.float64) @ (1 - 2 * parity).T.astype(np.float64)
    bent = (walsh * walsh == size).all(axis=1)
    heavy_weight = 2 ** (n - 1) + 2 ** (n // 2 - 1)
    heavy = bent & (tt[:, 0] == 1) & (tt.sum(axis=1) == heavy_weight)
    return int(bent.sum()), codes[heavy].tolist()


def design_ok(v, k, lam, blocks):
    """2-design check from the point-pair counts of the incidence matrix."""
    B = np.zeros((len(blocks), v))
    for i, block in enumerate(blocks):
        if len(set(block)) != k:
            return False
        B[i, list(block)] = 1
    pairs = B.T @ B
    off = pairs[~np.eye(v, dtype=bool)]
    return bool((off == lam).all())


def delta_edges(n):
    """Zero-sum triples a < b < a ^ b of nonzero GF(2)^n vectors, as vertex
    indices (vector - 1), in lexicographic order."""
    a, b = np.triu_indices(1 << n, 1)
    keep = (a > 0) & ((a ^ b) > b)
    return np.stack([a[keep], b[keep], (a ^ b)[keep]], axis=1) - 1


def sylvester_blocks(order):
    """Blocks of the design read off the Sylvester matrix of 2-power order:
    entry (i, j) is (-1)^popcount(i & j); block i - 1 holds the j - 1 with
    entry +1, for i, j >= 1."""
    i = np.arange(1, order)
    bits = (i[:, None] & i[None, :])[..., None] >> np.arange(order.bit_length()) & 1
    even = bits.sum(axis=2) % 2 == 0
    return [tuple(np.flatnonzero(row).tolist()) for row in even]


def johnson_design_degree(n, k, t):
    """Row sum of the multigraph on k-subsets with multiplicity C(|u & v|, t)."""
    return sum(comb(k, i) * comb(n - k, k - i) * comb(i, t) for i in range(t, k))
