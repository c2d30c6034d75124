"""Tests for partial difference sets, strong regularity, and their bridges."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcolor import (
    AbelianGroup,
    Coloring,
    GroupFunction,
    Multigraph,
    NotPDS,
    NotSRG,
    PDSParams,
    SRGParams,
    cayley,
    cayley_srg_bridge,
    complete_graph,
    convolve,
    cycle_graph,
    difference_set_to_symmetric_design,
    fano,
    grassmann,
    hypergraph_is_perfect,
    johnson,
    path_graph,
    pds_delta_coloring,
    pds_params_from_set,
    petersen,
    srg_gamma_coloring,
    triangle_hypergraph,
    verify_design,
    verify_pds,
    verify_srg,
)


def test_group_function_and_convolution():
    K = AbelianGroup([5])
    f = GroupFunction.indicator(K, [(1,), (4,)])
    delta = GroupFunction.unit_delta(K)
    assert convolve(f, delta) == f
    # f*f counts difference representations: x = d1 + d2
    ff = convolve(f, f)
    assert ff((0,)) == 2 and ff((2,)) == 1 and ff((1,)) == 0
    with pytest.raises(ValueError):
        GroupFunction(K, np.zeros(4))


def test_pds_params_from_set_paley_5():
    K = AbelianGroup([5])
    params = pds_params_from_set(K, [(1,), (4,)])
    assert params == PDSParams(5, 2, 0, 1)
    assert verify_pds(K, [(1,), (4,)], params)
    assert not verify_pds(K, [(1,), (4,)], PDSParams(5, 2, 1, 1))


def test_pds_witness():
    K = AbelianGroup([5])
    W = pds_params_from_set(K, [(1,), (2,)])
    assert isinstance(W, NotPDS) and not W
    assert W.reason == "difference counts differ inside D"


def test_pds_paley_13():
    K = AbelianGroup([13])
    squares = sorted({(x * x) % 13 for x in range(1, 13)})
    D = [(s,) for s in squares]
    params = pds_params_from_set(K, D)
    assert params == PDSParams(13, 6, 2, 3)


def test_verify_srg_classics():
    assert verify_srg(petersen()) == SRGParams(10, 3, 0, 1)
    assert verify_srg(cycle_graph(5)) == SRGParams(5, 2, 0, 1)
    assert verify_srg(johnson(5, 2)) == SRGParams(10, 6, 3, 4)
    assert verify_srg(grassmann(4, 2, 2)) == SRGParams(35, 18, 9, 9)


def test_verify_srg_witnesses():
    W = verify_srg(path_graph(4))
    assert isinstance(W, NotSRG) and W.reason == "not regular"
    assert not verify_srg(complete_graph(4))
    assert not verify_srg(Multigraph(np.zeros((3, 3), dtype=int)))
    # C_6: regular, connected, but mu differs between distance-2 and
    # distance-3 pairs
    W6 = verify_srg(cycle_graph(6))
    assert W6.reason == "common-neighbor count differs on non-adjacent pairs"
    # disconnected union of two triangles
    two = np.kron(np.eye(2, dtype=int), complete_graph(3).adj)
    assert verify_srg(Multigraph(two)).reason == "not connected"
    with pytest.raises(ValueError):
        verify_srg(Multigraph([[2, 0], [0, 2]]))


def test_srg_gamma_coloring_petersen():
    G = petersen()
    f = srg_gamma_coloring(G)
    H = triangle_hypergraph(10)
    assert f.n == H.n == 45
    assert hypergraph_is_perfect(H, f)


def test_srg_gamma_coloring_paley_5():
    f = srg_gamma_coloring(cycle_graph(5))
    assert hypergraph_is_perfect(triangle_hypergraph(5), f)


def test_gamma_perfection_has_irregular_stragglers():
    """Perfection of the triangle-hypergraph coloring does not force
    strong regularity: the star K_{1,4} is perfect but not even regular."""
    star = np.zeros((5, 5), dtype=int)
    star[0, 1:] = star[1:, 0] = 1
    G = Multigraph(star)
    assert hypergraph_is_perfect(triangle_hypergraph(5), srg_gamma_coloring(G))
    assert not verify_srg(G)
    # same story for its complement, K_4 plus an isolated vertex
    C = G.complement()
    assert hypergraph_is_perfect(triangle_hypergraph(5), srg_gamma_coloring(C))
    assert not verify_srg(C)


def test_gamma_perfection_rejects_near_misses():
    # the bowtie (two triangles sharing a vertex) is not perfect: its
    # adjacent pairs see different degree sums
    bowtie = np.zeros((5, 5), dtype=int)
    for i, j in [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]:
        bowtie[i, j] = bowtie[j, i] = 1
    f = srg_gamma_coloring(Multigraph(bowtie))
    assert not hypergraph_is_perfect(triangle_hypergraph(5), f)


def test_srg_gamma_coloring_degenerate_monochromatic():
    f = srg_gamma_coloring(complete_graph(4))
    assert f.num_colors == 1
    assert hypergraph_is_perfect(triangle_hypergraph(4), f)


def test_pds_delta_coloring():
    # D = nonzero vectors of a 2-subspace: a (15-point) PDS-style set
    from pcolor import delta_hypergraph, incidence_bipartite, m12, quotient_matrix
    D = [1, 2, 3]
    f = pds_delta_coloring(4, D)
    assert f.n == 15
    assert f.color_class(0).tolist() == [0, 1, 2]
    with pytest.raises(ValueError):
        pds_delta_coloring(4, [0, 1])
    with pytest.raises(ValueError):
        pds_delta_coloring(4, [16])


def test_difference_set_to_symmetric_design():
    K = AbelianGroup([7])
    D = [(1,), (2,), (4,)]
    design = difference_set_to_symmetric_design(K, D)
    assert (design.t, design.n, design.k, design.lam) == (2, 7, 3, 1)
    assert verify_design(design)
    assert len(design.blocks) == 7
    # a PDS with lambda != mu is rejected
    with pytest.raises(ValueError):
        difference_set_to_symmetric_design(AbelianGroup([5]), [(1,), (4,)])


def test_cayley_srg_bridge_paley():
    K = AbelianGroup([5])
    report = cayley_srg_bridge(K, [(1,), (4,)])
    assert report and report.consistent and not report.degenerate
    assert report.srg == SRGParams(5, 2, 0, 1)
    assert report.pds == PDSParams(5, 2, 0, 1)


def test_cayley_srg_bridge_degenerate():
    K = AbelianGroup([4])
    # complete graph on Z_4
    report = cayley_srg_bridge(K, [(1,), (2,), (3,)])
    assert report.degenerate and report.consistent and not report
    # disconnected: the subgroup {2} gives 2K_2
    report2 = cayley_srg_bridge(K, [(2,)])
    assert report2.degenerate and report2.consistent


def test_cayley_srg_bridge_non_srg():
    K = AbelianGroup([6])
    report = cayley_srg_bridge(K, [(1,), (5,)])      # C_6 is not an SRG
    assert not report.srg and not report.pds and report.consistent


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 8))
def test_cayley_bridge_always_consistent(seed, m):
    """Both routes agree on every symmetric connection set in Z_m."""
    rng = np.random.default_rng(seed)
    K = AbelianGroup([m])
    half = [x for x in range(1, m // 2 + 1)]
    picks = [x for x in half if rng.random() < 0.5]
    D = set()
    for x in picks:
        D.add((x,))
        D.add(((m - x) % m,))
    D.discard((0,))
    if not D:
        return
    report = cayley_srg_bridge(K, sorted(D))
    assert report.consistent


def _first_srg_failure(G):
    """First failing pair of a plain per-pair scan, as an oracle."""
    common = G.adj @ G.adj
    lam = mu = None
    for u in range(G.n):
        for v in range(u + 1, G.n):
            c = int(common[u, v])
            if G.adj[u, v]:
                lam = c if lam is None else lam
                if c != lam:
                    return "common-neighbor count differs on adjacent pairs", (u, v)
            else:
                mu = c if mu is None else mu
                if c != mu:
                    return "common-neighbor count differs on non-adjacent pairs", (u, v)
    return lam, mu


@pytest.mark.parametrize("seed", range(40))
def test_verify_srg_matches_the_pair_scan(seed):
    """Relabeled circulant graphs are regular; most are not strongly
    regular, and the witness is the first failing pair in row-major order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 20))
    shifts = [d for d in range(1, n // 2 + 1) if rng.random() < 0.4] or [1]
    A = np.zeros((n, n), dtype=np.int64)
    for d in shifts:
        A[np.arange(n), (np.arange(n) + d) % n] = 1
        A[np.arange(n), (np.arange(n) - d) % n] = 1
    perm = rng.permutation(n)
    G = Multigraph(A[np.ix_(perm, perm)])
    result = verify_srg(G)
    if result or result.reason.startswith("common-neighbor"):
        expected = _first_srg_failure(G)
        got = (result.lam, result.mu) if result else (result.reason, result.witness)
        assert got == expected


# ---------------------------------------------------------------------------
# A scalar oracle that shares nothing with the index arrays: it walks pairs
# of element tuples with K.sub and looks them up with K.index.

ORACLE_GROUPS = [AbelianGroup(orders) for orders in
                 ([2], [5], [12], [13], [2, 2, 2], [2] * 6, [2, 4], [3, 3], [4, 6, 3])]


def _oracle_counts(K, D):
    """counts[i]: pairs (d1, d2) of D with d1 - d2 = elements[i]."""
    counts = [0] * len(K.elements)
    for d1 in D:
        for d2 in D:
            counts[K.index(K.sub(d1, d2))] += 1
    return counts


def _oracle_pds(K, D):
    """pds_params_from_set by a pair loop: first mismatch, D in its order."""
    D = list(dict.fromkeys(D))
    counts = _oracle_counts(K, D)
    zero = K.sub(K.elements[0], K.elements[0])
    params = []
    for where, cls in (("inside", [e for e in D if e != zero]),
                       ("outside", [e for e in K.elements if e != zero and e not in D])):
        first = counts[K.index(cls[0])] if cls else 0
        for e in cls[1:]:
            if counts[K.index(e)] != first:
                return NotPDS(f"difference counts differ {where} D",
                              cls[0], first, e, counts[K.index(e)])
        params.append(first)
    return PDSParams(len(K.elements), len(D), *params)


def _oracle_convolve(K, f, g):
    return [sum(f[K.index(x)] * g[K.index(K.sub(y, x))] for x in K.elements)
            for y in K.elements]


@st.composite
def group_and_set(draw):
    K = draw(st.sampled_from(ORACLE_GROUPS))
    return K, draw(st.lists(st.sampled_from(K.elements), max_size=2 * K.order))


@settings(max_examples=150, deadline=None)
@given(group_and_set())
def test_difference_counts_and_witness_match_the_pair_loop(case):
    from pcolor.difference_sets import _difference_counts
    K, D = case
    idx = [K.index(d) for d in dict.fromkeys(D)]
    assert _difference_counts(K, idx).tolist() == _oracle_counts(K, dict.fromkeys(D))
    assert pds_params_from_set(K, D) == _oracle_pds(K, D)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_convolve_matches_the_pair_loop(data):
    K = data.draw(st.sampled_from(ORACLE_GROUPS))
    values = st.lists(st.integers(-3, 3), min_size=K.order, max_size=K.order)
    f, g = data.draw(values), data.draw(values)
    got = convolve(GroupFunction(K, np.array(f)), GroupFunction(K, np.array(g)))
    assert got.values.dtype == np.array(f).dtype
    assert got.values.tolist() == _oracle_convolve(K, f, g)


@settings(max_examples=80, deadline=None)
@given(group_and_set())
def test_cayley_matches_the_pair_loop(case):
    K, D = case
    zero = K.sub(K.elements[0], K.elements[0])
    A = {e for d in D for e in (d, K.sub(zero, d)) if e != zero}
    expected = [[int(K.sub(y, x) in A) for y in K.elements] for x in K.elements]
    assert cayley(K, sorted(A)).adj.tolist() == expected


# (v, k, lambda) difference sets; their translates and complements are too.
DIFFERENCE_SETS = [
    ([7], [(1,), (2,), (4,)]),
    ([13], [(0,), (1,), (3,), (9,)]),
    ([11], [(1,), (3,), (4,), (5,), (9,)]),
    ([4, 4], [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]),
    ([2] * 4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
               (0, 0, 0, 1), (1, 1, 1, 1)]),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DIFFERENCE_SETS), st.integers(0, 2**16), st.booleans())
def test_translate_blocks_match_the_pair_loop(case, shift, complement):
    orders, D = case
    K = AbelianGroup(orders)
    t = K.elements[shift % K.order]
    D = [K.sub(d, K.sub(K.elements[0], t)) for d in D]           # t + D
    if complement:
        D = [e for e in K.elements if e not in D]
    blocks = [tuple(sorted(K.index(y) for y in K.elements if K.sub(x, y) in D))
              for x in K.elements]
    assert difference_set_to_symmetric_design(K, D).blocks == blocks


def test_bent_to_difference_set_at_n_12_is_fast():
    import time
    from pcolor.bent import bent_to_difference_set
    from pcolor.suites import maiorana_mcfarland
    b = maiorana_mcfarland(12)
    start = time.perf_counter()
    B, params = bent_to_difference_set(b)
    assert time.perf_counter() - start < 5
    assert params == PDSParams(4096, 2080, 1056, 1056) and len(B) == b.weight() == 2080


def test_cayley_paley_1009_matches_quadratic_residues():
    p = 1009                                # 1 mod 4, so -1 is a square
    is_square = np.zeros(p, dtype=np.int64)
    is_square[np.arange(1, p) ** 2 % p] = 1
    i = np.arange(p)
    G = cayley(AbelianGroup([p]), [(s,) for s in np.flatnonzero(is_square)])
    assert np.array_equal(G.adj, is_square[(i[:, None] - i[None, :]) % p])
