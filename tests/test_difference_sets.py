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
