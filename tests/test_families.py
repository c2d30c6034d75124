"""Tests for the named graph, hypergraph, and group families."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcolor import (
    AbelianGroup,
    Subspace,
    SubspaceDesign,
    cayley,
    complete_graph,
    cycle_graph,
    delta_edge_to_subspace,
    delta_hypergraph,
    design_hypergraph,
    enumerate_subspaces,
    gaussian_binomial,
    grassmann,
    incidence_bipartite,
    int_to_vec,
    johnson,
    johnson_design_multigraph,
    ksubsets,
    m12,
    path_graph,
    petersen,
    rref_gf,
    subspace_design_hypergraph,
    subspace_design_violation,
    triangle_hypergraph,
    vec_to_int,
    verify_srg,
)
from pcolor.families import _design_multigraph, point_incidence
from pcolor.suites import find_spread

# Every (n, k) with 1 <= k <= n <= 7, and every (n, k, t) with 0 < t < k < n <= 7.
SUBSET_NK = [(n, k) for n in range(1, 8) for k in range(1, n + 1)]
SUBSET_NKT = [(n, k, t) for n, k in SUBSET_NK for t in range(1, k) if k < n]
# (q, n) for the per-object point oracle, and the smaller ones whose
# per-pair RREF oracles stay fast.
FIELD_DIMS = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)]
PAIR_FIELD_DIMS = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]


def test_ksubsets_order_and_count():
    subs = ksubsets(4, 2)
    assert subs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(ksubsets(7, 3)) == 35


def test_small_graphs():
    assert complete_graph(4).degree() == 3
    assert cycle_graph(5).degree() == 2
    assert path_graph(4).degrees().tolist() == [1, 2, 2, 1]
    P = petersen()
    assert P.n == 10 and P.degree() == 3
    assert verify_srg(P) == __import__("pcolor").SRGParams(10, 3, 0, 1)


def test_johnson_graphs():
    J = johnson(5, 2)
    # J(5,2) is the triangular graph T(5) = complement of Petersen
    assert J == petersen().complement()
    params = verify_srg(J)
    assert (params.v, params.k, params.lam, params.mu) == (10, 6, 3, 4)
    J73 = johnson(7, 3)
    assert J73.n == 35 and J73.degree() == 12
    with pytest.raises(ValueError):
        johnson(3, 5)


def test_johnson_adjacency_rule():
    J = johnson(5, 2)
    subs = ksubsets(5, 2)
    for i, u in enumerate(subs):
        for j, v in enumerate(subs):
            expected = 1 if len(set(u) & set(v)) == 1 else 0
            if i == j:
                expected = 0
            assert J.adj[i, j] == expected


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(5, 1, 2) == 31
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    # q = 1 limit would be binomial; check against q = 3 identity instead
    assert gaussian_binomial(4, 2, 3) == 130


def test_rref_gf():
    M, rank = rref_gf(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 2)
    assert rank == 2
    assert M[:rank].tolist() == [[1, 0, 1], [0, 1, 1]]
    M5, rank5 = rref_gf(np.array([[2, 1], [1, 1]]), 5)
    assert rank5 == 2
    assert M5.tolist() == [[1, 0], [0, 1]]
    # [[2,1],[1,3]] has determinant 5, hence rank 1 over GF(5)
    _, rank_sing = rref_gf(np.array([[2, 1], [1, 3]]), 5)
    assert rank_sing == 1
    with pytest.raises(ValueError):
        rref_gf(np.eye(2, dtype=int), 4)        # q must be prime


def test_subspace_canonicalization():
    s = Subspace([[1, 1, 0], [0, 1, 1]], q=2)
    t = Subspace([[1, 0, 1], [0, 1, 1]], q=2)
    assert s == t and s.key() == t.key()
    assert len(s.vectors()) == 4
    with pytest.raises(ValueError):
        Subspace([[1, 1], [1, 1]], q=2)          # dependent rows


def test_subspace_containment_and_intersection():
    line = Subspace([[1, 0, 0]], q=2)
    plane = Subspace([[1, 0, 0], [0, 1, 0]], q=2)
    assert plane.contains(line)
    assert not line.contains(plane)
    other = Subspace([[0, 1, 0], [0, 0, 1]], q=2)
    assert plane.intersection_dim(other) == 1


def test_enumerate_subspaces_counts():
    assert len(enumerate_subspaces(4, 2, 2)) == 35
    assert len(enumerate_subspaces(4, 1, 2)) == 15
    assert len(enumerate_subspaces(3, 1, 3)) == 13
    assert len(enumerate_subspaces(4, 0, 2)) == 1
    # canonical order: sorted by flattened RREF basis
    subs = enumerate_subspaces(3, 1, 2)
    keys = [s.key() for s in subs]
    assert keys == sorted(keys)


def test_grassmann_graph():
    G = grassmann(4, 2, 2)
    assert G.n == 35 and G.degree() == 18
    params = verify_srg(G)
    assert (params.v, params.k, params.lam, params.mu) == (35, 18, 9, 9)


def test_grassmann_adjacency_rule():
    subs = enumerate_subspaces(4, 2, 2)
    G = grassmann(4, 2, 2)
    for i in range(5):
        for j in range(5):
            expected = 1 if i != j and subs[i].intersection_dim(subs[j]) == 1 else 0
            assert G.adj[i, j] == expected


def test_design_hypergraph():
    H = design_hypergraph(7, 3, 2)
    assert H.n == 35 and H.num_edges == 21
    assert H.uniform_size() == 5            # C(5,1) 3-sets per pair
    assert H.regularity() == 3              # C(3,2) pairs per 3-set


def test_subspace_design_hypergraph():
    H = subspace_design_hypergraph(4, 2, 1, 2)
    assert H.n == 35 and H.num_edges == 15
    assert H.uniform_size() == 7            # [3 1]_2 planes per point
    assert H.regularity() == 3              # [2 1]_2 points per plane


def test_johnson_design_multigraph():
    G = johnson_design_multigraph(7, 3, 2)
    # multiplicity C(|u cap v|, 2): 0, 1, or 3 shared pairs
    subs = ksubsets(7, 3)
    for i in range(8):
        for j in range(8):
            shared = len(set(subs[i]) & set(subs[j]))
            expected = 0 if i == j else math.comb(shared, 2)
            assert G.adj[i, j] == expected
    # 12 triples share a pair with any fixed triple, multiplicity 1 each;
    # at t = 2, k = 3 this multigraph coincides with the Johnson graph
    assert G.degree() == 12
    assert G == johnson(7, 3)


def test_triangle_hypergraph():
    H = triangle_hypergraph(5)
    assert H.n == 10 and H.num_edges == 10
    assert H.uniform_size() == 3 and H.regularity() == 3
    with pytest.raises(ValueError):
        triangle_hypergraph(2)


@pytest.mark.parametrize("n", range(3, 9))
def test_triangle_hypergraph_edges_are_the_triangles(n):
    """Hyperedge ijl holds the pair indices of ij, il, jl, triples in
    lexicographic order."""
    index = {p: i for i, p in enumerate(ksubsets(n, 2))}
    expected = [(index[(i, j)], index[(i, l)], index[(j, l)])
                for i, j, l in itertools.combinations(range(n), 3)]
    assert triangle_hypergraph(n).edges == expected


def test_triangle_hypergraph_at_60_points_is_fast():
    """C(60,3) = 34,220 triangles; the construction is linear in them
    (about 0.1 s), where a pair-in-triple containment product would need
    C(60,2) x C(60,3) int64 entries (485 MB)."""
    start = time.perf_counter()
    H = triangle_hypergraph(60)
    assert time.perf_counter() - start < 2.0
    assert H.n == 1770 and H.num_edges == 34220 and H.regularity() == 58


def test_delta_hypergraph():
    H = delta_hypergraph(4)
    assert H.n == 15 and H.num_edges == 35
    assert H.uniform_size() == 3 and H.regularity() == 7
    # every hyperedge is a zero-sum triple
    for e in H.edges:
        a, b, c = (v + 1 for v in e)
        assert a ^ b ^ c == 0
    with pytest.raises(ValueError):
        delta_hypergraph(1)


def test_delta_edge_to_subspace():
    H = delta_hypergraph(3)
    for e in H.edges:
        s = delta_edge_to_subspace(e, 3)
        assert s.k == 2
        members = {vec_to_int(v) for v in s.vectors()}
        assert members == {0} | {v + 1 for v in e}


def test_int_vec_roundtrip_examples():
    assert int_to_vec(6, 4) == (0, 1, 1, 0)
    assert vec_to_int((0, 1, 1, 0)) == 6


@given(st.integers(0, 255))
def test_int_vec_roundtrip(x):
    assert vec_to_int(int_to_vec(x, 8)) == x


def test_abelian_group():
    K = AbelianGroup([2, 3])
    assert K.order == 6
    assert K.zero == (0, 0)
    assert K.add((1, 2), (1, 2)) == (0, 1)
    assert K.neg((1, 1)) == (1, 2)
    assert K.sub((0, 0), (1, 1)) == (1, 2)
    assert K.index((1, 2)) == 5
    assert K.coerce([(3, 4)]) == [(1, 1)]
    with pytest.raises(ValueError):
        AbelianGroup([1])
    with pytest.raises(ValueError):
        AbelianGroup([])


def test_cayley_graph():
    K = AbelianGroup([5])
    G = cayley(K, [(1,), (4,)])
    assert G == cycle_graph(5)
    with pytest.raises(ValueError):
        cayley(K, [(0,)])                   # identity in the set
    with pytest.raises(ValueError):
        cayley(K, [(1,)])                   # not symmetric


def test_cayley_of_z2_cube_is_regular():
    K = AbelianGroup([2, 2, 2])
    A = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    G = cayley(K, A)
    assert G.n == 8 and G.degree() == 3
    assert min(np.linalg.eigvalsh(G.adj.astype(float))) == pytest.approx(-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3))
def test_subspace_count_matches_gaussian_binomial(n, k):
    if k > n:
        return
    assert len(enumerate_subspaces(n, k, 2)) == gaussian_binomial(n, k, 2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rref_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(0, 2, size=(3, 5))
    R, rank = rref_gf(M, 2)
    R2, rank2 = rref_gf(R[:rank], 2)
    assert rank == rank2
    assert np.array_equal(R[:rank], R2[:rank2])


# ------------------------------------------- brute-force oracles for the
# constructors built on point incidence: same vertex order, edge order and
# multiplicities as the definitions computed pair by pair.

@pytest.mark.parametrize("n,k", SUBSET_NK)
def test_johnson_matches_set_intersections(n, k):
    subs = ksubsets(n, k)
    expected = [[int(i != j and len(set(u) & set(v)) == k - 1)
                 for j, v in enumerate(subs)] for i, u in enumerate(subs)]
    assert johnson(n, k).adj.tolist() == expected


@pytest.mark.parametrize("n,k,t", SUBSET_NKT)
def test_johnson_design_multigraph_matches_set_intersections(n, k, t):
    subs = ksubsets(n, k)
    expected = [[0 if i == j else math.comb(len(set(u) & set(v)), t)
                 for j, v in enumerate(subs)] for i, u in enumerate(subs)]
    assert johnson_design_multigraph(n, k, t).adj.tolist() == expected


def test_johnson_design_multigraph_large_k_does_not_wrap():
    # distinct 257-subsets of a 258-set share 256 points, more than uint8 holds
    G = johnson_design_multigraph(258, 257, 1)
    assert (G.adj == 256 * (1 - np.eye(258, dtype=np.int64))).all()


@pytest.mark.parametrize("n,k,t", SUBSET_NKT)
def test_design_hypergraph_matches_set_containment(n, k, t):
    subs = ksubsets(n, k)
    expected = [tuple(i for i, u in enumerate(subs) if set(T) <= set(u))
                for T in itertools.combinations(range(n), t)]
    H = design_hypergraph(n, k, t)
    assert H.n == len(subs) and H.edges == expected


@pytest.mark.parametrize("q,n", PAIR_FIELD_DIMS)
def test_grassmann_matches_intersection_dim(q, n):
    for k in range(n + 1):
        subs = enumerate_subspaces(n, k, q)
        if k in (0, n):
            expected = [[0]]
        else:
            expected = [[int(i != j and U.intersection_dim(V) == k - 1)
                         for j, V in enumerate(subs)] for i, U in enumerate(subs)]
        assert grassmann(n, k, q).adj.tolist() == expected, (n, k, q)


@pytest.mark.parametrize("q,n", PAIR_FIELD_DIMS)
def test_subspace_design_hypergraph_matches_containment(q, n):
    for k in range(2, n):
        verts = enumerate_subspaces(n, k, q)
        for t in range(1, k):
            expected = [tuple(i for i, U in enumerate(verts) if U.contains(T))
                        for T in enumerate_subspaces(n, t, q)]
            H = subspace_design_hypergraph(n, k, t, q)
            assert H.n == len(verts) and H.edges == expected, (n, k, t, q)


@pytest.mark.parametrize("q,n", FIELD_DIMS)
def test_point_incidence_marks_projective_points(q, n):
    """Row i marks the nonzero vectors of subspace i scaled to a leading 1,
    under the one numbering of the [n 1]_q points that the 1-subspaces fix."""
    def projective(U):
        out = set()
        for v in U.vectors():
            if any(v):
                inv = pow(next(x for x in v if x), q - 2, q)
                out.add(tuple(x * inv % q for x in v))
        return out

    points = enumerate_subspaces(n, 1, q)
    P1 = point_incidence(points, n, q)
    assert (P1.sum(axis=1) == 1).all()
    column = {next(iter(projective(p))): int(row.argmax()) for p, row in zip(points, P1)}
    assert sorted(column.values()) == list(range(gaussian_binomial(n, 1, q)))
    for k in range(n + 1):
        subs = enumerate_subspaces(n, k, q)
        P = point_incidence(subs, n, q)
        assert P.shape == (len(subs), len(column))
        for U, row in zip(subs, P):
            assert set(np.flatnonzero(row)) == {column[v] for v in projective(U)}


@pytest.mark.parametrize("q,n", FIELD_DIMS)
def test_points_are_the_one_subspaces_in_order(q, n):
    """The 1-subspaces, in enumeration order, are the points in column
    order; so are the 1-subsets.  Subsets and subspaces share this order."""
    P = point_incidence(enumerate_subspaces(n, 1, q), n, q)
    assert (P == np.eye(gaussian_binomial(n, 1, q), dtype=np.int64)).all()
    assert (point_incidence(ksubsets(n, 1), n) == np.eye(n, dtype=np.int64)).all()


@pytest.mark.parametrize("q,n", [(2, n) for n in range(3, 7)] + [(3, 3), (3, 4)])
def test_design_multigraph_matches_m12(q, n):
    """The common-point lookup equals the loopless m12 of the design
    hypergraph, which counts common t-subspaces directly."""
    for k in range(2, n):
        for t in range(1, k):
            expected = m12(incidence_bipartite(subspace_design_hypergraph(n, k, t, q)),
                           keep_loops=False)
            G = _design_multigraph(n, k, t, q)
            assert G.adj.dtype == np.int64 and (G.adj == expected.adj).all(), (n, k, t, q)


def test_point_incidence_of_nothing():
    assert point_incidence([], 4, 2).shape == (0, 15)
    assert point_incidence([], 3, 3).shape == (0, 13)
    assert point_incidence([], 5).shape == (0, 5)


def test_subspace_design_hypergraph_6_3_2_2_shape():
    H = subspace_design_hypergraph(6, 3, 2, 2)
    assert H.n == 1395 and H.num_edges == 651
    assert H.uniform_size() == 15 and H.regularity() == 7


def _first_violation(D):
    for T in enumerate_subspaces(D.n, D.t, D.q):
        count = sum(U.contains(T) for U in D.subspaces)
        if count != D.lam:
            return T, count
    return None


def test_subspace_design_violation_matches_containment():
    lines = enumerate_subspaces(4, 2, 2)
    spread = find_spread(lines)
    D = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread)
    assert subspace_design_violation(D) is None
    outside = next(L for L in lines if L not in spread)
    swapped = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2,
                             subspaces=[outside] + spread[1:])
    violation = subspace_design_violation(swapped)
    assert violation == _first_violation(swapped) and violation[1] != 1
    empty = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=[])
    assert subspace_design_violation(empty) == (enumerate_subspaces(4, 1, 2)[0], 0)
