"""Tests for hypergraphs, incidence constructions, and transversals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcolor import (
    BipartiteGraph,
    Coloring,
    Hypergraph,
    NotPerfect,
    check_transversal,
    delta_hypergraph,
    design_hypergraph,
    fano,
    hypergraph_is_perfect,
    incidence_bipartite,
    induce_edge_coloring,
    line_multigraph,
    m12,
    min_eigenvalue,
    quotient_matrix,
    restrict_bipartite_coloring,
    transversal_quotient,
    triangle_hypergraph,
    verify_quotient,
    verify_transversal,
)

def rotation_hypergraph(n, base):
    """k-uniform k-regular hypergraph from all n rotations of one k-subset."""
    edges = [tuple(sorted((b + i) % n for b in base)) for i in range(n)]
    return Hypergraph(n, edges)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(0, [])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    H = Hypergraph(3, [(2, 0)])
    assert H.edges == [(0, 2)]          # sorted on input


def test_incidence_and_uniformity():
    H = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    Y = H.incidence()
    assert Y.shape == (4, 2)
    assert Y.sum(axis=0).tolist() == [3, 3]
    assert H.uniform_size() == 3
    assert H.regularity() is None
    assert Hypergraph(3, [(0, 1), (1, 2), (0, 2)]).regularity() == 2
    assert Hypergraph(3, [(0, 1), (0, 1, 2)]).uniform_size() is None


def test_duplicate_hyperedges_are_kept():
    H = Hypergraph(3, [(0, 1), (0, 1)])
    assert H.num_edges == 2
    assert m12(incidence_bipartite(H)).adj[0, 1] == 2


def test_bipartite_adjacency_block_structure():
    B = BipartiteGraph([[1, 0], [1, 1], [0, 1]])
    M = B.adjacency()
    assert M.shape == (5, 5)
    assert (M[:3, :3] == 0).all() and (M[3:, 3:] == 0).all()
    assert np.array_equal(M[:3, 3:], B.Y)
    assert B.as_multigraph().degrees().tolist() == [1, 2, 1, 2, 2]


def test_m12_is_gram_matrix():
    H = Hypergraph(4, [(0, 1, 2), (1, 2, 3), (0, 3)])
    Y = H.incidence()
    G = m12(incidence_bipartite(H))
    assert np.array_equal(G.adj, Y @ Y.T)
    assert np.array_equal(np.diag(G.adj), Y.sum(axis=1))
    loopless = m12(incidence_bipartite(H), keep_loops=False)
    assert (np.diag(loopless.adj) == 0).all()
    off = ~np.eye(4, dtype=bool)
    assert np.array_equal(loopless.adj[off], G.adj[off])


def test_m12_spectrum_nonnegative():
    # Gram matrices are positive semidefinite
    H = design_hypergraph(6, 3, 2)
    G = m12(incidence_bipartite(H))
    assert min_eigenvalue(G) >= -1e-8


def test_line_multigraph():
    H = triangle_hypergraph(4)
    E = line_multigraph(H)
    assert E.n == 4
    # any two triangles of K_4 share exactly one edge
    off = ~np.eye(4, dtype=bool)
    assert (E.adj[off] == 1).all() and (np.diag(E.adj) == 0).all()
    with pytest.raises(ValueError):
        line_multigraph(Hypergraph(3, [(0, 1), (0, 1, 2)]))


def test_hypergraph_perfection_on_fano_indicator():
    H = design_hypergraph(7, 3, 2)
    blocks = {tuple(b) for b in fano().blocks}
    from pcolor import ksubsets
    members = [i for i, s in enumerate(ksubsets(7, 3)) if s in blocks]
    f = Coloring.from_set(35, members)
    report = hypergraph_is_perfect(H, f)
    assert report
    # every pair-edge holds 1 block and 4 non-blocks; each vertex is in 3 edges
    assert report.tables[0] == {(1, 4): 3}
    assert report.tables[1] == {(1, 4): 3}


def test_hypergraph_perfection_witness():
    H = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    f = Coloring([0, 0, 1, 1])
    W = hypergraph_is_perfect(H, f)
    assert isinstance(W, NotPerfect) and not W
    assert f.assignment[W.u] == f.assignment[W.v] == W.color
    assert W.table_u != W.table_v
    with pytest.raises(ValueError):
        hypergraph_is_perfect(H, Coloring([0, 1]))


def test_induce_edge_coloring():
    H = Hypergraph(4, [(0, 1), (2, 3), (0, 2)])
    f = Coloring([0, 0, 1, 1])
    g = induce_edge_coloring(H, f)
    # compositions: (2,0), (0,2), (1,1) -> lex order (0,2) < (1,1) < (2,0)
    assert g.assignment.tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        induce_edge_coloring(Hypergraph(2, []), Coloring([0, 1]))


def test_induced_edge_coloring_is_perfect_on_line_graph():
    H = triangle_hypergraph(5)
    # color pair-vertices by membership in a 5-cycle's edge set
    cyc = {(i, (i + 1) % 5) for i in range(5)}
    cyc = {tuple(sorted(e)) for e in cyc}
    from pcolor import ksubsets
    members = [i for i, p in enumerate(ksubsets(5, 2)) if p in cyc]
    f = Coloring.from_set(10, members)
    assert hypergraph_is_perfect(H, f)
    g = induce_edge_coloring(H, f)
    assert quotient_matrix(line_multigraph(H), g)


def test_restrict_bipartite_coloring():
    H = design_hypergraph(7, 3, 2)
    B = incidence_bipartite(H)
    blocks = {tuple(b) for b in fano().blocks}
    from pcolor import ksubsets
    members = [i for i, s in enumerate(ksubsets(7, 3)) if s in blocks]
    vert_colors = [0 if i in set(members) else 1 for i in range(35)]
    full = Coloring(vert_colors + [2] * H.num_edges)
    restricted, product = restrict_bipartite_coloring(B, full)
    assert restricted.num_colors == 2
    assert verify_quotient(m12(B), restricted, product)


def test_restrict_bipartite_coloring_rejects_shared_colors():
    B = BipartiteGraph([[1]])
    with pytest.raises(ValueError):
        restrict_bipartite_coloring(B, Coloring([0, 0]))


def test_verify_transversal():
    H = triangle_hypergraph(4)          # 6 pair-vertices, 4 triangles
    # a perfect matching of K_4 meets every triangle exactly once
    from pcolor import ksubsets
    pairs = ksubsets(4, 2)
    matching = [i for i, p in enumerate(pairs) if p in {(0, 1), (2, 3)}]
    assert verify_transversal(H, matching, 1)
    assert not verify_transversal(H, matching, 2)
    assert not verify_transversal(H, matching[:1], 1)
    with pytest.raises(ValueError):
        verify_transversal(H, [17], 1)


def test_transversal_violation_witness():
    H = triangle_hypergraph(4)          # edges (0,1,3), (0,2,4), (1,2,5), (3,4,5)
    matching = [0, 5]                   # the pairs {0,1} and {2,3}
    assert check_transversal(H, matching, 1).evidence == {"l": 1, "set_size": 2, "edges": 4}
    assert check_transversal(H, matching, 2).evidence["witness"] == {
        "edge": [0, 1, 3], "meets": 1, "expected": 2}
    assert check_transversal(H, [0], 1).evidence["witness"] == {
        "edge": [1, 2, 5], "meets": 0, "expected": 1}
    with pytest.raises(ValueError):
        check_transversal(H, [17], 1)


def test_transversal_quotient_formula():
    Q = transversal_quotient(k=3, r=2, l=1)
    assert Q == [[2, 4], [2, 4]]
    with pytest.raises(ValueError):
        transversal_quotient(3, 2, 0)
    with pytest.raises(ValueError):
        transversal_quotient(3, 2, 3)
    with pytest.raises(ValueError):
        transversal_quotient(3, 0, 1)


def test_transversal_coloring_verifies_quotient():
    H = triangle_hypergraph(4)
    from pcolor import ksubsets
    pairs = ksubsets(4, 2)
    matching = [i for i, p in enumerate(pairs) if p in {(0, 1), (2, 3)}]
    G = m12(incidence_bipartite(H))
    f = Coloring.from_set(6, matching)
    Q = transversal_quotient(k=3, r=H.regularity(), l=1)
    assert verify_quotient(G, f, Q)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 6), st.integers(2, 3))
def test_transversal_iff_quotient(seed, n, k):
    """The l-fold transversal condition matches the quotient condition
    on rotation-orbit regular uniform hypergraphs."""
    if k >= n:
        return
    rng = np.random.default_rng(seed)
    base = rng.choice(n, size=k, replace=False)
    H = rotation_hypergraph(n, base)
    r = H.regularity()
    assert r == k
    G = m12(incidence_bipartite(H))
    for mask in range(1, 1 << n):
        A = [v for v in range(n) if (mask >> v) & 1]
        if len(A) == n:
            continue
        f = Coloring.from_set(n, A)
        for l in range(1, k):
            lhs = verify_transversal(H, A, l)
            rhs = verify_quotient(G, f, transversal_quotient(k, r, l))
            assert lhs == rhs


def test_regularity_counts_degrees_without_the_incidence():
    # the dense incidence would be 1023 x 174,251 int64, about 1.4 GB
    H = delta_hypergraph(10)
    assert H.regularity() == 511
    assert Hypergraph(4, [(0, 1), (2, 3), (0, 1)]).regularity() is None
    assert Hypergraph(3, []).regularity() == 0
    # the last vertex lies on no edge: degrees 1, 1, 0
    assert Hypergraph(3, [(0, 1)]).regularity() is None
