"""Tests for multigraphs, colorings, and the MF = FS equitability check."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from pcolor import (
    Coloring,
    DirectedMultigraph,
    Multigraph,
    NotEquitable,
    QuotientMatrix,
    complete_graph,
    cycle_graph,
    lift_quotient_eigenvector,
    merge_colors,
    path_graph,
    petersen,
    quotient_matrix,
    two_coloring_eigenfunction,
    verify_quotient,
)
from pcolor.suites import naive_profile_check, random_multigraph, two_colorings


def test_adjacency_validation():
    with pytest.raises(ValueError):
        Multigraph([[0, 1], [1, 0], [0, 0]])
    with pytest.raises(ValueError):
        Multigraph([[0, -1], [-1, 0]])
    with pytest.raises(ValueError):
        Multigraph([[0, 1], [2, 0]])
    # directed graphs may be asymmetric
    DirectedMultigraph([[0, 1], [2, 0]])


def test_loop_convention():
    # one loop at vertex 0, a double edge between 0 and 1
    G = Multigraph([[1, 2], [2, 0]])
    assert G.degrees().tolist() == [3, 2]
    assert not G.is_simple()
    assert G.without_loops().adj.tolist() == [[0, 2], [2, 0]]


def test_degree_and_regularity():
    G = cycle_graph(5)
    assert G.is_regular() and G.degree() == 2
    P = path_graph(4)
    assert not P.is_regular()
    with pytest.raises(ValueError):
        P.degree()


def test_complement():
    P = petersen()
    C = P.complement()
    assert C.degree() == 6
    assert C.complement() == P
    with pytest.raises(ValueError):
        Multigraph([[1]]).complement()


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring([0, 2])            # color 1 unused
    with pytest.raises(ValueError):
        Coloring([1, 2])            # not 0-based
    with pytest.raises(ValueError):
        Coloring([])
    f = Coloring([0, 1, 0, 2])
    assert f.num_colors == 3
    assert f.color_class(0).tolist() == [0, 2]


def test_coloring_from_set():
    f = Coloring.from_set(4, [1, 3])
    assert f.assignment.tolist() == [1, 0, 1, 0]
    assert Coloring.from_set(3, []).num_colors == 1
    assert Coloring.from_set(3, [0, 1, 2]).num_colors == 1
    with pytest.raises(ValueError):
        Coloring.from_set(3, [5])


def test_indicator_matrix():
    f = Coloring([0, 1, 1, 0])
    F = f.indicator()
    assert F.tolist() == [[1, 0], [0, 1], [0, 1], [1, 0]]


def test_quotient_cycle_even():
    # alternate colors around C_6: each vertex sees 2 of the other color
    G = cycle_graph(6)
    f = Coloring([0, 1, 0, 1, 0, 1])
    S = quotient_matrix(G, f)
    assert S and S == [[0, 2], [2, 0]]
    assert verify_quotient(G, f, [[0, 2], [2, 0]])
    assert not verify_quotient(G, f, [[2, 0], [0, 2]])


def test_quotient_witness():
    # C_5 admits no proper equitable 2-coloring into independent sets
    G = cycle_graph(5)
    f = Coloring([0, 1, 0, 1, 0])
    W = quotient_matrix(G, f)
    assert isinstance(W, NotEquitable) and not W
    assert f.assignment[W.u] == f.assignment[W.v]
    # the witness profiles really are the rows of MF at u and v
    MF = G.adj @ f.indicator()
    assert tuple(MF[W.u]) == W.profile_u
    assert tuple(MF[W.v]) == W.profile_v
    assert W.profile_u != W.profile_v


def test_quotient_witness_is_the_first_mismatch():
    # degrees 1, 2, 2, 1: vertices 1 and 2 both differ from vertex 0
    W = quotient_matrix(path_graph(4), Coloring([0, 0, 0, 0]))
    assert W.evidence == {"witness": {"u": 0, "v": 1, "profile_u": [1], "profile_v": [2]}}


def test_quotient_with_loops():
    # loops at each vertex shift the diagonal of the quotient
    G = Multigraph([[1, 1], [1, 1]])
    f = Coloring([0, 1])
    S = quotient_matrix(G, f)
    assert S == [[1, 1], [1, 1]]


def test_petersen_antipodal_quotient():
    # color 0 on an edge's endpoints' closed "non-neighborhood" complement:
    # simplest: distance partition from a vertex
    P = petersen()
    dist = [0] + [1 if P.adj[0, v] else 2 for v in range(1, 10)]
    S = quotient_matrix(P, Coloring(dist))
    assert S == [[0, 3, 0], [1, 0, 2], [0, 1, 2]]


def test_monochromatic_always_perfect_when_regular():
    f = Coloring([0] * 10)
    S = quotient_matrix(petersen(), f)
    assert S == [[3]]


def test_quotient_row_sums_match_degree():
    P = petersen()
    f = Coloring.from_set(10, [0, 1, 2, 3])    # a maximum independent set
    S = quotient_matrix(P, f)
    assert S and (S.row_sums() == 3).all()


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        quotient_matrix(cycle_graph(4), Coloring([0, 1]))
    with pytest.raises(ValueError):
        verify_quotient(cycle_graph(4), Coloring([0, 1]), [[0, 2], [2, 0]])


def test_verify_quotient_shape_mismatch_is_false():
    G = cycle_graph(6)
    f = Coloring([0, 1, 0, 1, 0, 1])
    assert not verify_quotient(G, f, [[2]])


def test_quotient_matrix_eq():
    Q = QuotientMatrix([[1, 2], [3, 4]])
    assert Q == [[1, 2], [3, 4]]
    assert Q != [[1, 2], [3, 5]]
    assert Q == QuotientMatrix([[1, 2], [3, 4]])
    assert bool(Q)


def test_merge_colors():
    f = Coloring([0, 1, 2, 3, 0])
    g = merge_colors(f, [[0, 2], [1, 3]])
    assert g.assignment.tolist() == [0, 1, 0, 1, 0]
    # groups must partition the colors
    with pytest.raises(ValueError):
        merge_colors(f, [[0, 1], [2]])
    with pytest.raises(ValueError):
        merge_colors(f, [[0, 1], [1, 2, 3]])


def test_merge_preserves_equitability_on_matched_rows():
    # K_4 colored by 4 singletons, then merged into pairs: still equitable
    G = complete_graph(4)
    f = Coloring([0, 1, 2, 3])
    g = merge_colors(f, [[0, 1], [2, 3]])
    assert quotient_matrix(G, g) == [[1, 2], [2, 1]]


def test_lift_quotient_eigenvector():
    G = cycle_graph(6)
    f = Coloring([0, 1, 0, 1, 0, 1])
    S = quotient_matrix(G, f).S
    # [1, -1] is an eigenvector of [[0,2],[2,0]] with eigenvalue -2
    u = [1, -1]
    h = lift_quotient_eigenvector(f, u)
    assert (G.adj @ h == -2 * h).all()
    # Fractions survive the lift
    hf = lift_quotient_eigenvector(f, [Fraction(1, 3), Fraction(-1, 3)])
    assert (G.adj @ hf == -2 * hf).all()
    assert isinstance(hf[0], Fraction)
    with pytest.raises(ValueError):
        lift_quotient_eigenvector(f, [1, 2, 3])


def test_two_coloring_eigenfunction():
    P = petersen()
    f = Coloring.from_set(10, [0, 1, 2, 3])
    h, theta = two_coloring_eigenfunction(P, f)
    assert theta == -2
    assert (P.adj @ h == theta * h).all()
    # values are the advertised exact rationals
    S = quotient_matrix(P, f).S
    b, c = int(S[0, 1]), int(S[1, 0])
    hi, lo = Fraction(b, b + c), Fraction(-c, b + c)
    assert all(h[v] == (hi if f.assignment[v] == 0 else lo) for v in range(10))
    with pytest.raises(ValueError):
        two_coloring_eigenfunction(P, Coloring([0] * 10))
    with pytest.raises(ValueError):
        two_coloring_eigenfunction(path_graph(4), Coloring([0, 1, 1, 0]))


def test_exhaustive_small_agreement_with_naive_oracle():
    # every graph on 4 vertices, every 2-coloring: matrix check == oracle
    from pcolor.suites import graphs_on

    for G in graphs_on(4):
        for f in two_colorings(4):
            assert bool(quotient_matrix(G, f)) == naive_profile_check(G, f)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 3))
def test_random_multigraph_agreement_with_naive_oracle(seed, n, c):
    rng = np.random.default_rng(seed)
    G = random_multigraph(rng, n)
    colors = rng.integers(0, min(c, n), size=n)
    colors[:min(c, n)] = np.arange(min(c, n))      # make every color appear
    f = Coloring(colors)
    assert bool(quotient_matrix(G, f)) == naive_profile_check(G, f)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2**32 - 1))
def test_equitable_implies_verify_quotient_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    G = random_multigraph(rng, n)
    f = Coloring([0] * n)
    S = quotient_matrix(G, f)
    if S:
        assert verify_quotient(G, f, S)
