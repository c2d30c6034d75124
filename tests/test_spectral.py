"""Tests for spectra and the ratio-type independence bound."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from pcolor import (
    Coloring,
    Multigraph,
    OverFullVertex,
    check_dh_extremal,
    complete_graph,
    cycle_graph,
    delsarte_clique_bound,
    dh_bound,
    grassmann,
    johnson,
    min_eigenvalue,
    path_graph,
    petersen,
    spectrum,
    verify_quotient,
)
from pcolor.suites import max_independent_set, random_multigraph


def test_petersen_spectrum():
    s = spectrum(petersen())
    vals = np.round(s.values, 9).tolist()
    assert vals == [-2.0] * 4 + [1.0] * 5 + [3.0]
    assert s.min() == -2 and isinstance(s.min(), int)


def test_min_eigenvalue_snaps_to_int():
    assert min_eigenvalue(complete_graph(4)) == -1
    assert min_eigenvalue(cycle_graph(4)) == -2
    # C_5 has least eigenvalue 2cos(4pi/5), irrational: stays a float
    theta = min_eigenvalue(cycle_graph(5))
    assert isinstance(theta, float)
    assert abs(theta - 2 * np.cos(4 * np.pi / 5)) < 1e-9


def test_dh_bound_petersen():
    bound = dh_bound(petersen(), 0)
    assert bound == Fraction(4) and isinstance(bound, Fraction)
    assert abs(float(bound) - 4.0) <= 1e-9
    assert len(max_independent_set(petersen())) == 4


def test_dh_bound_johnson_7_3():
    # theta = -3 and r = 12, so the t=0 bound is 3*35/15 = 7 exactly
    G = johnson(7, 3)
    assert min_eigenvalue(G) == -3
    assert dh_bound(G, 0) == Fraction(7)


def test_dh_bound_grassmann_4_2_2():
    G = grassmann(4, 2, 2)
    assert G.degree() == 18 and min_eigenvalue(G) == -3
    assert dh_bound(G, 0) == Fraction(5)


def test_dh_bound_requires_regular_and_valid_t():
    with pytest.raises(ValueError):
        dh_bound(path_graph(4), 0)
    P = petersen()
    with pytest.raises(ValueError):
        dh_bound(P, -1)
    with pytest.raises(ValueError):
        dh_bound(P, 3)


def test_dh_bound_irrational_theta_is_float():
    bound = dh_bound(cycle_graph(5), 0)
    assert isinstance(bound, float)
    theta = 2 * np.cos(4 * np.pi / 5)
    assert abs(bound - (-theta) * 5 / (2 - theta)) < 1e-9


def test_check_dh_extremal_petersen():
    P = petersen()
    A = max_independent_set(P)
    report = check_dh_extremal(P, A, t=0)
    assert report.extremal and bool(report)
    assert report.bound == 4 and report.set_size == 4
    assert report.theta_min == -2 and report.r == 3
    assert report.quotient_if_extremal == [[0, 3], [2, 1]]
    assert verify_quotient(P, Coloring.from_set(10, A), [[0, 3], [2, 1]])


def test_check_dh_extremal_non_extremal_set():
    P = petersen()
    A = max_independent_set(P)[:3]
    report = check_dh_extremal(P, A, t=0)
    assert not report.extremal and not report
    assert report.quotient_if_extremal is None


def test_check_dh_extremal_rejects_dense_sets():
    P = petersen()
    edge = np.argwhere(P.adj).tolist()[0]
    with pytest.raises(ValueError):
        check_dh_extremal(P, edge, t=0)
    with pytest.raises(ValueError):
        check_dh_extremal(P, [], t=0)
    with pytest.raises(ValueError):
        check_dh_extremal(P, [99], t=0)


def test_check_dh_extremal_counts_loops():
    # a loop at a member contributes to its inner degree
    G = Multigraph([[1, 1], [1, 1]])
    with pytest.raises(OverFullVertex) as info:
        check_dh_extremal(G, [1], t=0)
    assert (info.value.vertex, info.value.inner_degree, info.value.t) == (1, 1, 0)


def test_check_dh_extremal_names_smallest_over_full_member():
    # In J(5,2) the members {0,1}, {0,2}, {0,4}, {3,4} (vertices 0, 1, 3, 9)
    # have inner degrees 2, 2, 3, 1: vertex 0 is the smallest over t = 1.
    J = johnson(5, 2)
    with pytest.raises(OverFullVertex) as info:
        check_dh_extremal(J, [9, 3, 1, 0], t=1)
    assert (info.value.vertex, info.value.inner_degree, info.value.t) == (0, 2, 1)
    assert isinstance(info.value, ValueError)


def test_delsarte_clique_bound():
    assert delsarte_clique_bound(petersen()) == 1 + Fraction(3, 2)
    assert delsarte_clique_bound(complete_graph(5)) == 5
    with pytest.raises(ValueError):
        delsarte_clique_bound(Multigraph([[2, 0], [0, 2]]))   # loops only


def test_empty_graph_spectrum_raises():
    with pytest.raises(ValueError):
        dh_bound(Multigraph([[0]]), 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
def test_independent_sets_never_beat_the_bound(seed, n):
    """Brute-force maximum independent sets respect the t = 0 bound."""
    rng = np.random.default_rng(seed)
    G = random_multigraph(rng, n, max_mult=1)
    adj = G.without_loops().adj
    G = Multigraph(adj)
    if not G.is_regular() or G.degree() == 0:
        return
    A = max_independent_set(G)
    bound = dh_bound(G, 0)
    limit = bound if isinstance(bound, Fraction) else bound + 1e-9
    assert len(A) <= limit
