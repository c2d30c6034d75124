"""Tests for block designs, subspace designs, and Hadamard matrices."""

import numpy as np
import pytest
from fractions import Fraction

from pcolor import (
    BlockDesign,
    Coloring,
    HadamardMatrix,
    SubspaceDesign,
    check_design,
    check_hadamard,
    check_subspace_design,
    design_quotient_report,
    design_to_coloring,
    enumerate_subspaces,
    fano,
    hadamard_to_design,
    johnson,
    johnson_design_multigraph,
    paley_hadamard,
    steiner_independence_check,
    subspace_design_to_coloring,
    sylvester,
    verify_design,
    verify_hadamard,
    verify_quotient,
    verify_subspace_design,
)
from pcolor.suites import find_spread


def test_fano_verifies():
    D = fano()
    assert verify_design(D) is True
    assert check_design(D).evidence == {"parameters": [2, 7, 3, 1], "blocks": 7}
    assert len(D.blocks) == 7


def test_block_design_validation():
    with pytest.raises(ValueError):
        BlockDesign(7, 3, 2, 1, [(0, 1)])           # wrong block size
    with pytest.raises(ValueError):
        BlockDesign(7, 3, 2, 1, [(0, 1, 9)])        # out of range
    with pytest.raises(ValueError):
        BlockDesign(7, 3, 2, 1, [(0, 0, 1)])        # repeated member
    with pytest.raises(ValueError, match="nonempty"):
        BlockDesign(7, 0, 0, 1, [()])               # empty block
    D = BlockDesign(4, 2, 1, 1, [(3, 0)])
    assert D.blocks == [(0, 3)]                      # sorted on input


def test_design_violation_witness():
    D = fano()
    broken = BlockDesign(7, 3, 2, 1, D.blocks[1:])
    assert check_design(broken).evidence["witness"] == {"t_subset": [0, 1], "count": 0,
                                                        "expected": 1}
    assert not verify_design(broken)
    # over-covering: the repeated first block covers (0, 1) twice
    repeated = BlockDesign(7, 3, 2, 1, D.blocks[:1] + D.blocks)
    assert check_design(repeated).evidence["witness"] == {"t_subset": [0, 1], "count": 2,
                                                          "expected": 1}


def test_one_design_from_partition():
    # the two halves of an 8-set form a 1-(8,4,1) design
    D = BlockDesign(8, 4, 1, 1, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert verify_design(D)


def test_design_quotient_fano_case():
    # at t = k-1 the derived and quoted formulas agree
    report = design_quotient_report(7, 3, 2, 1)
    assert report.agree
    assert report.actual == [[0, 12], [3, 9]]


def test_design_quotient_errata_case():
    # at t < k-1 the quoted closed form undercounts the second color class
    report = design_quotient_report(8, 4, 1, 1)
    assert report.actual == [[0, 136], [4, 132]]
    assert report.reference == [[0, 16], [4, 12]]
    assert not report.agree


def test_design_quotient_brute_force_confirms_actual():
    # the 1-(8,4,1) partition design really verifies the derived quotient
    D = BlockDesign(8, 4, 1, 1, [(0, 1, 2, 3), (4, 5, 6, 7)])
    G = johnson_design_multigraph(8, 4, 1)
    f = design_to_coloring(D, G)
    report = design_quotient_report(8, 4, 1, 1)
    assert verify_quotient(G, f, report.actual)
    assert not verify_quotient(G, f, report.reference)


def test_fano_coloring_on_johnson():
    G = johnson(7, 3)
    f = design_to_coloring(fano(), G)
    assert verify_quotient(G, f, [[0, 12], [3, 9]])


def test_design_to_coloring_validation():
    with pytest.raises(ValueError):
        design_to_coloring(BlockDesign(7, 3, 2, 1, []))
    with pytest.raises(ValueError):
        design_to_coloring(fano(), johnson(6, 3))


def test_steiner_independence_check_fano():
    report = steiner_independence_check(fano())
    assert report.extremal
    assert report.bound == Fraction(7) and report.set_size == 7
    with pytest.raises(ValueError):
        steiner_independence_check(BlockDesign(8, 4, 1, 2, [(0, 1, 2, 3)] * 2
                                               + [(4, 5, 6, 7)] * 2))


def test_spread_is_a_subspace_design():
    subs = enumerate_subspaces(4, 2, 2)
    spread = find_spread(subs)
    assert spread is not None and len(spread) == 5
    D = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread)
    assert verify_subspace_design(D)
    assert check_subspace_design(D)


def test_subspace_design_violation_witness():
    subs = enumerate_subspaces(4, 2, 2)
    spread = find_spread(subs)
    broken = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread[1:])
    verdict = check_subspace_design(broken)
    assert not verdict
    witness = verdict.evidence["witness"]
    assert len(witness["t_subspace"]) == 1 and witness["count"] == 0


def test_subspace_design_validation():
    subs = enumerate_subspaces(4, 2, 2)
    with pytest.raises(ValueError):
        SubspaceDesign(n=4, k=1, t=1, lam=1, q=2, subspaces=subs)
    with pytest.raises(ValueError):
        SubspaceDesign(n=4, k=2, t=1, lam=1, q=3, subspaces=subs)


def test_spread_quotient_errata_case():
    report = design_quotient_report(4, 2, 1, 1, 2)
    assert report.actual == [[0, 18], [3, 15]]
    assert report.reference == [[0, 9], [3, 6]]
    assert not report.agree


def test_spread_independence_check():
    subs = enumerate_subspaces(4, 2, 2)
    spread = find_spread(subs)
    D = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread)
    report = steiner_independence_check(D)
    assert report.extremal
    assert report.bound == Fraction(5) and report.theta_min == -3


def test_subspace_design_to_coloring():
    subs = enumerate_subspaces(4, 2, 2)
    spread = find_spread(subs)
    D = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread)
    f = subspace_design_to_coloring(D)
    assert f.n == 35 and f.num_colors == 2
    assert int((f.assignment == 0).sum()) == 5


def test_sylvester_matrices():
    for order in (1, 2, 4, 8, 16):
        assert verify_hadamard(sylvester(order))
    with pytest.raises(ValueError):
        sylvester(12)
    with pytest.raises(ValueError):
        sylvester(0)


def test_hadamard_validation():
    with pytest.raises(ValueError):
        HadamardMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        HadamardMatrix([[1, 1, -1]])
    H = HadamardMatrix([[1, 1], [1, -1]])
    assert verify_hadamard(H)
    assert not verify_hadamard(HadamardMatrix([[1, 1], [1, 1]]))


def test_hadamard_violation_witness():
    def witness(mat):
        return check_hadamard(HadamardMatrix(mat)).evidence["witness"]

    assert check_hadamard(sylvester(8)).evidence == {"order": 8}
    assert verify_hadamard(sylvester(8)) is True
    assert witness([[1, 1], [1, 1]]) == {"rows": [0, 1], "dot": 2, "expected": 0}
    mat = sylvester(8).mat.copy()
    mat[0, 7] = -1                      # row 0 now meets row 1 in dot product 2
    assert witness(mat) == {"rows": [0, 1], "dot": 2, "expected": 0}
    mat = sylvester(8).mat.copy()
    mat[6, 0] = -1                      # rows 0..5 and 7 now meet row 6 in -2
    assert witness(mat) == {"rows": [0, 6], "dot": -2, "expected": 0}


def test_paley_hadamard():
    H = paley_hadamard(11)
    assert H.order == 12 and verify_hadamard(H)
    assert verify_hadamard(paley_hadamard(7))
    with pytest.raises(ValueError):
        paley_hadamard(13)          # 13 = 1 mod 4


def test_hadamard_to_design_order_8():
    D = hadamard_to_design(sylvester(8))
    assert (D.t, D.n, D.k, D.lam) == (2, 7, 3, 1)
    assert verify_design(D)
    # its coloring quotient matches the Fano design's
    G = johnson(7, 3)
    f = design_to_coloring(D, G)
    assert verify_quotient(G, f, [[0, 12], [3, 9]])


def test_hadamard_to_design_order_12():
    D = hadamard_to_design(paley_hadamard(11))
    assert (D.t, D.n, D.k, D.lam) == (2, 11, 5, 2)
    assert verify_design(D)


def test_hadamard_to_design_rejects_degenerate():
    with pytest.raises(ValueError):
        hadamard_to_design(sylvester(4))
    with pytest.raises(ValueError):
        hadamard_to_design(sylvester(2))
    with pytest.raises(ValueError):
        hadamard_to_design(HadamardMatrix(np.ones((1, 1), dtype=int)))


def test_hadamard_to_design_normalization_invariance():
    # arbitrary row/column negations yield an isomorphic (valid) design
    H = sylvester(8).mat.copy()
    H[3] *= -1
    H[:, 5] *= -1
    D = hadamard_to_design(HadamardMatrix(H))
    assert (D.t, D.n, D.k, D.lam) == (2, 7, 3, 1)
    assert verify_design(D)
