"""Tests for bent functions and their coloring constructions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcolor import (
    BooleanFunction,
    Coloring,
    PDSParams,
    bent_delta_coloring,
    bent_to_difference_set,
    bent_to_grassmann_coloring,
    bent_violation,
    delta_hypergraph,
    grassmann,
    grassmann_coloring_to_bent,
    incidence_bipartite,
    infer_ones_count_labeling,
    is_bent,
    m12,
    merge_colors,
    merged_two_coloring_matrix,
    pair_spectrum,
    quotient_matrix,
    sign_autoconvolution,
    theorem_avg_matrix,
    verify_quotient,
    walsh_transform,
)
from pcolor import bent
from pcolor.bent import autoconvolution_rows, bent_rows, walsh_rows
from pcolor.suites import bent_census, maiorana_mcfarland


def parity_signs(n):
    """(-1)^{<u,x>} as an explicit 2^n x 2^n matrix, rows u, columns x."""
    x = np.arange(1 << n)
    return np.array([[(-1) ** bin(u & v).count("1") for v in x] for u in x])


def walsh_by_definition(signs, n):
    """W[r, u] = sum_x (-1)^{b_r(x) + <u,x>}, from the parity matrix."""
    return np.asarray(signs) @ parity_signs(n).T


def autoconvolution_by_definition(signs):
    """c[r, y] = sum_x s_r(x) s_r(x + y), as a plain double sum."""
    return np.array([[sum(s[x] * s[x ^ y] for x in range(len(s))) for y in range(len(s))]
                     for s in np.asarray(signs).tolist()])


def truth_table(code, n):
    return [(code >> x) & 1 for x in range(1 << n)]


def test_boolean_function_basics():
    b = BooleanFunction.from_string("0110")
    assert b.n == 2 and b.weight() == 2
    assert b.support() == [1, 2]
    assert b(0) == 0 and b(1) == 1
    assert b.sign().tolist() == [1, -1, -1, 1]
    assert b.complement().tt.tolist() == [1, 0, 0, 1]
    assert b == BooleanFunction([0, 1, 1, 0])
    with pytest.raises(ValueError):
        BooleanFunction([0, 1, 1])              # length not a power of 2
    with pytest.raises(ValueError):
        BooleanFunction([0, 2])


def test_walsh_transform_values():
    # b(x) = x1 x2 (AND of the two bits): the standard n = 2 bent function
    b = BooleanFunction.from_string("0001")
    W = walsh_transform(b)
    assert np.abs(W).tolist() == [2, 2, 2, 2]
    assert W[0] == 2


def test_walsh_parseval():
    b = BooleanFunction.from_string("01101100")
    W = walsh_transform(b)
    assert int((W * W).sum()) == 2 ** (2 * b.n)


def test_sign_autoconvolution_delta():
    b = BooleanFunction.from_string("0001")
    conv = sign_autoconvolution(b)
    assert conv[0] == 4 and (conv[1:] == 0).all()


def test_is_bent_small():
    assert is_bent(BooleanFunction.from_string("0001"))
    assert is_bent(BooleanFunction.from_string("1110"))
    assert not is_bent(BooleanFunction.from_string("0000"))
    assert not is_bent(BooleanFunction.from_string("0110"))
    # odd arity is never bent
    assert not is_bent(BooleanFunction.from_string("00010111"))


def test_bent_count_n2():
    # exactly the 8 functions of weight 1 or 3 are bent on 2 variables
    count = sum(is_bent(BooleanFunction([int(bit) for bit in f"{x:04b}"]))
                for x in range(16))
    assert count == 8
    # the census agrees with bentness by definition, code by code
    signs = 1 - 2 * np.array([truth_table(code, 2) for code in range(16)])
    bent_codes = [code for code, W in enumerate(walsh_by_definition(signs, 2))
                  if (W * W == 4).all()]
    heavy = [code for code in bent_codes
             if truth_table(code, 2)[0] == 1 and sum(truth_table(code, 2)) == 3]
    assert len(bent_codes) == 8 and heavy == [7, 11, 13]
    assert bent_census(2) == (8, heavy)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_batched_kernel_matches_definitions(n):
    rng = np.random.default_rng(n)
    tables = rng.integers(0, 2, size=(5, 1 << n))
    tables = np.vstack([tables, maiorana_mcfarland(n).tt, 1 - maiorana_mcfarland(n).tt])
    signs = 1 - 2 * tables
    W = walsh_by_definition(signs, n)
    conv = autoconvolution_by_definition(signs)
    assert (walsh_rows(signs) == W).all()
    assert (autoconvolution_rows(signs) == conv).all()
    verdicts = bent_rows(signs)
    assert verdicts.tolist() == (W * W == 1 << n).all(axis=1).tolist()
    assert verdicts[-2:].all()
    for row, table in enumerate(tables):
        b = BooleanFunction(table)
        assert (walsh_transform(b) == W[row]).all()
        assert (sign_autoconvolution(b) == conv[row]).all()
        assert is_bent(b) == verdicts[row]


def test_bent_census_n4_matches_float_walsh_product():
    codes = np.arange(1 << 16)
    tt = (codes[:, None] >> np.arange(16)) & 1
    W = (1 - 2 * tt).astype(np.float64) @ parity_signs(4).T.astype(np.float64)
    bent_mask = (W * W == 16).all(axis=1)
    heavy_mask = bent_mask & (tt[:, 0] == 1) & (tt.sum(axis=1) == 10)
    count, heavy = bent_census(4)
    assert count == int(bent_mask.sum()) == 896
    assert heavy == codes[heavy_mask].tolist()
    assert len(heavy) == 280


def test_bent_census_raises_when_routes_disagree(monkeypatch):
    """One row whose Walsh verdict is wrong is enough to stop the census."""
    honest = bent.walsh_rows

    def one_row_wrong(signs):
        W = honest(signs)
        # b = 1 everywhere, the last table scanned, gets a flat spectrum.
        W[(np.asarray(signs) == -1).all(axis=1)] = 4
        return W

    monkeypatch.setattr(bent, "walsh_rows", one_row_wrong)
    with pytest.raises(RuntimeError, match="disagree"):
        bent_census(4)


def test_maiorana_mcfarland_is_heavy_bent():
    b = maiorana_mcfarland(4)
    assert is_bent(b)
    assert b.weight() == 10 and b(0) == 1
    b6 = maiorana_mcfarland(6)
    assert is_bent(b6)
    assert b6.weight() == 36 and b6(0) == 1


def test_bent_to_difference_set_mcfarland_params():
    b = maiorana_mcfarland(4)
    B, params = bent_to_difference_set(b)
    assert sorted(B) == b.support()
    assert params == PDSParams(16, 10, 6, 6)
    light = b.complement()
    _, params_light = bent_to_difference_set(light)
    assert params_light == PDSParams(16, 6, 2, 2)
    with pytest.raises(ValueError):
        bent_to_difference_set(BooleanFunction.from_string("0000"))


def test_pair_spectrum_heavy():
    b = maiorana_mcfarland(4)
    for y in (1, 5, 15):
        assert pair_spectrum(b, y) == (2, 4, 4, 6)
    with pytest.raises(ValueError):
        pair_spectrum(b, 0)
    with pytest.raises(ValueError):
        pair_spectrum(b, 16)


def test_theorem_avg_matrix_values():
    assert theorem_avg_matrix(4) == [[0, 9, 9, 0],
                                     [2, 4, 10, 2],
                                     [1, 5, 8, 4],
                                     [0, 3, 12, 3]]
    assert theorem_avg_matrix(6) == [[15, 45, 30, 0],
                                     [12, 33, 36, 9],
                                     [6, 27, 39, 18],
                                     [0, 18, 48, 24]]
    assert (theorem_avg_matrix(6).row_sums() == 90).all()
    with pytest.raises(ValueError):
        theorem_avg_matrix(5)
    with pytest.raises(ValueError):
        theorem_avg_matrix(2)


def test_merged_two_coloring_matrix_values():
    assert merged_two_coloring_matrix(4) == [[9, 9], [12, 6]]
    assert merged_two_coloring_matrix(6) == [[45, 45], [48, 42]]


def test_bent_to_grassmann_coloring():
    b = maiorana_mcfarland(4)
    G = grassmann(4, 2, 2)
    f = bent_to_grassmann_coloring(b, graph=G)
    assert f.n == 35 and f.num_colors == 4
    assert verify_quotient(G, f, theorem_avg_matrix(4))


def test_bent_to_grassmann_coloring_preconditions():
    with pytest.raises(ValueError):
        bent_to_grassmann_coloring(BooleanFunction.from_string("0" * 16))
    # light bent functions are rejected (wrong weight)
    light = maiorana_mcfarland(4).complement()
    with pytest.raises(ValueError):
        bent_to_grassmann_coloring(light)
    # heavy bent with b(0) = 0 is rejected
    b = maiorana_mcfarland(4)
    shifted = BooleanFunction(b.tt[np.arange(16) ^ int(b.support()[0])])
    if shifted(0) == 0 and is_bent(shifted) and shifted.weight() == 10:
        with pytest.raises(ValueError):
            bent_to_grassmann_coloring(shifted)


def test_grassmann_coloring_to_bent_roundtrip():
    b = maiorana_mcfarland(4)
    f = bent_to_grassmann_coloring(b)
    back = grassmann_coloring_to_bent(f, 4)
    assert back == b


def test_grassmann_coloring_to_bent_rejects_non_matching():
    f = Coloring([0] * 35)
    with pytest.raises(ValueError):
        grassmann_coloring_to_bent(f, 4)


def test_grassmann_coloring_to_bent_color_order():
    b = maiorana_mcfarland(4)
    f = bent_to_grassmann_coloring(b)
    # permute the color labels, then recover via the explicit order
    perm = [2, 0, 3, 1]                    # new label of old color i
    g = Coloring([perm[c] for c in f.assignment])
    # color_order[i] names the caller's color playing ones-count role i
    back = grassmann_coloring_to_bent(g, 4, color_order=perm)
    assert back == b
    with pytest.raises(ValueError):
        grassmann_coloring_to_bent(g, 4, color_order=[0, 0, 1, 2])


def test_infer_ones_count_labeling():
    b = maiorana_mcfarland(4)
    f = bent_to_grassmann_coloring(b)
    perm = [3, 1, 0, 2]
    g = Coloring([perm[c] for c in f.assignment])
    relabeled = infer_ones_count_labeling(g, 4)
    assert relabeled == f
    assert grassmann_coloring_to_bent(relabeled, 4) == b
    # a 4-coloring that no relabeling fixes gives None
    scrambled = g.assignment.copy()
    u = int(np.flatnonzero(scrambled == 0)[0])
    v = int(np.flatnonzero(scrambled == 1)[0])
    scrambled[u], scrambled[v] = scrambled[v], scrambled[u]
    assert infer_ones_count_labeling(Coloring(scrambled), 4) is None
    with pytest.raises(ValueError):
        infer_ones_count_labeling(Coloring([0] * 35), 4)


def test_bent_delta_coloring():
    b = maiorana_mcfarland(4)
    f = bent_delta_coloring(b)
    H = delta_hypergraph(4)
    G = m12(incidence_bipartite(H))
    S = quotient_matrix(G, f)
    assert S
    # off-diagonal structure matches the merged matrix once the loop
    # diagonal (7 per vertex) is removed
    loopless = quotient_matrix(m12(incidence_bipartite(H), keep_loops=False), f)
    assert loopless
    assert (S.S - loopless.S == 7 * np.eye(2, dtype=int)).all()


def test_bent_n6_grassmann_coloring():
    b = maiorana_mcfarland(6)
    G = grassmann(6, 2, 2)
    assert G.n == 651 and G.degree() == 90
    f = bent_to_grassmann_coloring(b, graph=G)
    assert verify_quotient(G, f, theorem_avg_matrix(6))
    merged = merge_colors(f, [[0, 2], [1, 3]])
    assert verify_quotient(G, merged, merged_two_coloring_matrix(6))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_is_bent_routes_never_disagree(code):
    """The convolution and Walsh checks agree on every 4-bit function,
    so is_bent never raises its internal cross-check error."""
    b = BooleanFunction([(code >> i) & 1 for i in range(16)])
    result = is_bent(b)
    W = walsh_transform(b)
    assert result == bool((np.abs(W) == 4).all())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_autoconvolution_zero_coordinate_is_2n(code):
    b = BooleanFunction([(code >> i) & 1 for i in range(16)])
    conv = sign_autoconvolution(b)
    assert conv[0] == 16


def test_bent_violation_is_the_first_nonzero_shift():
    assert bent_violation(BooleanFunction.from_string("0001")) is None
    assert bent_violation(BooleanFunction.from_string("0" * 16)) == (1, 16)
    for code in range(1 << 8):
        b = BooleanFunction([(code >> i) & 1 for i in range(8)])
        conv = sign_autoconvolution(b)
        nonzero = [y for y in range(1, 8) if conv[y]]
        assert bent_violation(b) == ((nonzero[0], int(conv[nonzero[0]])) if nonzero else None)
        assert (bent_violation(b) is None) == is_bent(b)
