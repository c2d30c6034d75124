"""Acceptance gate: run every reproducibility suite at its stated budget.

Each test runs one named suite end to end, prints its one-line summary
("ACn PASS/FAIL <detail> (<seconds>s)"), and asserts both the outcome
and the runtime budget.  The suites are the same code paths the CLI
`suite` subcommand exposes.

AC11 currently fails, on purpose: its stated biconditional ("perfection
of the pair coloring on the triangle hypergraph of 5 points is
equivalent to strong regularity, excluding complete/edgeless graphs")
has genuine counterexamples.  The star K_{1,4} and the disjoint union
K_4 + K_1 give perfect colorings without being strongly regular.  The
suite reports exactly which graphs disagree rather than papering over
the gap; see the suite detail string and srg_gamma_coloring's docstring
for the corrected statement.
"""

import sys

from pcolor.suites import run


def run_suite(name, budget_seconds):
    result = run(name, seed=0)
    print(result.line(), file=sys.stderr, flush=True)
    assert result.seconds < budget_seconds, (
        f"{name} exceeded its {budget_seconds}s budget: {result.line()}")
    assert result.ok, result.line()
    return result


def test_ac1_perfection_oracle_agreement():
    """Exhaustive 5-vertex and randomized 6-vertex sweeps: the matrix
    check MF = FS agrees with naive neighbor counting."""
    run_suite("AC1", 120)


def test_ac2_fano_coloring_and_bound():
    """The Fano indicator verifies [[0,12],[3,9]] on J(7,3) and its
    blocks attain the independence bound of exactly 7."""
    run_suite("AC2", 1)


def test_ac3_petersen_bound():
    """Petersen: ratio bound 4, brute-force independence number 4,
    extremal quotient [[0,3],[2,1]]."""
    run_suite("AC3", 1)


def test_ac4_spread():
    """A brute-force spread of GF(2)^4 is a 1-(4,2,1) subspace design
    with quotient [[0,18],[3,15]] on the Grassmann graph and bound 5."""
    run_suite("AC4", 5)


def test_ac5_bent_census_n4():
    """All 65536 truth tables: exactly 896 bent; every heavy bent with
    b(0) = 1 colors the 2-subspaces by the fixed 4x4 matrix and round
    trips back to itself."""
    run_suite("AC5", 120)


def test_ac6_bent_n6_grassmann():
    """A 6-variable bent function yields a perfect 4-coloring of the
    651-vertex, 90-regular Grassmann graph."""
    run_suite("AC6", 30)


def test_ac7_hadamard_designs():
    """Sylvester order 8 gives a 2-(7,3,1) matching the Fano quotient;
    order 12 gives a 2-(11,5,2)."""
    run_suite("AC7", 1)


def test_ac8_gram_psd():
    """500 random bipartite graphs: the loop-keeping vertex multigraph
    YY^T never has an eigenvalue below -1e-8."""
    run_suite("AC8", 30)


def test_ac9_transversal_equivalence():
    """Exhaustive 2- and 3-uniform regular hypergraphs on up to 6
    vertices: l-fold transversal iff the constant-row quotient; every
    1-fold transversal is extremal for the loopless bound."""
    run_suite("AC9", 120)


def test_ac10_errata_witnesses():
    """The quoted closed-form quotients disagree with brute force for
    the 1-(8,4,1) design and the spread; both mismatches are detected."""
    run_suite("AC10", 10)


def test_ac11_pds_srg_gamma_chain():
    """Cayley/PDS/SRG chain on (Z_5, {1,4}) plus the claimed equivalence
    of triangle-hypergraph perfection and strong regularity.

    This test fails, and is expected to: the equivalence half of the
    criterion is mathematically false as stated, and the suite refuses
    to pretend otherwise.  See the module docstring.
    """
    run_suite("AC11", 60)


def test_ac12_merged_colorings():
    """Merging the 4-coloring classes {0,2} and {1,3} verifies the fixed
    2x2 matrices for n = 4 (every census coloring) and n = 6."""
    run_suite("AC12", 60)


def test_ac13_pair_coloring_characterization():
    """The corrected statement beside AC11, exhaustive on 3..6 points:
    the pair coloring is perfect on the triangle hypergraph iff the
    graph is strongly regular, a star, K_{n-1} + K_1, or two or more
    disjoint equal cliques."""
    run_suite("AC13", 60)
