"""Block designs, their quotient matrices, and Hadamard constructions.

A t-(n,k,lambda) design picks k-subsets of n points so that every
t-subset lies in exactly lambda blocks.  Coloring the k-subsets by
block membership gives a perfect 2-coloring of the multigraph that
joins two k-subsets once for each t-subset they share, and the library
computes the quotient matrix exactly.
"""

import numpy as np

from pcolor import (
    BlockDesign,
    HadamardMatrix,
    SubspaceDesign,
    check_design,
    design_quotient_report,
    design_to_coloring,
    enumerate_subspaces,
    fano,
    hadamard_to_design,
    incidence_bipartite,
    johnson_design_multigraph,
    m12,
    paley_hadamard,
    quotient_matrix,
    subspace_design_hypergraph,
    subspace_design_to_coloring,
    sylvester,
    verify_design,
    verify_hadamard,
    verify_subspace_design,
)
from pcolor.suites import find_spread

# -------------------------------------------------------- the Fano plane

D = fano()
print("Fano blocks:", D.blocks)
print("is a 2-(7,3,1) design:", verify_design(D))

# Dropping a block leaves pairs covered 0 times, and the checker
# reports the first one.
broken = BlockDesign(n=7, k=3, t=2, lam=1, blocks=D.blocks[1:])
print("after dropping a block:", check_design(broken).evidence["witness"])

# ------------------------------------------- the block-membership coloring

# Vertices are all 35 3-subsets of 7 points, joined once per shared
# pair; the 7 blocks get color 0 and the quotient is forced.
G = johnson_design_multigraph(7, 3, 2)
f = design_to_coloring(D)
print("membership coloring quotient:", quotient_matrix(G, f).tolist())

# The same matrix comes straight from the parameters, no design needed.
rep = design_quotient_report(7, 3, 2, 1)
print("derived:", rep.actual.tolist(), "quoted:", rep.reference.tolist(),
      "agree:", rep.agree)

# For t < k-1 the widely quoted closed form goes wrong; the derived
# matrix is the one the colorings actually satisfy.  1-(8,4,1) designs
# (partitions of 8 points into two 4-sets) are the smallest case.
rep = design_quotient_report(8, 4, 1, 1)
print("t=1 derived:", rep.actual.tolist())
print("t=1 quoted: ", rep.reference.tolist(), "agree:", rep.agree)

part = BlockDesign(n=8, k=4, t=1, lam=1,
                   blocks=[(0, 1, 2, 3), (4, 5, 6, 7)])
G8 = johnson_design_multigraph(8, 4, 1)
print("a 1-(8,4,1) design verifies the derived matrix:",
      quotient_matrix(G8, design_to_coloring(part, G8)) == rep.actual)

# ------------------------------------------------ the q-analog story

# Replace subsets by subspaces over GF(q): a t-(n,k,lambda)_q design
# picks k-subspaces so every t-subspace lies in lambda of them.  A
# spread of GF(2)^4 (5 planes partitioning the nonzero vectors) is the
# smallest interesting example, a 1-(4,2,1)_2 design.
lines = enumerate_subspaces(4, 2, 2)
spread = find_spread(lines)
SD = SubspaceDesign(n=4, k=2, t=1, lam=1, q=2, subspaces=spread)
print("spread is a 1-(4,2,1)_2 design:", verify_subspace_design(SD))

# Its membership coloring satisfies the derived quotient on the
# multigraph joining k-subspaces once per common t-subspace; the quoted
# closed form again disagrees at t < k-1.
rep = design_quotient_report(4, 2, 1, 1, q=2)
print("q-analog derived:", rep.actual.tolist(),
      "quoted:", rep.reference.tolist(), "agree:", rep.agree)
HQ = subspace_design_hypergraph(4, 2, 1, 2)
GQ = m12(incidence_bipartite(HQ), keep_loops=False)
fq = subspace_design_to_coloring(SD)
print("spread coloring verifies the derived matrix:",
      quotient_matrix(GQ, fq) == rep.actual)

# -------------------------------------------------- Hadamard matrices

# Sylvester doubling gives orders 1, 2, 4, 8, ...; Paley's quadratic
# residue construction gives order p+1 for primes p = 3 mod 4.
H8 = sylvester(8)
print("sylvester(8) is Hadamard:", verify_hadamard(H8))
H12 = paley_hadamard(11)
print("paley(11) gives order", H12.order, "Hadamard:", verify_hadamard(H12))

# Flipping one sign always breaks orthogonality.
bad = H8.mat.copy()
bad[3, 5] *= -1
print("one sign flipped still Hadamard:", verify_hadamard(HadamardMatrix(bad)))

# ------------------------------------- from Hadamard matrices to designs

# Normalizing and deleting the first row and column of an order-4m+4
# matrix leaves a 2-(4m+3, 2m+1, m) design.
D8 = hadamard_to_design(H8)
print("order 8 yields a 2-(%d,%d,%d) design:" % (D8.n, D8.k, D8.lam),
      verify_design(D8))
print("its blocks:", D8.blocks)

D12 = hadamard_to_design(H12)
print("order 12 yields a 2-(%d,%d,%d) design:" % (D12.n, D12.k, D12.lam),
      verify_design(D12))

# The order-8 design has Fano parameters, so its membership coloring
# satisfies the same quotient matrix as the Fano plane itself.
f8 = design_to_coloring(D8)
print("2-(7,3,1) from Hadamard, quotient:",
      quotient_matrix(johnson_design_multigraph(7, 3, 2), f8).tolist())
