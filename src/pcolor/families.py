"""Constructors for the graph and hypergraph families used throughout.

Canonical vertex orders are part of the public contract, so colorings can
be exchanged as plain integer arrays:

* k-subsets of {0..n-1}: lexicographic order of sorted tuples;
* k-subspaces of GF(q)^n: unique reduced-row-echelon basis, ordered
  lexicographically by the flattened basis matrix;
* GF(2)^n vectors <-> integers little-endian (bit j = coordinate j);
  the zero-sum triple hypergraph on nonzero vectors indexes vertex i as
  the vector i+1;
* abelian group elements: lexicographic tuples over the cyclic factors.

k-subsets and their q-analogs, k-subspaces, share one construction: the
0/1 matrix P of objects x points from point_incidence, whose P P^T
counts common points.  Adjacency, design multiplicities and containment
are all read off these intersection sizes.  Subsets are the q=None case
([m t]_q becomes C(m, t)), so each subset construction shares one body
with its q-analog.
"""

import itertools
from math import comb

import numpy as np

from .hypergraphs import Hypergraph
from .multigraph import Multigraph


# ---------------------------------------------------------------- subsets

def ksubsets(n, k):
    """All k-subsets of {0..n-1} as sorted tuples, lexicographic."""
    return list(itertools.combinations(range(n), k))


def complete_graph(n):
    return Multigraph(1 - np.eye(n, dtype=np.int64))


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    adj = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
    return Multigraph(adj + adj.T)


def path_graph(n):
    adj = np.eye(n, k=1, dtype=np.int64)
    return Multigraph(adj + adj.T)


def johnson(n, k):
    """Johnson graph: k-subsets adjacent when they share k-1 elements."""
    if not 0 < k <= n:
        raise ValueError("johnson requires 0 < k <= n")
    return _meet_graph(n, k, None)


def petersen():
    """Petersen graph: 2-subsets of a 5-set, adjacent when disjoint."""
    return johnson(5, 2).complement()


def design_hypergraph(n, k, t):
    """Hypergraph on all k-subsets with one hyperedge per t-subset.

    The hyperedge of a t-subset T consists of all k-subsets containing T;
    hyperedge size C(n-t, k-t), vertex degree C(k, t).
    """
    if not 0 < t < k < n:
        raise ValueError("design hypergraph requires 0 < t < k < n")
    return _design_hypergraph(n, k, t, None)


def johnson_design_multigraph(n, k, t):
    """Loopless multigraph on k-subsets with edge multiplicity C(|u & v|, t).

    Equals the loopless m12 of design_hypergraph(n, k, t): two blocks are
    joined once for every common t-subset.
    """
    return _design_multigraph(n, k, t, None)


# ------------------------------------------------------- GF(q) subspaces

def gaussian_binomial(m, t, q):
    """Gaussian binomial [m t]_q: the number of t-subspaces of GF(q)^m."""
    if t < 0 or t > m:
        return 0
    num = den = 1
    for i in range(t):
        num *= q ** (m - i) - 1
        den *= q ** (t - i) - 1
    assert num % den == 0
    return num // den


def _check_prime(q):
    if q < 2 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise ValueError(f"field order {q} must be prime")


def rref_gf(matrix, q):
    """Reduced row echelon form over GF(q), q prime.

    Returns (rref without zero rows, rank).
    """
    _check_prime(q)
    A = np.array(matrix, dtype=np.int64) % q
    if A.ndim != 2:
        raise ValueError("matrix expected")
    rows, cols = A.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if A[r, col]), None)
        if pivot is None:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = (A[rank] * pow(int(A[rank, col]), q - 2, q)) % q
        for r in range(rows):
            if r != rank and A[r, col]:
                A[r] = (A[r] - A[r, col] * A[rank]) % q
        rank += 1
        if rank == rows:
            break
    return A[:rank], rank


class Subspace:
    """k-dimensional subspace of GF(q)^n via its canonical RREF basis."""

    def __init__(self, basis, q, n=None, canonical=False):
        _check_prime(q)
        basis = np.array(basis, dtype=np.int64) % q
        if basis.ndim != 2:
            raise ValueError("basis must be a k x n matrix")
        if n is not None and basis.shape[1] != n:
            raise ValueError("ambient dimension mismatch")
        if not canonical:
            rows = basis.shape[0]
            basis, rank = rref_gf(basis, q)
            if rank != rows:
                raise ValueError("basis rows must be linearly independent")
        self.q = q
        self.n = basis.shape[1]
        self.basis = basis
        self.k = self.basis.shape[0]

    def key(self):
        """Flattened basis tuple; the canonical sort key."""
        return tuple(int(x) for x in self.basis.ravel())

    def vectors(self):
        """All q^k member vectors as tuples (including zero)."""
        out = []
        for coeffs in itertools.product(range(self.q), repeat=self.k):
            v = np.zeros(self.n, dtype=np.int64)
            for c, row in zip(coeffs, self.basis):
                v = (v + c * row) % self.q
            out.append(tuple(int(x) for x in v))
        return out

    def contains(self, other):
        """True iff `other` (a Subspace) is contained in this subspace."""
        return rref_gf(np.vstack([self.basis, other.basis]), self.q)[1] == self.k

    def intersection_dim(self, other):
        return self.k + other.k - rref_gf(np.vstack([self.basis, other.basis]), self.q)[1]

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.q == other.q
                and self.n == other.n and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((self.q, self.n, self.key()))

    def __repr__(self):
        return f"Subspace(q={self.q}, basis={self.basis.tolist()})"


def enumerate_subspaces(n, k, q):
    """All k-subspaces of GF(q)^n, sorted by flattened RREF basis.

    RREF matrices are generated per pivot-column pattern: entry (i, j) is
    free when j is right of pivot i and not itself a pivot column.
    """
    _check_prime(q)
    if k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        return [Subspace(np.zeros((0, n), dtype=np.int64), q, canonical=True)]
    subspaces = []
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(n)
                if j > pivots[i] and j not in pivots]
        base = np.zeros((k, n), dtype=np.int64)
        base[np.arange(k), pivots] = 1
        for values in itertools.product(range(q), repeat=len(free)):
            mat = base.copy()
            for (i, j), val in zip(free, values):
                mat[i, j] = val
            subspaces.append(Subspace(mat, q, canonical=True))
    subspaces.sort(key=Subspace.key)
    return subspaces


def grassmann(n, k, q):
    """Grassmann graph: k-subspaces adjacent when meeting in dimension k-1."""
    return _meet_graph(n, k, q)


def subspace_design_hypergraph(n, k, t, q):
    """Hypergraph on k-subspaces with one hyperedge per t-subspace.

    The hyperedge of a t-subspace T consists of all k-subspaces containing
    T; hyperedge size [n-t k-t]_q, vertex degree [k t]_q.
    """
    if not 0 < t < k < n:
        raise ValueError("requires 0 < t < k < n")
    return _design_hypergraph(n, k, t, q)


# ----------------------------------------- one body for subsets and subspaces
# q None means k-subsets of {0..n-1}, a prime q k-subspaces of GF(q)^n.
# Two k-objects meeting in a d-object share _binom(d, 1, q) points.

def _objects(n, k, q):
    return ksubsets(n, k) if q is None else enumerate_subspaces(n, k, q)


def _binom(m, t, q):
    return comb(m, t) if q is None else gaussian_binomial(m, t, q)


def _meet_graph(n, k, q):
    P = point_incidence(_objects(n, k, q), n, q)
    adj = (P @ P.T == _binom(k - 1, 1, q)).astype(np.int64)
    # adjacent when meeting in a (k-1)-object; clear the diagonal for k = 0,
    # where the one object has 0 = [-1 1]_q points
    np.fill_diagonal(adj, 0)
    return Multigraph(adj)


def _design_hypergraph(n, k, t, q):
    verts = _objects(n, k, q)
    inside = containment(point_incidence(_objects(n, t, q), n, q),
                         point_incidence(verts, n, q), _binom(t, 1, q))
    return Hypergraph(len(verts), [np.flatnonzero(row) for row in inside])


def _design_multigraph(n, k, t, q):
    """Loopless multigraph on k-objects joined once per common t-object: a
    d-dimensional meet has [d 1]_q common points and [d t]_q t-objects."""
    if not 0 < t < k < n:
        raise ValueError("requires 0 < t < k < n")
    points = _binom(k, 1, q)    # the most two k-objects share; sets the dtype
    P = point_incidence(_objects(n, k, q), n, q).astype(np.min_scalar_type(points))
    lookup = np.zeros(points + 1, dtype=np.int64)
    lookup[[_binom(d, 1, q) for d in range(k + 1)]] = [_binom(d, t, q) for d in range(k + 1)]
    adj = lookup[P @ P.T]
    np.fill_diagonal(adj, 0)
    return Multigraph(adj)


# ------------------------------------------------------ point incidence

def point_incidence(objects, n, q=None):
    """0/1 matrix of objects x points, so P @ P.T counts common points.

    The objects share one k.  A k-subset of {0..n-1} (q None) has its
    members as points.  A k-subspace of GF(q)^n has [k 1]_q of the [n 1]_q
    projective points: c B for its RREF basis B and each c whose first
    nonzero entry is 1, which makes the leading coordinate 1 as well.  A
    point with m coordinates after its leading 1 is column [m 1]_q plus
    those coordinates read base q.
    """
    P = np.zeros((len(objects), _binom(n, 1, q)), dtype=np.int64)
    if not P.size:
        return P
    if q is None:
        cols = np.array(objects, dtype=np.int64)
    else:
        k = objects[0].k
        coeffs = [c for c in itertools.product(range(q), repeat=k)
                  if any(c) and next(x for x in c if x) == 1]
        coeffs = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), k)
        points = coeffs @ np.stack([s.basis for s in objects]) % q   # objects x [k 1]_q x n
        after = q ** (n - 1 - (points != 0).argmax(axis=-1))         # q^m
        cols = points @ q ** np.arange(n - 1, -1, -1) - after + (after - 1) // (q - 1)
    P[np.arange(len(objects))[:, None], cols] = 1
    return P


def containment(small, big, size):
    """Boolean small x big matrix from point incidences: row i marks the
    objects of `big` that contain object i of `small`, which has `size`
    points."""
    return small @ big.T == size


# ------------------------------------------------ triple hypergraphs

def triangle_hypergraph(n):
    """3-uniform hypergraph: vertices are the edges of the complete graph
    on n points; each triangle contributes one hyperedge."""
    if n < 3:
        raise ValueError("needs n >= 3")
    T = np.array(ksubsets(n, 3), dtype=np.int64)
    # triangle ijl has sides ij, il, jl; the pair a < b is number
    # a(2n-a-1)/2 + b-a-1 of ksubsets(n, 2)
    a, b = T[:, [0, 0, 1]], T[:, [1, 2, 2]]
    return Hypergraph(comb(n, 2), (a * (2 * n - a - 1) // 2 + b - a - 1).tolist())


def int_to_vec(x, n):
    """Little-endian bits of x as a GF(2)^n tuple (bit j = coordinate j)."""
    return tuple((x >> j) & 1 for j in range(n))


def vec_to_int(v):
    return sum((int(x) & 1) << j for j, x in enumerate(v))


def delta_hypergraph(n):
    """3-uniform hypergraph of zero-sum triples of nonzero GF(2)^n vectors.

    Vertex i is the vector i+1 (little-endian integer encoding); the
    hyperedges are the 2-dimensional subspaces minus the zero vector.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    top = 1 << n
    edges = []
    for a in range(1, top):
        for b in range(a + 1, top):
            c = a ^ b
            if c > b:
                edges.append((a - 1, b - 1, c - 1))
    return Hypergraph(top - 1, edges)


def delta_edge_to_subspace(edge, n):
    """Canonical 2-subspace for a zero-sum triple of vertex indices."""
    a, b = edge[0] + 1, edge[1] + 1
    return Subspace([int_to_vec(a, n), int_to_vec(b, n)], q=2)


# -------------------------------------------------------- abelian groups

class AbelianGroup:
    """Direct product of cyclic groups.  Elements are tuples at the
    boundary and indices inside: the index of a tuple is its lex rank,
    the mixed-radix value of its digits, and only `minus` computes it."""

    def __init__(self, orders):
        orders = tuple(int(m) for m in orders)
        if not orders or any(m < 2 for m in orders):
            raise ValueError("cyclic orders must all be at least 2")
        self.orders = orders
        self.elements = list(itertools.product(*[range(m) for m in orders]))
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.order = len(self.elements)
        self.zero = self.elements[0]
        self._coords = np.indices(orders).reshape(len(orders), -1)  # column i: elements[i]

    def index(self, x):
        return self._index[tuple(x)]

    def minus(self, i):
        """Index array p with p[j] = index(elements[j] - elements[i])."""
        return np.ravel_multi_index(self._coords - self._coords[:, [i]], self.orders, mode="wrap")

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % m for a, m in zip(x, self.orders))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def coerce(self, elems):
        """Normalize an iterable of elements to in-group tuples."""
        out = []
        for e in elems:
            e = tuple(e)
            if len(e) != len(self.orders):
                raise ValueError("element arity does not match the group")
            out.append(tuple(int(x) % m for x, m in zip(e, self.orders)))
        return out

    def __repr__(self):
        return f"AbelianGroup{self.orders}"


def cayley(K, A):
    """Cayley graph of an abelian group: x adjacent to x + a for a in A.

    Requires A = -A and 0 not in A, which makes the graph simple.
    """
    A = set(K.coerce(A))
    if K.zero in A:
        raise ValueError("connection set must not contain the identity")
    if any(K.neg(a) not in A for a in A):
        raise ValueError("connection set must be symmetric (A = -A)")
    adj = np.zeros((K.order, K.order), dtype=np.int64)
    for a in A:                 # x - a over A is x + a over -A = A
        adj[np.arange(K.order), K.minus(K.index(a))] = 1
    return Multigraph(adj)
