"""JSON instance files for graphs, hypergraphs, colorings, and friends.

Every document is a JSON object with a "type" tag.  The core kinds:

  multigraph  {"type":"multigraph","n":N,"adj":[[...]]}
              or sparse {"type":"multigraph","n":N,"nnz":[[i,j,m],...]}
              (one triplet per unordered pair, m > 0)
  hypergraph  {"type":"hypergraph","n":N,"edges":[[v,...],...]}
  coloring    {"type":"coloring","colors":[c0,c1,...]}
  design      {"type":"design","n":N,"k":K,"t":T,"lambda":L,"blocks":[[...],...]}
  boolfun     {"type":"boolfun","n":N,"tt":"01..."}  (index little-endian)
  hadamard    {"type":"hadamard","rows":["+--+...",...]}

plus three companions for the remaining verifiers and bridges:

  qdesign     {"type":"qdesign","n":N,"k":K,"t":T,"lambda":L,"q":Q,
               "subspaces":[[[row],...],...]}  (basis rows mod q)
  groupset    {"type":"groupset","orders":[...],"set":[[...],...],
               "params":[v,k,lam,mu]?}
  vertexset   {"type":"vertexset","n":N,"set":[...]}

Loading validates the schema and raises ValueError on any defect;
to_json(from_json(d)) reproduces d for documents in canonical form.
"""

import json

import numpy as np

from .designs import BlockDesign, HadamardMatrix, SubspaceDesign
from .difference_sets import PDSParams
from .families import AbelianGroup, Subspace
from .hypergraphs import Hypergraph
from .multigraph import Coloring, Multigraph


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _int_list(values, what):
    _require(isinstance(values, list), f"{what} must be a list")
    for v in values:
        _require(isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63,
                 f"{what} entries must be integers in the int64 range")
    return list(values)


def multigraph_to_json(G, sparse=False):
    if not sparse:
        return {"type": "multigraph", "n": G.n, "adj": G.adj.tolist()}
    nnz = [[int(i), int(j), int(G.adj[i, j])]
           for i in range(G.n) for j in range(i, G.n) if G.adj[i, j]]
    return {"type": "multigraph", "n": G.n, "nnz": nnz}


def _multigraph_from_json(d):
    _require(isinstance(d.get("n"), int), "multigraph needs an integer 'n'")
    n = d["n"]
    _require(("adj" in d) != ("nnz" in d), "multigraph needs exactly one of 'adj' or 'nnz'")
    if "adj" in d:
        adj = d["adj"]
        _require(isinstance(adj, list) and len(adj) == n, "'adj' must be an n x n matrix")
        for row in adj:
            _int_list(row, "'adj' rows")
            _require(len(row) == n, "'adj' must be an n x n matrix")
        return Multigraph(adj)
    adj = np.zeros((n, n), dtype=np.int64)
    seen = set()
    for triplet in d["nnz"]:
        i, j, m = _int_list(triplet, "'nnz' triplets (expected [i, j, m])")
        _require(0 <= i < n and 0 <= j < n, "'nnz' index out of range")
        _require(m > 0, "'nnz' multiplicities must be positive")
        key = (min(i, j), max(i, j))
        _require(key not in seen, f"duplicate 'nnz' entry for pair {key}")
        seen.add(key)
        adj[i, j] = adj[j, i] = m
    return Multigraph(adj)


def hypergraph_to_json(H):
    return {"type": "hypergraph", "n": H.n,
            "edges": [list(e) for e in H.edges]}


def _hypergraph_from_json(d):
    _require(isinstance(d.get("n"), int), "hypergraph needs an integer 'n'")
    _require(isinstance(d.get("edges"), list), "hypergraph needs an 'edges' list")
    edges = [_int_list(e, "'edges' entries") for e in d["edges"]]
    return Hypergraph(d["n"], edges)


def coloring_to_json(f):
    return {"type": "coloring", "colors": [int(c) for c in f.assignment]}


def _coloring_from_json(d):
    return Coloring(_int_list(d.get("colors"), "'colors'"))


def design_to_json(D):
    return {"type": "design", "n": D.n, "k": D.k, "t": D.t, "lambda": D.lam,
            "blocks": [list(b) for b in D.blocks]}


def _design_from_json(d):
    for field in ("n", "k", "t", "lambda"):
        _require(isinstance(d.get(field), int), f"design needs an integer '{field}'")
    _require(isinstance(d.get("blocks"), list), "design needs a 'blocks' list")
    blocks = [_int_list(b, "'blocks' entries") for b in d["blocks"]]
    return BlockDesign(n=d["n"], k=d["k"], t=d["t"], lam=d["lambda"], blocks=blocks)


def boolfun_to_json(b):
    return {"type": "boolfun", "n": b.n, "tt": "".join(map(str, b.tt.tolist()))}


def _boolfun_from_json(d):
    from .bent import BooleanFunction
    _require(isinstance(d.get("n"), int), "boolfun needs an integer 'n'")
    tt = d.get("tt")
    _require(isinstance(tt, str), "boolfun needs a 'tt' string")
    _require(len(tt) == 1 << d["n"], "'tt' length must be 2^n")
    _require(set(tt) <= {"0", "1"}, "'tt' must contain only '0' and '1'")
    return BooleanFunction.from_string(tt)


def hadamard_to_json(H):
    rows = ["".join("+" if x == 1 else "-" for x in row) for row in H.mat.tolist()]
    return {"type": "hadamard", "rows": rows}


def _hadamard_from_json(d):
    rows = d.get("rows")
    _require(isinstance(rows, list) and rows, "hadamard needs a nonempty 'rows' list")
    n = len(rows)
    mat = np.zeros((n, n), dtype=np.int64)
    for i, row in enumerate(rows):
        _require(isinstance(row, str) and len(row) == n, "'rows' must be n strings of length n")
        _require(set(row) <= {"+", "-"}, "'rows' must contain only '+' and '-'")
        mat[i] = [1 if ch == "+" else -1 for ch in row]
    return HadamardMatrix(mat)


def qdesign_to_json(D):
    return {"type": "qdesign", "n": D.n, "k": D.k, "t": D.t, "lambda": D.lam,
            "q": D.q, "subspaces": [s.basis.tolist() for s in D.subspaces]}


def _qdesign_from_json(d):
    for field in ("n", "k", "t", "lambda", "q"):
        _require(isinstance(d.get(field), int), f"qdesign needs an integer '{field}'")
    _require(isinstance(d.get("subspaces"), list), "qdesign needs a 'subspaces' list")
    subspaces = []
    for basis in d["subspaces"]:
        _require(isinstance(basis, list) and basis, "'subspaces' entries must be basis matrices")
        rows = [_int_list(row, "basis rows") for row in basis]
        subspaces.append(Subspace(rows, d["q"], n=d["n"]))
    return SubspaceDesign(n=d["n"], k=d["k"], t=d["t"], lam=d["lambda"],
                          q=d["q"], subspaces=subspaces)


def groupset_to_json(K, D, params=None):
    doc = {"type": "groupset", "orders": list(K.orders),
           "set": [list(e) for e in D]}
    if params is not None:
        doc["params"] = [params.v, params.k, params.lam, params.mu]
    return doc


def _groupset_from_json(d):
    orders = _int_list(d.get("orders"), "'orders'")
    K = AbelianGroup(orders)
    members = d.get("set")
    _require(isinstance(members, list), "groupset needs a 'set' list")
    D = [tuple(_int_list(e, "'set' elements")) for e in members]
    for e in D:
        try:
            K.index(e)
        except (KeyError, ValueError):
            raise ValueError(f"'set' element {list(e)} is not in the group "
                             f"with orders {orders}") from None
    params = None
    if "params" in d:
        v, k, lam, mu = _int_list(d["params"], "'params' (expected [v, k, lam, mu])")
        params = PDSParams(v=v, k=k, lam=lam, mu=mu)
    return K, D, params


def vertexset_to_json(n, members):
    return {"type": "vertexset", "n": n, "set": sorted(int(v) for v in members)}


def _vertexset_from_json(d):
    _require(isinstance(d.get("n"), int), "vertexset needs an integer 'n'")
    members = _int_list(d.get("set"), "'set'")
    n = d["n"]
    _require(all(0 <= v < n for v in members), "'set' members out of range")
    _require(len(set(members)) == len(members), "'set' members must be distinct")
    return n, members


_LOADERS = {
    "multigraph": _multigraph_from_json,
    "hypergraph": _hypergraph_from_json,
    "coloring": _coloring_from_json,
    "design": _design_from_json,
    "boolfun": _boolfun_from_json,
    "hadamard": _hadamard_from_json,
    "qdesign": _qdesign_from_json,
    "groupset": _groupset_from_json,
    "vertexset": _vertexset_from_json,
}


def from_json(d):
    """Parse one instance document; raises ValueError on any schema defect."""
    _require(isinstance(d, dict), "instance file must be a JSON object")
    kind = d.get("type")
    _require(kind in _LOADERS, f"unknown instance type {kind!r}")
    try:
        return _LOADERS[kind](d)
    except ValueError:
        raise
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed {kind} document: {exc}") from exc


def to_json(obj, **kwargs):
    """Serialize a known object back to its instance document."""
    from .bent import BooleanFunction
    if isinstance(obj, Multigraph):
        return multigraph_to_json(obj, **kwargs)
    if isinstance(obj, Hypergraph):
        return hypergraph_to_json(obj)
    if isinstance(obj, Coloring):
        return coloring_to_json(obj)
    if isinstance(obj, BlockDesign):
        return design_to_json(obj)
    if isinstance(obj, SubspaceDesign):
        return qdesign_to_json(obj)
    if isinstance(obj, BooleanFunction):
        return boolfun_to_json(obj)
    if isinstance(obj, HadamardMatrix):
        return hadamard_to_json(obj)
    raise TypeError(f"no serializer for {type(obj).__name__}")


def load(path):
    """Read and parse one instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return from_json(doc)


def save(doc_or_obj, path, **kwargs):
    """Write an instance document (or a serializable object) to a file."""
    doc = doc_or_obj if isinstance(doc_or_obj, dict) else to_json(doc_or_obj, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc
