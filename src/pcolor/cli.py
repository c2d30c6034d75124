"""Command-line front end: build instances, verify properties, bridge
between object kinds, and run the reproducibility suites.

Exit codes: 0 = verified / built, 1 = the property fails (the JSON report
carries a "witness"), 2 = input or parameter error.  All reports are JSON
on stdout.
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import serialize
from .bent import (BooleanFunction, bent_to_difference_set,
                   bent_to_grassmann_coloring, check_bent,
                   grassmann_coloring_to_bent)
from .designs import (BlockDesign, HadamardMatrix, SubspaceDesign, check_design,
                      check_hadamard, check_subspace_design, design_to_coloring,
                      hadamard_to_design)
from .difference_sets import (difference_set_to_symmetric_design,
                              pds_delta_coloring, PDSParams,
                              srg_gamma_coloring, verify_pds, verify_srg)
from .families import (AbelianGroup, cayley, delta_hypergraph, grassmann,
                       design_hypergraph, johnson, subspace_design_hypergraph,
                       int_to_vec, triangle_hypergraph, vec_to_int)
from .hypergraphs import (Hypergraph, check_transversal, hypergraph_is_perfect,
                          incidence_bipartite, line_multigraph, m12)
from .multigraph import Coloring, Multigraph, Verdict, merge_colors, quotient_matrix
from .spectral import OverFullVertex, check_dh_extremal
from .suites import SUITES, run


def _plain(x):
    """Recursively convert to JSON-serializable plain Python values."""
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _emit(report):
    print(json.dumps(_plain(report), indent=1))


class InputError(ValueError):
    """Malformed files or parameters; always maps to exit code 2."""


def _load_as(path, kinds, what):
    if path is None:
        raise InputError(f"a {what} file is required")
    try:
        obj = serialize.load(path)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not isinstance(obj, kinds):
        raise InputError(f"{path}: expected a {what} file")
    return obj


def _load_vertexset(path):
    obj = _load_as(path, tuple, "vertexset")
    if len(obj) != 2 or not isinstance(obj[0], int):
        raise InputError(f"{path}: expected a vertexset file")
    return obj


def _load_groupset(path):
    obj = _load_as(path, tuple, "groupset")
    if len(obj) != 3 or not isinstance(obj[0], AbelianGroup):
        raise InputError(f"{path}: expected a groupset file")
    return obj


def _parse_matrix(text):
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {text!r}") from exc
    if (not isinstance(rows, list)
            or not all(isinstance(r, list) and all(isinstance(v, int) for v in r)
                       for r in rows)):
        raise InputError("expected a JSON matrix of integers")
    return rows


# --------------------------------------------------------------- build

def _build_object(args):
    family = args.family
    if family == "johnson":
        return johnson(args.n, args.k)
    if family == "grassmann":
        return grassmann(args.n, args.k, args.q)
    if family == "design-hypergraph":
        return design_hypergraph(args.n, args.k, args.t)
    if family == "subspace-design-hypergraph":
        return subspace_design_hypergraph(args.n, args.k, args.t, args.q)
    if family == "gamma":
        return triangle_hypergraph(args.n)
    if family == "delta":
        return delta_hypergraph(args.n)
    if family == "cayley":
        K = AbelianGroup(_parse_orders(args.orders))
        members = _parse_group_elements(args.set)
        return cayley(K, members)
    if family == "m12":
        H = _load_as(args.infile, Hypergraph, "hypergraph")
        return m12(incidence_bipartite(H), keep_loops=not args.loopless)
    if family == "line-graph":
        H = _load_as(args.infile, Hypergraph, "hypergraph")
        return line_multigraph(H)
    raise ValueError(f"unknown family {family!r}")


def _parse_orders(text):
    if text is None:
        raise InputError("cayley requires --orders")
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"--orders must be comma-separated integers, got {text!r}") from None


def _parse_group_elements(text):
    if text is None:
        raise InputError("cayley requires --set (a JSON list of elements)")
    try:
        elements = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--set is not valid JSON: {text!r}") from exc
    if not isinstance(elements, list):
        raise InputError("--set must be a JSON list of group elements")
    return [tuple(e) if isinstance(e, list) else (e,) for e in elements]


_NEEDS = {
    "johnson": ("n", "k"), "grassmann": ("n", "k", "q"),
    "design-hypergraph": ("n", "k", "t"),
    "subspace-design-hypergraph": ("n", "k", "t", "q"),
    "gamma": ("n",), "delta": ("n",), "cayley": (),
    "m12": (), "line-graph": (),
}


def cmd_build(args):
    for field in _NEEDS[args.family]:
        if getattr(args, field) is None:
            raise InputError(f"build {args.family} requires --{field}")
    if args.family in ("m12", "line-graph") and args.infile is None:
        raise InputError(f"build {args.family} requires --in")
    obj = _build_object(args)
    if args.sparse and not isinstance(obj, Multigraph):
        raise InputError("--sparse only applies to multigraph outputs")
    serialize.save(obj, args.out, **({"sparse": True} if args.sparse else {}))
    report = {"ok": True, "out": args.out, "type": serialize.to_json(obj)["type"]}
    if isinstance(obj, (Multigraph, Hypergraph)):
        report["n"] = obj.n
    if isinstance(obj, Hypergraph):
        report["edges"] = len(obj.edges)
    _emit(report)
    return 0


# -------------------------------------------------------------- verify

def _one_file(flag, kind, what, check):
    """Verifier that loads the file given by --flag and runs `check` on it."""
    return lambda args: check(_load_as(getattr(args, flag), kind, what))


def _verify_coloring(args):
    G = _load_as(args.graph, Multigraph, "multigraph")
    f = _load_as(args.coloring, Coloring, "coloring")
    Q = quotient_matrix(G, f)
    if not Q or args.expect_quotient is None:
        return Q
    expected = _parse_matrix(args.expect_quotient)
    if Q != expected:
        return Verdict(False, {**Q.evidence,
                               "witness": {"actual": Q.tolist(), "expected": expected}})
    return Verdict(True, {**Q.evidence, "expected": expected})


def _verify_hypergraph_coloring(args):
    H = _load_as(args.hypergraph, Hypergraph, "hypergraph")
    return hypergraph_is_perfect(H, _load_as(args.coloring, Coloring, "coloring"))


def _verify_transversal(args):
    H = _load_as(args.hypergraph, Hypergraph, "hypergraph")
    n, A = _load_vertexset(args.set)
    if n != H.n:
        raise InputError("vertex set and hypergraph sizes differ")
    if args.l is None or args.l < 0:
        raise InputError("transversal verification requires --l >= 0")
    return check_transversal(H, A, args.l)


def _verify_pds(args):
    K, D, params = _load_groupset(args.group)
    if args.params is not None:
        try:
            v, k, lam, mu = (int(tok) for tok in args.params.split(","))
        except ValueError:
            raise InputError("--params must be v,k,lam,mu") from None
        params = PDSParams(v=v, k=k, lam=lam, mu=mu)
    return verify_pds(K, D, params)


def _verify_dh(args):
    # bool(DHReport) is `extremal`; any report that was made verifies.
    G = _load_as(args.graph, Multigraph, "multigraph")
    n, A = _load_vertexset(args.set)
    if n != G.n:
        raise InputError("vertex set and graph sizes differ")
    if args.t is None:
        raise InputError("dh verification requires --t")
    try:
        return Verdict(True, check_dh_extremal(G, A, args.t).evidence)
    except OverFullVertex as exc:
        return Verdict(False, exc.evidence)
    except ValueError as exc:     # irregular graph, t out of range, empty set
        raise InputError(str(exc)) from exc


_VERIFIERS = {
    "coloring": _verify_coloring,
    "hypergraph-coloring": _verify_hypergraph_coloring,
    "design": _one_file("design", BlockDesign, "design", check_design),
    "q-design": _one_file("design", SubspaceDesign, "qdesign", check_subspace_design),
    "transversal": _verify_transversal,
    "pds": _verify_pds,
    "srg": _one_file("graph", Multigraph, "multigraph", verify_srg),
    "bent": _one_file("boolfun", BooleanFunction, "boolfun", check_bent),
    "hadamard": _one_file("hadamard", HadamardMatrix, "hadamard", check_hadamard),
    "dh": _verify_dh,
}


def cmd_verify(args):
    # Each verifier returns its library result: truth is the verdict, and
    # .evidence the rest of the report.
    result = _VERIFIERS[args.kind](args)
    _emit({"kind": args.kind, "ok": bool(result), **result.evidence})
    return 0 if result else 1


# -------------------------------------------------------------- bridge

def _bridge_object(args):
    name = args.name
    if name == "hadamard-to-design":
        H = _load_as(args.infile, HadamardMatrix, "hadamard")
        return hadamard_to_design(H)
    if name == "design-to-coloring":
        D = _load_as(args.infile, BlockDesign, "design")
        return design_to_coloring(D)
    if name == "bent-to-grassmann-coloring":
        b = _load_as(args.infile, BooleanFunction, "boolfun")
        return bent_to_grassmann_coloring(b)
    if name == "grassmann-coloring-to-bent":
        f = _load_as(args.infile, Coloring, "coloring")
        if args.n is None:
            raise InputError("grassmann-coloring-to-bent requires --n")
        order = None
        if args.color_order is not None:
            try:
                order = [int(tok) for tok in args.color_order.split(",")]
            except ValueError:
                raise InputError("--color-order must be a comma permutation of 0..3") from None
        return grassmann_coloring_to_bent(f, args.n, color_order=order)
    if name == "bent-to-difference-set":
        b = _load_as(args.infile, BooleanFunction, "boolfun")
        B, params = bent_to_difference_set(b)
        K = AbelianGroup([2] * b.n)
        members = [int_to_vec(x, b.n) for x in B]
        return serialize.groupset_to_json(K, members, params)
    if name == "diffset-to-symmetric-design":
        K, D, _params = _load_groupset(args.infile)
        return difference_set_to_symmetric_design(K, D)
    if name == "srg-to-gamma-coloring":
        G = _load_as(args.infile, Multigraph, "multigraph")
        return srg_gamma_coloring(G)
    if name == "pds-to-delta-coloring":
        K, D, _params = _load_groupset(args.infile)
        if any(order != 2 for order in K.orders):
            raise InputError("delta colorings need a group of exponent 2")
        n = len(K.orders)
        members = [x for x in (vec_to_int(e) for e in D) if x != 0]
        return pds_delta_coloring(n, members)
    if name == "merge-colors":
        f = _load_as(args.infile, Coloring, "coloring")
        if args.groups is None:
            raise InputError("merge-colors requires --groups")
        try:
            groups = json.loads(args.groups)
        except json.JSONDecodeError as exc:
            raise InputError(f"--groups is not valid JSON: {args.groups!r}") from exc
        try:
            return merge_colors(f, [set(g) for g in groups])
        except (TypeError, ValueError) as exc:
            raise InputError(f"--groups: {exc}") from exc
    raise InputError(f"unknown bridge {name!r}")


def cmd_bridge(args):
    # Input files and flags are schema-checked as they load; their
    # problems raise InputError and exit 2.  A bridge that rejects
    # well-formed inputs on mathematical grounds is a property failure:
    # report the reason as a witness and exit 1.
    try:
        result = _bridge_object(args)
    except InputError:
        raise
    except ValueError as exc:
        _emit({"kind": args.name, "ok": False, "witness": str(exc)})
        return 1
    serialize.save(result, args.out)
    doc = result if isinstance(result, dict) else serialize.to_json(result)
    _emit({"kind": args.name, "ok": True, "out": args.out, "type": doc["type"]})
    return 0


# --------------------------------------------------------------- suite

def cmd_suite(args):
    names = list(SUITES) if args.name == "all" else [args.name]
    results = [run(name, seed=args.seed) for name in names]
    for result in results:
        print(result.line())
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------- main

def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcolor",
        description="Verify equivalences between equitable graph colorings "
                    "and combinatorial designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a named instance file")
    p_build.add_argument("family", choices=sorted(_NEEDS))
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--k", type=int)
    p_build.add_argument("--t", type=int)
    p_build.add_argument("--q", type=int)
    p_build.add_argument("--orders", help="comma-separated cyclic orders (cayley)")
    p_build.add_argument("--set", help="JSON list of group elements (cayley)")
    p_build.add_argument("--in", dest="infile", help="input hypergraph (m12, line-graph)")
    p_build.add_argument("--loopless", action="store_true",
                         help="zero the diagonal of m12")
    p_build.add_argument("--sparse", action="store_true",
                         help="write the adjacency as nnz triplets")
    p_build.add_argument("-o", "--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="check a property; exit 1 with a witness if it fails")
    p_verify.add_argument("kind", choices=sorted(_VERIFIERS))
    p_verify.add_argument("--graph")
    p_verify.add_argument("--coloring")
    p_verify.add_argument("--hypergraph")
    p_verify.add_argument("--design")
    p_verify.add_argument("--set")
    p_verify.add_argument("--group")
    p_verify.add_argument("--boolfun")
    p_verify.add_argument("--hadamard")
    p_verify.add_argument("--expect-quotient", help="JSON matrix the quotient must equal")
    p_verify.add_argument("--params", help="v,k,lam,mu for pds")
    p_verify.add_argument("--l", type=int, help="transversal fold")
    p_verify.add_argument("--t", type=int, help="inner-degree cap for dh")
    p_verify.set_defaults(func=cmd_verify)

    bridges = ["hadamard-to-design", "design-to-coloring",
               "bent-to-grassmann-coloring", "grassmann-coloring-to-bent",
               "bent-to-difference-set", "diffset-to-symmetric-design",
               "srg-to-gamma-coloring", "pds-to-delta-coloring", "merge-colors"]
    p_bridge = sub.add_parser("bridge", help="convert one kind of object into another")
    p_bridge.add_argument("name", choices=bridges)
    p_bridge.add_argument("--in", dest="infile", required=True)
    p_bridge.add_argument("--n", type=int, help="ambient dimension (grassmann-coloring-to-bent)")
    p_bridge.add_argument("--color-order",
                          help="comma permutation mapping roles 0..3 to input colors")
    p_bridge.add_argument("--groups", help="JSON list of color groups (merge-colors)")
    p_bridge.add_argument("-o", "--out", required=True)
    p_bridge.set_defaults(func=cmd_bridge)

    p_suite = sub.add_parser("suite", help="run reproducibility suites")
    p_suite.add_argument("name", choices=list(SUITES) + ["all"])
    p_suite.add_argument("--seed", type=int, default=0,
                         help="seed for randomized sweeps (default 0)")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # An input too large to hold is an input error, not a failed property.
        _emit({"ok": False, "error": str(exc) or type(exc).__name__})
        return 2


if __name__ == "__main__":
    sys.exit(main())
