"""The three benchmark workloads.

Each workload builds its inputs from the seed in setup(), derives the
expected verdicts from those inputs alone in expectations(), runs the
timed work in iteration(), names one CLI verify call on its largest
instance file (plus any exit-code checks) in cli_calls(), and compares
every verdict with its expectation in check().  Expectations and checks
run outside the timed regions.  Every call into pcolor goes through the Recorder, under
the name of the module (layer) it belongs to.
"""

import json
from math import comb

import numpy as np

import oracles
from recorder import Raised
from pcolor import (BlockDesign, BooleanFunction, Coloring, Multigraph,
                    NotEquitable, QuotientMatrix)
from pcolor import bent, designs, difference_sets, families, hypergraphs
from pcolor import multigraph, serialize, spectral
from pcolor.suites import bent_census


def maiorana_mcfarland(n, rng):
    """Truth table of x.y + 1 composed with a random invertible GF(2)^n map.

    Composition with an element of GL(n, 2) keeps a function bent, keeps
    its weight and keeps b(0) = 1, so the result is heavy bent.
    """
    half = n // 2
    x = np.arange(1 << n)
    low, high = x & ((1 << half) - 1), x >> half
    dot = np.array([bin(v).count("1") & 1 for v in (low & high).tolist()])
    tt = 1 - dot
    while True:
        cols = [int(c) for c in rng.integers(1, 1 << n, size=n)]
        image = np.zeros(1 << n, dtype=np.int64)
        for j, c in enumerate(cols):
            image ^= ((x >> j) & 1) * c
        if len(np.unique(image)) == 1 << n:         # the map is invertible
            return tt[image]


class Workload:
    """Base of the workloads.  Subclasses set `name` and `largest_layer`,
    the layer with the largest share of the timed phase in the first traced
    run, which traced runs compare against."""

    def __init__(self, rec, tmp, seed):
        self.rec = rec
        self.tmp = tmp
        self.seed = seed
        self.expected = {}          # verdict label -> predicate, from expectations()

    def call(self, layer, fn, *args, **kwargs):
        return self.rec.call(layer, fn, *args, **kwargs)

    def save(self, obj, name, **kwargs):
        path = self.tmp / name
        self.call("serialize", serialize.save, obj, path, **kwargs)
        self.rec.count("serialize.save_bytes", path.stat().st_size)
        return path

    def load(self, path):
        self.rec.count("serialize.load_bytes", path.stat().st_size)
        return self.call("serialize", serialize.load, path)

    def build(self, fn, *args):
        self.rec.count("families.calls")
        return self.call("families", fn, *args)

    def quotient(self, G, f):
        self.rec.count("multigraph.quotient_calls")
        result = self.call("multigraph", multigraph.quotient_matrix, G, f)
        if isinstance(result, NotEquitable):
            self.rec.count("multigraph.witnesses")
        return result

    def verify_quotient(self, G, f, S):
        self.rec.count("multigraph.quotient_calls")
        return self.call("multigraph", multigraph.verify_quotient, G, f, S)

    def tables(self, H, f, incidences):
        self.rec.count("hypergraphs.incidences", incidences)
        return self.call("hypergraphs", hypergraphs.hypergraph_is_perfect, H, f)

    def structure_checks(self):
        """Closed-form checks of what the last iteration constructed."""
        return {}

    def check(self, results):
        """(checks made, failure messages) for one iteration's outputs."""
        failures = []
        for label, value in results:
            try:
                ok = not isinstance(value, Raised) and self.expected[label](value)
            except (AttributeError, TypeError, ValueError):
                ok = False
            if not ok:
                failures.append(f"{self.name}: {label}: got {value!r}")
        structure = self.structure_checks()
        failures += [f"{self.name}: {key} does not match its closed form"
                     for key, ok in structure.items() if not ok]
        return len(results) + len(structure), failures


def quotient_expectation(adj, colors):
    """Check for one quotient_matrix result against the profile oracle."""
    colors = [int(c) for c in colors]
    num_colors = max(colors) + 1
    profile = oracles.profiles(adj, colors, num_colors)
    quotient = oracles.quotient_or_none(profile, colors, num_colors)

    def check(value):
        if quotient is not None:
            return isinstance(value, QuotientMatrix) and tuple(map(tuple, value.tolist())) == quotient
        # A witness must name two vertices of one color whose profiles,
        # recomputed from the adjacency, really differ.
        return (isinstance(value, NotEquitable)
                and colors[value.u] == colors[value.v]
                and list(value.profile_u) == profile[value.u]
                and list(value.profile_v) == profile[value.v]
                and value.profile_u != value.profile_v)
    return check


def equals(expected):
    return lambda value: value == expected


def cli_report(expect_exit, check):
    """Check of a CLI run: exit code plus a predicate on the JSON report."""
    def verdict(code, stdout):
        if code != expect_exit:
            return False
        try:
            return check(json.loads(stdout))
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
    return verdict


# ----------------------------------------------------------------- verify-large

class VerifyLarge(Workload):
    """Few huge inputs: two Grassmann graphs read from sparse JSON, three
    colorings of the 651-vertex one, strong regularity and ratio bounds."""

    name = "verify-large"
    largest_layer = "difference_sets"

    def setup(self):
        self.inputs = self.files = None         # free the last repetition's graphs first
        rng = np.random.default_rng(self.seed)
        tt = maiorana_mcfarland(6, rng)
        subspaces = self.build(families.enumerate_subspaces, 6, 2, 2)
        g6 = self.build(families.grassmann, 6, 2, 2)
        g53 = self.build(families.grassmann, 5, 2, 3)
        f = self.call("bent", bent.bent_to_grassmann_coloring, BooleanFunction(tt),
                      subspaces=subspaces, verify=False)
        merged = self.call("multigraph", multigraph.merge_colors, f, [{0, 2}, {1, 3}])
        # Swap the colors of two vertices from two seeded classes: the
        # class sizes stay, the coloring stops being equitable.
        i, j = (int(c) for c in rng.choice(4, size=2, replace=False))
        u = int(rng.choice(np.flatnonzero(f.assignment == i)))
        v = int(rng.choice(np.flatnonzero(f.assignment == j)))
        swapped = f.assignment.copy()
        swapped[u], swapped[v] = j, i
        self.inputs = {"adj6": g6.adj, "f": f.assignment,
                       "merged": merged.assignment, "swapped": swapped}
        self.files = {"g6": self.save(g6, "grassmann_6_2_2.json", sparse=True),
                      "g53": self.save(g53, "grassmann_5_2_3.json", sparse=True),
                      "f": self.save(f, "bent4.json"),
                      "merged": self.save(merged, "merged.json"),
                      "swapped": self.save(Coloring(swapped), "swapped.json")}

    def iteration(self):
        rec, files = self.rec, self.files
        g6, g53 = self.load(files["g6"]), self.load(files["g53"])
        f, merged, swapped = (self.load(files[k]) for k in ("f", "merged", "swapped"))
        S4 = rec.verdict("theorem_avg_matrix",
                         lambda: self.call("bent", bent.theorem_avg_matrix, 6))
        S2 = rec.verdict("merged_two_coloring_matrix",
                         lambda: self.call("bent", bent.merged_two_coloring_matrix, 6))
        rec.verdict("quotient f", lambda: self.quotient(g6, f))
        rec.verdict("verify f", lambda: self.verify_quotient(g6, f, S4))
        rec.verdict("quotient merged", lambda: self.quotient(g6, merged))
        rec.verdict("verify merged", lambda: self.verify_quotient(g6, merged, S2))
        rec.verdict("quotient swapped", lambda: self.quotient(g6, swapped))
        for key, G in (("g6", g6), ("g53", g53)):
            rec.count("difference_sets.product_macs", G.n ** 3)
            rec.verdict(f"srg {key}", lambda: self.call(
                "difference_sets", difference_sets.verify_srg, G))
            rec.verdict(f"dh {key}", lambda: self.call("spectral", spectral.dh_bound, G, 0))

    def cli_calls(self):
        srg = oracles.grassmann_srg(5, 3)
        return [
            (["verify", "srg", "--graph", str(self.files["g53"])],
             cli_report(0, lambda r: r["ok"] and tuple(r["params"]) == srg)),
            (["verify", "coloring", "--graph", str(self.files["g6"]),
              "--coloring", str(self.files["swapped"])],
             cli_report(1, lambda r: not r["ok"] and "witness" in r)),
        ]

    def expectations(self):
        srg6, srg53 = oracles.grassmann_srg(6, 2), oracles.grassmann_srg(5, 3)
        S4, S2 = oracles.bent_avg_matrix(6), oracles.bent_merged_matrix(6)
        adj6 = self.inputs["adj6"]
        exp = {"theorem_avg_matrix": equals(S4),
               "merged_two_coloring_matrix": equals(S2),
               "verify f": equals(True), "verify merged": equals(True),
               "srg g6": lambda r: (r.v, r.k, r.lam, r.mu) == srg6,
               "srg g53": lambda r: (r.v, r.k, r.lam, r.mu) == srg53,
               "dh g6": equals(oracles.srg_ratio_bound(*srg6)),
               "dh g53": equals(oracles.srg_ratio_bound(*srg53))}
        for key, want in (("f", S4), ("merged", S2), ("swapped", None)):
            check = quotient_expectation(adj6, self.inputs[key])
            if want is None:
                exp[f"quotient {key}"] = lambda r, check=check: isinstance(r, NotEquitable) and check(r)
            else:
                exp[f"quotient {key}"] = lambda r, check=check, want=want: r == want and check(r)
        return exp


# ------------------------------------------------------------------- exhaustive

class Exhaustive(Workload):
    """Many tiny inputs: the n = 4 bent census and its 280 round trips,
    every 2-coloring of every graph on at most 5 vertices plus seeded
    random 6-vertex multigraphs, and the 5-point triangle hypergraph."""

    name = "exhaustive"
    largest_layer = "bent"
    RANDOM_GRAPHS = 50

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.pairs = []
        for n in range(2, 6):
            colorings = [Coloring(c) for c in oracles.two_colorings(n)]
            for adj in oracles.simple_graphs(n):
                G = Multigraph(adj)
                self.pairs.extend((G, f) for f in colorings)
        colorings6 = [Coloring(c) for c in oracles.two_colorings(6)]
        for _ in range(self.RANDOM_GRAPHS):
            upper = np.triu(rng.integers(0, 4, size=(6, 6)))
            G = Multigraph(upper + np.triu(upper, 1).T)
            self.pairs.extend((G, f) for f in colorings6)
        # The triangle hypergraph's vertices are the 10 point pairs in
        # lexicographic order; a graph colors its edges 0, its non-edges 1.
        self.h5 = self.build(families.triangle_hypergraph, 5)
        self.h5_incidences = sum(len(e) for e in self.h5.edges)
        pairs5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        self.gamma = []
        for adj in oracles.simple_graphs(5):
            colors = [0 if adj[a, b] else 1 for a, b in pairs5]
            self.gamma.append(Coloring(colors if 0 < sum(colors) < 10 else [0] * 10))
        self.subspaces4 = self.build(families.enumerate_subspaces, 4, 2, 2)
        self.g4 = self.build(families.grassmann, 4, 2, 2)
        self.census = oracles.walsh_census(4)
        self.heavy = [np.array([(code >> x) & 1 for x in range(16)]) for code in self.census[1]]
        tt = maiorana_mcfarland(4, rng)
        f4 = self.call("bent", bent.bent_to_grassmann_coloring, BooleanFunction(tt),
                       subspaces=self.subspaces4, verify=False)
        self.files = {"g4": self.save(self.g4, "grassmann_4_2_2.json"),
                      "f4": self.save(f4, "bent4.json")}

    def iteration(self):
        rec = self.rec
        # A round trip is two verified bridge calls, each its own verdict.
        kw = {"subspaces": self.subspaces4, "graph": self.g4}
        for i, tt in enumerate(self.heavy):
            f = rec.verdict(("to coloring", i), lambda: self.call(
                "bent", bent.bent_to_grassmann_coloring, BooleanFunction(tt), **kw))
            rec.verdict(("to bent", i), lambda: self.call(
                "bent", bent.grassmann_coloring_to_bent, f, 4, **kw))
        for i, (G, f) in enumerate(self.pairs):
            rec.verdict(("quotient", i), lambda: self.quotient(G, f))
        for i, f in enumerate(self.gamma):
            rec.verdict(("tables", i), lambda: self.tables(self.h5, f, self.h5_incidences))
        # The census runs last: its two pool workers load both CPUs, which
        # would otherwise slow the single-threaded calls right after it.
        rec.count("bent.truth_tables", 1 << 16)
        rec.verdict("census", lambda: self.call("bent", bent_census, 4))

    def cli_calls(self):
        S4 = [list(row) for row in oracles.bent_avg_matrix(4)]
        return [(["verify", "coloring", "--graph", str(self.files["g4"]),
                  "--coloring", str(self.files["f4"]), "--expect-quotient", json.dumps(S4)],
                 cli_report(0, lambda r: r["ok"] and r["quotient"] == S4))]

    def expectations(self):
        heavy_codes = self.census[1]
        exp = {"census": lambda r: r[0] == 896 and len(r[1]) == 280 and list(r[1]) == heavy_codes}
        # Color of a 2-subspace: ones of b on its four vectors, minus one.
        spans = [[0, a, b, a ^ b] for a, b in
                 ([sum(int(x) << j for j, x in enumerate(row)) for row in s.basis]
                  for s in self.subspaces4)]
        for i, tt in enumerate(self.heavy):
            colors = [int(tt[span].sum()) - 1 for span in spans]
            exp[("to coloring", i)] = (
                lambda r, colors=colors: isinstance(r, Coloring) and r.assignment.tolist() == colors)
            exp[("to bent", i)] = (
                lambda r, tt=tt: isinstance(r, BooleanFunction) and np.array_equal(r.tt, tt))
        for i, (G, f) in enumerate(self.pairs):
            exp[("quotient", i)] = quotient_expectation(G.adj, f.assignment)
        for i, f in enumerate(self.gamma):
            want = oracles.hypergraph_tables(self.h5.n, self.h5.edges, f.assignment, f.num_colors)
            exp[("tables", i)] = (
                lambda r, want=want: bool(r) == (want is not None)
                and (want is None or r.tables == want))
        return exp


# -------------------------------------------------------------------- construct

class Construct(Workload):
    """Python-loop constructors and JSON writes: subspace-design
    hypergraphs, a Grassmann graph, a Johnson-type multigraph, the
    zero-sum triples of GF(2)^10, m12, composition tables and a design."""

    name = "construct"
    largest_layer = "families"

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.b10 = BooleanFunction(maiorana_mcfarland(10, rng))
        self.relabel = rng.permutation(255)

    def iteration(self):
        rec, relabel = self.rec, self.relabel
        built = self.built = {}
        built["h532"] = self.build(families.subspace_design_hypergraph, 5, 3, 2, 2)
        built["h612"] = self.build(families.subspace_design_hypergraph, 6, 2, 1, 2)
        built["g53"] = self.build(families.grassmann, 5, 2, 3)
        built["j1252"] = self.build(families.johnson_design_multigraph, 12, 5, 2)
        built["delta10"] = self.build(families.delta_hypergraph, 10)
        for key in ("h532", "h612"):
            H = built[key]
            rec.count("hypergraphs.incidences", sum(len(e) for e in H.edges))
            rec.count("hypergraphs.product_macs", H.n * H.n * H.num_edges)
            B = self.call("hypergraphs", hypergraphs.incidence_bipartite, H)
            built[f"m12 {key}"] = self.call("hypergraphs", hypergraphs.m12, B, keep_loops=False)
        f = self.call("bent", bent.bent_delta_coloring, self.b10)
        built["delta coloring"] = f
        incidences = 3 * built["delta10"].num_edges
        rec.verdict("tables delta10", lambda: self.tables(built["delta10"], f, incidences))
        H256 = self.call("designs", designs.sylvester, 256)
        rec.verdict("hadamard 256", lambda: self.call("designs", designs.verify_hadamard, H256))
        D = self.call("designs", designs.hadamard_to_design, H256)
        D = BlockDesign(D.n, D.k, D.t, D.lam, [[int(relabel[p]) for p in b] for b in D.blocks])
        built["design"] = D
        rec.verdict("design 255", lambda: self.call("designs", designs.verify_design, D))
        self.files = {
            "h532": self.save(built["h532"], "subspace_design_5_3_2_2.json"),
            "h612": self.save(built["h612"], "subspace_design_6_2_1_2.json"),
            "g53": self.save(built["g53"], "grassmann_5_2_3.json", sparse=True),
            "j1252": self.save(built["j1252"], "johnson_design_12_5_2.json"),
            "m12 h532": self.save(built["m12 h532"], "m12_5_3_2_2.json"),
            "m12 h612": self.save(built["m12 h612"], "m12_6_2_1_2.json", sparse=True),
            "delta10": self.save(built["delta10"], "delta_10.json"),
            "delta coloring": self.save(f, "delta_10_bent.json"),
            "design": self.save(D, "design_255_127_63.json"),
        }

    def cli_calls(self):
        want = [sorted([list(comp), count] for comp, count in t.items()) for t in self.tables10]
        return [(["verify", "hypergraph-coloring", "--hypergraph", str(self.files["delta10"]),
                  "--coloring", str(self.files["delta coloring"])],
                 cli_report(0, lambda r: r["ok"] and [sorted([row["composition"], row["count"]]
                                                             for row in t) for t in r["tables"]] == want))]

    def expectations(self):
        self.edges10 = oracles.delta_edges(10)
        self.colors10 = np.where(self.b10.tt[1:] == 1, 0, 1)
        self.tables10 = oracles.hypergraph_tables(1023, self.edges10, self.colors10, 2)
        self.blocks = [tuple(sorted(int(self.relabel[p]) for p in block))
                       for block in oracles.sylvester_blocks(256)]
        design_valid = oracles.design_ok(255, 127, 63, self.blocks)
        return {
            "tables delta10": lambda r: bool(r) and r.tables == self.tables10,
            "hadamard 256": equals(True),
            "design 255": lambda r: r is True and design_valid,
        }

    def structure_checks(self):
        b, g = self.built, oracles.gaussian
        return {
            "h532": hypergraph_shape(b["h532"], g(5, 3, 2), g(5, 2, 2), g(3, 1, 2), g(3, 2, 2)),
            "h612": hypergraph_shape(b["h612"], g(6, 2, 2), g(6, 1, 2), g(5, 1, 2), g(2, 1, 2)),
            "g53": graph_shape(b["g53"], 1210, 156, 1),
            "j1252": graph_shape(b["j1252"], comb(12, 5), oracles.johnson_design_degree(12, 5, 2),
                                 comb(4, 2)),
            "m12 h532": graph_shape(b["m12 h532"], g(5, 3, 2), g(3, 2, 2) * (g(3, 1, 2) - 1), 1),
            "m12 h612": graph_shape(b["m12 h612"], g(6, 2, 2), g(2, 1, 2) * (g(5, 1, 2) - 1), 1),
            "delta10": b["delta10"].n == 1023 and np.array_equal(b["delta10"].edges, self.edges10),
            "delta coloring": np.array_equal(b["delta coloring"].assignment, self.colors10),
            "design": b["design"].blocks == self.blocks,
        }


def hypergraph_shape(H, n, edges, size, degree):
    E = np.array(H.edges)
    return (H.n == n and E.shape == (edges, size)
            and (np.bincount(E.ravel(), minlength=n) == degree).all())


def graph_shape(G, n, degree, max_mult):
    A = G.adj
    return (A.shape == (n, n) and (A == A.T).all() and not A.diagonal().any()
            and A.max() == max_mult and (A.sum(axis=1) == degree).all())


WORKLOADS = {w.name: w for w in (VerifyLarge, Exhaustive, Construct)}
