"""End-to-end tests of the command-line interface.

Every invocation goes through a subprocess so the documented exit-code
contract is what is actually tested: 0 = verified/built, 1 = property
fails (report carries a witness), 2 = input error.  Subprocesses get the
imported package's directory as an absolute PYTHONPATH, so they test the
same code as the library tests from any working directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcolor
from pcolor import fano, path_graph, save, sylvester
from pcolor.suites import maiorana_mcfarland


def cli_env():
    """Environment for a CLI subprocess: the imported package's directory
    prepended to PYTHONPATH, nothing else changed."""
    env = dict(os.environ)
    src = str(Path(pcolor.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(*args, cwd, expect):
    """Run `python -m pcolor ARGS` in `cwd` and assert it exits with `expect`."""
    proc = subprocess.run([sys.executable, "-m", "pcolor", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=cli_env())
    assert proc.returncode == expect, (
        f"{' '.join(proc.args[2:])} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def run_json(*args, cwd, expect):
    """Like `run_cli`, and return the JSON report printed on stdout."""
    proc = run_cli(*args, cwd=cwd, expect=expect)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        pytest.fail(f"{' '.join(proc.args[2:])} printed no JSON report:\n"
                    f"{proc.stdout}{proc.stderr}")


@pytest.fixture
def workdir(tmp_path):
    save(fano(), tmp_path / "fano.json")
    save(sylvester(8), tmp_path / "syl8.json")
    save(maiorana_mcfarland(4), tmp_path / "bent4.json")
    return tmp_path


def test_build_johnson(workdir):
    doc = run_json("build", "johnson", "--n", 7, "--k", 3,
                   "--out", "j73.json", cwd=workdir, expect=0)
    assert doc["ok"] and doc["n"] == 35
    saved = json.loads((workdir / "j73.json").read_text())
    assert saved["type"] == "multigraph" and saved["n"] == 35


def test_build_rejects_bad_parameters(workdir):
    doc = run_json("build", "johnson", "--n", 3, "--k", 5,
                   "--out", "bad.json", cwd=workdir, expect=2)
    assert not doc["ok"]
    assert not (workdir / "bad.json").exists()


def test_build_delta(workdir):
    doc = run_json("build", "delta", "--n", 4, "--out", "d4.json",
                   cwd=workdir, expect=0)
    assert doc["edges"] == 35
    saved = json.loads((workdir / "d4.json").read_text())
    assert len(saved["edges"]) == 35


def test_build_missing_required_parameter(workdir):
    run_cli("build", "grassmann", "--n", 4, "--k", 2,
            "--out", "g.json", cwd=workdir, expect=2)


def test_build_unknown_family(workdir):
    run_cli("build", "moebius", "--out", "x.json", cwd=workdir, expect=2)


def test_build_cayley_rejects_wrong_arity(workdir):
    doc = run_json("build", "cayley", "--orders", 5, "--set", "[1, 4]",
                   "--out", "c5.json", cwd=workdir, expect=0)
    assert doc["n"] == 5
    doc = run_json("build", "cayley", "--orders", 5, "--set", "[[1,7,7],[4,0,0]]",
                   "--out", "bad.json", cwd=workdir, expect=2)
    assert not doc["ok"] and "arity" in doc["error"]
    assert not (workdir / "bad.json").exists()


def test_build_m12_line_graph_chain(workdir):
    run_cli("build", "design-hypergraph", "--n", 7, "--k", 3, "--t", 2,
            "--out", "dh.json", cwd=workdir, expect=0)
    doc = run_json("build", "m12", "--in", "dh.json", "--out", "m.json",
                   cwd=workdir, expect=0)
    assert doc["n"] == 35
    doc = run_json("build", "line-graph", "--in", "dh.json",
                   "--out", "l.json", cwd=workdir, expect=0)
    assert doc["n"] == 21


def test_verify_design_pass_and_fail(workdir):
    doc = run_json("verify", "design", "--design", "fano.json",
                   cwd=workdir, expect=0)
    assert doc["ok"]
    # drop a block: pair (0,1) loses its cover
    broken = json.loads((workdir / "fano.json").read_text())
    broken["blocks"] = broken["blocks"][1:]
    (workdir / "broken.json").write_text(json.dumps(broken))
    doc = run_json("verify", "design", "--design", "broken.json",
                   cwd=workdir, expect=1)
    assert not doc["ok"]
    assert doc["witness"]["t_subset"] == [0, 1]
    assert doc["witness"]["count"] == 0


def test_verify_coloring_expected_quotient(workdir):
    run_cli("build", "johnson", "--n", 7, "--k", 3, "--out", "j73.json",
            cwd=workdir, expect=0)
    run_cli("bridge", "design-to-coloring", "--in", "fano.json",
            "--out", "col.json", cwd=workdir, expect=0)
    doc = run_json("verify", "coloring", "--graph", "j73.json",
                   "--coloring", "col.json",
                   "--expect-quotient", "[[0,12],[3,9]]", cwd=workdir, expect=0)
    assert doc["quotient"] == [[0, 12], [3, 9]]
    doc = run_json("verify", "coloring", "--graph", "j73.json",
                   "--coloring", "col.json",
                   "--expect-quotient", "[[1,11],[3,9]]", cwd=workdir, expect=1)
    assert "witness" in doc


def test_verify_coloring_witness(workdir):
    run_cli("build", "johnson", "--n", 7, "--k", 3, "--out", "j73.json",
            cwd=workdir, expect=0)
    bad = {"type": "coloring", "colors": [0] + [1] * 34}
    (workdir / "bad.json").write_text(json.dumps(bad))
    doc = run_json("verify", "coloring", "--graph", "j73.json",
                   "--coloring", "bad.json", cwd=workdir, expect=1)
    w = doc["witness"]
    assert {"u", "v", "profile_u", "profile_v"} <= set(w)


def test_verify_malformed_json_is_input_error(workdir):
    (workdir / "mal.json").write_text("{oops")
    doc = run_json("verify", "design", "--design", "mal.json",
                   cwd=workdir, expect=2)
    assert not doc["ok"]
    run_cli("verify", "design", "--design", "nothere.json",
            cwd=workdir, expect=2)


@pytest.mark.parametrize("name, doc", [
    ("g.json", {"type": "multigraph", "n": 2, "nnz": [[0, 1, 2 ** 65]]}),
    ("g.json", {"type": "multigraph", "n": 2, "adj": [[0, 2 ** 65], [2 ** 65, 0]]}),
    ("c.json", {"type": "coloring", "colors": [0, 2 ** 65]}),
])
def test_verify_integer_beyond_int64_is_input_error(workdir, name, doc):
    save(path_graph(2), workdir / "g.json")
    (workdir / "c.json").write_text(json.dumps({"type": "coloring", "colors": [0, 1]}))
    run_cli("verify", "coloring", "--graph", "g.json", "--coloring", "c.json",
            cwd=workdir, expect=0)
    (workdir / name).write_text(json.dumps(doc))
    doc = run_json("verify", "coloring", "--graph", "g.json", "--coloring", "c.json",
                   cwd=workdir, expect=2)
    assert "int64" in doc["error"]


def test_verify_wrong_kind_is_input_error(workdir):
    run_cli("verify", "design", "--design", "syl8.json", cwd=workdir, expect=2)


def test_verify_bent(workdir):
    doc = run_json("verify", "bent", "--boolfun", "bent4.json",
                   cwd=workdir, expect=0)
    assert doc["support_size"] == 10
    zero = {"type": "boolfun", "n": 4, "tt": "0" * 16}
    (workdir / "zero.json").write_text(json.dumps(zero))
    doc = run_json("verify", "bent", "--boolfun", "zero.json",
                   cwd=workdir, expect=1)
    # every shift of the constant function correlates fully
    assert doc["witness"] == {"y": 1, "autoconvolution": 16, "expected": 0}


def test_verify_hadamard(workdir):
    doc = run_json("verify", "hadamard", "--hadamard", "syl8.json",
                   cwd=workdir, expect=0)
    assert doc["order"] == 8
    bad = json.loads((workdir / "syl8.json").read_text())
    bad["rows"][0] = bad["rows"][0][:-1] + "-"
    (workdir / "badh.json").write_text(json.dumps(bad))
    doc = run_json("verify", "hadamard", "--hadamard", "badh.json",
                   cwd=workdir, expect=1)
    assert doc["witness"] == {"rows": [0, 1], "dot": 2, "expected": 0}


def test_verify_pds(workdir):
    gs = {"type": "groupset", "orders": [5], "set": [[1], [4]]}
    (workdir / "gs.json").write_text(json.dumps(gs))
    doc = run_json("verify", "pds", "--group", "gs.json",
                   "--params", "5,2,0,1", cwd=workdir, expect=0)
    assert doc["params"] == [5, 2, 0, 1]
    bad = {"type": "groupset", "orders": [5], "set": [[1], [2]]}
    (workdir / "gsbad.json").write_text(json.dumps(bad))
    doc = run_json("verify", "pds", "--group", "gsbad.json", cwd=workdir,
                   expect=1)
    assert "witness" in doc
    run_cli("verify", "pds", "--group", "gs.json",
            "--params", "5,2", cwd=workdir, expect=2)


def test_verify_srg(workdir):
    run_cli("build", "johnson", "--n", 5, "--k", 2, "--out", "t5.json",
            cwd=workdir, expect=0)
    doc = run_json("verify", "srg", "--graph", "t5.json", cwd=workdir,
                   expect=0)
    assert doc["params"] == [10, 6, 3, 4]


def test_verify_srg_oversized_graph_is_input_error(workdir):
    # numpy refuses the 728 TiB adjacency matrix at once: nothing is allocated.
    (workdir / "huge.json").write_text('{"type":"multigraph","n":10000000,"nnz":[]}')
    doc = run_json("verify", "srg", "--graph", "huge.json", cwd=workdir, expect=2)
    assert not doc["ok"] and "allocate" in doc["error"]


def test_verify_transversal(workdir):
    run_cli("build", "design-hypergraph", "--n", 7, "--k", 3, "--t", 2,
            "--out", "dh.json", cwd=workdir, expect=0)
    run_cli("bridge", "design-to-coloring", "--in", "fano.json",
            "--out", "col.json", cwd=workdir, expect=0)
    colors = json.loads((workdir / "col.json").read_text())["colors"]
    members = [i for i, c in enumerate(colors) if c == 0]
    vs = {"type": "vertexset", "n": 35, "set": members}
    (workdir / "vs.json").write_text(json.dumps(vs))
    doc = run_json("verify", "transversal", "--hypergraph", "dh.json",
                   "--set", "vs.json", "--l", 1, cwd=workdir, expect=0)
    assert doc["set_size"] == 7
    doc = run_json("verify", "transversal", "--hypergraph", "dh.json",
                   "--set", "vs.json", "--l", 2, cwd=workdir, expect=1)
    # the first hyperedge holds the five triples through the pair {0,1}
    assert doc["witness"] == {"edge": [0, 1, 2, 3, 4], "meets": 1, "expected": 2}
    run_cli("verify", "transversal", "--hypergraph", "dh.json",
            "--set", "vs.json", cwd=workdir, expect=2)


def test_verify_dh(workdir):
    run_cli("build", "johnson", "--n", 7, "--k", 3, "--out", "j73.json",
            cwd=workdir, expect=0)
    run_cli("bridge", "design-to-coloring", "--in", "fano.json",
            "--out", "col.json", cwd=workdir, expect=0)
    colors = json.loads((workdir / "col.json").read_text())["colors"]
    members = [i for i, c in enumerate(colors) if c == 0]
    vs = {"type": "vertexset", "n": 35, "set": members}
    (workdir / "vs.json").write_text(json.dumps(vs))
    doc = run_json("verify", "dh", "--graph", "j73.json",
                   "--set", "vs.json", "--t", 0, cwd=workdir, expect=0)
    assert doc["extremal"] and doc["bound"] == "7"
    assert doc["quotient"] == [[0, 12], [3, 9]]
    # a set with too many inner edges is a property failure, not an input error
    dense = {"type": "vertexset", "n": 35, "set": [0, 1, 2]}
    (workdir / "dense.json").write_text(json.dumps(dense))
    doc = run_json("verify", "dh", "--graph", "j73.json",
                   "--set", "dense.json", "--t", 0, cwd=workdir, expect=1)
    assert doc["witness"] == {"vertex": 0, "inner_degree": 2, "max_allowed": 0}
    # t out of range, an empty set and an irregular graph are input errors
    run_cli("verify", "dh", "--graph", "j73.json", "--set", "dense.json",
            "--t", 12, cwd=workdir, expect=2)
    (workdir / "empty.json").write_text(json.dumps({"type": "vertexset", "n": 35, "set": []}))
    run_cli("verify", "dh", "--graph", "j73.json", "--set", "empty.json",
            "--t", 0, cwd=workdir, expect=2)
    save(path_graph(35), workdir / "path.json")
    run_cli("verify", "dh", "--graph", "path.json", "--set", "dense.json",
            "--t", 0, cwd=workdir, expect=2)


def test_bridge_hadamard_chain(workdir):
    run_cli("bridge", "hadamard-to-design", "--in", "syl8.json",
            "--out", "hd.json", cwd=workdir, expect=0)
    doc = run_json("verify", "design", "--design", "hd.json", cwd=workdir,
                   expect=0)
    assert doc["parameters"] == [2, 7, 3, 1]


def test_bridge_bent_grassmann_roundtrip(workdir):
    run_cli("bridge", "bent-to-grassmann-coloring",
            "--in", "bent4.json", "--out", "col.json", cwd=workdir, expect=0)
    colors = json.loads((workdir / "col.json").read_text())["colors"]
    assert len(colors) == 35 and sorted(set(colors)) == [0, 1, 2, 3]
    run_cli("bridge", "grassmann-coloring-to-bent",
            "--in", "col.json", "--n", 4, "--out", "b2.json",
            cwd=workdir, expect=0)
    original = json.loads((workdir / "bent4.json").read_text())
    recovered = json.loads((workdir / "b2.json").read_text())
    assert original["tt"] == recovered["tt"]


def test_bridge_rejects_non_bent_with_witness(workdir):
    zero = {"type": "boolfun", "n": 4, "tt": "0" * 16}
    (workdir / "zero.json").write_text(json.dumps(zero))
    doc = run_json("bridge", "bent-to-grassmann-coloring",
                   "--in", "zero.json", "--out", "x.json", cwd=workdir,
                   expect=1)
    assert "witness" in doc
    assert not (workdir / "x.json").exists()


def test_bridge_bent_to_difference_set(workdir):
    run_cli("bridge", "bent-to-difference-set",
            "--in", "bent4.json", "--out", "ds.json", cwd=workdir, expect=0)
    saved = json.loads((workdir / "ds.json").read_text())
    assert saved["type"] == "groupset" and saved["orders"] == [2, 2, 2, 2]
    assert saved["params"] == [16, 10, 6, 6]
    run_cli("verify", "pds", "--group", "ds.json", cwd=workdir, expect=0)


def test_bridge_diffset_to_symmetric_design(workdir):
    gs = {"type": "groupset", "orders": [7], "set": [[1], [2], [4]]}
    (workdir / "gs7.json").write_text(json.dumps(gs))
    run_cli("bridge", "diffset-to-symmetric-design",
            "--in", "gs7.json", "--out", "sd.json", cwd=workdir, expect=0)
    doc = run_json("verify", "design", "--design", "sd.json", cwd=workdir,
                   expect=0)
    assert doc["parameters"] == [2, 7, 3, 1]


def test_bridge_srg_to_gamma_coloring(workdir):
    run_cli("build", "johnson", "--n", 5, "--k", 2, "--out", "t5.json",
            cwd=workdir, expect=0)
    run_cli("bridge", "srg-to-gamma-coloring", "--in", "t5.json",
            "--out", "col.json", cwd=workdir, expect=0)
    run_cli("build", "gamma", "--n", 10, "--out", "g10.json", cwd=workdir,
            expect=0)
    run_cli("verify", "hypergraph-coloring",
            "--hypergraph", "g10.json", "--coloring", "col.json",
            cwd=workdir, expect=0)


def test_bridge_pds_to_delta_coloring(workdir):
    run_cli("bridge", "bent-to-difference-set", "--in", "bent4.json",
            "--out", "ds.json", cwd=workdir, expect=0)
    run_cli("bridge", "pds-to-delta-coloring", "--in", "ds.json",
            "--out", "col.json", cwd=workdir, expect=0)
    run_cli("build", "delta", "--n", 4, "--out", "d4.json", cwd=workdir,
            expect=0)
    run_cli("build", "m12", "--in", "d4.json", "--out", "m.json", cwd=workdir,
            expect=0)
    run_cli("verify", "coloring", "--graph", "m.json",
            "--coloring", "col.json", cwd=workdir, expect=0)
    # a group of the wrong exponent is an input error
    gs = {"type": "groupset", "orders": [5], "set": [[1], [4]]}
    (workdir / "gs5.json").write_text(json.dumps(gs))
    run_cli("bridge", "pds-to-delta-coloring", "--in", "gs5.json",
            "--out", "x.json", cwd=workdir, expect=2)


def test_bridge_merge_colors(workdir):
    run_cli("bridge", "bent-to-grassmann-coloring", "--in", "bent4.json",
            "--out", "col.json", cwd=workdir, expect=0)
    run_cli("bridge", "merge-colors", "--in", "col.json",
            "--groups", "[[0,2],[1,3]]", "--out", "m.json",
            cwd=workdir, expect=0)
    merged = json.loads((workdir / "m.json").read_text())["colors"]
    assert sorted(set(merged)) == [0, 1]
    run_cli("bridge", "merge-colors", "--in", "col.json",
            "--out", "m.json", cwd=workdir, expect=2)
    run_cli("bridge", "merge-colors", "--in", "col.json",
            "--groups", "[[0],[1,3]]", "--out", "m.json",
            cwd=workdir, expect=2)


def test_suite_unknown_name(workdir):
    run_cli("suite", "AC99", cwd=workdir, expect=2)


def test_suite_ac3_line_format(workdir):
    proc = run_cli("suite", "AC3", cwd=workdir, expect=0)
    line = proc.stdout.strip()
    assert line.startswith("AC3 PASS")
