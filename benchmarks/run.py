"""pcolor benchmark: run one workload from a seed, check every verdict,
print every metric by name and unit.

Run from the repository root:

    python3 benchmarks/run.py --workload verify-large --seed 1 --seconds 15 --trace 0

Workloads are verify-large, exhaustive and construct (see README.md).  After
one set-up the run repeats rounds of one timed iteration followed by set-up
and the timed CLI call in turn, until the iterations add up to --seconds.
With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The line before it records the environment, the verdict count,
the verdict latency percentiles and the error rate.  pcolor is imported from src/ of the same checkout and
its CLI is run with that directory as an absolute PYTHONPATH.  Instance
files go to a temporary directory under .bench_tmp/, removed at the end.
The program's own parallelism (census process pool, OpenBLAS threads) is
left at its defaults and recorded.
"""

import argparse
import ctypes
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from recorder import LAYERS, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# After each timed iteration, set-up and the timed CLI call take turns: each
# runs at least min_n times and at most max_n, stopping after min_n once its
# budget in seconds is spent, so short ones get more samples.  Taking turns
# spreads the samples of both over the round, so a slow stretch of a shared
# machine falls on a few samples of each rather than on all of one.  Metrics
# take the median over all rounds.
SETUP_REPEATS = (1, 3, 1.0)
CLI_REPEATS = (1, 16, 4.5)

# Per-layer busy time: metric -> span names (layer.function) it sums.
BUSY = {
    "families.build_s": ("families.",),
    "difference_sets.verify_srg_s": ("difference_sets.verify_srg",),
    "multigraph.quotient_s": ("multigraph.quotient_matrix", "multigraph.verify_quotient"),
    "spectral.dh_bound_s": ("spectral.dh_bound",),
    "hypergraphs.tables_s": ("hypergraphs.hypergraph_is_perfect",),
    "hypergraphs.m12_s": ("hypergraphs.incidence_bipartite", "hypergraphs.m12"),
    "serialize.load_s": ("serialize.load",),
    "serialize.save_s": ("serialize.save",),
    "bent.census_s": ("bent.bent_census",),
    "bent.round_trip_s": ("bent.bent_to_grassmann_coloring", "bent.grassmann_coloring_to_bent"),
    "designs.verify_s": ("designs.verify_design", "designs.verify_hadamard"),
    "cli.verify_s": ("cli.verify",),
}
# Per-layer work done, counted at the call sites; MACs and bytes are
# computed from array and file sizes, so they repeat exactly.
COUNTS = {"families.calls": "count", "difference_sets.product_macs": "count",
          "multigraph.quotient_calls": "count", "multigraph.witnesses": "count",
          "hypergraphs.incidences": "count", "hypergraphs.product_macs": "count",
          "serialize.load_bytes": "bytes", "serialize.save_bytes": "bytes",
          "bent.truth_tables": "count"}


def import_pcolor():
    """Import pcolor from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "pcolor" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pcolor package at {SRC / 'pcolor'}")
    sys.path.insert(0, str(SRC))
    import pcolor
    if Path(pcolor.__file__).resolve().parent != SRC / "pcolor":
        sys.exit(f"benchmark: imported pcolor from {pcolor.__file__}, not from {SRC}")
    return pcolor


def blas_threads():
    """OpenBLAS thread count of the numpy in this process, 0 if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return 0


def cli_env(pcolor):
    """Environment for a CLI subprocess: the imported package's directory
    as an absolute PYTHONPATH, nothing else changed."""
    env = dict(os.environ)
    src = str(Path(pcolor.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify(argv, env, cwd):
    """One `python -m pcolor verify ...` subprocess; (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "pcolor", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=150)
    return proc.returncode, proc.stdout


def fresh_import(env, cwd):
    """A new interpreter importing pcolor: the import cost every CLI call pays."""
    subprocess.run([sys.executable, "-c", "import pcolor"], env=env, cwd=cwd,
                   check=True, timeout=60)


def take_turns(*jobs):
    """Run the (fn, (min_n, max_n, budget)) jobs in turn, each until it has
    run max_n times, or min_n times and budget seconds; the wall seconds of
    each job's runs."""
    walls = [[] for _ in jobs]

    def wants(k):
        min_n, max_n, budget = jobs[k][1]
        done = walls[k]
        return len(done) < max_n and (len(done) < min_n or sum(done) < budget)

    while any(wants(k) for k in range(len(jobs))):
        for k, (fn, _) in enumerate(jobs):
            if wants(k):
                start = perf_counter()
                fn()
                walls[k].append(perf_counter() - start)
    return walls


def percentile_ms(per_iteration, p):
    """Median over iterations of the p-th percentile of an iteration's
    verdict latencies, in ms."""
    return 1000 * statistics.median(
        statistics.quantiles(values, n=100, method="inclusive")[p - 1] for values in per_iteration)


def per_layer(rec, iteration_walls, workers):
    metrics = {}
    for metric, names in BUSY.items():
        metrics[metric] = (rec.per_kind_median(
            lambda b, s, c, names=names: sum(t for name, t in b.items() if name.startswith(names))),
            "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            rec.per_kind_median(lambda b, s, c, layer=layer: s.get(layer, 0.0)), "s")
    for name, unit in COUNTS.items():
        metrics[name] = (rec.per_kind_median(lambda b, s, c, name=name: c.get(name, 0)), unit)
    metrics["trace.overhead_s"] = (statistics.median(iteration_walls[True])
                                   - statistics.median(iteration_walls[False]), "s")
    metrics["trace.spans"] = (rec.per_kind_median(lambda b, s, c: c.get("spans", 0), ("iteration",)),
                              "count")
    metrics["env.census_workers"] = (workers, "count")
    metrics["env.blas_threads"] = (blas_threads(), "count")
    return metrics


def timed_phase_shares(rec, iteration_walls):
    """Each layer's self time as a share of the traced iteration wall."""
    wall = statistics.median(iteration_walls[True])
    return {layer: rec.per_kind_median(lambda b, s, c: s.get(layer, 0.0), ("iteration",)) / wall
            for layer in LAYERS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pcolor = import_pcolor()
    from pcolor.suites import worker_count
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    trace = bool(args.trace)
    rec = Recorder(trace)
    env = cli_env(pcolor)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=ROOT / ".bench_tmp") as tmp:
        tmp = Path(tmp)
        wl = WORKLOADS[args.workload](rec, tmp, args.seed)

        def setup():
            with rec.root("setup", trace):
                fresh_import(env, tmp)
                wl.setup()

        def cli(kind, call):
            with rec.root(kind, trace):
                outputs.append((call, rec.call("cli", verify, call[0], env, tmp)))

        # One set-up, then rounds of one timed iteration followed by set-up
        # and the timed CLI call in turn, until the iterations add up to
        # --seconds.  Spreading the three over the run keeps one slow stretch
        # of a shared machine from skewing one metric's every sample.  A
        # traced run alternates untraced and traced iterations; their
        # difference is the tracing overhead.
        setup_walls, cli_walls, outputs = take_turns((setup, (1, 1, 0.0)))[0], [], []
        wl.expected = wl.expectations()
        walls = {False: [], True: []}
        attempted, failures = 0, []
        tracing = False
        while True:
            rec.results = []
            with rec.root("iteration", tracing) as wall:
                wl.iteration()
            walls[tracing].append(wall[0])
            checked, failed = wl.check(rec.results)
            attempted += checked
            failures += failed
            calls = wl.cli_calls()
            more_setups, more_clis = take_turns((setup, SETUP_REPEATS),
                                                (lambda: cli("cli", calls[0]), CLI_REPEATS))
            setup_walls += more_setups
            cli_walls += more_clis
            if sum(walls[False]) + sum(walls[True]) >= args.seconds and (not trace or walls[True]):
                break
            tracing = trace and not tracing
        for call in calls[1:]:
            cli("cli-check", call)
        for (argv, check), (code, stdout) in outputs:
            attempted += 1
            if not check(code, stdout):
                failures.append(f"{wl.name}: pcolor {' '.join(argv[:2])} exited {code}: "
                                f"{stdout[-300:]!r}")

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    latencies = rec.latencies
    workers = worker_count()
    for message in failures[:20]:
        print(message, file=sys.stderr)

    info = {}
    if trace:
        metrics = per_layer(rec, walls, workers)
        shares = timed_phase_shares(rec, walls)
        info["timed_phase_shares"] = {k: round(v, 4) for k, v in shares.items() if v}
        info["largest_layer"] = max(shares, key=shares.get)
        if info["largest_layer"] != wl.largest_layer:
            print(f"{wl.name}: largest layer of the timed phase is {info['largest_layer']}, "
                  f"not {wl.largest_layer} as in the first traced run", file=sys.stderr)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "peak_rss_mb": (max(self_kb, child_kb) / 1024, "MB"),
            "cli_verify_s": (statistics.median(cli_walls), "s"),
        }
    iterations = len(walls[False]) + len(walls[True])
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "setups": len(setup_walls), "cli_calls": len(cli_walls),
        "iteration_walls_s": [round(w, 3) for w in walls[False] + walls[True]],
        "setup_walls_s": [round(w, 3) for w in setup_walls],
        "cli_walls_s": [round(w, 3) for w in cli_walls],
        "verdicts": len(latencies[0]),
        "verdict_p50_ms": {"value": percentile_ms(latencies, 50), "unit": "ms"},
        "verdict_p99_ms": {"value": percentile_ms(latencies, 99), "unit": "ms"},
        "error_rate": {"value": len(failures) / attempted, "unit": "1"},
        "census_workers": workers, "blas_threads": blas_threads(),
        "pcolor_threads_env": os.environ.get("PCOLOR_THREADS"), **info,
    }))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
