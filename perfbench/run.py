"""closure-kit benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single-process, closed-loop client: each seeded input goes through
the path of ``closure-kit normalize FILE --json --verify``, one phase at
a time (parse, presentation + normalize, verify, build + emit JSON), and
the next input starts when the previous one is done.  The batch is a
fixed whole number of rounds of the workload's families, about 30 s of
work on the reference machine (2 shared cores); the same seed gives the
same inputs on every version of the program.  ``--seconds`` is accepted
for the harness interface and does not change the batch.

After the batch, every emitted document is checked by the independent
branch-point oracle, and the first output of each family must also be
rejected once one of its relations is corrupted.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a traced pass over the same
batch.  Exit status is nonzero when any input fails: a closurekit
error, a verification failure, or an oracle mismatch.

``--workload all`` (the default) runs every workload in turn and prints
all metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import oracle       # noqa: E402
import workloads    # noqa: E402

SETUP_PROBES = 5      # before the batch and again after it
REFERENCE_LOOPS = 5
OPTIONS = {"order": "degrevlex", "radical": "auto", "max_iter": 32}

RESULT_COUNTS = ["hom_steps", "splits", "fixed_points", "components",
                 "adjoined_vars", "max_ring_vars"]


# -- the system under test ------------------------------------------------

def load_closurekit():
    """Import closurekit from this checkout's src/ (it is not installed)."""
    if not (SRC / "closurekit" / "__init__.py").is_file():
        raise SystemExit(f"error: no closurekit package under {SRC}")
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"closurekit.{name}")
            for name in ("parser", "normalize", "cli", "ring", "errors")}


def batch(workload: str, seed: int):
    gen = workloads.stream(workload, seed)
    return [next(gen) for _ in range(workloads.batch_size(workload))]


def run_pipeline(ck, cases, tracer=None):
    """Closed loop over the batch; returns per-input records."""
    parser, norm, cli, ring = ck["parser"], ck["normalize"], ck["cli"], ck["ring"]
    error = ck["errors"].ClosureKitError

    def emit(result):
        return cli.emit_json(cli.build_result_document(result, OPTIONS, False))

    if tracer is not None:
        emit = tracer.wrap("cli.emit", emit)
    records = []
    for k, case in enumerate(cases):
        if tracer is not None:
            tracer.current_input = k
        rec = {"case": case}
        t0 = time.perf_counter()
        try:
            doc = parser.parse_input(case.text, ring.DEGREVLEX)
            t1 = time.perf_counter()
            start = norm.presentation(doc.ring, doc.generators)
            result = norm.normalize(start, max_iterations=OPTIONS["max_iter"],
                                    radical_strategy=OPTIONS["radical"])
            t2 = time.perf_counter()
            norm.verify_result(start, result)
            t3 = time.perf_counter()
            text = emit(result)
            t4 = time.perf_counter()
        except error as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
            records.append(rec)
            continue
        rec.update(total=t4 - t0, normalize=t2 - t1, verify=t3 - t2,
                   output=text, counts=result_counts(result))
        records.append(rec)
    return records


def result_counts(result):
    comps = result.components
    return {
        "hom_steps": result.hom_steps(),
        "splits": sum(1 for e in result.trace if e.startswith("Split")),
        "fixed_points": sum(1 for e in result.trace if e.startswith("FixedPoint")),
        "components": len(comps),
        "adjoined_vars": sum(len(c.presentation.adjoined) for c in comps),
        "max_ring_vars": max(c.presentation.ring.nvars for c in comps),
    }


# -- correctness ----------------------------------------------------------

def check_outputs(records):
    """Run the oracle on every output and mark mismatches as failures;
    returns the oracle's complaints, its self-test on the first output
    of each family included."""
    problems = []
    for rec in records:
        if "error" in rec:
            continue
        found = oracle.check(rec["case"], json.loads(rec["output"]))
        if found:
            rec["error"] = "oracle: " + found[0]
            problems.append(f"{rec['case'].case_id}: {found[0]}")
    first = {}
    for rec in records:
        if "error" not in rec:
            first.setdefault(rec["case"].family, rec)
    for rec in first.values():
        problems += [f"{rec['case'].case_id}: {p}"
                     for p in oracle.self_test(rec["case"], json.loads(rec["output"]))]
    return problems


# -- measurements ---------------------------------------------------------

def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def reference_loop_ms():
    """Fixed pure-Python loop: a speed reading of the machine itself."""
    times = []
    for _ in range(REFERENCE_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def measure_setup(workload: str, seed: int):
    """Wall times of fresh processes that import closurekit, build the
    batch and parse its first input, up to the first normalize call."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


def setup_probe(workload: str, seed: int):
    ck = load_closurekit()
    cases = batch(workload, seed)
    ck["parser"].parse_input(cases[0].text, ck["ring"].DEGREVLEX)
    print("ready", flush=True)


def end_to_end(records, wall: float, setup_s: float, diag: dict):
    done = [r for r in records if "error" not in r]
    metrics = {"setup_s": setup_s,
               "rings_per_s": len(done) / wall,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "ok_frac": len(done) / len(records)}
    timed = [r for r in records if "total" in r]
    for key, name in (("total", "latency"), ("normalize", "normalize"), ("verify", "verify")):
        values = [r[key] for r in timed]
        metrics[f"{name}_p50_s"] = statistics.median(values) if values else None
        metrics[f"{name}_tail_s"], diag[f"{name}_tail_percentile"] = \
            tail(values) if values else (None, None)
    diag["samples"] = len(timed)
    return metrics


def per_layer(tracer, records, untraced_wall: float, traced_wall: float):
    totals = tracer.layer_totals()
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
    metrics.update(tracer.counters)
    gb = "groebner.groebner_basis"
    requests, computed = tracer.counters[gb + ".requests"], tracer.counters[gb + ".computed"]
    metrics[gb + ".hit_ratio"] = 1 - computed / requests if requests else 0.0
    calls, self_s = totals["ring.divide_with_remainder"]
    metrics["ring.divide_with_remainder.self_us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    done = [r for r in records if "error" not in r]
    for key in RESULT_COUNTS:
        values = [r["counts"][key] for r in done]
        metrics["normalize." + key] = (max(values) if key == "max_ring_vars" else sum(values)) \
            if values else 0
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1 if untraced_wall else None
    return metrics


# -- provenance -----------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int):
    return {"commit": git_commit(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


# -- entry points ---------------------------------------------------------

def declared(metrics, section):
    """The metrics BENCHMARK.json declares for ``section``, in its order
    and with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: run produced no {', '.join(missing)}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def run_workload(args):
    ck = load_closurekit()
    diag = {"speed_ref_start_ms": reference_loop_ms()}
    if args.trace:
        untraced = untraced_rate(args)
    else:
        setup = measure_setup(args.workload, args.seed)
    cases = batch(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        records = run_pipeline(ck, cases, tracer)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if not args.trace:
        setup += measure_setup(args.workload, args.seed)
    diag["speed_ref_end_ms"] = reference_loop_ms()
    diag["batch_wall_s"] = wall

    problems = check_outputs(records)
    failed = sum(1 for r in records if "error" in r)
    errors = [f"{r['case'].case_id}: {r['error']}" for r in records if "error" in r]
    if args.trace:
        done = len(records) - failed
        metrics = per_layer(tracer, records, done / untraced if untraced else None, wall)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.tsv.gz")
    else:
        metrics = end_to_end(records, wall, statistics.median(setup), diag)
    result = {"correct": not problems and not failed,
              "attempted": len(records), "failed": failed,
              "metrics": declared(metrics, "per_layer" if args.trace else "end_to_end")}
    report(args, result, diag, problems + errors)
    return 0 if result["correct"] else 1


def untraced_rate(args):
    """rings_per_s of an untraced run of the same batch in a fresh process."""
    child = run_child(args.workload, args.seed, trace=0)
    return child["metrics"]["rings_per_s"]["value"]


def run_child(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {workload} run printed nothing (exit {proc.returncode})")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def _fmt(value):
    return f"{value:>14.6g}" if value is not None else f"{'n/a':>14s}"


def report(args, result, diag, problems):
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:48s} {_fmt(m['value'])} {m['unit']}")
    for key, value in sorted(diag.items()):
        print(f"{args.workload:12s} diag {key:43s} {_fmt(value)}")
    info = provenance(args.seed)
    print(f"{args.workload:12s} provenance {json.dumps(info, sort_keys=True)}")
    for p in problems[:20]:
        print(f"{args.workload:12s} PROBLEM {p}")
    print(json.dumps(result), flush=True)


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        child = run_child(name, args.seed, args.trace)
        merged["correct"] = merged["correct"] and child["correct"]
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="accepted for the harness interface; the batch is fixed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
