#!/usr/bin/env python3
"""Closed-loop benchmark of nrestrict: one client, one process, one thread.

    python3 bench/run.py --workload exact-corpus --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--workload all`` runs the four workloads in turn.  With ``--trace 0`` the
run times whole passes of the workload's ops until ``--seconds`` would be
exceeded and prints the end-to-end metrics.  With ``--trace 1`` it runs one
pass untraced, traced and untraced again, and prints the per-layer metrics.
Every op's output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  ``--out PATH``
also appends a full result record to PATH, the input of
``bench/compare.py``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing
from workloads import WORKLOADS, CheckFailed, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7

# (metric, span, statistic): statistic "s" is total self time, "calls" the
# number of spans
SPAN_METRICS = [
    ("poly.shear_substitute", "poly.PuiseuxPoly.shear_substitute", ("s", "calls")),
    ("poly.linear_substitute", "poly.PuiseuxPoly.linear_substitute", ("s", "calls")),
    ("parser.parse_expression", "parser.parse_expression", ("s",)),
    ("exponents.critical_exponent", "exponents.critical_exponent", ("s",)),
    ("exponents.knapp_certificates_all", "exponents.knapp_certificates_all", ("s",)),
    ("exponents.knapp_certificate", "exponents.knapp_certificate", ("calls",)),
    ("roots.squarefree_real_roots", "roots.squarefree_real_roots", ("s", "calls")),
    ("geometry.NewtonPolyhedron.of", "geometry.NewtonPolyhedron.of", ("s", "calls")),
    ("geometry.r_height", "geometry.r_height", ("s", "calls")),
    ("adapted.linear_height", "adapted.linear_height", ("s",)),
    ("adapted.is_adapted", "adapted.is_adapted", ("s",)),
    ("adapted.classify_singularity", "adapted.classify_singularity", ("s",)),
    ("splitting.adapted_coordinates", "splitting.adapted_coordinates", ("s",)),
    ("splitting.select_l_pr", "splitting.select_l_pr", ("s",)),
    ("splitting.fine_splitting_trace", "splitting.fine_splitting_trace", ("s",)),
    ("report.analyze", "report.analyze", ("s",)),
    ("report.to_json", "report.ReportDocument.to_json", ("s",)),
    ("diagram.render_diagram", "diagram.render_diagram", ("s",)),
    ("cli.main", "cli.main", ("s",)),
    ("numerics.oscillatory_integral_1d", "numerics.oscillatory_integral_1d", ("s", "calls")),
    ("numerics.oscillatory_integral_2d", "numerics.oscillatory_integral_2d", ("s", "calls")),
    ("numerics.surface_decay_fit", "numerics.surface_decay_fit", ("s",)),
    ("numerics.bump", "numerics.bump", ("s", "calls")),
]
SUM_BOUND_SPAN = "numerics.oscillatory_sum_bound"
SUM_BOUND_KINDS = ("single", "double", "reference")


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _pin_threads() -> str | None:
    """One worker: no NRESTRICT_THREADS pool and single-threaded BLAS."""
    previous = os.environ.pop("NRESTRICT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return previous


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _machine(args, ctx, threads_before) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "NRESTRICT_THREADS": "unset (1 worker)",
        "NRESTRICT_THREADS_in_environment": threads_before,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "numpy_trapz_alias": ctx.numpy_trapz_alias,
    }


def _load_reference(warn: bool) -> dict:
    path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(path):
        if warn:
            print("bench: no reference.json; closed-form checks only",
                  file=sys.stderr)
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _execute(op, ctx, errors, tracer=None, index=-1):
    """Run and check one op: (outcome, latency in seconds)."""
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        out = op.run()
    except ctx.mods.errors.AlgebraicRootHalt:
        return "halt", time.perf_counter() - start
    except Exception:  # any other exception is a failed op; keep measuring
        errors.append(f"{op.key}: {traceback.format_exc()}")
        return "failed", time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.end_op()
    latency = time.perf_counter() - start
    try:
        return op.check(out), latency
    except CheckFailed as exc:
        errors.append(f"{op.key}: {exc}")
    except Exception:  # a malformed output can break its checker
        errors.append(f"{op.key}: check raised {traceback.format_exc()}")
    return "failed", latency


def _percentile(sorted_vals: list[float], pct: float) -> float:
    pos = pct / 100.0 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _setup_times(args) -> list[float]:
    """Wall time from process start until the first op can be issued, in
    fresh processes (imports, program set-up, first pass built).  The first
    probe only warms the file cache and is not counted."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line}{rest}")
        times.append(ready)
    return times[1:]


def _report_errors(errors: list[str]) -> None:
    for msg in errors[:5]:
        print(f"bench: failed op: {msg}", file=sys.stderr)
    if len(errors) > 5:
        print(f"bench: ... and {len(errors) - 5} more failed ops",
              file=sys.stderr)


def run_untraced(args, wl, ctx) -> tuple[dict, dict]:
    setups = _setup_times(args)
    counts = {"ok": 0, "halt": 0, "failed": 0}
    latencies: list[float] = []
    errors: list[str] = []
    passes = 0
    start = time.perf_counter()
    for ops in wl.passes(ctx, args.seed):
        for op in ops:
            outcome, latency = _execute(op, ctx, errors)
            counts[outcome] += 1
            latencies.append(latency)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > args.seconds:
            break
    _report_errors(errors)
    lat = sorted(latencies)
    tail = _percentile(lat, wl.tail_pct)
    attempted = sum(counts.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "success_frac": (1 - counts["failed"] / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    beyond = sum(1 for x in lat if x > tail)
    print(f"passes       {passes} in {time.perf_counter() - start:.1f} s")
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s  (median of "
          f"{len(setups)} fresh processes: "
          + ", ".join(f"{t:.4f}" for t in setups) + ")")
    print(f"ops_per_s    {metrics['ops_per_s'][0]:.4f} 1/s  (ops / time in ops)")
    print(f"op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms")
    print(f"op_tail_ms   {metrics['op_tail_ms'][0]:.4f} ms  (p{wl.tail_pct:g} "
          f"of {len(lat)} ops, {beyond} beyond"
          + ("; fewer than 10 beyond" if beyond < 10 else "") + ")")
    print(f"failed_frac  {counts['failed'] / attempted:g}  (ok {counts['ok']}, "
          f"halt {counts['halt']}, failed {counts['failed']})")
    print(f"success_frac {metrics['success_frac'][0]:g}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    extra = {"passes": passes, "outcomes": counts, "setup_samples": setups,
             "tail": {"pct": wl.tail_pct, "n": len(lat), "beyond": beyond}}
    return _result(counts, metrics), extra


def run_traced(args, wl, ctx) -> tuple[dict, dict]:
    ops = list(next(wl.passes(ctx, args.seed)))
    counts = {"ok": 0, "halt": 0, "failed": 0}
    errors: list[str] = []

    def one_pass(tracer=None) -> float:
        total = 0.0
        for i, op in enumerate(ops):
            outcome, latency = _execute(op, ctx, errors, tracer, i)
            counts[outcome] += 1
            total += latency
        return total

    # untraced passes before and after the traced one, so that warm-up and
    # drift do not bias the overhead estimate
    untraced = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    untraced = (untraced + one_pass()) / 2
    _report_errors(errors)

    spans = tracer.spans
    kinds = [op.kind for op in ops]
    summary = tracing.summarize(spans)
    metrics = {}
    for metric, span, stats in SPAN_METRICS:
        row = summary.get(span, {"calls": 0, "self_s": 0.0})
        if "s" in stats:
            metrics[f"{metric}.s"] = (row["self_s"], "s")
        if "calls" in stats:
            metrics[f"{metric}.calls"] = (row["calls"], "count")
        if span == tracing.SHEAR:
            metrics[f"{metric}.repeats"] = (tracer.counts["shear_repeats"], "count")
            metrics[f"{metric}.terms_in"] = (tracer.counts["shear_terms_in"], "count")
    for kind in SUM_BOUND_KINDS:
        metrics[f"{SUM_BOUND_SPAN}.{kind}.s"] = (tracing.self_time_by_op_kind(
            spans, SUM_BOUND_SPAN, kinds, kind), "s")
    metrics["numerics.surface_decay_fit.direct_2d_frac"] = (
        tracing.share_containing(spans, "numerics.surface_decay_fit",
                                 "numerics.oscillatory_integral_2d"), "frac")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "frac")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(
        OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path, kinds)
    print(f"one pass of {len(ops)} ops: untraced {untraced:.3f} s (mean of 2), "
          f"traced {traced:.3f} s, {len(spans)} spans -> "
          f"{os.path.relpath(span_path, ROOT)}")
    print(f"{'span':48s} {'calls':>9s} {'self_s':>10s} {'incl_s':>10s}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {row['calls']:9d} {row['self_s']:10.4f} "
              f"{row['incl_s']:10.4f}")
    return _result(counts, metrics), {"outcomes": counts, "spans": len(spans)}


def _result(counts: dict, metrics: dict) -> dict:
    return {"correct": counts["failed"] == 0,
            "attempted": sum(counts.values()),
            "failed": counts["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process; the last line
    combines their results, with metrics named ``<workload>/<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return _fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="append the full result record to this JSONL file")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nrestrict", "__init__.py")):
        return _fail(f"no program to measure: {SRC}/nrestrict is missing")
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    threads_before = _pin_threads()
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    tmp_dir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    try:
        ctx = Context(wl.modules,
                      _load_reference(not args.setup_probe), tmp_dir)
        if args.setup_probe:
            next(wl.passes(ctx, args.seed))
            print("ready", flush=True)
            return 0
        machine = _machine(args, ctx, threads_before)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
              f"  seconds {args.seconds:g}")
        print("machine " + json.dumps(machine))
        run = run_traced if args.trace else run_untraced
        result, extra = run(args, wl, ctx)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine, **extra, **result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
