#!/usr/bin/env python3
"""Benchmark of the exact Blichfeldt-type checker.

Usage (from the root of a checkout):
    python3 bench/run.py --workload corpus|audit|bodies --seed N \
        --seconds S --trace 0|1

Runs the workload's program code in a worker process (``worker.py``),
checks every output against the independent computations in ``checks.py``
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER_TIMEOUT_S = 165

#: per-layer metric -> unit; README.md says which end-to-end metric each should move
LAYER_METRICS = {
    "witnesses.build_corpus.self_ms": "ms",
    "polytope.hull.calls": "count",
    "polytope.hull.self_ms": "ms",
    "polytope.hull.total_ms": "ms",
    "polytope.convex_hull_facets.calls": "count",
    "polytope.convex_hull_facets.self_ms": "ms",
    "polytope.triangulate_points.self_ms": "ms",
    "polytope.volume.self_ms": "ms",
    "polytope.volume.total_ms": "ms",
    "polytope.surface_area.self_ms": "ms",
    "polytope.surface_area.total_ms": "ms",
    "polytope.intrinsic_volumes_3d.calls": "count",
    "polytope.intrinsic_volumes_3d.self_ms": "ms",
    "polytope.steiner_volume.calls": "count",
    "polytope.steiner_volume.self_ms": "ms",
    "polytope.steiner_volume.total_ms": "ms",
    "interval.acos_interval.calls": "count",
    "interval.acos_interval.self_ms": "ms",
    "interval.acos_interval.total_ms": "ms",
    "interval.atan_interval.self_ms": "ms",
    "interval.pi.self_ms": "ms",
    "interval.sqrt_fraction.calls": "count",
    "interval.sqrt_fraction.self_ms": "ms",
    "radical.certified_compare.calls": "count",
    "radical.certified_compare.self_ms": "ms",
    "radical.certified_compare.max_bits": "bits",
    "radical.RadicalSum.enclosure.calls": "count",
    "radical.RadicalSum.enclosure.self_ms": "ms",
    "counting.count.calls": "count",
    "counting.count.self_ms": "ms",
    "counting.count.points": "count",
    "counting.count.ns_per_point": "ns",
    "counting.count_inner_parallel.self_ms": "ms",
    "linalg.affine_rank.calls": "count",
    "linalg.affine_rank.self_ms": "ms",
    "linalg.affine_rank.total_ms": "ms",
    "linalg.frac_det.calls": "count",
    "linalg.frac_det.self_ms": "ms",
    "lattice.shortest_vector.self_ms": "ms",
    "lattice.inhomogeneous_minimum.self_ms": "ms",
    "lattice.min_hyperplane_sublattice_det.self_ms": "ms",
    "harness.check.calls": "count",
    "harness.check.self_ms": "ms",
    "harness.report_to_json.self_ms": "ms",
    "harness.boundary_layer_audit.calls": "count",
    "harness.boundary_layer_audit.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.untraced_run_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _run_worker(args, workdir: str) -> dict:
    env = dict(os.environ)
    env.pop("BLICH_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spans-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        # the worker waits for its own children; make sure none outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _judge(result: dict, workdir: str):
    """(attempted, failed, correct, problems) over every round's operations."""
    import checks

    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = {op["name"]: op for op in result["ops"]}
    facts_cache: dict = {}
    verdicts = {}
    for name, outputs in result["outputs"].items():
        for digest, output in outputs.items():
            try:
                problems = checks.check_op(ops[name], output, manifest, facts_cache)
            except (ValueError, ArithmeticError, KeyError) as exc:
                problems = [f"checker could not read the output: {exc!r}"]
            verdicts[(name, digest)] = problems
    attempted = failed = 0
    correct = True
    report = {}
    for _, walls in result["rounds"]:
        for name, _, digest in walls:
            attempted += 1
            problems = verdicts[(name, digest)]
            if problems:
                failed += 1
                report[name] = problems[:5]
                if "known_fault" not in ops[name]:
                    correct = False
    return attempted, failed, correct, report


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(result: dict) -> dict:
    op_walls = [w for _, walls in result["rounds"] for _, w, _ in walls]
    # a typical round: each operation's median wall time over the rounds,
    # summed, so that a slow spell of the host in one round weighs little
    per_op = zip(*([w for _, w, _ in walls] for _, walls in result["rounds"]))
    run_s = sum(statistics.median(ws) for ws in per_op)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(result["setup_s"]), "s"),
        "run_s": _metric(run_s, "s"),
        "op_p50_ms": _metric(statistics.median(op_walls) * 1000, "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024, "MB"),
    }


def _per_layer(result: dict) -> dict:
    layers = result["layers"]
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name == "radical.certified_compare.max_bits":
            value = result["max_bits"]
        elif name == "counting.count.points":
            value = result["points"]
        elif name == "counting.count.ns_per_point":
            ms = layers.get("counting.count", {}).get("self_ms", 0.0)
            value = ms * 1e6 / result["points"] if result["points"] else 0.0
        elif name == "cli.overhead_ms":
            value = result["cli_overhead_ms"]
        elif name == "trace.untraced_run_s":
            value = result["untraced_run_s"]
        elif name == "trace.run_s":
            value = result["traced_run_s"]
        elif name == "trace.overhead_s":
            value = result["traced_run_s"] - result["untraced_run_s"]
        elif name == "trace.spans":
            value = result["spans"]
        else:
            fn, _, field = name.rpartition(".")
            value = layers.get(fn, {}).get(field, 0)
        out[name] = _metric(value, unit)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "audit", "bodies"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through the finally clauses that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "blichfeldt", "cli.py")):
        return _fail(f"no program source under {os.path.join(ROOT, 'src')}")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    t0 = time.perf_counter()
    try:
        result = _run_worker(args, workdir)
        attempted, failed, correct, report = _judge(result, workdir)
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        keep = os.path.join(workdir, "result.json")
        if os.path.exists(keep):
            shutil.copy(keep, os.path.join(
                OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"))
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = _per_layer(result) if args.trace else _end_to_end(result)
    for name, problems in report.items():
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"rounds": len(result["rounds"]),
                      "wall_s": round(time.perf_counter() - t0, 3)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
