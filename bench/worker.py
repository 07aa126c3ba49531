"""The process that runs the program's code for one benchmark run.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
sets the workload up several times, then runs whole rounds of its
operations, one at a time, until the run's seconds are spent.  CLI
operations run as ``python -m blichfeldt.cli`` child processes; audit
operations call ``harness.boundary_layer_audit`` in this process.  With
``--trace 1`` it runs one untraced round out of process, then alternates
untraced and traced rounds in process, the CLI replayed through
``cli.main(argv)``.  Timings and the distinct outputs of every operation go
to ``result.json`` in the work directory; the parent checks them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from blichfeldt import cli
from blichfeldt import counting as ct
from blichfeldt import harness as hz

import workloads

SETUP_REPEATS = 5
TRACED_PAIRS = 3


class Runner:
    def __init__(self, workdir: str, objects: dict):
        self.workdir = workdir
        self.objects = objects
        self.outputs: dict = {}   # op name -> {digest: output}

    def run_op(self, op: dict, in_process: bool):
        """Run one operation; returns (wall seconds, digest of its output)."""
        out_path = os.path.join(self.workdir, "op-out.txt")
        if os.path.exists(out_path):
            os.unlink(out_path)
        t0 = time.perf_counter()
        if op["kind"] == "audit":
            output = _audit(self.objects[op["body"]])
        elif in_process:
            code = cli.main(op["argv"] + ["--out", out_path])
            output = {"exit": code}
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "blichfeldt.cli", *op["argv"], "--out", out_path],
                capture_output=True, text=True, check=False,
            )
            output = {"exit": proc.returncode}
            if proc.returncode:
                output["stderr"] = proc.stderr[-2000:]
        wall = time.perf_counter() - t0
        if op["kind"] == "cli" and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                output["text"] = fh.read()
        digest = hashlib.sha1(json.dumps(output, sort_keys=True).encode()).hexdigest()
        self.outputs.setdefault(op["name"], {})[digest] = output
        return wall, digest

    def round(self, ops, in_process: bool, tracer=None):
        """One pass over all operations; returns (wall, per-op [name, wall, digest])."""
        t0 = time.perf_counter()
        walls = []
        for op in ops:
            if tracer is None:
                wall, digest = self.run_op(op, in_process)
            else:
                with tracer.span("bench.op"):
                    wall, digest = self.run_op(op, in_process)
            walls.append([op["name"], wall, digest])
        return time.perf_counter() - t0, walls


def _audit(poly) -> dict:
    try:
        r = hz.boundary_layer_audit(poly)
    except (ct.EnumerationBudgetError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"record": {
        "total": r.total, "l1_count": r.l1_count, "l2_count": r.l2_count,
        "l1_volume_ok": r.l1_volume_ok, "l2_covered_ok": r.l2_covered_ok,
        "prisms_ok": r.prisms_ok, "vertex_count_ok": r.vertex_count_ok,
        "layers_ok": r.layers_ok, "partition_ok": r.partition_ok,
        "all_ok": r.all_ok, "facets": len(r.facets),
    }}


def _timed_setup(workload, seed, workdir):
    t0 = time.perf_counter()
    result = workloads.setup(workload, seed, workdir)
    return time.perf_counter() - t0, result


def run_plain(args) -> dict:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t, (ops, _, objects) = _timed_setup(args.workload, args.seed, args.workdir)
        setup_s.append(t)
    runner = Runner(args.workdir, objects)
    rounds = []
    t0 = time.perf_counter()
    # start another round only if it should end before half a round past
    # the deadline, so that runs overshoot their seconds by little
    while not rounds or time.perf_counter() - t0 + rounds[-1][0] / 2 < args.seconds:
        rounds.append(runner.round(ops, in_process=False))
    return {"ops": ops, "setup_s": setup_s, "rounds": rounds,
            "outputs": runner.outputs}


def run_traced(args) -> dict:
    from tracer import Tracer

    _, (ops, _, objects) = _timed_setup(args.workload, args.seed, args.workdir)
    runner = Runner(args.workdir, objects)
    t0 = time.perf_counter()
    out_of_process = runner.round(ops, in_process=False)

    # untraced and traced rounds alternate, at least three pairs, so that
    # warm-up and slow spells of the host fall on both sides of the overhead
    tracer = Tracer()
    untraced, traced = [], []
    setup_spans = None
    while len(traced) < TRACED_PAIRS or time.perf_counter() - t0 < args.seconds:
        untraced.append(runner.round(ops, in_process=True))
        tracer.install()
        try:
            if setup_spans is None:
                with tracer.span("bench.setup"):
                    ops, _, runner.objects = workloads.setup(
                        args.workload, args.seed, args.workdir)
                setup_spans = len(tracer.fid)
                setup_points, tracer.points = tracer.points, 0
            traced.append(runner.round(ops, in_process=True, tracer=tracer))
        finally:
            tracer.uninstall()

    n = len(traced)
    setup_tot = tracer.totals(0, setup_spans)
    round_tot = tracer.totals(setup_spans, len(tracer.fid))
    layers = {
        name: {
            "calls": setup_tot[name][0] + round_tot[name][0] / n,
            "self_ms": (setup_tot[name][1] + round_tot[name][1] / n) / 1e6,
            "total_ms": (setup_tot[name][2] + round_tot[name][2] / n) / 1e6,
        }
        for name in tracer.names
    }
    cli_overhead = [
        (wall - statistics.median(r[1][i][1] for r in untraced)) * 1000
        for i, (op, (_, wall, _)) in enumerate(zip(ops, out_of_process[1]))
        if op["kind"] == "cli"
    ]
    spans_path = os.path.join(args.spans_dir, f"spans-{args.workload}-s{args.seed}.npz")
    tracer.save(spans_path)
    return {
        "ops": ops,
        "rounds": [out_of_process] + untraced + traced,
        "outputs": runner.outputs,
        "layers": layers,
        "points": setup_points + tracer.points / n,
        "max_bits": tracer.max_bits,
        "cli_overhead_ms": statistics.median(cli_overhead) if cli_overhead else 0.0,
        "untraced_run_s": statistics.median(r[0] for r in untraced),
        "traced_run_s": statistics.median(r[0] for r in traced),
        "spans": len(tracer.fid),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-dir", required=True)
    args = ap.parse_args()
    result = run_traced(args) if args.trace else run_plain(args)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
