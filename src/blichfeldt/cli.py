"""Command-line front end: count, measure, check, audit, corpus, witness.

Exit codes: 0 all verdicts hold (or are observational findings), 1 a
proved inequality reported VIOLATED, 2 usage or input error or an exceeded
budget, 3 a comparison stayed inconclusive at the precision cap.  All
numeric output carries provenance: exact rationals as "p/q", enclosures as
"[lo, hi]@bits".
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile

from blichfeldt import counting as ct
from blichfeldt import witnesses as wt
from blichfeldt.interval import DEFAULT_BITS, MAX_BITS
from blichfeldt.lattice import SVP_MAX_DIM

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class _CliError(Exception):
    pass


def _atomic_write(path: str, text: str) -> None:
    """Replace a regular file (or create one) atomically; write others in place.

    A device node, FIFO or other non-regular target is opened and written,
    never replaced by a regular file.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    """Write a report to ``out`` or to standard output, flushed, so that a
    failed write is an input error (exit 2), not a traceback.

    A failed write to standard output also points the process's file
    descriptor 1 at the null device for good, so later output of the
    process, in ``main``'s caller too, is lost.
    """
    text = text if text.endswith("\n") else text + "\n"
    try:
        if out:
            _atomic_write(out, text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # the interpreter flushes what is left again at exit: send it to
            # the null device, so that no second error changes the exit code
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = f"--out {out}" if out else "standard output"
        raise _CliError(f"{where}: {exc.strerror}") from exc


def _load_body(path: str, budget: int) -> ct.Body:
    try:
        return wt.load_body(path, budget)
    except OSError as exc:
        raise _CliError(f"body-spec {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise _CliError(f"body-spec {path}: {exc}") from exc


def _digits(text: str) -> bool:
    """True for ASCII [0-9]+, the integers body specs take (``isdecimal``
    alone also takes every other script's decimal digits)."""
    return text.isascii() and text.isdecimal()


def _budget(args) -> int:
    """``--budget``, else a non-empty ``BLICH_BUDGET``, else the default."""
    name, text = "--budget", args.budget
    if text is None:
        name, text = "BLICH_BUDGET", os.environ.get("BLICH_BUDGET") or None
    if text is None:
        return ct.DEFAULT_BUDGET
    if not _digits(text):
        raise _CliError(f"{name}: expected an integer of at least 0, got {text!r}")
    return int(text)


def _natural(text: str) -> int:
    """``--n``, ``--k`` and ``--m``: ASCII digits only."""
    if not _digits(text):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """``--seed``: ASCII digits after an optional '-', as a spec file's seed
    may be negative."""
    if not _digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _precision_bits(text: str) -> int:
    if not (_digits(text) and DEFAULT_BITS <= int(text) <= MAX_BITS):
        raise argparse.ArgumentTypeError(
            f"expected an integer from {DEFAULT_BITS} to {MAX_BITS}, got {text!r}")
    return int(text)


def _cmd_count(args) -> int:
    budget = _budget(args)
    body = _load_body(args.body, budget)
    _emit(f"count: {ct.count(body, budget=budget).count}", args.out)
    return EXIT_OK


def _cmd_measure(args) -> int:
    from blichfeldt.radical import format_value

    body = _load_body(args.body, _budget(args))
    if body.polytope is None:
        raise _CliError("measure requires a polytope body")
    poly = body.polytope
    lines = [
        f"dimension: {poly.dim}",
        f"volume: {format_value(poly.volume)}",
        f"surface_area: {format_value(poly.surface_area)}",
    ]
    if poly.dim == 3:
        iv = poly.intrinsic_volumes
        lines.append(f"V1: {format_value(iv.v1)}")
        lines.append(f"V2: {format_value(iv.v2)}")
        lines.append(f"V3: {format_value(iv.v3)}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _verdict_exit(reports) -> int:
    from blichfeldt import harness as hz

    if hz.soundness_failures(reports):
        return EXIT_VIOLATED
    if any(r.verdict is hz.Verdict.INCONCLUSIVE for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_check(args) -> int:
    from blichfeldt import harness as hz

    try:
        id = hz.InequalityId(args.id)
    except ValueError as exc:
        ids = ", ".join(i.value for i in hz.InequalityId)
        raise _CliError(f"unknown inequality id {args.id!r}; one of {ids}") from exc
    budget = _budget(args)
    body = _load_body(args.body, budget)
    report = hz.check(id, body, budget=budget, max_bits=args.precision_max_bits)
    lines = [
        f"id: {id.value}",
        f"verdict: {report.verdict.value}",
        f"lhs: {hz.format_value(report.lhs)}",
        f"rhs: {hz.format_value(report.rhs)}",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    if report.tightness is not None:
        lines.append(f"slack: [{report.tightness.lo}, {report.tightness.hi}]@{DEFAULT_BITS}")
    _emit("\n".join(lines), args.out)
    return _verdict_exit([report])


def _cmd_audit(args) -> int:
    from blichfeldt import harness as hz

    budget = _budget(args)
    body = _load_body(args.body, budget)
    if body.kind != "polytope":
        raise _CliError("audit requires an untranslated polytope body")
    try:
        record = hz.boundary_layer_audit(body.polytope, budget=budget)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    lines = [
        f"points: {record.total}",
        f"interior_layer: {record.l1_count}",
        f"boundary_layer: {record.l2_count}",
        f"volume_bound_ok: {record.l1_volume_ok}",
        f"boundary_covered_ok: {record.l2_covered_ok}",
        f"prism_bounds_ok: {record.prisms_ok}",
        f"vertex_count_ok: {record.vertex_count_ok}",
        f"layer_bounds_ok: {record.layers_ok}",
        f"partition_ok: {record.partition_ok}",
        f"all_ok: {record.all_ok}",
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK if record.all_ok else EXIT_VIOLATED


def _corpus_spec_from_file(path: str, seed_override) -> wt.CorpusSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(f"corpus spec {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(f"corpus spec {path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"corpus spec {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _CliError(f"corpus spec {path}: expected a JSON object")
    known = set(wt.CorpusSpec._fields)
    unknown = set(doc) - known
    if unknown:
        raise _CliError(f"corpus spec {path}: unknown fields {sorted(unknown)}")
    if seed_override is not None:
        doc["seed"] = seed_override
    if "seed" not in doc:
        raise _CliError(f"corpus spec {path}: missing seed (or pass --seed)")
    for key, value in doc.items():
        kind = type(wt.CorpusSpec._field_defaults.get(key, 0))   # seed: no default, an int
        if kind is tuple:
            if not isinstance(value, list) or any(type(x) is not int for x in value):
                raise _CliError(f"corpus spec {path}: {key}: expected a list of integers")
            doc[key] = tuple(value)
        elif type(value) is not kind:
            expected = "true or false" if kind is bool else "an integer"
            raise _CliError(f"corpus spec {path}: {key}: expected {expected}")
    spec = wt.CorpusSpec(**doc)
    n, hulls = max(spec.dimensions, default=0), spec.num_random_hulls > 0
    lattices = spec.num_random_lattices > 0
    # each value a generator is given must be one it can meet
    for key, ok, expected in (
        ("dimensions", 1 <= min(spec.dimensions, default=0) <= n <= SVP_MAX_DIM,
         f"1 to {SVP_MAX_DIM}"),
        ("k_values", min(spec.k_values, default=1) >= 1, "integers of at least 1"),
        ("m_values", n <= 2 or min(spec.m_values, default=1) >= 1, "integers of at least 1"),
        ("points_per_hull", not (hulls or lattices) or spec.points_per_hull > n,
         f"at least {n + 1}"),
        ("coord_bound", not hulls or spec.coord_bound >= 1, "at least 1"),
        ("lattice_max_abs_det", not lattices or spec.lattice_max_abs_det >= 1, "at least 1"),
    ):
        if not ok:
            raise _CliError(f"corpus spec {path}: {key}: expected {expected}")
    return spec


def _cmd_corpus(args) -> int:
    from blichfeldt import harness as hz

    spec = _corpus_spec_from_file(args.spec, args.seed)
    if args.ids:
        try:
            ids = [hz.InequalityId(x) for x in args.ids]
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    else:
        ids = list(hz.InequalityId)
    report = hz.run_corpus(
        spec, ids, budget=_budget(args), max_bits=args.precision_max_bits
    )
    if args.format == "csv":
        text = hz.report_to_csv(report)
    elif args.format == "json":
        text = hz.report_to_json(report)
    else:
        lines = []
        for key, s in sorted(report.summary.items()):
            verdicts = ", ".join(f"{k}={v}" for k, v in sorted(s["verdicts"].items()))
            lines.append(f"{key}: {verdicts}")
        lines.append(f"rows: {len(report.rows)}")
        lines.append(f"violations: {len(report.violations)}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return _verdict_exit([r.report for r in report.rows])


def _cmd_witness(args) -> int:
    make, flag, shift = wt.FAMILIES[args.family]
    if getattr(args, flag) is None:
        raise _CliError(f"{args.family} requires --{flag}")
    for _, other, _ in wt.FAMILIES.values():
        if other != flag and getattr(args, other) is not None:
            raise _CliError(f"{args.family} takes no --{other}")
    try:
        poly = make(args.n, getattr(args, flag))
    except ValueError as exc:      # n, k or m out of range
        raise _CliError(str(exc)) from exc
    body = (wt.half_translate(poly, shift(args.n)) if args.translate
            else ct.Body.from_polytope(poly))
    text = json.dumps(wt.body_to_dict(body), indent=2)
    _emit(text, args.out)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="blichfeldt",
        description="Exact lattice-point counts, measures and certified "
        "inequality checks for convex bodies over full-rank lattices.",
    )
    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output path (atomic write for a regular file)")
    budget = argparse.ArgumentParser(add_help=False, parents=[out])
    budget.add_argument("--budget", default=None,
                        help="enumeration budget (fallback: BLICH_BUDGET)")
    precision = argparse.ArgumentParser(add_help=False, parents=[budget])
    precision.add_argument("--precision-max-bits", type=_precision_bits, default=MAX_BITS)

    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("count", parents=[budget], help="lattice points of a body")
    sc.add_argument("--body", required=True)
    sc.set_defaults(fn=_cmd_count)

    sm = sub.add_parser("measure", parents=[budget],
                        help="volume, surface area, intrinsic volumes")
    sm.add_argument("--body", required=True)
    sm.set_defaults(fn=_cmd_measure)

    sk = sub.add_parser("check", parents=[precision],
                        help="one inequality against one body")
    # no choices list: it would import harness for every command
    sk.add_argument("--id", required=True, help="inequality id, e.g. MAIN_THM_1_1")
    sk.add_argument("--body", required=True)
    sk.set_defaults(fn=_cmd_check)

    sa = sub.add_parser("audit", parents=[budget],
                        help="boundary-layer audit of a lattice polytope")
    sa.add_argument("--body", required=True)
    sa.set_defaults(fn=_cmd_audit)

    so = sub.add_parser("corpus", parents=[precision],
                        help="run inequality checkers over a corpus")
    so.add_argument("--spec", required=True, help="corpus spec JSON file")
    so.add_argument("--ids", nargs="*", default=None,
                    help="inequality ids (default: all)")
    so.add_argument("--seed", type=_seed, default=None)
    so.add_argument("--format", choices=("csv", "json", "human"), default="human")
    so.set_defaults(fn=_cmd_corpus)

    sw = sub.add_parser("witness", parents=[out],
                        help="emit a witness-family body-spec")
    sw.add_argument("--family", required=True,
                    choices=tuple(wt.FAMILIES))
    sw.add_argument("--n", type=_natural, required=True)
    sw.add_argument("--k", type=_natural, default=None)
    sw.add_argument("--m", type=_natural, default=None)
    sw.add_argument("--translate", action="store_true",
                    help="emit the half-shifted translate instead")
    sw.set_defaults(fn=_cmd_witness)
    return p


def main(argv=None) -> int:
    """Run one command; returns the exit code.  Without ``--out``, a failed
    write of the report sends the process's standard output to the null
    device for the rest of the process (see ``_emit``)."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (_CliError, ct.EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
