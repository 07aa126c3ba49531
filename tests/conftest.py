"""Shared pytest plumbing: acceptance-criterion outcomes, and the row sweep's solve
recorders and editor."""

import itertools

import pytest

from blichfeldt import counting as ct

ACCEPTANCE_LINES = []


@pytest.fixture
def row_solves(monkeypatch):
    """Every row the sweep solves, as (constraints, base), in order.

    ``counting._walk`` solves each group's shadow interval of x_{n-1} in
    place and hands a non-empty one to ``counting._group_rows``, which
    solves one row per y in it; the shadow solves themselves are not
    recorded.  The constraints are those of the ``counting._rows`` sweep
    last started: the sweeps of a count or an audit do not interleave.
    """
    solves, sweep = [], []
    rows, group_rows = ct._rows, ct._group_rows

    def swept(cons, box, budget, pairs):
        sweep[:] = [cons]
        return rows(cons, box, budget, pairs)

    def recorded(folded, head, ylo, yhi, lb, ub):
        solves.extend((sweep[0], head + (y,)) for y in range(ylo, yhi + 1))
        return group_rows(folded, head, ylo, yhi, lb, ub)

    monkeypatch.setattr(ct, "_rows", swept)
    monkeypatch.setattr(ct, "_group_rows", recorded)
    return solves


@pytest.fixture
def shadow_solves(monkeypatch):
    """Every group whose shadow interval of x_{n-1} the sweep solves, as
    its head (0, x_1, .., x_{n-2}), in order.

    ``counting._walk`` solves them at its last level, one per value of
    x_{n-2} (of x_0's slot, 0, in 2D).
    """
    heads = []
    walk = ct._walk

    def recorded(shadow, bounds, head, levels, *rest):
        if len(levels) == 1:
            (lo, hi), = levels
            heads.extend(head + (z,) for z in range(lo, hi + 1))
        return walk(shadow, bounds, head, levels, *rest)

    monkeypatch.setattr(ct, "_walk", recorded)
    return heads


@pytest.fixture
def edit_sweep(monkeypatch):
    """``edit(index, change)`` patches ``counting._rows`` so that the sweep
    started ``index``-th (from 0) yields ``change(rows)`` in place of its
    rows.

    An audit starts one sweep per facet prism, in facet order, then L1's,
    then P's.  Coverage and the partition are theorems, so no honest body
    fails them; an edited sweep shows that each check reads what it claims.
    """
    def edit(index, change):
        rows, started = ct._rows, itertools.count()

        def edited(*args):
            out = rows(*args)
            return change(out) if next(started) == index else out

        monkeypatch.setattr(ct, "_rows", edited)
    return edit


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
