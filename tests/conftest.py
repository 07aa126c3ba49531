"""Shared pytest plumbing: acceptance-criterion outcomes and a row-solve recorder."""

import pytest

from blichfeldt import counting as ct

ACCEPTANCE_LINES = []


@pytest.fixture
def row_solves(monkeypatch):
    """Every row the sweep solves, as (constraints, base), in order.

    ``counting._rows`` hands each group's shadow interval of x_{n-1} to
    ``counting._group_rows``, which solves one row per y in it; the shadow
    solves themselves are not recorded.
    """
    solves = []
    group_rows = ct._group_rows

    def recorded(cons, head, ylo, yhi, lb, ub):
        solves.extend((cons, head + (y,)) for y in range(ylo, yhi + 1))
        return group_rows(cons, head, ylo, yhi, lb, ub)

    monkeypatch.setattr(ct, "_group_rows", recorded)
    return solves


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES.append(
        f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
