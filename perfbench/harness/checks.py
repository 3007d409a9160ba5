"""Correctness gate: every answer the program gives is checked here.

A request fails when it raised, returned the wrong outcome kind, labelled a
known alert wrongly, named the wrong missing attribute, served a model that
differs from the one stored before a restart, or left the registry holding
a model whose F1 is below the bar it was asked with.  Each ingest of a feed
is one operation too, failed when it loses rows or the store round trip
changes the dataset.  ``error_rate`` is failed operations over operations
attempted, so it never exceeds 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ctivalidator import bench
from ctivalidator.orchestrator import REASON_BELOW_CONFIDENCE, REASON_NO_DATA

# Request kinds of a workload stream and the outcome each must produce.
COLD = "cold"            # first ask: build, register, predict
HIT = "hit"              # repeat ask served from the registry
REOPEN = "reopen"        # first ask after a restart on the same root
WITHHELD_FIRST = "withheld-first"  # first ask of a below-bar requirement
WITHHELD = "withheld"    # repeat ask of a below-bar requirement
NO_DATA = "no-data"      # requirement the feed cannot answer

# Experiment counts the paper reports for its two dataset profiles:
# (prebuild, on-demand) per preset, and the aggregate saving floor.
PAPER_COUNTS = {"ds1": (992, 112), "ds2": (524_160, 704)}
PAPER_MIN_AGGREGATE_SAVING = 0.99


@dataclass(frozen=True)
class Expectation:
    """What a request must answer.

    ``truth`` holds the planted label per alert row (predicted kinds);
    ``bar`` is the confidence asked with; ``missing`` the attributes a
    no-data answer must name; ``stored`` the canonical bytes of the model
    registered before a restart (reopen kind).
    """

    kind: str
    bar: float
    truth: tuple = ()
    missing: tuple = ()
    stored: bytes | None = None


@dataclass
class Checker:
    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, where: str, problem: str) -> bool:
        """Record one attempted operation; returns True when it is correct."""
        self.attempted += 1
        if problem:
            self.failures.append(f"{where}: {problem}")
        return not problem

    def check(self, where: str, expect: Expectation, outcome=None,
              error: BaseException | None = None, registry=None) -> bool:
        """Record one request.  ``registry`` is ``(entries, bars)`` read just
        after it, for requests that may store a model."""
        problem = _problem(expect, outcome, error)
        if not problem and registry is not None:
            problem = registry_problem(*registry)
        return self.record(where, problem)


def registry_problem(entries, bars: dict) -> str:
    """No stored model may sit below the bar its requirement was asked with,
    nor belong to a requirement never asked."""
    for entry in entries:
        bar = bars.get(entry["key"])
        if bar is None:
            return f"stored model for unrequested key {entry['key']}"
        if entry["f1"] < bar:
            return f"stored f1 {entry['f1']:.4f} below bar {bar} for {entry['key']}"
    return ""


def _problem(expect: Expectation, outcome, error) -> str:
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    kind = getattr(outcome, "kind", None)
    if expect.kind in (COLD, HIT, REOPEN):
        if kind != "predicted":
            return f"expected predicted, got {outcome!r}"
        if outcome.from_cache != (expect.kind != COLD):
            return f"from_cache={outcome.from_cache} on a {expect.kind} request"
        if outcome.f1 < expect.bar:
            return f"served f1 {outcome.f1:.4f} below bar {expect.bar}"
        if tuple(outcome.labels) != tuple(expect.truth):
            wrong = sum(a != b for a, b in zip(outcome.labels, expect.truth))
            return (f"{wrong + abs(len(outcome.labels) - len(expect.truth))} of "
                    f"{len(expect.truth)} alert labels wrong")
        if expect.stored is not None and \
                outcome.model.canonical_bytes() != expect.stored:
            return "restart served a model that differs from the stored one"
        return ""
    if kind != "not-applicable":
        return f"expected not-applicable, got {outcome!r}"
    if expect.kind == NO_DATA:
        if outcome.reason != REASON_NO_DATA or outcome.request is None:
            return f"expected no-data with a data request, got {outcome!r}"
        if tuple(outcome.request.missing) != tuple(expect.missing):
            return (f"data request names {outcome.request.missing}, "
                    f"expected {expect.missing}")
        return ""
    if outcome.reason != REASON_BELOW_CONFIDENCE:
        return f"expected below-confidence, got {outcome.reason}"
    if outcome.best_f1 is None or outcome.best_f1 >= expect.bar:
        return f"withheld a model with f1 {outcome.best_f1} at bar {expect.bar}"
    return ""


def paper_experiment_counts() -> list[str]:
    """Problems with the paper's experiment-count arithmetic (empty if none)."""
    problems = []
    plans = bench.default_plans()
    for plan in plans:
        want = PAPER_COUNTS.get(plan.name)
        got = (bench.count_experiments(plan, bench.MODE_PREBUILD),
               bench.count_experiments(plan, bench.MODE_ON_DEMAND))
        if got != want:
            problems.append(f"{plan.name}: (prebuild, on-demand) {got} != {want}")
    saving = bench.aggregate_savings(plans)
    if not saving > PAPER_MIN_AGGREGATE_SAVING:
        problems.append(f"aggregate saving {saving:.4f} not above "
                        f"{PAPER_MIN_AGGREGATE_SAVING}")
    return problems
