"""Experiment accounting: on-demand builds versus exhaustive prebuilding.

A validator that prebuilds models for every feasible observed/unknown split
of an n-attribute dataset must cover every subset of size 1..n-1 as the
observed side — 2**n - 2 combinations — then multiply by algorithms,
encodings and candidate labels.  Building on demand only pays for the
requirement patterns SOCs actually submit.  The counters here quantify the
gap, and the report renderer projects wall-clock cost from a measured
per-experiment sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .features import SCHEMES
from .learners import FAMILIES, families_for_tiers

MODE_ON_DEMAND = "on-demand"
MODE_PREBUILD = "prebuild"
MODES = (MODE_ON_DEMAND, MODE_PREBUILD)


def count_feature_combinations(n_attributes: int) -> int:
    """Number of non-trivial observed subsets of n attributes: 2**n - 2.

    Every subset except "observe nothing" and "observe everything" can act
    as the observed side of a requirement.
    """
    if n_attributes < 2:
        raise ContractError(
            f"need at least 2 attributes to form a requirement, got {n_attributes}")
    return 2 ** n_attributes - 2


@dataclass(frozen=True)
class ExperimentPlan:
    """One dataset's benchmarking shape."""

    name: str
    n_attributes: int
    n_labels: int
    n_requirements: int
    n_algorithms: int = len(FAMILIES)

    def __post_init__(self):
        if self.n_attributes < 2:
            raise ContractError("plans need at least 2 attributes")
        for fld in ("n_labels", "n_requirements", "n_algorithms"):
            if getattr(self, fld) < 1:
                raise ContractError(f"{fld} must be positive")

    @property
    def combinations(self) -> int:
        return count_feature_combinations(self.n_attributes)


def count_experiments(plan: ExperimentPlan, mode: str) -> int:
    """Model builds required under a strategy.

    prebuild: every feature combination x algorithms x encodings x labels.
    on-demand: only submitted requirements x algorithms x encodings x labels.
    """
    if mode == MODE_PREBUILD:
        base = plan.combinations
    elif mode == MODE_ON_DEMAND:
        base = plan.n_requirements
    else:
        raise ContractError(f"unknown mode {mode!r}; expected one of {MODES}")
    return base * plan.n_algorithms * len(SCHEMES) * plan.n_labels


def savings_ratio(plan: ExperimentPlan) -> float:
    """Fraction of prebuild work avoided by building on demand."""
    prebuild = count_experiments(plan, MODE_PREBUILD)
    on_demand = count_experiments(plan, MODE_ON_DEMAND)
    return 1.0 - on_demand / prebuild


def aggregate_savings(plans) -> float:
    """Savings at full deployment scale across several datasets.

    Compares every plan's actually-submitted requirement builds against the
    prebuild universe of the largest dataset — the store a prebuilder would
    have to populate before serving that dataset at all.
    """
    plans = list(plans)
    if not plans:
        raise ContractError("aggregate_savings needs at least one plan")
    on_demand = sum(count_experiments(p, MODE_ON_DEMAND) for p in plans)
    prebuild = max(count_experiments(p, MODE_PREBUILD) for p in plans)
    return 1.0 - on_demand / prebuild


# Benchmark presets: (attributes, labels, submitted requirements).
PRESETS: dict[str, tuple[int, int, int]] = {
    "ds1": (6, 1, 7),
    "ds2": (13, 4, 11),
}


def preset_plan(name: str, *, n_algorithms: int = len(FAMILIES)) -> ExperimentPlan:
    if name not in PRESETS:
        raise ContractError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    n_attributes, n_labels, n_requirements = PRESETS[name]
    return ExperimentPlan(name=name, n_attributes=n_attributes, n_labels=n_labels,
                          n_requirements=n_requirements, n_algorithms=n_algorithms)


@dataclass(frozen=True)
class PlanReport:
    name: str
    combinations: int
    prebuild: int
    on_demand: int
    savings: float
    prebuild_seconds: float | None = None
    on_demand_seconds: float | None = None


@dataclass(frozen=True)
class BenchReport:
    plans: tuple[PlanReport, ...]
    aggregate_savings: float
    sample_mean: float | None
    timed_out: int
    timed_out_fraction: float

    @property
    def total_on_demand(self) -> int:
        return sum(p.on_demand for p in self.plans)


def bench_report(plans, *, samples=(), timed_out: int = 0) -> BenchReport:
    """Summarize plans; extrapolate durations from the mean of ``samples``.

    ``samples`` are measured per-build wall-clock seconds; extrapolation is
    linear in the build count.  ``timed_out`` counts builds that hit their
    budget — they still ran, so they stay in the on-demand totals.
    """
    plans = list(plans)
    if not plans:
        raise ContractError("bench_report needs at least one plan")
    samples = [float(s) for s in samples]
    if any(s < 0 for s in samples):
        raise ContractError("timing samples cannot be negative")
    mean = sum(samples) / len(samples) if samples else None
    if timed_out < 0:
        raise ContractError("timed_out cannot be negative")
    per_plan = []
    for plan in plans:
        prebuild = count_experiments(plan, MODE_PREBUILD)
        on_demand = count_experiments(plan, MODE_ON_DEMAND)
        per_plan.append(PlanReport(
            name=plan.name,
            combinations=plan.combinations,
            prebuild=prebuild,
            on_demand=on_demand,
            savings=savings_ratio(plan),
            prebuild_seconds=mean * prebuild if mean is not None else None,
            on_demand_seconds=mean * on_demand if mean is not None else None,
        ))
    total_on_demand = sum(p.on_demand for p in per_plan)
    if timed_out > total_on_demand:
        raise ContractError(
            f"timed_out={timed_out} exceeds the {total_on_demand} on-demand builds")
    return BenchReport(
        plans=tuple(per_plan),
        aggregate_savings=aggregate_savings(plans),
        sample_mean=mean,
        timed_out=timed_out,
        timed_out_fraction=timed_out / total_on_demand if total_on_demand else 0.0,
    )


def render_report(report: BenchReport) -> str:
    lines = []
    header = (f"{'plan':8} {'combos':>8} {'prebuild':>12} "
              f"{'on-demand':>10} {'savings':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for rep in report.plans:
        lines.append(f"{rep.name:8} {rep.combinations:>8} {rep.prebuild:>12} "
                     f"{rep.on_demand:>10} {rep.savings:>10.4%}")
        if rep.prebuild_seconds is not None:
            lines.append(f"{'':8} projected: prebuild {rep.prebuild_seconds:.1f}s,"
                         f" on-demand {rep.on_demand_seconds:.1f}s")
    lines.append(f"aggregate savings: {report.aggregate_savings:.4%}")
    lines.append(f"timed-out builds: {report.timed_out} "
                 f"({report.timed_out_fraction:.2%} of on-demand)")
    return "\n".join(lines)


def report_to_doc(report: BenchReport) -> dict:
    plans = []
    for rep in report.plans:
        doc = {
            "plan": rep.name,
            "feature_combinations": rep.combinations,
            "experiments": {"prebuild": rep.prebuild, "on_demand": rep.on_demand},
            "savings_ratio": rep.savings,
        }
        if rep.prebuild_seconds is not None:
            doc["projected_seconds"] = {
                "prebuild": rep.prebuild_seconds,
                "on_demand": rep.on_demand_seconds,
            }
        plans.append(doc)
    return {
        "plans": plans,
        "aggregate_savings": report.aggregate_savings,
        "sample_mean_seconds": report.sample_mean,
        "timed_out": report.timed_out,
        "timed_out_fraction": report.timed_out_fraction,
    }


def algorithm_count(tiers=None) -> int:
    """Families a build runs under ``tiers``; every family when none are given."""
    return len(families_for_tiers(tiers)) if tiers else len(FAMILIES)


def default_plans(*, tiers=None) -> list[ExperimentPlan]:
    """Preset plans sized to the configured learner tiers."""
    return [preset_plan(name, n_algorithms=algorithm_count(tiers))
            for name in sorted(PRESETS)]


__all__ = [
    "ExperimentPlan",
    "MODES",
    "MODE_ON_DEMAND",
    "MODE_PREBUILD",
    "PRESETS",
    "BenchReport",
    "PlanReport",
    "aggregate_savings",
    "algorithm_count",
    "bench_report",
    "count_experiments",
    "count_feature_combinations",
    "default_plans",
    "preset_plan",
    "render_report",
    "report_to_doc",
    "savings_ratio",
]
