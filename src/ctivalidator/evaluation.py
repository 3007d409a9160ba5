"""One-vs-rest evaluation: confusion counts, P/R/F1/accuracy, timing.

Counts are taken over the union of classes seen in either the actual or
the predicted sequence.  Per-class precision/recall/F1 use the usual
one-vs-rest definitions with zero denominators mapped to 0.0 and flagged,
never NaN.  Accuracy is the count-level identity (correct / total), which
equals micro-averaged recall.  ``computation_time`` is defined as
train time + predict time and holds by construction on every report;
timing describes one fresh build and is never stored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .codec import from_fields
from .errors import ContractError

_REPORT_FORMAT_VERSION = "1"

MACRO = "macro"
WEIGHTED = "weighted"
AVERAGING_MODES = (MACRO, WEIGHTED)


@dataclass(frozen=True)
class ClassCounts:
    label: object
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def support(self) -> int:
        return self.tp + self.fn


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-class one-vs-rest counts; classes sorted by string form."""

    classes: tuple[ClassCounts, ...]
    n_items: int


def confusion(actual, predicted) -> ConfusionCounts:
    """Count TP/FP/FN/TN per class over two equal-length label sequences."""
    actual = list(actual)
    predicted = list(predicted)
    if len(actual) != len(predicted):
        raise ContractError(
            f"label sequences differ in length: {len(actual)} vs {len(predicted)}")
    if not actual:
        raise ContractError("cannot evaluate empty label sequences")
    labels = sorted(set(actual) | set(predicted), key=str)
    n = len(actual)
    per_class = []
    for label in labels:
        tp = sum(1 for a, p in zip(actual, predicted) if a == label and p == label)
        fp = sum(1 for a, p in zip(actual, predicted) if a != label and p == label)
        fn = sum(1 for a, p in zip(actual, predicted) if a == label and p != label)
        per_class.append(ClassCounts(label=label, tp=tp, fp=fp, fn=fn,
                                     tn=n - tp - fp - fn))
    return ConfusionCounts(classes=tuple(per_class), n_items=n)


@dataclass(frozen=True)
class ClassMetrics:
    label: object
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    support: int
    zero_division: tuple[str, ...] = ()


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    averaging: str
    per_class: tuple[ClassMetrics, ...]
    n_items: int


def _safe_div(num: float, den: float, flag: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(flag)
        return 0.0
    return num / den


def metrics(counts: ConfusionCounts, averaging: str = MACRO) -> EvalReport:
    """Aggregate confusion counts into an evaluation report.

    ``macro`` averages per-class metrics with equal weight; ``weighted``
    weights them by class support.
    """
    if averaging not in AVERAGING_MODES:
        raise ContractError(f"unknown averaging mode: {averaging!r}")
    per_class = []
    for c in counts.classes:
        flags: list[str] = []
        precision = _safe_div(c.tp, c.tp + c.fp, "precision", flags)
        recall = _safe_div(c.tp, c.tp + c.fn, "recall", flags)
        f1 = _safe_div(2 * precision * recall, precision + recall, "f1", flags)
        per_class.append(ClassMetrics(
            label=c.label, tp=c.tp, fp=c.fp, fn=c.fn, tn=c.tn,
            precision=precision, recall=recall, f1=f1, support=c.support,
            zero_division=tuple(flags)))

    if averaging == MACRO:
        weights = np.ones(len(per_class))
    else:
        weights = np.array([float(m.support) for m in per_class])
    total = float(weights.sum())
    if total == 0.0:
        avg_p = avg_r = avg_f1 = 0.0
    else:
        avg_p = float(sum(w * m.precision for w, m in zip(weights, per_class)) / total)
        avg_r = float(sum(w * m.recall for w, m in zip(weights, per_class)) / total)
        avg_f1 = float(sum(w * m.f1 for w, m in zip(weights, per_class)) / total)
    accuracy = sum(m.tp for m in per_class) / counts.n_items
    return EvalReport(accuracy=accuracy, precision=avg_p, recall=avg_r,
                      f1=avg_f1, averaging=averaging,
                      per_class=tuple(per_class), n_items=counts.n_items)


@dataclass(frozen=True)
class TimingReport:
    """Wall-clock accounting for one model; total = train + predict."""

    train_time: float
    predict_time: float

    def __post_init__(self):
        if self.train_time < 0 or self.predict_time < 0:
            raise ContractError("timings must be non-negative")

    @property
    def computation_time(self) -> float:
        return self.train_time + self.predict_time


def evaluate(model, X: np.ndarray, y, label_names, train_time: float = 0.0):
    """Run a fitted model on held-out rows and report metrics plus timing.

    ``model`` needs a ``predict_codes(X)`` method, ``y`` holds the actual
    codes and ``label_names`` maps each code to its display label.
    """
    started = time.perf_counter()
    codes = model.predict_codes(X)
    predict_time = time.perf_counter() - started
    actual = [label_names[int(c)] for c in y]
    predicted = [label_names[int(c)] for c in codes]
    report = metrics(confusion(actual, predicted))
    return report, TimingReport(train_time=train_time, predict_time=predict_time)


# ---------------------------------------------------------------------------
# JSON documents: a report's fields, each class's metrics as its fields


def report_to_doc(report: EvalReport) -> dict:
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    doc["per_class"] = [{f.name: getattr(m, f.name) for f in fields(m)}
                        for m in report.per_class]
    doc["format_version"] = _REPORT_FORMAT_VERSION
    return doc


def report_from_doc(doc: dict) -> EvalReport:
    per_class = tuple(from_fields(ClassMetrics, m) for m in doc["per_class"])
    return from_fields(EvalReport, dict(doc, per_class=per_class))
