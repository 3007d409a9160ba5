"""Model building: splits, budgets, tuning, candidate builds and selection.

A *candidate* is one (encoding scheme, algorithm family) pair.  Building a
candidate fits its encoder, tunes hyperparameters by seeded random search
on an internal validation cut, trains on the training split and evaluates
on the held-out split.  Each candidate runs under its own
:class:`BuildBudget`; candidates that exceed it are reported as timed out
and excluded from selection, never silently dropped.

Every ranking reads only what the build computed, never the clock:
``tune`` breaks F1 ties by grid order and ``select_optimal`` by model size,
then the fixed family and scheme orders, so the same inputs and seed always
give the same model.  Wall-clock times are measured for reporting only and
live on the freshly built model, never in its stored document, so the same
inputs and seed also give byte-identical model files.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .. import evaluation, features
from ..errors import (
    BudgetExceededError,
    ContractError,
    NoModelFoundError,
    SpecMismatchError,
)
from . import algorithms
from .algorithms import FAMILIES, families_for_tiers, make_model, model_from_payload

logger = logging.getLogger(__name__)

_MODEL_FORMAT_VERSION = "2"
# "1" also carried timing and dataset_fingerprint; reading ignores both.
_READABLE_FORMAT_VERSIONS = ("1", _MODEL_FORMAT_VERSION)

DEFAULT_TEST_FRACTION = 0.3
DEFAULT_TIERS = (algorithms.REQUIRED_TIER,)
DEFAULT_N_TRIALS = 6


@dataclass(frozen=True)
class BuildBudget:
    """Per-candidate wall-clock and memory ceiling.

    ``memory_limit`` is enforced as an up-front estimate
    (rows x width x 8 bytes x family factor); the wall clock is checked
    cooperatively at iteration boundaries.
    """

    wall_clock_limit: float = 24 * 3600.0
    memory_limit: int = 10 * 2**30

    def __post_init__(self):
        if self.wall_clock_limit <= 0:
            raise ContractError("wall_clock_limit must be positive")
        if self.memory_limit <= 0:
            raise ContractError("memory_limit must be positive")


DEFAULT_BUDGET = BuildBudget()


class BudgetClock:
    """Cooperative budget enforcement shared across one candidate build."""

    def __init__(self, budget: BuildBudget):
        self.budget = budget
        self.started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def check(self) -> None:
        elapsed = self.elapsed
        if elapsed > self.budget.wall_clock_limit:
            raise BudgetExceededError("time", elapsed)

    def ensure_memory(self, rows: int, width: int, factor: int) -> None:
        estimate = rows * max(width, 1) * 8 * factor
        if estimate > self.budget.memory_limit:
            raise BudgetExceededError(
                "memory", self.elapsed,
                f"estimated {estimate} bytes exceeds limit {self.budget.memory_limit}")


# ---------------------------------------------------------------------------
# Splits and label codes


@dataclass(frozen=True)
class SplitResult:
    train_idx: np.ndarray
    test_idx: np.ndarray
    stratified: bool

    @property
    def n_test(self) -> int:
        return int(self.test_idx.shape[0])


def make_label_map(labels) -> tuple[tuple, np.ndarray]:
    """First-appearance label catalogue and the integer code per row."""
    catalogue: dict = {}
    for value in labels:
        catalogue.setdefault(value, len(catalogue))
    codes = np.array([catalogue[v] for v in labels], dtype=np.int64)
    return tuple(catalogue), codes


def split(y_codes: np.ndarray, test_fraction: float, seed: int) -> SplitResult:
    """Seeded train/test row split; |test| = round(fraction * N).

    The split is stratified per class whenever every class has at least two
    members; otherwise it falls back to a plain shuffle and says so in the
    result.  Per-class test quotas are largest-remainder rounded so the
    total always matches.
    """
    n = int(y_codes.shape[0])
    if not 0.0 < test_fraction < 1.0:
        raise ContractError("test_fraction must be in (0, 1)")
    if n < 2:
        raise ContractError("need at least two rows to split")
    n_test = int(round(test_fraction * n))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(seed)

    counts = np.bincount(y_codes)
    present = np.flatnonzero(counts)
    stratified = bool((counts[present] >= 2).all())
    if not stratified:
        perm = rng.permutation(n)
        return SplitResult(train_idx=np.sort(perm[n_test:]),
                           test_idx=np.sort(perm[:n_test]), stratified=False)

    # Largest-remainder allocation: per-class quotas floor(fraction * n_c),
    # leftovers handed out by fractional part so the total is exactly n_test.
    # Quotas are capped at n_c - 1 to keep every class represented in train.
    exact = counts[present] * test_fraction
    quota = np.floor(exact).astype(np.int64)
    cap = counts[present].astype(np.int64) - 1
    quota = np.minimum(quota, cap)
    deficit = n_test - int(quota.sum())
    order = np.argsort(-(exact - quota), kind="stable")
    step = 0
    while deficit > 0 and step < 2 * len(order) * (1 + n_test):
        pos = order[step % len(order)]
        if quota[pos] < cap[pos]:
            quota[pos] += 1
            deficit -= 1
        step += 1
    if int(quota.sum()) != n_test:
        # capacity exhausted (huge fraction, many tiny classes): plain split
        perm = rng.permutation(n)
        return SplitResult(train_idx=np.sort(perm[n_test:]),
                           test_idx=np.sort(perm[:n_test]), stratified=False)
    test_parts = []
    for cls, q in zip(present, quota):
        rows = np.flatnonzero(y_codes == cls)
        rows = rows[rng.permutation(rows.shape[0])]
        test_parts.append(rows[:int(q)])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    return SplitResult(train_idx=np.flatnonzero(mask), test_idx=test_idx,
                       stratified=True)


# ---------------------------------------------------------------------------
# Train / tune / predict


def train(family: str, params: dict, X: np.ndarray, y_codes: np.ndarray,
          n_classes: int, budget: BuildBudget, seed: int,
          clock: BudgetClock | None = None):
    """Fit one model and return it.

    Raises BudgetExceededError when the cooperative budget trips; the
    exception carries the elapsed time so the caller can report a
    timed-out candidate.
    """
    if X.shape[0] != y_codes.shape[0]:
        raise ContractError("matrix and labels disagree on row count")
    if X.shape[0] == 0:
        raise ContractError("cannot train on an empty matrix")
    clock = clock or BudgetClock(budget)
    clock.ensure_memory(X.shape[0], X.shape[1], FAMILIES[family].memory_factor)
    model = make_model(family, params)
    model.fit(X, y_codes, n_classes, np.random.default_rng(seed), clock)
    return model


def predict(model, X: np.ndarray, width: int | None = None):
    """Predict label codes.

    Never abstains: every row gets a code, unseen patterns included.
    """
    if width is not None and X.shape[1] != width:
        raise SpecMismatchError(
            f"matrix width {X.shape[1]} does not match model width {width}")
    return model.predict_codes(X)


def grid_points(family: str) -> list[dict]:
    grid = FAMILIES[family].grid
    names = sorted(grid)
    points: list[dict] = [{}]
    for name in names:
        points = [dict(p, **{name: v}) for p in points for v in grid[name]]
    return points


@dataclass
class TuneResult:
    best_params: dict
    trials: list[tuple[dict, float]]  # (params, inner f1)


def tune(family: str, X: np.ndarray, y_codes: np.ndarray, n_classes: int,
         budget: BuildBudget, seed: int, n_trials: int = DEFAULT_N_TRIALS,
         clock: BudgetClock | None = None) -> TuneResult:
    """Seeded random search over the family grid with an internal split.

    Trials are scored by macro F1 on the internal validation cut; ties go
    to the point listed first in ``grid_points(family)``, and the grids list
    their cheaper values first.  A single-point grid returns that point
    after one trial.
    """
    clock = clock or BudgetClock(budget)
    rng = np.random.default_rng(seed)
    points = grid_points(family)
    proposals = rng.permutation(len(points))[:max(1, n_trials)].tolist()
    if y_codes.shape[0] < 4:
        # too small for an inner cut; take the first seeded proposal
        return TuneResult(best_params=points[proposals[0]], trials=[])

    inner = split(y_codes, DEFAULT_TEST_FRACTION, seed=seed + 1)
    X_fit, y_fit = X[inner.train_idx], y_codes[inner.train_idx]
    X_val, y_val = X[inner.test_idx], y_codes[inner.test_idx]

    scored: list[tuple[float, int]] = []  # (-f1, grid index): min is best
    trials: list[tuple[dict, float]] = []
    for trial_no, index in enumerate(proposals):
        clock.check()
        model = train(family, points[index], X_fit, y_fit, n_classes,
                      budget, seed=seed + 100 + trial_no, clock=clock)
        codes = predict(model, X_val)
        f1 = evaluation.metrics(evaluation.confusion(list(y_val), list(codes))).f1
        trials.append((points[index], f1))
        scored.append((-f1, index))
    return TuneResult(best_params=points[min(scored)[1]], trials=trials)


# ---------------------------------------------------------------------------
# Trained model container


@dataclass
class TrainedModel:
    """A fitted candidate with everything needed to reuse it later.

    :meth:`canonical_bytes` is the model's byte-for-byte identity and
    :meth:`save` writes exactly those bytes.  ``timing`` is wall-clock data
    from the build that produced this object: it is not part of the
    document, and a loaded model has ``timing=None``.
    """

    family: str
    scheme: str
    params: dict
    label_map: tuple
    encoder_spec: features.EncoderSpec
    model: object
    eval_report: evaluation.EvalReport
    timing: evaluation.TimingReport | None = field(default=None, compare=False)
    requirement_key: str = ""
    seed: int = 0

    @property
    def f1(self) -> float:
        return self.eval_report.f1

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        return predict(self.model, X, width=self.encoder_spec.width)

    def predict_labels(self, matrix: features.FeatureMatrix) -> list:
        codes = self.predict_codes(matrix.values)
        return [self.label_map[c] for c in codes]

    def to_document(self) -> dict:
        return {
            "format_version": _MODEL_FORMAT_VERSION,
            "family": self.family,
            "scheme": self.scheme,
            "params": self.params,
            "label_map": list(self.label_map),
            "encoder_spec": self.encoder_spec.to_bytes().decode("utf-8"),
            "payload": self.model.payload(),
            "eval": evaluation.report_to_doc(self.eval_report),
            "requirement_key": self.requirement_key,
            "seed": self.seed,
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.to_document(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            handle.write(self.canonical_bytes())

    @classmethod
    def from_document(cls, doc: dict) -> "TrainedModel":
        if doc.get("format_version") not in _READABLE_FORMAT_VERSIONS:
            raise SpecMismatchError(
                f"unsupported model format version: {doc.get('format_version')!r}")
        return cls(
            family=doc["family"],
            scheme=doc["scheme"],
            params=doc["params"],
            label_map=tuple(doc["label_map"]),
            encoder_spec=features.EncoderSpec.from_bytes(
                doc["encoder_spec"].encode("utf-8")),
            model=model_from_payload(doc["family"], doc["payload"]),
            eval_report=evaluation.report_from_doc(doc["eval"]),
            requirement_key=doc.get("requirement_key", ""),
            seed=doc.get("seed", 0),
        )

    @classmethod
    def load(cls, path) -> "TrainedModel":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_document(json.load(handle))


@dataclass(frozen=True)
class CandidateFailure:
    family: str
    scheme: str
    kind: str  # time | memory | error
    elapsed: float
    message: str = ""


@dataclass
class BuildReport:
    candidates: list[TrainedModel]
    failures: list[CandidateFailure] = field(default_factory=list)
    seed: int = 0

    @property
    def all_failed(self) -> bool:
        return not self.candidates


# ---------------------------------------------------------------------------
# Candidate builds and selection


def build_candidates(table, budget: BuildBudget = DEFAULT_BUDGET, seed: int = 0,
                     *, tiers=DEFAULT_TIERS,
                     n_trials: int = DEFAULT_N_TRIALS,
                     requirement_key: str = "") -> BuildReport:
    """Build every (scheme x family) candidate for a selected table.

    ``table`` provides ``observed`` columns and ``labels`` (see
    ingest.SelectedTable).  Candidates run one after another and each gets
    a fresh budget clock.  The report carries the surviving models plus one
    failure entry per candidate that timed out or crashed.
    """
    family_names = families_for_tiers(tiers)
    label_map, codes = make_label_map(table.labels)
    n_classes = len(label_map)
    if n_classes < 1:
        raise ContractError("no labels to learn from")

    cut = split(codes, DEFAULT_TEST_FRACTION, seed=seed)
    prepared: list[tuple[str, features.FeatureMatrix, features.EncoderSpec]] = []
    for scheme in features.SCHEMES:
        matrix, spec = features.fit_transform(table.observed, scheme=scheme)
        prepared.append((scheme, matrix, spec))

    def run(scheme, matrix, spec, family, cand_seed):
        clock = BudgetClock(budget)
        started = time.perf_counter()
        try:
            clock.ensure_memory(matrix.rows, matrix.columns,
                                FAMILIES[family].memory_factor)
            X_train, y_train = matrix.values[cut.train_idx], codes[cut.train_idx]
            X_test, y_test = matrix.values[cut.test_idx], codes[cut.test_idx]
            tuned = tune(family, X_train, y_train, n_classes, budget,
                         seed=cand_seed, n_trials=n_trials, clock=clock)
            model = train(family, tuned.best_params, X_train, y_train,
                          n_classes, budget, seed=cand_seed, clock=clock)
            train_time = time.perf_counter() - started  # tuning included
            report, timing = evaluation.evaluate(
                model, X_test, y_test, label_names=label_map, train_time=train_time)
            return TrainedModel(
                family=family, scheme=scheme, params=tuned.best_params,
                label_map=label_map, encoder_spec=spec, model=model,
                eval_report=report, timing=timing,
                requirement_key=requirement_key, seed=cand_seed)
        except BudgetExceededError as exc:
            logger.info("candidate %s/%s timed out (%s)", scheme, family, exc.kind)
            return CandidateFailure(family, scheme, exc.kind, exc.elapsed, str(exc))
        except Exception as exc:  # noqa: BLE001 - candidate isolation
            logger.warning("candidate %s/%s failed: %s", scheme, family, exc)
            return CandidateFailure(family, scheme, "error",
                                    time.perf_counter() - started, str(exc))

    report = BuildReport(candidates=[], seed=seed)
    for s_idx, (scheme, matrix, spec) in enumerate(prepared):
        for f_idx, family in enumerate(family_names):
            # stable per-candidate seed, independent of the other candidates
            cand_seed = seed * 100003 + s_idx * 1009 + f_idx * 13 + 1
            result = run(scheme, matrix, spec, family, cand_seed)
            if isinstance(result, TrainedModel):
                report.candidates.append(result)
            else:
                report.failures.append(result)
    return report


def select_optimal(candidates) -> TrainedModel:
    """Pick the candidate with the best held-out F1.

    Ties break toward the smaller model (the length of its
    ``canonical_bytes()``, which roughly tracks serving cost), then the
    fixed family order, then the encoding scheme order.  Only the
    candidates tied at the top F1 are serialized to be sized.  No timing
    enters the rank, so the choice is total and the same on every run.
    """
    pool = list(candidates)
    if not pool:
        raise NoModelFoundError("no candidate model survived the build")
    top = max(model.eval_report.f1 for model in pool)

    def rank(model: TrainedModel):
        return (
            len(model.canonical_bytes()),
            FAMILIES[model.family].rank,
            features.SCHEMES.index(model.scheme),
        )

    return min((model for model in pool if model.eval_report.f1 == top), key=rank)
