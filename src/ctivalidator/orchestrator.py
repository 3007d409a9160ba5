"""Validation orchestration: requirements, the model registry and outcomes.

The flow for one validation request:

1. interpret the SOC requirement (observed attributes, unknown attribute,
   confidence threshold);
2. look the requirement up in the registry — a stored model whose held-out
   F1 clears the confidence threshold is reused directly;
3. on a miss, check whether the dataset can supply the requested columns.
   No usable rows means the outcome is not-applicable and a data request
   goes to the threat-intelligence team;
4. otherwise build candidate models, select the best survivor, and gate it
   by the confidence threshold.  Models that clear the gate are registered
   for reuse; models below it are never stored and the data-science team
   is notified.

Identical requirements arriving concurrently share a single build
(single-flight).  The registry keeps one model file per key, survives
restarts and is safe for threads and processes sharing one root.
"""

from __future__ import annotations

import datetime as _dt
import fcntl
import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import features, ingest, schema
from .errors import (
    ContractError,
    DataUnavailableError,
    StorageError,
    UnknownAttributeError,
)
from .ingest import Dataset
from .learners import (
    DEFAULT_BUDGET,
    DEFAULT_N_TRIALS,
    DEFAULT_TIERS,
    BuildBudget,
    BuildReport,
    TrainedModel,
    build_candidates,
    select_optimal,
)

logger = logging.getLogger(__name__)

# Notification channels
SECURITY_TEAM = "security-team"
DATA_SCIENCE_TEAM = "data-science-team"
THREAT_INTEL_TEAM = "threat-intel-team"

# Not-applicable reasons
REASON_NO_DATA = "no-data"
REASON_BELOW_CONFIDENCE = "below-confidence"
REASON_ALL_TIMED_OUT = "all-timed-out"


@dataclass(frozen=True)
class Requirement:
    """What a SOC wants validated: observe these attributes, predict that one.

    ``confidence`` is the minimum held-out F1 the SOC will accept from an
    automated validator.
    """

    observed: tuple[str, ...]
    label: str
    confidence: float
    dataset_id: str | None = None

    def __post_init__(self):
        if not self.observed:
            raise ContractError("requirement must observe at least one attribute")
        for name in (*self.observed, self.label):
            if name not in schema.REQUIREMENT_FIELDS:
                raise UnknownAttributeError(
                    f"requirement names unknown attribute {name!r}")
        if len(set(self.observed)) != len(self.observed):
            raise ContractError("observed attributes must be unique")
        if self.label in self.observed:
            raise ContractError(
                f"unknown attribute {self.label!r} cannot also be observed")
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(
                f"confidence must be within [0, 1], got {self.confidence}")


def interpret(document) -> Requirement:
    """Parse a requirement document into a validated Requirement.

    Accepts a mapping or a text block of ``key: value`` lines (JSON text
    works too).  ``ob`` may be a named set alias (ob1..ob18), a comma list
    of attribute names, or a list; names are canonicalized, so "IP source"
    and ``ip_src`` are the same attribute.
    """
    if isinstance(document, Requirement):
        return document
    if isinstance(document, (bytes, str)):
        text = document.decode("utf-8") if isinstance(document, bytes) else document
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = _parse_kv_lines(text)
    if not isinstance(document, dict):
        raise ContractError("requirement document must be a mapping or key: value text")

    doc = {str(k).strip().lower(): v for k, v in document.items()}
    ob_raw = doc.get("ob", doc.get("observed"))
    un_raw = doc.get("un", doc.get("unknown", doc.get("label")))
    conf_raw = doc.get("confidence")
    if ob_raw is None or un_raw is None or conf_raw is None:
        raise ContractError(
            "requirement document needs 'ob', 'un' and 'confidence' entries")

    observed = _parse_observed(ob_raw)
    label = schema.canonical_attribute(str(un_raw))
    try:
        confidence = float(conf_raw)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"confidence is not a number: {conf_raw!r}") from exc
    dataset_id = doc.get("dataset", doc.get("dataset_id"))
    return Requirement(observed=observed, label=label, confidence=confidence,
                       dataset_id=str(dataset_id) if dataset_id is not None else None)


def _parse_kv_lines(text: str) -> dict:
    doc: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line and "=" not in line:
            raise ContractError(f"unparseable requirement line: {line!r}")
        sep = ":" if ":" in line else "="
        key, _, value = line.partition(sep)
        doc[key.strip()] = value.strip()
    return doc


def _parse_observed(value) -> tuple[str, ...]:
    if isinstance(value, str):
        token = value.strip().lower()
        if token in schema.OBSERVED_SET_ALIASES:
            return schema.OBSERVED_SET_ALIASES[token]
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    if not parts:
        raise ContractError("observed attribute list is empty")
    return tuple(schema.canonical_attribute(p) for p in parts)


def requirement_key(requirement: Requirement, dataset_fingerprint: str) -> str:
    """Canonical registry key: sorted observed set + label + data identity.

    Permuting the observed attributes does not change the key; changing the
    dataset fingerprint does, so models can never serve stale data.
    """
    ob = ",".join(sorted(requirement.observed))
    return f"ob={ob}|un={requirement.label}|data={dataset_fingerprint}"


def _key_id(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class DataRequested:
    """Request for threat data that the current dataset cannot supply."""

    kind = "data-requested"
    missing: tuple[str, ...]
    requirement_key: str


@dataclass(frozen=True)
class Predicted:
    """Validation succeeded; labels are ordered like the alert rows."""

    kind = "predicted"
    labels: tuple
    f1: float
    model_key: str
    family: str
    scheme: str
    from_cache: bool
    model: TrainedModel = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class NotApplicable:
    """Validation declined: no data, below confidence, or all timed out."""

    kind = "not-applicable"
    reason: str
    best_f1: float | None = None
    request: DataRequested | None = None


# ---------------------------------------------------------------------------
# Notifications


@dataclass(frozen=True)
class Notification:
    channel: str
    reason: str
    requirement_key: str
    message: str
    created_at: str


class Notifier:
    """Append-only notification log, in memory and optionally on disk."""

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._entries: list[Notification] = []

    def notify(self, channel: str, reason: str, requirement_key: str,
               message: str) -> Notification:
        entry = Notification(
            channel=channel, reason=reason, requirement_key=requirement_key,
            message=message,
            created_at=_dt.datetime.now(_dt.timezone.utc).isoformat())
        with self._lock:
            self._entries.append(entry)
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({
                        "created_at": entry.created_at,
                        "channel": entry.channel,
                        "reason": entry.reason,
                        "requirement_key": entry.requirement_key,
                        "message": entry.message,
                    }, sort_keys=True) + "\n")
        logger.info("notify %s: %s (%s)", channel, reason, requirement_key)
        return entry

    def entries(self, channel: str | None = None) -> list[Notification]:
        with self._lock:
            if channel is None:
                return list(self._entries)
            return [e for e in self._entries if e.channel == channel]


# ---------------------------------------------------------------------------
# Registry


class ModelRegistry:
    """Persistent requirement-key -> best-model store.

    Layout: one ``models/<key-id>/model.json`` per requirement key.  The
    model document carries its own key, F1, family and scheme, so the model
    files are the registry's only record; an index file left by the older
    layout is ignored.  Registration holds an exclusive POSIX
    ``flock`` on ``models/<key-id>/lock`` while it compares against the
    stored model and writes tmp + rename, so threads and processes sharing
    a root never lose each other's models.  The stored F1 is monotonically
    non-decreasing per key: a candidate with a lower F1 than the incumbent
    is refused, an equal one replaces it.

    Lookups are served from an in-process cache while the cached model
    clears the asked bar.  Otherwise the file is checked again, because
    another process may have stored a better model since; it is decoded
    only when it is not the file the cached model came from.
    """

    def __init__(self, root):
        self.root = Path(root)
        # key -> model, unlocked: a lookup refilling a key from disk may
        # replace a newer entry, which is harmless because every entry was
        # stored for its key and every hit is checked against its bar.
        self._cache: dict[str, TrainedModel] = {}
        # key -> stamp of the file the cached model was read from or written
        # to.  A stamp that lags its model only costs one more decode.
        self._stamps: dict[str, tuple[int, int, int]] = {}
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _stamp(path: Path) -> tuple[int, int, int] | None:
        """(inode, mtime, size): every register renames a new file into place."""
        try:
            st = path.stat()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read model {path}: {exc}") from exc
        return st.st_ino, st.st_mtime_ns, st.st_size

    def _read(self, path: Path) -> TrainedModel | None:
        try:
            return TrainedModel.load(path)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read model {path}: {exc}") from exc

    def lookup(self, key: str, confidence: float) -> TrainedModel | None:
        """Fetch the stored model for a key if it clears the confidence bar."""
        model = self._cache.get(key)
        if model is not None and model.f1 >= confidence:
            return model
        path = self.root / "models" / _key_id(key) / "model.json"
        stamp = self._stamp(path)  # taken before the read, so never newer
        if stamp is None:
            return None
        if model is None or self._stamps.get(key) != stamp:
            model = self._read(path)
            if model is None or model.requirement_key != key:
                return None
            self._cache[key] = model
            self._stamps[key] = stamp
        return model if model.f1 >= confidence else None

    def register(self, key: str, model: TrainedModel) -> bool:
        """Store a model for a key; last writer wins unless it is worse."""
        if model.requirement_key != key:
            raise ContractError(f"model built for {model.requirement_key!r} "
                                f"cannot be stored under {key!r}")
        model_dir = self.root / "models" / _key_id(key)
        model_path = model_dir / "model.json"
        try:
            model_dir.mkdir(parents=True, exist_ok=True)
            with open(model_dir / "lock", "ab") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)  # released when closed
                stored = self._read(model_path)
                if stored is not None and stored.f1 > model.f1:
                    return False
                tmp = model_dir / "model.json.tmp"
                model.save(tmp)
                tmp.replace(model_path)
                self._cache[key] = model
                self._stamps[key] = self._stamp(model_path)
        except OSError as exc:
            raise StorageError(f"cannot write model for {key}: {exc}") from exc
        return True

    def entries(self) -> list[dict]:
        """One row per stored model, read from its document's plain fields.

        The model payload is parsed as JSON but never decoded into a model.
        """
        entries = []
        for path in sorted(self.root.glob("models/*/model.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
            except FileNotFoundError:
                continue  # removed since the scan
            except OSError as exc:
                raise StorageError(f"cannot read model {path}: {exc}") from exc
            entries.append({
                "key_id": path.parent.name, "key": doc.get("requirement_key", ""),
                "f1": doc["eval"]["f1"], "family": doc["family"],
                "scheme": doc["scheme"], "path": str(path.relative_to(self.root))})
        return entries

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("models/*/model.json"))


# ---------------------------------------------------------------------------
# Orchestrator


@dataclass(frozen=True)
class BuildConfig:
    """Knobs for candidate building during validation."""

    seed: int = 0
    budget: BuildBudget = DEFAULT_BUDGET
    tiers: tuple[str, ...] = DEFAULT_TIERS
    n_trials: int = DEFAULT_N_TRIALS


@dataclass
class OrchestratorStats:
    builds: int = 0
    cache_hits: int = 0
    flight_joins: int = 0


@dataclass
class _BuildResult:
    """Outcome of one shared (single-flight) build."""

    best: TrainedModel | None = None
    report: BuildReport | None = None
    missing: tuple[str, ...] = ()


class _Flight:
    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result: _BuildResult | None = None
        self.error: BaseException | None = None


class Orchestrator:
    """Runs the validation flow against one registry."""

    def __init__(self, registry: ModelRegistry, notifier: Notifier | None = None,
                 config: BuildConfig | None = None):
        self.registry = registry
        self.notifier = notifier or Notifier()
        self.config = config or BuildConfig()
        self.stats = OrchestratorStats()
        self._stats_lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()

    # -- public entry points -------------------------------------------------

    def validate(self, requirement: Requirement, dataset: Dataset, alert_rows):
        """Validate alert rows against a requirement.

        Returns Predicted, or NotApplicable with a reason (``no-data``
        carries a DataRequested alongside the notification trail).
        """
        requirement = interpret(requirement)
        key = requirement_key(requirement, dataset.fingerprint)

        model = self.registry.lookup(key, requirement.confidence)
        if model is not None:
            with self._stats_lock:
                self.stats.cache_hits += 1
            return self._predict(requirement, key, model, alert_rows, from_cache=True)

        result = self._build_shared(key, requirement, dataset)
        if result.missing:
            request = DataRequested(missing=result.missing, requirement_key=key)
            self.notifier.notify(THREAT_INTEL_TEAM, REASON_NO_DATA, key,
                                 f"gather threat data carrying: {', '.join(result.missing)}")
            self.notifier.notify(SECURITY_TEAM, REASON_NO_DATA, key,
                                 "no usable data; alert requires manual analysis")
            return NotApplicable(reason=REASON_NO_DATA, request=request)
        if result.best is None:
            self.notifier.notify(DATA_SCIENCE_TEAM, REASON_ALL_TIMED_OUT, key,
                                 "every candidate build timed out or failed")
            return NotApplicable(reason=REASON_ALL_TIMED_OUT)

        best = result.best
        if best.f1 < requirement.confidence:
            self.notifier.notify(
                DATA_SCIENCE_TEAM, REASON_BELOW_CONFIDENCE, key,
                f"best model f1={best.f1:.4f} below confidence "
                f"{requirement.confidence:.4f}; manual analysis required")
            return NotApplicable(reason=REASON_BELOW_CONFIDENCE, best_f1=best.f1)

        self.registry.register(key, best)
        return self._predict(requirement, key, best, alert_rows, from_cache=False)

    def build(self, requirement: Requirement, dataset: Dataset):
        """Build (or fetch) the model for a requirement without predicting.

        Returns the same outcome family as validate, with empty labels on
        success; useful for warming the registry from the command line.
        """
        return self.validate(requirement, dataset, alert_rows=[])

    # -- internals ------------------------------------------------------------

    def _predict(self, requirement: Requirement, key: str, model: TrainedModel,
                 alert_rows, from_cache: bool) -> Predicted:
        labels: tuple = ()
        rows = list(alert_rows or [])
        if rows:
            columns = _alert_columns(rows, requirement.observed)
            matrix = features.transform(columns, model.encoder_spec)
            labels = tuple(model.predict_labels(matrix))
        return Predicted(labels=labels, f1=model.f1, model_key=key,
                         family=model.family, scheme=model.scheme,
                         from_cache=from_cache, model=model)

    def _build_shared(self, key: str, requirement: Requirement,
                      dataset: Dataset) -> _BuildResult:
        """Run the build once per key, no matter how many threads ask."""
        with self._flights_lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                owner = True
            else:
                owner = False
        if not owner:
            with self._stats_lock:
                self.stats.flight_joins += 1
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result
        try:
            flight.result = self._build(key, requirement, dataset)
        except BaseException as exc:  # re-raised for every participant
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(key, None)
            flight.event.set()
        return flight.result

    def _build(self, key: str, requirement: Requirement,
               dataset: Dataset) -> _BuildResult:
        # double-check: another flight may have registered while we queued
        cached = self.registry.lookup(key, requirement.confidence)
        if cached is not None:
            return _BuildResult(best=cached)
        try:
            table = ingest.select_columns(dataset, requirement)
        except DataUnavailableError as exc:
            return _BuildResult(missing=exc.missing or
                                (*sorted(requirement.observed), requirement.label))
        with self._stats_lock:
            self.stats.builds += 1
        report = build_candidates(
            table, budget=self.config.budget, seed=self.config.seed,
            tiers=self.config.tiers, n_trials=self.config.n_trials,
            requirement_key=key)
        if report.all_failed:
            return _BuildResult(best=None, report=report)
        return _BuildResult(best=select_optimal(report.candidates), report=report)


def _alert_columns(rows, observed) -> dict[str, list]:
    """Turn alert rows (mappings or CtiRecords) into observed columns."""
    names = sorted(observed)
    columns: dict[str, list] = {n: [] for n in names}
    for row in rows:
        for name in names:
            if isinstance(row, schema.CtiRecord):
                value = getattr(row, name)
            elif isinstance(row, dict):
                value = schema.coerce_field(name, row.get(name))
            else:
                value = getattr(row, name, None)
            columns[name].append(value)
    return columns


__all__ = [
    "BuildConfig",
    "DataRequested",
    "DATA_SCIENCE_TEAM",
    "ModelRegistry",
    "NotApplicable",
    "Notification",
    "Notifier",
    "Orchestrator",
    "OrchestratorStats",
    "Predicted",
    "REASON_ALL_TIMED_OUT",
    "REASON_BELOW_CONFIDENCE",
    "REASON_NO_DATA",
    "Requirement",
    "SECURITY_TEAM",
    "THREAT_INTEL_TEAM",
    "interpret",
    "requirement_key",
]
