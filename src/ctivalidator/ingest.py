"""Threat-data ingestion: parse feeds, enrich, normalize, select columns.

Parsers never lose rows silently: every input row either becomes a record
or shows up in the parse result's report list with a reason.  Normalization
produces a :class:`Dataset` whose fingerprint identifies the record content
independently of input order, and :func:`select_columns` cuts the
observed-attributes-plus-label table that model building consumes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import re
from dataclasses import dataclass, field, replace
from typing import Protocol

from . import schema
from .errors import (
    ConfigurationError,
    ContractError,
    DataUnavailableError,
    FormatError,
    StorageError,
    UnknownAttributeError,
)
from .schema import CtiRecord

logger = logging.getLogger(__name__)

LABEL_OTHER = "other"

# Label fields cleaned to a lowercase base word during normalization; event
# titles keep their text but still take part in rare-value grouping.
LABEL_CLEAN_FIELDS = ("attack", "threat_type", "name")
LABEL_GROUP_FIELDS = ("attack", "threat_type", "name", "event")

DEFAULT_LABEL_ALIASES: dict[str, str] = {
    "ransomware": "ransom",
    "phish": "phishing",
}

_DATASET_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class RawFeedRecord:
    """One CSV feed row, raw strings preserved byte-for-byte."""

    source_id: str
    row_number: int
    fields: tuple[tuple[str, str], ...]

    def get(self, column: str) -> str | None:
        for name, value in self.fields:
            if name == column:
                return value
        return None


@dataclass(frozen=True)
class RowReport:
    """Why one input row/attribute did not become a record."""

    source_id: str
    row_number: int
    reason: str
    detail: str = ""


@dataclass
class ParseResult:
    """Records plus the reports accounting for every non-emitted row."""

    records: list
    reports: list[RowReport] = field(default_factory=list)


def parse_csv_feed(source, source_id: str, column_map: dict[str, str]) -> ParseResult:
    """Parse a CSV threat feed into :class:`RawFeedRecord` rows.

    ``column_map`` maps header column names to record fields and is
    validated here: a mapped column missing from the header is a
    configuration error, and mapping onto an unknown record field is too.
    Rows whose column count does not match the header are reported, not
    dropped silently.  Entirely empty input yields an empty result.
    """
    text = _as_text(source)
    if not text.strip():
        return ParseResult(records=[])
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except (StopIteration, csv.Error) as exc:
        raise FormatError(f"unreadable CSV header in {source_id!r}") from exc
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise FormatError(f"duplicate column names in {source_id!r} header: {header}")
    for column, target in column_map.items():
        if column not in header:
            raise ConfigurationError(
                f"column map names {column!r} but the {source_id!r} header has {header}"
            )
        if target not in schema.ALL_FIELDS:
            raise ConfigurationError(f"column map targets unknown field {target!r}")

    result = ParseResult(records=[])
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            result.reports.append(RowReport(
                source_id, row_number, "column-count-mismatch",
                f"expected {len(header)} columns, got {len(row)}"))
            continue
        result.records.append(RawFeedRecord(
            source_id=source_id,
            row_number=row_number,
            fields=tuple(zip(header, row)),
        ))
    return result


def map_feed_records(
    records,
    column_map: dict[str, str],
    dataset_id: str | None = None,
) -> ParseResult:
    """Convert raw feed rows to CtiRecords using the column map.

    Values are coerced to their field types; a row whose value cannot be
    coerced is reported and skipped.
    """
    result = ParseResult(records=[])
    for raw in records:
        mapping = {}
        for column, target in column_map.items():
            mapping[target] = raw.get(column)
        try:
            result.records.append(
                schema.record_from_mapping(mapping, dataset_id=dataset_id))
        except (ContractError, UnknownAttributeError) as exc:
            result.reports.append(RowReport(
                raw.source_id, raw.row_number, "uncoercible-value", str(exc)))
    return result


# ---------------------------------------------------------------------------
# MISP-style event parsing

_GALAXY_TAG = re.compile(r"^misp-galaxy:(?P<type>[^=]+)=(?P<value>.+)$")
_CLASSIFICATION_TAG = re.compile(r"^classification[:=](?P<value>.+)$")

# Attribute-type routing.  Composite types like ``filename|md5`` split both
# the type and the value on the pipe and route each part.
_ATTR_TYPE_FIELDS: dict[str, str] = {
    "ip-dst": "ip_dst",
    "ip-port": "ip_dst",
    "ip-src": "ip_src",
    "ip": "ip_src",
    "domain": "domain",
    "hostname": "domain",
    "url": "domain",
    "sha1": "file_hash",
    "sha256": "file_hash",
    "md5": "file_hash",
    "filename": "filename",
    "comment": "description",
    "text": "description",
    "port": "port",
}

_PORTED_IP_TYPES = {"ip-dst", "ip-src", "ip-port", "ip"}


def parse_misp_events(source, dataset_id: str | None = None) -> ParseResult:
    """Parse MISP-style JSON events into partially-filled CtiRecords.

    One record is emitted per routed attribute, carrying the event-level
    fields (title, threat level, galaxy threat type/name, date) alongside
    the attribute's value, creation timestamp and analyst comment.  An
    event with no attributes still yields one record with the event-level
    fields.  Events without a title and attributes of unrouted types are
    reported, never silently discarded.
    """
    events = _load_events(source)
    result = ParseResult(records=[])
    for index, event in enumerate(events):
        event = event.get("Event", event) if isinstance(event, dict) else event
        if not isinstance(event, dict):
            result.reports.append(RowReport("misp", index, "not-an-object", str(type(event))))
            continue
        info = event.get("info")
        if not info:
            result.reports.append(RowReport("misp", index, "missing-info"))
            continue

        base: dict[str, object] = {"event": str(info)}
        level = event.get("threat_level_id")
        try:
            level = int(level)
        except (TypeError, ValueError):
            level = None
        if level in (1, 2, 3):
            base["threat_level"] = level
        if event.get("date"):
            try:
                base["date"] = schema.parse_date(str(event["date"]))
            except ContractError:
                pass
        threat_type, name = _extract_tags(event.get("Tag") or [])
        if threat_type:
            base["threat_type"] = threat_type
        if name:
            base["name"] = name

        attributes = event.get("Attribute") or []
        if not attributes:
            result.records.append(schema.record_from_mapping(dict(base), dataset_id=dataset_id))
            continue
        for attr in attributes:
            routed = _route_attribute(attr)
            if routed is None:
                result.reports.append(RowReport(
                    "misp", index, "unsupported-attribute-type",
                    str(attr.get("type"))))
                continue
            mapping = dict(base)
            mapping.update(routed)
            try:
                result.records.append(
                    schema.record_from_mapping(mapping, dataset_id=dataset_id))
            except ContractError as exc:
                result.reports.append(RowReport(
                    "misp", index, "uncoercible-value", str(exc)))
    return result


def _load_events(source) -> list:
    if isinstance(source, (list, tuple)):
        return list(source)
    if isinstance(source, dict):
        if isinstance(source.get("response"), list):
            return source["response"]
        return [source]
    text = _as_text(source)
    if not text.strip():
        raise FormatError("no JSON events found in input")
    doc = read_json_or_lines(text)
    if isinstance(doc, dict):
        if "response" in doc and isinstance(doc["response"], list):
            return doc["response"]
        return [doc]
    if isinstance(doc, list):
        return doc
    raise FormatError("MISP input must be a JSON object or array of events")


def read_json_or_lines(source):
    """The JSON document in ``source``, or else the list of its JSON lines.

    Blank lines are skipped, so blank text gives an empty list.  A line
    that is not JSON raises FormatError.
    """
    text = _as_text(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise FormatError(
                f"input is neither a JSON document nor JSON lines (line {number}): {exc}"
            ) from exc
    return rows


def _extract_tags(tags) -> tuple[str | None, str | None]:
    """Pull (threat_type, name) out of an event tag list.

    Galaxy tags like ``misp-galaxy:tool="KHRAT"`` carry both the threat
    type (tool, malware, threat-actor, ...) and the threat's name; a plain
    classification tag supplies only the type.
    """
    classification = None
    for tag in tags:
        tag_name = tag.get("name", "") if isinstance(tag, dict) else str(tag)
        match = _GALAXY_TAG.match(tag_name.strip())
        if match:
            value = match.group("value").strip().strip('"').strip()
            return match.group("type").strip(), value or None
        cls = _CLASSIFICATION_TAG.match(tag_name.strip())
        if cls and classification is None:
            classification = cls.group("value").strip()
    return classification, None


def _route_attribute(attr: dict) -> dict[str, object] | None:
    """Map one MISP attribute onto record fields; None when unrouted."""
    attr_type = str(attr.get("type", "")).strip()
    if not attr_type:
        return None
    value = attr.get("value")
    value = "" if value is None else str(value)

    type_parts = attr_type.split("|")
    if any(part not in _ATTR_TYPE_FIELDS for part in type_parts):
        return None

    out: dict[str, object] = {}
    value_parts = value.split("|") if "|" in value else [value]
    if len(type_parts) == len(value_parts) and len(type_parts) > 1:
        pairs = list(zip(type_parts, value_parts))
    elif len(type_parts) == 1 and len(value_parts) == 2 and type_parts[0] in _PORTED_IP_TYPES:
        # e.g. type ip-port with value "23.229.221.200|40"
        pairs = [(type_parts[0], value_parts[0]), ("port", value_parts[1])]
    else:
        pairs = [(type_parts[0], value)]
    for part_type, part_value in pairs:
        out[_ATTR_TYPE_FIELDS[part_type]] = part_value.strip()

    if attr.get("timestamp") is not None:
        out["timestamp"] = attr["timestamp"]
    if attr.get("comment"):
        out["comment"] = str(attr["comment"])
    return out


# ---------------------------------------------------------------------------
# Enrichment


@dataclass(frozen=True)
class EnrichmentResult:
    """ASN/owner/country facts for one IP or domain; absent means miss."""

    asn: int | None = None
    owner: str | None = None
    country: str | None = None

    def is_empty(self) -> bool:
        return self.asn is None and self.owner is None and self.country is None


class EnrichmentProvider(Protocol):
    """Source of registration facts.  Implementations may be offline."""

    def lookup(self, query: str) -> EnrichmentResult | None:
        """Registration facts for an IP or domain, or None on a miss."""

    def resolve(self, domain: str) -> str | None:
        """Best-effort domain -> IP resolution, or None when unavailable."""


class OfflineEnrichmentTable:
    """Provider backed by a CSV of (ip-or-domain, asn, owner, country) rows."""

    def __init__(self, source=None, *, resolutions=None):
        self._facts: dict[str, EnrichmentResult] = {}
        self._resolutions = dict(resolutions or {})
        if source is not None:
            text = _as_text(source)
            reader = csv.reader(io.StringIO(text))
            for row in reader:
                if not row or len(row) < 4:
                    continue
                key = row[0].strip()
                if not key or key.lower() in ("ip", "ip-or-domain", "query"):
                    continue
                self._add(key, row[1], row[2], row[3])

    def _add(self, key: str, asn, owner, country):
        try:
            asn_val = int(str(asn).strip()) if str(asn).strip() not in ("", "-") else None
        except ValueError:
            asn_val = None
        owner = str(owner).strip() or None if owner is not None else None
        country = str(country).strip() or None if country is not None else None
        self._facts[key] = EnrichmentResult(asn=asn_val, owner=owner, country=country)

    def lookup(self, query: str) -> EnrichmentResult | None:
        return self._facts.get(query)

    def resolve(self, domain: str) -> str | None:
        return self._resolutions.get(domain)


@dataclass(frozen=True)
class LookupReport:
    """One failed enrichment lookup."""

    query: str
    reason: str  # miss | provider-error


def enrich(record: CtiRecord, provider: EnrichmentProvider) -> tuple[CtiRecord, LookupReport | None]:
    """Attach ASN/owner/country to a record via the provider.

    Resolution of domain -> IP is attempted first for records that carry a
    domain but no source IP.  The registration lookup then queries the
    source IP, destination IP or domain, in that order.  A record with
    nothing to query is returned unchanged with no report; an attempted
    lookup that fails (miss or provider error) yields exactly one report
    and the record is never modified on failure.
    """
    updates: dict[str, object] = {}
    ip_src = record.ip_src
    if record.domain and not ip_src:
        try:
            resolved = provider.resolve(record.domain)
        except Exception:  # noqa: BLE001 - provider failures must not escape
            resolved = None
        if resolved:
            ip_src = str(resolved)
            updates["ip_src"] = ip_src

    query = ip_src or record.ip_dst or record.domain
    if query is None:
        return (replace(record, **updates) if updates else record), None

    try:
        facts = provider.lookup(query)
    except Exception as exc:  # noqa: BLE001
        logger.debug("enrichment provider failed for %s: %s", query, exc)
        return record, LookupReport(query=query, reason="provider-error")
    if facts is None or facts.is_empty():
        return (replace(record, **updates) if updates else record), LookupReport(
            query=query, reason="miss")

    if facts.asn is not None and record.asn is None:
        updates["asn"] = facts.asn
    if facts.owner is not None and record.owner is None:
        updates["owner"] = facts.owner
    if facts.country is not None and record.country is None:
        updates["country"] = facts.country
    return (replace(record, **updates) if updates else record), None


def enrich_all(records, provider: EnrichmentProvider) -> tuple[list[CtiRecord], list[LookupReport]]:
    """Enrich a record list; reports collect the failed lookups."""
    out: list[CtiRecord] = []
    reports: list[LookupReport] = []
    for record in records:
        enriched, report = enrich(record, provider)
        out.append(enriched)
        if report is not None:
            reports.append(report)
    return out, reports


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class Dataset:
    """Normalized, deduplicated record corpus with a content fingerprint."""

    dataset_id: str
    records: tuple[CtiRecord, ...]
    fingerprint: str
    n_input: int = 0
    n_dropped_empty: int = 0
    n_deduplicated: int = 0


def base_word(value: str) -> str | None:
    """Reduce a label to its lowercase base word.

    "Ransom, Fake .PCN, Malspam" -> "ransom"; ``DEFAULT_LABEL_ALIASES``
    maps known synonyms onto one spelling.  Values with no alphanumeric
    content reduce to None.
    """
    match = re.search(r"[a-z0-9]+", str(value).lower())
    if not match:
        return None
    word = match.group(0)
    return DEFAULT_LABEL_ALIASES.get(word, word)


def _canonical(record: CtiRecord) -> str:
    return json.dumps(schema.record_to_plain(record), sort_keys=True,
                      separators=(",", ":"))


def fingerprint_records(records) -> str:
    """Order-independent content hash of a record collection."""
    digest = hashlib.sha256()
    for canon in sorted(_canonical(r) for r in records):
        digest.update(canon.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _round_timestamp(ts: int) -> int:
    # Round to the nearest hour, half-up: 1490818721 -> 1490817600.
    return int((ts + 1800) // 3600) * 3600


def normalize(records, dataset_id: str) -> Dataset:
    """Normalize records into a deduplicated, fingerprinted Dataset.

    Timestamps are rounded to the nearest hour.  Label-ish fields (attack,
    threat type, name) are lowercased and reduced to a base word; any label
    value occurring exactly once corpus-wide is replaced by "other" so
    one-off classes cannot leak into training.  Records with no attribute
    content are dropped, duplicates are merged, and the surviving records
    are sorted canonically so the result is independent of input order.
    Applying normalize to its own output is a no-op.
    """
    n_input = 0
    staged: list[CtiRecord] = []
    n_empty = 0
    for record in records:
        n_input += 1
        updates: dict[str, object] = {"dataset_id": dataset_id}
        if record.timestamp is not None:
            updates["timestamp"] = _round_timestamp(record.timestamp)
        for field_name in LABEL_CLEAN_FIELDS:
            value = getattr(record, field_name)
            if value is not None:
                updates[field_name] = base_word(value)
        candidate = replace(record, **updates)
        if not schema.has_content(candidate):
            n_empty += 1
            continue
        staged.append(candidate)

    # Deduplicate and group rare labels to a fixed point: grouping can
    # create fresh duplicates, and merging duplicates can strand a label
    # at a single occurrence, so iterate until the corpus stops changing.
    n_dedup = 0
    while True:
        seen: dict[str, CtiRecord] = {}
        for record in staged:
            seen.setdefault(_canonical(record), record)
        n_dedup += len(staged) - len(seen)
        unique = list(seen.values())

        counts: dict[str, dict[object, int]] = {f: {} for f in LABEL_GROUP_FIELDS}
        for record in unique:
            for field_name in LABEL_GROUP_FIELDS:
                value = getattr(record, field_name)
                if value is not None:
                    counts[field_name][value] = counts[field_name].get(value, 0) + 1
        regrouped: list[CtiRecord] = []
        changed = False
        for record in unique:
            updates = {}
            for field_name in LABEL_GROUP_FIELDS:
                value = getattr(record, field_name)
                if value is not None and value != LABEL_OTHER and counts[field_name][value] == 1:
                    updates[field_name] = LABEL_OTHER
            if updates:
                changed = True
                regrouped.append(replace(record, **updates))
            else:
                regrouped.append(record)
        staged = regrouped
        if not changed and len(unique) == len(regrouped):
            staged = unique
            break

    staged.sort(key=_canonical)
    return Dataset(
        dataset_id=dataset_id,
        records=tuple(staged),
        fingerprint=fingerprint_records(staged),
        n_input=n_input,
        n_dropped_empty=n_empty,
        n_deduplicated=n_dedup,
    )


# ---------------------------------------------------------------------------
# Column selection


@dataclass(frozen=True)
class SelectedTable:
    """Observed columns plus the label column, missing rows dropped."""

    observed: dict[str, list]
    labels: list
    label_name: str
    n_source_rows: int

    @property
    def n_rows(self) -> int:
        return len(self.labels)


def select_columns(dataset: Dataset, requirement) -> SelectedTable:
    """Cut the (observed attributes, label) table a requirement asks for.

    ``requirement`` needs ``observed`` (attribute names) and ``label``
    attributes.  Rows missing any observed attribute or the label are
    dropped; if nothing survives a DataUnavailableError is raised so the
    caller can request the missing data instead of crashing.
    """
    observed = tuple(requirement.observed)
    label = requirement.label
    for name in (*observed, label):
        if name not in schema.REQUIREMENT_FIELDS:
            raise UnknownAttributeError(name)
    if not observed:
        raise ContractError("requirement must observe at least one attribute")

    names = sorted(observed)
    columns: dict[str, list] = {n: [] for n in names}
    labels: list = []
    for record in dataset.records:
        label_value = getattr(record, label)
        if label_value is None:
            continue
        values = [getattr(record, n) for n in names]
        if any(v is None for v in values):
            continue
        for n, v in zip(names, values):
            columns[n].append(v)
        labels.append(label_value)

    if not labels:
        # name the attributes with no content anywhere so the data request
        # is actionable; fall back to the full set when each column has
        # values but never jointly on one row
        empty = tuple(
            n for n in (*names, label)
            if all(getattr(r, n) is None for r in dataset.records))
        raise DataUnavailableError(
            f"no rows carry {names} with label {label!r} in dataset "
            f"{dataset.dataset_id!r}",
            missing=empty or (*names, label),
        )
    logger.info("selected %d of %d rows for ob=%s un=%s",
                len(labels), len(dataset.records), names, label)
    return SelectedTable(observed=columns, labels=labels, label_name=label,
                         n_source_rows=len(dataset.records))


# ---------------------------------------------------------------------------
# Dataset store


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset store file (versioned JSON)."""
    doc = {
        "format_version": _DATASET_FORMAT_VERSION,
        "dataset_id": dataset.dataset_id,
        "fingerprint": dataset.fingerprint,
        "records": [schema.record_to_plain(r) for r in dataset.records],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")


def load_dataset(path) -> Dataset:
    """Read a dataset store file, verifying version and fingerprint."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read dataset file {path}: {exc}") from exc
    if doc.get("format_version") != _DATASET_FORMAT_VERSION:
        raise StorageError(f"unsupported dataset format version in {path}")
    records = tuple(schema.record_from_plain(r) for r in doc.get("records", []))
    fingerprint = fingerprint_records(records)
    if fingerprint != doc.get("fingerprint"):
        raise StorageError(f"dataset file {path} fingerprint mismatch; file corrupted?")
    return Dataset(dataset_id=doc.get("dataset_id", ""), records=records,
                   fingerprint=fingerprint)


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data
