"""Seeded synthetic CTI feeds, alert pools and requirement documents.

Everything here is a pure function of the seed: the same seed gives the
same CSV text, the same alerts and the same truth labels.  The program
under test only ever sees the generated CSV feed (through ``ingest``) and
the alert rows.

Two feed shapes:

* ``text`` -- planted-like.  Every ``domain`` carries one unique host token
  plus a family word that decides the label, so the text encoders produce
  about one column per row and the matrix is almost all zeros.  ``event``
  and ``ip_src`` also carry the family; ``port`` carries nothing.  A few
  rows have their label flipped, so held-out F1 varies with the seed while
  every candidate that follows the family word ties with the others.
* ``numeric`` -- banded.  An hourly ``timestamp`` over three weeks falls in
  three contiguous eras; the era and the port group together decide the
  label, and ``event`` carries nothing.  Matrix width stays in single
  digits.

Alert truth is the planted rule itself (the family word, the era), never
the flipped feed labels.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

FAMILY_WORDS = {"ddos": "floodway", "phishing": "credful", "ransom": "cryptlock"}
FAMILIES = tuple(sorted(FAMILY_WORDS))
TEXT_PORTS = (80, 443, 8080, 8443)

ERAS = ("dawn", "day", "night")
NUMERIC_PORTS = (25, 80, 443, 8080)
NUMERIC_EVENTS = ("ev0", "ev1", "ev2", "ev3")
BASE_TIMESTAMP = 1_600_000_000 - 1_600_000_000 % 3600
SPAN_HOURS = 24 * 21
ERA_MARGIN_HOURS = 56

TEXT_LABEL_NOISE = 0.03

TEXT_COLUMNS = {"Event": "event", "Domain": "domain", "Port": "port",
                "IP": "ip_src", "Attack": "attack"}
NUMERIC_COLUMNS = {"Timestamp": "timestamp", "Port": "port", "Event": "event",
                   "Attack": "attack"}


@dataclass(frozen=True)
class Feed:
    """One generated feed: CSV text, its column map and alert pools.

    ``alerts`` re-sight clean feed rows (numeric: deep inside an era) and
    ``truth`` holds their planted labels; the candidates that share the
    best F1 label them correctly, so they gate correctness.
    ``fresh`` are new sightings (unseen host tokens, any hour) with their
    planted labels in ``fresh_truth``: how many of those an answered model
    gets wrong is reported as data, never counted as a failure.
    """

    kind: str
    csv_text: str
    column_map: dict
    alerts: tuple
    truth: tuple
    fresh: tuple
    fresh_truth: tuple


def _to_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _unzip(pairs) -> tuple[tuple, tuple]:
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _text_row(host: str, family: str, k: int) -> dict:
    word = FAMILY_WORDS[family]
    return {
        "event": f"campaign {word} wave{k % 5}",
        "domain": f"{host}.{word}.example.com",
        "port": TEXT_PORTS[k % len(TEXT_PORTS)],
        "ip_src": f"10.{FAMILIES.index(family)}.0.{1 + k // 5 % 4}",
    }


def text_feed(seed: int, n_rows: int, n_alerts: int,
              noise: float = TEXT_LABEL_NOISE) -> Feed:
    """Every family gets the same number of rows and the same spread of
    ports, waves and addresses; the seed decides row order, host names and
    which rows carry a flipped label, so seeds differ in content but not in
    shape."""
    rng = random.Random(f"text-{seed}")
    per = n_rows // len(FAMILIES)
    planted = [(family, k) for family in FAMILIES for k in range(per)]
    rng.shuffle(planted)
    noisy = set(rng.sample(range(len(planted)), round(noise * len(planted))))
    rows, clean = [], []
    for i, (family, k) in enumerate(planted):
        row = _text_row(f"host{i}", family, k)
        label = rng.choice([f for f in FAMILIES if f != family]) if i in noisy else family
        rows.append([row["event"], row["domain"], row["port"], row["ip_src"], label])
        if label == family:
            clean.append((row, family))
    sighted = [clean[rng.randrange(len(clean))] for _ in range(n_alerts)]
    fresh = []
    for j in range(n_alerts):
        family = rng.choice(FAMILIES)
        fresh.append((_text_row(f"alert{j}", family, rng.randrange(per)), family))
    return Feed("text", _to_csv(list(TEXT_COLUMNS), rows), dict(TEXT_COLUMNS),
                *_unzip(sighted), *_unzip(fresh))


def _era(hour: int, port: int) -> str:
    """Three contiguous eras whose labels rotate with the port group, so
    the label needs both attributes."""
    era = len(ERAS) * hour // SPAN_HOURS
    return ERAS[(era + NUMERIC_PORTS.index(port) // 2) % len(ERAS)]


def _numeric_row(hour: int, k: int) -> tuple[dict, str]:
    port = NUMERIC_PORTS[k % len(NUMERIC_PORTS)]
    return {
        "timestamp": BASE_TIMESTAMP + hour * 3600,
        "port": port,
        "event": NUMERIC_EVENTS[k // len(NUMERIC_PORTS) % len(NUMERIC_EVENTS)],
    }, _era(hour, port)


def numeric_feed(seed: int, n_rows: int, n_alerts: int) -> Feed:
    """Every era gets the same number of rows, at distinct hours the seed
    picks, with the same spread of ports and events.  Alerts sit at least
    ERA_MARGIN_HOURS inside an era."""
    rng = random.Random(f"numeric-{seed}")
    era_len = SPAN_HOURS // len(ERAS)
    per = n_rows // len(ERAS)
    planted, interior = [], []
    for era in range(len(ERAS)):
        hours = rng.sample(range(era * era_len, (era + 1) * era_len), per)
        for k, hour in enumerate(hours):
            planted.append(_numeric_row(hour, k))
            if ERA_MARGIN_HOURS <= hour - era * era_len < era_len - ERA_MARGIN_HOURS:
                interior.append(planted[-1])
    rng.shuffle(planted)
    rows = [[r["timestamp"], r["port"], r["event"], label] for r, label in planted]
    sighted = [interior[rng.randrange(len(interior))] for _ in range(n_alerts)]
    fresh = [_numeric_row(rng.randrange(SPAN_HOURS), rng.randrange(per))
             for _ in range(n_alerts)]
    return Feed("numeric", _to_csv(list(NUMERIC_COLUMNS), rows), dict(NUMERIC_COLUMNS),
                *_unzip(sighted), *_unzip(fresh))


def make_feed(kind: str, seed: int, n_rows: int, n_alerts: int,
              text_noise: float = TEXT_LABEL_NOISE) -> Feed:
    if kind == "text":
        return text_feed(seed, n_rows, n_alerts, text_noise)
    return numeric_feed(seed, n_rows, n_alerts)


def requirement_document(observed, confidence: float, label: str = "attack") -> str:
    """Requirement in the ``key: value`` form a SOC analyst would write."""
    return f"ob: {', '.join(observed)}\nun: {label}\nconfidence: {confidence}"
