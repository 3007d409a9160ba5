"""Deterministic dataset builders shared by the test modules.

Each builder seeds its own RNG, so every test run sees identical records,
fingerprints and model scores.
"""

import math
import random

from ctivalidator import ingest
from ctivalidator.schema import CtiRecord

PLANTED_WORDS = {"phishing": "credful", "ddos": "floodway", "ransom": "cryptlock"}


def planted_dataset(n=2000, seed=42, dataset_id="planted"):
    """Label is a deterministic function of one domain token."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        kind = rng.choice(sorted(PLANTED_WORDS))
        records.append(CtiRecord(
            event=f"campaign{i % 23}",
            domain=f"host{i}.{PLANTED_WORDS[kind]}.example.com",
            port=[80, 443, 8080][rng.randrange(3)],
            attack=kind,
            dataset_id=dataset_id))
    return ingest.normalize(records, dataset_id)


def planted_alerts():
    return [
        {"domain": "a1.credful.example.com", "port": 80},
        {"domain": "a2.floodway.example.com", "port": 443},
        {"domain": "a3.cryptlock.example.com", "port": 8080},
    ]


PLANTED_ALERT_LABELS = ("phishing", "ddos", "ransom")


def noisy_dataset(n=500, seed=11, p_correct=0.58, dataset_id="noisy"):
    """The domain token matches the label only p_correct of the time.

    Tuned so the best achievable held-out F1 sits between 0.5 and 0.7.
    """
    rng = random.Random(seed)
    words = {"alpha": "quartz", "beta": "basalt"}
    records = []
    for i in range(n):
        kind = rng.choice(["alpha", "beta"])
        other = "beta" if kind == "alpha" else "alpha"
        word = words[kind] if rng.random() < p_correct else words[other]
        records.append(CtiRecord(
            event=f"ev{i % 7}",
            domain=f"h{i}.{word}.example.net",
            attack=kind,
            dataset_id=dataset_id))
    return ingest.normalize(records, dataset_id)


def banded_dataset(n=400, seed=80, dataset_id="banded"):
    """Irregular hour/day bands over a continuous timestamp feature.

    No model family matches the rule exactly, so held-out F1 values spread
    out and the best candidate is a strict F1 argmax: tests that pin the
    winner's family and score rest on the F1 rule alone, not on a tie-break.
    """
    rng = random.Random(seed)
    records = []
    base = 1600000000
    for i in range(n):
        ts = base + rng.randrange(0, 24 * 14) * 3600
        hour = (ts // 3600) % 24
        day = (ts // 86400) % 7
        if hour < 5 or (11 <= hour < 13 and day in (1, 4)) or hour >= 22:
            kind = "night"
        elif 5 <= hour < 11 and day not in (2, 5):
            kind = "dawn"
        else:
            kind = "day"
        if rng.random() > 0.9:
            kind = rng.choice(["night", "dawn", "day"])
        records.append(CtiRecord(
            event=f"ev{i % 13}", timestamp=ts,
            port=[25, 80, 443, 8080][rng.randrange(4)],
            attack=kind, dataset_id=dataset_id))
    return ingest.normalize(records, dataset_id)


def small_dataset(n=200, seed=3, dataset_id="small"):
    """Small near-unique-ip dataset used by budget-enforcement tests."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        kind = rng.choice(["alpha", "beta"])
        records.append(CtiRecord(
            event=f"ev{i % 9}",
            ip_src=f"10.0.{i % 250}.{(i * 3) % 250}",
            port=80 if rng.random() < 0.5 else 443,
            attack=kind, dataset_id=dataset_id))
    return ingest.normalize(records, dataset_id)


class CallCountClock:
    """Stand-in for ``time.perf_counter`` that ignores real time.

    The n-th call returns ``stamp(n)``, so a measured interval depends only
    on which calls it spans: a concave ``stamp`` makes later intervals
    look shorter, a convex one makes them look longer.
    """

    def __init__(self, stamp):
        self.stamp = stamp
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        return self.stamp(self.calls)


def later_looks_faster(n: int) -> float:
    return math.log1p(n)


def later_looks_slower(n: int) -> float:
    return 1e-9 * n * n  # stays far inside the default wall-clock budget


class PlainRequirement:
    """Duck-typed requirement for functions that only need ob/label."""

    def __init__(self, observed, label):
        self.observed = tuple(observed)
        self.label = label
