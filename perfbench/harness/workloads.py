"""The three workloads and the single closed-loop client that drives them.

Every request goes through the public entry point, ``Orchestrator.validate``,
with a ``key: value`` requirement document and a batch of alert rows.  One
client sends the next request only after the previous answer came back.

* ``cold-text`` and ``cold-numeric`` run *rounds*.  A round opens an empty
  registry root, so each requirement it asks is a first-time question and
  builds.  It also asks a below-bar requirement twice and one the
  feed cannot answer once.  The next round starts by restarting on the
  previous round's root (a fresh registry object, then the first hit for
  one key; twice per key) and replaying a burst of hits there.  Rounds
  repeat the same questions on the same data with the same build seed, so
  any change in the chosen (family, scheme) between rounds is the
  wall-clock tie-break of ``select_optimal`` at work.
* ``soc-replay`` builds its text models during set-up and asks its
  below-bar numeric requirement once, on each of its set-up registry
  roots, then only repeats questions, taking the roots in turn:
  segments of restarts and registry hits with alert batches of 1, 10, 100
  and 1000 rows in equal shares, each holding one below-bar repeat (which
  rebuilds) and one no-data request.

``cold-numeric`` is not in BENCHMARK.json: which family wins its F1 tie
changes with the seed, and serving cost differs tenfold between them.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from ctivalidator import features, ingest, schema
from ctivalidator.orchestrator import (
    DATA_SCIENCE_TEAM,
    SECURITY_TEAM,
    THREAT_INTEL_TEAM,
    BuildConfig,
    ModelRegistry,
    Notifier,
    Orchestrator,
    interpret,
    requirement_key,
)

from . import checks, feeds
from .checks import COLD, HIT, NO_DATA, REOPEN, WITHHELD, WITHHELD_FIRST, Expectation

REQUIRED = ("required",)
ALL_TIERS = ("required", "optional")

COLD_BATCH = 5
REOPEN_BATCH = 10
# Alert rows per hit, in equal shares.  The mix is assumed, not measured:
# no alert-batch traffic is in the repository to derive it from.
HIT_BATCH_SIZES = (1, 10, 100, 1000)
ALERT_POOL = 1200


@dataclass(frozen=True)
class Ask:
    """One requirement the client asks, on one feed."""

    name: str
    feed: str
    observed: tuple
    bar: float
    missing: tuple = ()

    @property
    def document(self) -> str:
        return feeds.requirement_document(self.observed, self.bar)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    feed_rows: dict
    tiers: tuple
    answered: tuple       # asks the program answers with a model
    below: Ask            # best buildable F1 is under its bar
    no_data: Ask          # names an attribute the feed never carries
    replay: bool = False  # models built in set-up, timed phase repeats only
    hits_per_step: int = 396  # hits per round (cold) or segment (replay)
    text_noise: float = feeds.TEXT_LABEL_NOISE

    def config(self) -> BuildConfig:
        return BuildConfig(tiers=self.tiers)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cold-text",
        why="every request builds on a wide, ~95% zero planted text matrix, "
            "where the classification split scan (rf, dt) dominates; the warm "
            "path is a small share",
        feed_rows={"text": 96},
        tiers=REQUIRED,
        answered=(
            Ask("domain", "text", ("domain",), 0.8),
            Ask("domain+port", "text", ("domain", "port"), 0.8),
            Ask("domain+ip", "text", ("domain", "ip_src"), 0.8),
        ),
        below=Ask("port", "text", ("port",), 0.9),
        no_data=Ask("file_hash", "text", ("file_hash",), 0.8, ("file_hash",)),
    ),
    Workload(
        name="cold-numeric",
        why="every request builds on a narrow banded matrix with all tiers: "
            "xgb regression split scan and mlp/svm epochs; text encoders idle",
        feed_rows={"numeric": 192},
        tiers=ALL_TIERS,
        answered=(
            Ask("timestamp+port", "numeric", ("timestamp", "port"), 0.8),
            Ask("timestamp+port+event", "numeric", ("timestamp", "port", "event"), 0.8),
        ),
        below=Ask("timestamp", "numeric", ("timestamp",), 0.9),
        no_data=Ask("domain", "numeric", ("domain",), 0.8, ("domain",)),
    ),
    Workload(
        name="soc-replay",
        why="repeats only: registry hits with 1-1000 row alert batches, restarts "
            "that reload models, below-bar repeats that rebuild on a numeric feed",
        feed_rows={"text": 84, "numeric": 156},
        tiers=REQUIRED,
        answered=(
            Ask("event", "text", ("event",), 0.8),
            Ask("event+ip", "text", ("event", "ip_src"), 0.8),
            Ask("event+port", "text", ("event", "port"), 0.8),
        ),
        below=Ask("timestamp", "numeric", ("timestamp",), 0.9),
        no_data=Ask("file_hash", "text", ("file_hash",), 0.8, ("file_hash",)),
        replay=True,
        hits_per_step=300,
        # Narrow text requirements share feature vectors between rows, so a
        # flipped label can sit next to a re-sighted alert: keep labels clean.
        text_noise=0.0,
    ),
)}


@dataclass
class Sample:
    kind: str
    ask: str
    rows: int
    seconds: float
    traced: bool
    root: str  # registry root, so the set of models that answered


@dataclass
class Deployment:
    """Datasets, alert pools and the live orchestrator of one registry root."""

    root: Path
    datasets: dict
    feeds: dict
    config: BuildConfig
    notifier: Notifier = None
    orch: Orchestrator = None
    bars: dict = field(default_factory=dict)    # key -> bar it was stored at
    stored: dict = field(default_factory=dict)  # ask name -> canonical bytes

    def open(self) -> float:
        """(Re)open the registry on this root; returns seconds taken."""
        started = time.perf_counter()
        registry = ModelRegistry(self.root / "registry")
        if self.notifier is None:
            self.notifier = Notifier(self.root / "notifications.jsonl")
        self.orch = Orchestrator(registry, self.notifier, self.config)
        return time.perf_counter() - started

    def key(self, ask: Ask) -> str:
        return requirement_key(interpret(ask.document),
                               self.datasets[ask.feed].fingerprint)

    def registry_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.root / "registry").rglob("*")
                   if p.is_file())


class Client:
    """One closed-loop client: asks, times, checks and optionally traces."""

    def __init__(self, checker: checks.Checker, tracer=None):
        self.checker = checker
        self.tracer = tracer
        self.alternate = False  # trace every other ask of each group
        self.samples: list[Sample] = []
        self.counts: dict = {}  # samples per kind
        self.choices: list[dict] = []
        self.models: dict = {}  # ask -> (Ask, feed, last model answered cold)
        self.counters: dict = {}  # orchestrator stats and notifications, traced
        self.traced_requests = 0
        self.registry_bytes = 0  # index + model files of a populated root
        self._seen: dict = {}

    def _trace_this(self, group) -> bool:
        if self.tracer is None:
            return False
        if not self.alternate:
            return True
        count = self._seen.get(group, 0)
        self._seen[group] = count + 1
        return count % 2 == 0

    def ask(self, dep: Deployment, kind: str, ask: Ask, batch: int, rng,
            extra_seconds: float = 0.0):
        """Send one request and check the answer; returns the outcome."""
        feed = dep.feeds[ask.feed]
        start = rng.randrange(len(feed.alerts) - batch + 1)
        rows = list(feed.alerts[start:start + batch])
        traced = self._trace_this((kind, ask.name, batch))
        orch = dep.orch
        if traced:
            before = _counters(orch)
            self.tracer.install()
            self.tracer.request = len(self.samples)
            span = self.tracer.open("orchestrator.validate",
                                    {"kind": kind, "ask": ask.name, "rows": batch})
        outcome = error = None
        started = time.perf_counter()
        try:
            outcome = orch.validate(ask.document, dep.datasets[ask.feed], rows)
        except Exception as exc:  # noqa: BLE001 - a raised request is a failed answer
            error = exc
        seconds = time.perf_counter() - started
        if traced:
            self.tracer.close(span)
            self.tracer.uninstall()
            self.tracer.request = None
            self.traced_requests += 1
            for name, value in _counters(orch).items():
                self.counters[name] = self.counters.get(name, 0) + value - before[name]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.samples.append(Sample(kind, ask.name, batch, seconds + extra_seconds,
                                   traced, dep.root.name))
        expect = Expectation(kind, ask.bar, truth=feed.truth[start:start + batch],
                             missing=ask.missing,
                             stored=dep.stored.get(ask.name) if kind == REOPEN else None)
        if kind == COLD:
            dep.bars[dep.key(ask)] = ask.bar  # asked with this bar, answered or not
        registry = None
        if kind in (COLD, WITHHELD, WITHHELD_FIRST):
            registry = (orch.registry.entries(), dep.bars)
        ok = self.checker.check(f"{kind} {ask.name}", expect, outcome, error,
                                registry)
        if ok and kind == COLD:
            dep.stored[ask.name] = outcome.model.canonical_bytes()
            self.choices.append({"ask": ask.name, "family": outcome.family,
                                 "scheme": outcome.scheme, "f1": outcome.f1})
            self.models[ask.name] = (ask, feed, outcome.model)
        return outcome

    def reopen(self, dep: Deployment, ask: Ask, rng) -> None:
        """Restart on the populated root, then the first hit for one key.

        The sample covers the registry open (index read) and the first
        validate (model JSON load, transform, predict)."""
        self.ask(dep, REOPEN, ask, REOPEN_BATCH, rng, extra_seconds=dep.open())


CHANNELS = (SECURITY_TEAM, DATA_SCIENCE_TEAM, THREAT_INTEL_TEAM)


def _counters(orch: Orchestrator) -> dict:
    out = {"builds": orch.stats.builds, "cache_hits": orch.stats.cache_hits,
           "flight_joins": orch.stats.flight_joins}
    for channel in CHANNELS:
        out[channel] = len(orch.notifier.entries(channel))
    return out


def _labels(model, ask: Ask, rows) -> list:
    """A model's labels for alert rows, computed outside any request."""
    columns = {name: [schema.coerce_field(name, row.get(name)) for row in rows]
               for name in ask.observed}
    return model.predict_labels(features.transform(columns, model.encoder_spec))


def fresh_alert_error(client: Client, limit: int = 300) -> float:
    """Share of fresh sightings (unseen tokens, any hour) that the models
    answered cold label differently from the planted rule.  Measured after
    the timed phase, outside any request, and never counted as a failure."""
    wrong = total = 0
    for ask, feed, model in client.models.values():
        labels = _labels(model, ask, feed.fresh[:limit])
        wrong += sum(a != b for a, b in zip(labels, feed.fresh_truth))
        total += len(labels)
    return wrong / total if total else 0.0


def _hit_sizes(rng: random.Random):
    """Endless batch sizes: every size once per cycle, in seeded order."""
    while True:
        cycle = list(HIT_BATCH_SIZES)
        rng.shuffle(cycle)
        yield from cycle


# ---------------------------------------------------------------------------
# Set-up


def set_up(workload: Workload, seed: int, root: Path, client: Client,
           feed_rows: dict | None = None) -> Deployment:
    """Generate feeds, ingest them through CSV and the dataset store, and
    open a registry; ``soc-replay`` also builds its models here."""
    root.mkdir(parents=True)
    made, datasets = {}, {}
    for kind, n_rows in (feed_rows or workload.feed_rows).items():
        feed = feeds.make_feed(kind, seed, n_rows, ALERT_POOL, workload.text_noise)
        made[kind] = feed
        datasets[kind] = _ingest(feed, root, client.checker)
    dep = Deployment(root, datasets, made, workload.config())
    dep.open()
    if workload.replay:
        rng = random.Random(f"warm-up-{seed}")
        for ask in workload.answered:
            client.ask(dep, COLD, ask, COLD_BATCH, rng)
        client.ask(dep, WITHHELD_FIRST, workload.below, 0, rng)
    return dep


def _ingest(feed: feeds.Feed, root: Path, checker: checks.Checker):
    csv_path = root / f"{feed.kind}.csv"
    csv_path.write_text(feed.csv_text, encoding="utf-8")
    with open(csv_path, encoding="utf-8") as handle:
        parsed = ingest.parse_csv_feed(handle, feed.kind, feed.column_map)
    mapped = ingest.map_feed_records(parsed.records, feed.column_map,
                                     dataset_id=feed.kind)
    dataset = ingest.normalize(mapped.records, feed.kind)
    store = root / f"{feed.kind}.json"
    ingest.save_dataset(dataset, store)
    loaded = ingest.load_dataset(store)
    expected_rows = feed.csv_text.count("\n") - 1
    lost = expected_rows - len(mapped.records)
    problem = ""
    if parsed.reports or mapped.reports or lost:
        problem = f"{lost} rows lost, reports {parsed.reports + mapped.reports}"
    elif loaded.fingerprint != dataset.fingerprint:
        problem = "store round trip changed the dataset"
    checker.record(f"ingest {feed.kind}", problem)
    return loaded


# ---------------------------------------------------------------------------
# Timed streams: generators that yield after every request, so the caller
# can stop between any two


def cold_rounds(workload: Workload, seed: int, first: Deployment, client: Client,
                work: Path):
    """Round r asks every requirement once on an empty root.  From round 1
    on it first restarts on round r-1's root and replays hits there."""
    rng = random.Random(f"stream-{seed}")
    sizes = _hit_sizes(rng)
    previous, dep = None, first
    for round_no in range(1_000_000):
        if previous is not None:
            yield from _replay(workload, previous, client, rng, sizes,
                               workload.hits_per_step)
            shutil.rmtree(previous.root, ignore_errors=True)
            dep = Deployment(work / f"round{round_no}", first.datasets, first.feeds,
                             first.config)
            dep.open()
        client.ask(dep, WITHHELD_FIRST, workload.below, 0, rng)
        yield
        for i, ask in enumerate(workload.answered):
            client.ask(dep, COLD, ask, COLD_BATCH, rng)
            yield
            if i == 0:
                client.ask(dep, NO_DATA, workload.no_data, COLD_BATCH, rng)
                yield
            if i % 2:
                client.ask(dep, WITHHELD, workload.below, 0, rng)
                yield
        previous = dep


def replay_segments(workload: Workload, seed: int, deps: list, client: Client):
    """Segments of restarts and hits, each with one below-bar repeat and one
    no-data request.  Segments take the set-up deployments in turn: each
    holds the models one set of builds chose, so a run averages over
    several tie-break outcomes."""
    rng = random.Random(f"stream-{seed}")
    sizes = _hit_sizes(rng)
    half = workload.hits_per_step // 2
    for dep in itertools.cycle(deps):
        yield from _replay(workload, dep, client, rng, sizes, half)
        client.ask(dep, WITHHELD, workload.below, 0, rng)
        yield
        yield from _replay(workload, dep, client, rng, sizes, half, reopen=False)
        client.ask(dep, NO_DATA, workload.no_data, COLD_BATCH, rng)
        yield


def _replay(workload: Workload, dep: Deployment, client: Client, rng, sizes,
            hits: int, reopen: bool = True):
    """Restart twice per stored requirement, then send ``hits`` hits: each
    batch size drawn from ``sizes`` goes to every requirement in turn, so
    all of them see the same mix."""
    answered = [a for a in workload.answered if a.name in dep.stored]
    client.registry_bytes = dep.registry_bytes()
    for ask in answered * 2 if reopen else ():
        client.reopen(dep, ask, rng)
        yield
    for _ in range(hits // len(answered) if answered else 0):
        size = next(sizes)
        for ask in answered:
            client.ask(dep, HIT, ask, size, rng)
            yield


# ---------------------------------------------------------------------------
# One run


@dataclass
class RunResult:
    workload: Workload
    setup_seconds: list   # one per set-up repetition
    cold_setup_seconds: float  # cold requests sent during set-up (soc-replay)
    timed_seconds: float
    client: Client
    paper_counts: list    # problems with the paper's experiment counts


# Fewest untraced samples per kind before a timed phase may end: p99 needs
# ten samples beyond it, medians need a few.
MINIMUMS = {COLD: 3, HIT: 1100, REOPEN: 3, WITHHELD: 1}
OVERTIME = 60.0  # seconds a timed phase may run on to meet the minimums


def run(workload: Workload, seed: int, seconds: float, work: Path, tracer=None,
        setup_reps: int = 3, minimums: dict | None = None,
        feed_rows: dict | None = None) -> RunResult:
    """Set up ``setup_reps`` times, then run the workload's stream for
    ``seconds`` and until every minimum is met.  ``soc-replay`` serves from
    every set-up deployment; the cold workloads start from the last one.

    With a tracer, set-up is traced whole and the timed phase traces every
    other ask of each (kind, requirement, batch size) group; the untraced
    half gives the tracing overhead.
    """
    checker = checks.Checker()
    client = Client(checker, tracer)
    setup_seconds, cold_setup_seconds = [], 0.0
    deps = []
    for rep in range(setup_reps):
        if tracer is not None:
            tracer.install()
        first = len(client.samples)
        started = time.perf_counter()
        deps.append(set_up(workload, seed, work / f"setup{rep}", client, feed_rows))
        setup_seconds.append(time.perf_counter() - started)
        cold_setup_seconds += sum(s.seconds for s in client.samples[first:]
                                  if s.kind == COLD)
        if tracer is not None:
            tracer.uninstall()

    client.alternate = tracer is not None
    client.counts = {}
    wanted = dict(MINIMUMS if minimums is None else minimums)
    if tracer is not None:
        wanted = {kind: 1 for kind in wanted}  # no percentile tails needed
    if workload.replay:
        wanted.pop(COLD, None)  # its cold asks happen in set-up
        stream = replay_segments(workload, seed, deps, client)
    else:
        stream = cold_rounds(workload, seed, deps[-1], client, work)
    started = time.perf_counter()
    for _ in stream:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (elapsed >= seconds + OVERTIME or all(
                client.counts.get(k, 0) >= n for k, n in wanted.items())):
            break
    timed = time.perf_counter() - started
    stream.close()
    return RunResult(workload, setup_seconds, cold_setup_seconds, timed, client,
                     checks.paper_experiment_counts())
