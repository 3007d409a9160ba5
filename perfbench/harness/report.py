"""Turn one run's samples and spans into the named metrics and reports."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path

import numpy as np

from ctivalidator import learners
from ctivalidator.learners import FAMILIES

from .checks import COLD, HIT, REOPEN, WITHHELD
from .workloads import CHANNELS, HIT_BATCH_SIZES, RunResult, fresh_alert_error

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_request_s_p50": "s",
    "cold_requests_per_min": "1/min",
    "selected_f1_mean": "F1",
    **{f"warm_request_ms_p50.rows{rows}": "ms" for rows in HIT_BATCH_SIZES},
    "warm_request_ms_p99": "ms",
    "warm_alerts_per_s": "alerts/s",
    "withheld_request_s_p50": "s",
    "reopen_first_hit_ms_p50": "ms",
}

_KERNELS = ("split_class", "split_reg")
PER_LAYER_UNITS = {
    "ingest.parse_csv.s": "s/setup",
    "ingest.normalize.s": "s/setup",
    "ingest.store_roundtrip.s": "s/setup",
    "ingest.select_columns.s": "ms/call",
    "features.fit_transform.s": "s/build",
    "features.width_max": "columns",
    "features.zero_frac": "fraction",
    "features.transform.s": "ms/call",
    "features.transform.rows": "rows/call",
    "learners.build_candidates.s": "s/build",
    **{f"learners.candidate.s.{family}": "s/build" for family in FAMILIES},
    "learners.tune.s": "s/build",
    "learners.train.calls": "calls/build",
    "learners.split.calls": "calls/build",
    "learners.candidates_attempted": "count/build",
    "learners.candidates_failed": "count/build",
    "learners.predict.s": "ms/call",
    **{f"learners.kernels.{k}.{m}": u for k in _KERNELS for m, u in (
        ("calls", "calls/build"), ("s", "s/build"), ("rows", "rows/build"),
        ("rows_per_call_p50", "rows"))},
    "learners.kernels.share_of_build": "fraction",
    "learners.fresh_alert_error": "fraction",
    "evaluation.evaluate.s": "s/build",
    "orchestrator.validate.self_s": "ms/request",
    "orchestrator.registry.lookup.s": "ms/call",
    "orchestrator.registry.lookup.calls": "count",
    "orchestrator.registry.lookup.hits": "count",
    "orchestrator.registry.register.s": "ms/call",
    "orchestrator.registry.register.calls": "count",
    "orchestrator.registry.bytes": "bytes",
    "orchestrator.model_load.s": "ms/call",
    "orchestrator.stats.builds": "count",
    "orchestrator.stats.cache_hits": "count",
    "orchestrator.stats.flight_joins": "count",
    **{f"orchestrator.notifications.{c}": "count" for c in CHANNELS},
    "tracing.requests": "count",
    "tracing.overhead_frac": "fraction",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _latencies(result: RunResult, kind: str) -> list[float]:
    return [s.seconds for s in result.client.samples if s.kind == kind and not s.traced]


def _whole_rounds(result: RunResult, kind: str) -> list[float]:
    """Latencies of one kind, keeping the same number of samples of every
    requirement (whole rounds), so the mix behind a median is fixed."""
    by_ask: dict = {}
    for s in result.client.samples:
        if s.kind == kind and not s.traced:
            by_ask.setdefault(s.ask, []).append(s.seconds)
    rounds = min((len(v) for v in by_ask.values()), default=0)
    return [x for v in by_ask.values() for x in v[:rounds]]


def end_to_end(result: RunResult, import_seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics plus the sample counts behind them."""
    client = result.client
    cold_all = _latencies(result, COLD)
    cold = _whole_rounds(result, COLD)
    hits = [s for s in client.samples if s.kind == HIT and not s.traced]
    hit_s = [s.seconds for s in hits]
    withheld = _latencies(result, WITHHELD)
    reopen = [s for s in client.samples if s.kind == REOPEN and not s.traced]
    # soc-replay sends its cold requests in set-up, between other set-up
    # work, so its rate is over the seconds those requests took
    cold_phase = (result.cold_setup_seconds if result.workload.replay
                  else result.timed_seconds)
    f1_by_ask: dict = {}
    for choice in client.choices:
        f1_by_ask.setdefault(choice["ask"], []).append(choice["f1"])
    p99 = percentile(hit_s, 99)
    values = {
        "setup_s": import_seconds + statistics.median(result.setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cold_request_s_p50": _median(cold),
        "cold_requests_per_min": 60 * len(cold_all) / cold_phase if cold_phase else 0.0,
        "selected_f1_mean": statistics.fmean(
            statistics.fmean(v) for v in f1_by_ask.values()) if f1_by_ask else 0.0,
        **{f"warm_request_ms_p50.rows{rows}": _per_model_set_ms(
            [s for s in hits if s.rows == rows]) for rows in HIT_BATCH_SIZES},
        "warm_request_ms_p99": 1e3 * p99,
        "warm_alerts_per_s": sum(s.rows for s in hits) / sum(hit_s) if hits else 0.0,
        "withheld_request_s_p50": _median(withheld),
        "reopen_first_hit_ms_p50": _per_model_set_ms(reopen),
    }
    counts = {"cold": len(cold), "hit": len(hits),
              "hit_beyond_p99": sum(x > p99 for x in hit_s),
              "withheld": len(withheld), "reopen": len(reopen),
              "setup_reps": len(result.setup_seconds)}
    return values, counts


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _per_model_set_ms(samples) -> float:
    """Median latency of each (requirement, registry root) group, averaged
    over the groups, in ms.  A root holds the models one set of builds
    chose, and tied candidates can differ in serving cost.  A single median
    over all samples would follow whichever model most of them happened to
    meet; the mean over groups weighs each choice once."""
    groups: dict = {}
    for s in samples:
        groups.setdefault((s.ask, s.root), []).append(s.seconds)
    return 1e3 * statistics.fmean(map(statistics.median, groups.values())) \
        if groups else 0.0


def per_layer(result: RunResult, tracer) -> dict:
    """Per-layer metrics from the traced requests (and traced set-up)."""
    spans = tracer.spans
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, keep=lambda s: True):
        return sum(s.seconds for s in by_name.get(name, ()) if keep(s))

    def calls(name, keep=lambda s: True):
        return sum(1 for s in by_name.get(name, ()) if keep(s))

    def per_call_ms(name, keep=lambda s: True):
        n = calls(name, keep)
        return 1e3 * total(name, keep) / n if n else 0.0

    def under(span, name):
        return any(a.name == name for a in tracer.ancestors(span))

    def read_side(span):  # inside a request, outside any build
        return span.request is not None and not under(span, "features.fit_transform") \
            and not under(span, "learners.build_candidates")

    setups = len(result.setup_seconds)
    builds = calls("learners.build_candidates")
    per_build = (lambda x: x / builds) if builds else (lambda x: 0.0)
    fits = by_name.get("features.fit_transform", [])
    cells = sum(s.attrs["cells"] for s in fits)
    build_s = total("learners.build_candidates")
    kernel_s = sum(t.seconds for t in tracer.kernels.values())

    def family_seconds(family):
        # a candidate is its tuning, its final fit and its evaluation
        tune = total("learners.tune", lambda s: s.attrs["family"] == family)
        final = total("learners.train", lambda s: s.attrs["family"] == family
                      and not under(s, "learners.tune"))
        evaluate = total("evaluation.evaluate", lambda s: s.attrs["family"] == family)
        return tune + final + evaluate

    transforms = [s for s in by_name.get("features.transform", []) if read_side(s)]
    values = {
        "ingest.parse_csv.s": (total("ingest.parse_csv_feed")
                               + total("ingest.map_feed_records")) / setups,
        "ingest.normalize.s": total("ingest.normalize") / setups,
        "ingest.store_roundtrip.s": (total("ingest.save_dataset")
                                     + total("ingest.load_dataset")) / setups,
        "ingest.select_columns.s": per_call_ms("ingest.select_columns"),
        "features.fit_transform.s": per_build(total("features.fit_transform")),
        "features.width_max": max((s.attrs["width"] for s in fits), default=0),
        "features.zero_frac": sum(s.attrs["zeros"] for s in fits) / cells if cells else 0.0,
        "features.transform.s": per_call_ms("features.transform", read_side),
        "features.transform.rows": (sum(s.attrs["rows"] for s in transforms)
                                    / len(transforms)) if transforms else 0.0,
        "learners.build_candidates.s": per_build(build_s),
        **{f"learners.candidate.s.{f}": per_build(family_seconds(f)) for f in FAMILIES},
        "learners.tune.s": per_build(total("learners.tune")),
        "learners.train.calls": per_build(calls("learners.train")),
        "learners.split.calls": per_build(calls("learners.split")),
        "learners.candidates_attempted": per_build(sum(
            s.attrs.get("attempted", 0) for s in by_name.get("learners.build_candidates", []))),
        "learners.candidates_failed": per_build(sum(
            s.attrs.get("failed", 0) for s in by_name.get("learners.build_candidates", []))),
        "learners.predict.s": per_call_ms("learners.predict", read_side),
        "learners.kernels.share_of_build": kernel_s / build_s if build_s else 0.0,
        "learners.fresh_alert_error": fresh_alert_error(result.client),
        "evaluation.evaluate.s": per_build(total("evaluation.evaluate")),
        "orchestrator.validate.self_s": _self_ms(tracer, by_name.get("orchestrator.validate", [])),
        "orchestrator.registry.lookup.s": per_call_ms("orchestrator.registry.lookup"),
        "orchestrator.registry.lookup.calls": calls("orchestrator.registry.lookup"),
        "orchestrator.registry.lookup.hits": calls(
            "orchestrator.registry.lookup", lambda s: s.attrs.get("hit")),
        "orchestrator.registry.register.s": per_call_ms("orchestrator.registry.register"),
        "orchestrator.registry.register.calls": calls("orchestrator.registry.register"),
        "orchestrator.registry.bytes": result.client.registry_bytes,
        "orchestrator.model_load.s": per_call_ms("orchestrator.model_load"),
        **{f"orchestrator.stats.{k}": result.client.counters.get(k, 0)
           for k in ("builds", "cache_hits", "flight_joins")},
        **{f"orchestrator.notifications.{c}": result.client.counters.get(c, 0)
           for c in CHANNELS},
        "tracing.requests": result.client.traced_requests,
        "tracing.overhead_frac": tracing_overhead(result),
    }
    for name, tally in tracer.kernels.items():
        rows_p50 = _histogram_median(tally.rows_per_call)
        values.update({
            f"learners.kernels.{name}.calls": per_build(tally.calls),
            f"learners.kernels.{name}.s": per_build(tally.seconds),
            f"learners.kernels.{name}.rows": per_build(tally.rows),
            f"learners.kernels.{name}.rows_per_call_p50": rows_p50,
        })
    return values


def _self_ms(tracer, validates) -> float:
    """Mean validate self time: its span minus the time its children cover."""
    if not validates:
        return 0.0
    child_s: dict = {}
    for span in tracer.spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + span.seconds
    own = [v.seconds - child_s.get(v.id, 0.0) for v in validates]
    return 1e3 * statistics.fmean(own)


def _histogram_median(counter) -> float:
    n = sum(counter.values())
    if not n:
        return 0.0
    keys = np.array(sorted(counter), dtype=np.float64)
    weights = np.array([counter[k] for k in sorted(counter)])
    return float(keys[np.searchsorted(np.cumsum(weights), (n + 1) // 2)])


def tracing_overhead(result: RunResult) -> float:
    """Traced minus untraced latency, as a share of untraced, over the
    (kind, requirement, batch) groups the timed phase ran both ways."""
    groups: dict = {}
    for s in result.client.samples:
        groups.setdefault((s.kind, s.ask, s.rows), ([], []))[s.traced].append(s.seconds)
    extra = base = 0.0
    for untraced, traced in groups.values():
        n = min(len(untraced), len(traced))
        if n:
            base += n * statistics.median(untraced)
            extra += n * (statistics.median(traced) - statistics.median(untraced))
    return extra / base if base else 0.0


def stage_table(result: RunResult, layers: dict) -> str:
    """The per-stage build table, in the shape of the ROADMAP baseline."""
    rows = [
        ("select_columns", f"{layers['ingest.select_columns.s']:.3f} ms/call"),
        ("fit_transform (both schemes)", f"{layers['features.fit_transform.s']:.4f} s/build"),
        ("build_candidates", f"{layers['learners.build_candidates.s']:.3f} s/build"),
    ]
    for family in FAMILIES:
        seconds = layers[f"learners.candidate.s.{family}"]
        if seconds:
            rows.append((f"  candidate {family}", f"{seconds:.3f} s/build"))
    rows += [
        ("feature width (max)", f"{layers['features.width_max']:.0f} columns"),
        ("zero fraction", f"{100 * layers['features.zero_frac']:.2f} %"),
        ("split_class kernel calls", f"{layers['learners.kernels.split_class.calls']:.0f} /build"),
        ("split_reg kernel calls", f"{layers['learners.kernels.split_reg.calls']:.0f} /build"),
        ("rows per call p50 (class/reg)",
         f"{layers['learners.kernels.split_class.rows_per_call_p50']:.0f} / "
         f"{layers['learners.kernels.split_reg.rows_per_call_p50']:.0f}"),
        ("kernel share of build", f"{100 * layers['learners.kernels.share_of_build']:.1f} %"),
        ("hit: lookup / transform / predict",
         f"{layers['orchestrator.registry.lookup.s']:.3f} / "
         f"{layers['features.transform.s']:.3f} / {layers['learners.predict.s']:.3f} ms/call"),
        ("tracing overhead", f"{100 * layers['tracing.overhead_frac']:.1f} %"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"per-stage table, {result.workload.name} (traced requests)"]
    lines += [f"  {name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines)


def metadata(seed: int, root: Path, result: RunResult) -> dict:
    choices: dict = {}
    for choice in result.client.choices:
        choices.setdefault(choice["ask"], []).append(
            f"{choice['family']}/{choice['scheme']}")
    return {
        "seed": seed,
        "kernel_backend": learners.KERNEL_BACKEND,
        "has_numba": learners.HAS_NUMBA,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "chosen": {ask: sorted(set(picks)) for ask, picks in choices.items()},
        "choice_varied": any(len(set(p)) > 1 for p in choices.values()),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    try:
        done = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse",
                               "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
