"""Command-line driver: ingest feeds, build models, validate alerts.

Subcommands
-----------
ingest         parse CSV/MISP feeds into a normalized dataset store
build          build (or refresh) the model for one requirement
validate       classify alert rows under a requirement
registry-list  show stored models
bench          experiment-count report: on-demand vs prebuild

Exit codes: 0 success; 2 contract/format/configuration problems; 3 the
dataset cannot support the requirement (no data); 4 the best model missed
the confidence bar; 5 every candidate timed out.

Environment: CTIVALIDATOR_REGISTRY sets the default registry root.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__, ingest, orchestrator
from . import bench as bench_mod
from .errors import CtiValidatorError
from .learners import DEFAULT_BUDGET, DEFAULT_N_TRIALS, DEFAULT_TIERS, TIERS, BuildBudget

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_NO_DATA = 3
EXIT_BELOW_CONFIDENCE = 4
EXIT_ALL_TIMED_OUT = 5

_REGISTRY_ENV = "CTIVALIDATOR_REGISTRY"

_OUTCOME_CODES = {
    orchestrator.REASON_NO_DATA: EXIT_NO_DATA,
    orchestrator.REASON_BELOW_CONFIDENCE: EXIT_BELOW_CONFIDENCE,
    orchestrator.REASON_ALL_TIMED_OUT: EXIT_ALL_TIMED_OUT,
}


def _registry_root(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get(_REGISTRY_ENV)
    if env:
        return Path(env)
    return Path("registry")


def _load_requirement(raw: str, confidence: float | None) -> orchestrator.Requirement:
    """Accept a requirement as a file path or inline text.

    Inline form separates entries with ';' or newlines, e.g.
    ``"ob: ob3; un: attack; confidence: 0.6"``.
    """
    path = Path(raw)
    text = path.read_text(encoding="utf-8") if path.is_file() else raw.replace(";", "\n")
    requirement = orchestrator.interpret(text)
    if confidence is not None:
        requirement = dataclasses.replace(requirement, confidence=confidence)
    return requirement


def _load_alerts(path: Path) -> list[dict]:
    if path.suffix.lower() == ".csv":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return [dict(row) for row in csv.DictReader(handle)]
    doc = ingest.read_json_or_lines(path.read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        doc = doc.get("alerts", [doc])
    if not isinstance(doc, list):
        raise CtiValidatorError(f"cannot read alert rows from {path}")
    return doc


def _write_doc(path: str | None, doc: dict) -> None:
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _tier_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _orchestrator(args) -> orchestrator.Orchestrator:
    root = _registry_root(args.registry)
    registry = orchestrator.ModelRegistry(root)
    notifier = orchestrator.Notifier(root / "notifications.jsonl")
    config = orchestrator.BuildConfig(
        seed=args.seed,
        budget=BuildBudget(args.budget_seconds, args.budget_bytes),
        tiers=args.tiers,
        n_trials=args.trials,
    )
    return orchestrator.Orchestrator(registry, notifier, config)


def _add_build_flags(parser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset store (JSON)")
    parser.add_argument("--requirement", required=True,
                        help="requirement file or inline 'ob: ...; un: ...' text")
    parser.add_argument("--confidence", type=float, default=None,
                        help="override the requirement's confidence score")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget-seconds", type=float,
                        default=DEFAULT_BUDGET.wall_clock_limit,
                        help="wall-clock budget per candidate build")
    parser.add_argument("--budget-bytes", type=int,
                        default=DEFAULT_BUDGET.memory_limit,
                        help="memory budget per candidate build")
    parser.add_argument("--tiers", type=_tier_list, default=DEFAULT_TIERS,
                        help=f"comma list from {', '.join(TIERS)} "
                             f"(default {','.join(DEFAULT_TIERS)})")
    parser.add_argument("--trials", type=int, default=DEFAULT_N_TRIALS,
                        help="hyperparameter search trials per candidate")
    parser.add_argument("--registry", default=None,
                        help=f"registry root (default ${_REGISTRY_ENV} or ./registry)")
    parser.add_argument("--out", default=None, help="write the outcome document here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctivalidator",
        description="Validate CTI alerts with on-demand prediction models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse feeds into a dataset store")
    p_ingest.add_argument("--csv", default=None, help="CSV feed file")
    p_ingest.add_argument("--column-map", default=None,
                          help="JSON file mapping CSV columns to attributes")
    p_ingest.add_argument("--misp", default=None, help="MISP-style JSON export")
    p_ingest.add_argument("--enrich", default=None,
                          help="offline enrichment table (CSV)")
    p_ingest.add_argument("--dataset-id", required=True)
    p_ingest.add_argument("--out", required=True, help="dataset store to write")
    p_ingest.add_argument("--reports-out", default=None,
                          help="write per-row ingestion reports (JSONL)")

    p_build = sub.add_parser("build", help="build the model for a requirement")
    _add_build_flags(p_build)

    p_val = sub.add_parser("validate", help="classify alert rows")
    _add_build_flags(p_val)
    p_val.add_argument("--alerts", required=True,
                       help="alert rows (JSON list, JSONL, or CSV)")

    p_list = sub.add_parser("registry-list", help="show stored models")
    p_list.add_argument("--registry", default=None)
    p_list.add_argument("--json", action="store_true", dest="as_json")

    p_bench = sub.add_parser("bench", help="experiment-count report")
    p_bench.add_argument("--preset", default="ds1,ds2",
                         help=f"comma list from {sorted(bench_mod.PRESETS)}")
    p_bench.add_argument("--attributes", type=int, default=None,
                         help="custom plan: attribute count")
    p_bench.add_argument("--labels", type=int, default=1)
    p_bench.add_argument("--requirements", type=int, default=1)
    p_bench.add_argument("--tiers", type=_tier_list, default=None,
                         help="size the algorithm count to these tiers")
    p_bench.add_argument("--sample-seconds", type=float, action="append",
                         default=None, help="measured per-build seconds (repeatable)")
    p_bench.add_argument("--timed-out", type=int, default=0)
    p_bench.add_argument("--json", action="store_true", dest="as_json")
    p_bench.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_ingest(args) -> int:
    if not args.csv and not args.misp:
        raise CtiValidatorError("ingest needs --csv and/or --misp")
    if args.csv and not args.column_map:
        raise CtiValidatorError("--csv requires --column-map")
    records = []
    reports = []
    if args.csv:
        with open(args.column_map, "r", encoding="utf-8") as handle:
            column_map = json.load(handle)
        parsed = ingest.parse_csv_feed(
            Path(args.csv).read_text(encoding="utf-8"), Path(args.csv).name,
            column_map)
        mapped = ingest.map_feed_records(parsed.records, column_map,
                                         args.dataset_id)
        records.extend(mapped.records)
        reports.extend(parsed.reports)
        reports.extend(mapped.reports)
    if args.misp:
        parsed = ingest.parse_misp_events(Path(args.misp).read_text(encoding="utf-8"),
                                          args.dataset_id)
        records.extend(parsed.records)
        reports.extend(parsed.reports)
    if args.enrich:
        provider = ingest.OfflineEnrichmentTable(
            Path(args.enrich).read_text(encoding="utf-8"))
        records, lookup_reports = ingest.enrich_all(records, provider)
        reports.extend(lookup_reports)
    dataset = ingest.normalize(records, args.dataset_id)
    ingest.save_dataset(dataset, args.out)
    if args.reports_out:
        with open(args.reports_out, "w", encoding="utf-8") as handle:
            for rep in reports:
                handle.write(json.dumps(rep.__dict__, sort_keys=True, default=str)
                             + "\n")
    print(f"dataset {dataset.dataset_id}: {len(dataset.records)} records "
          f"(input {dataset.n_input}, dropped {dataset.n_dropped_empty} empty, "
          f"merged {dataset.n_deduplicated} duplicates)")
    print(f"fingerprint {dataset.fingerprint}")
    print(f"reports: {len(reports)}")
    return EXIT_OK


def _finish_outcome(args, outcome, *, labels_in_doc: bool) -> int:
    if isinstance(outcome, orchestrator.Predicted):
        doc = {
            "outcome": "predicted",
            "requirement_key": outcome.model_key,
            "f1": outcome.f1,
            "family": outcome.family,
            "scheme": outcome.scheme,
        }
        if labels_in_doc:
            doc["labels"] = list(outcome.labels)
        _write_doc(args.out, doc)
        source = "cache" if outcome.from_cache else "fresh build"
        print(f"predicted: f1={outcome.f1:.4f} family={outcome.family} "
              f"scheme={outcome.scheme} ({source})")
        for label in outcome.labels:
            print(label)
        return EXIT_OK
    doc = {"outcome": "not-applicable", "reason": outcome.reason}
    if outcome.best_f1 is not None:
        doc["best_f1"] = outcome.best_f1
    if outcome.request is not None:
        doc["missing"] = list(outcome.request.missing)
    _write_doc(args.out, doc)
    detail = ""
    if outcome.reason == orchestrator.REASON_BELOW_CONFIDENCE:
        detail = f" (best f1 {outcome.best_f1:.4f})"
    elif outcome.request is not None:
        detail = f" (missing: {', '.join(outcome.request.missing)})"
    print(f"not applicable: {outcome.reason}{detail}", file=sys.stderr)
    return _OUTCOME_CODES[outcome.reason]


def _cmd_build(args) -> int:
    requirement = _load_requirement(args.requirement, args.confidence)
    dataset = ingest.load_dataset(args.dataset)
    orch = _orchestrator(args)
    outcome = orch.build(requirement, dataset)
    return _finish_outcome(args, outcome, labels_in_doc=False)


def _cmd_validate(args) -> int:
    requirement = _load_requirement(args.requirement, args.confidence)
    dataset = ingest.load_dataset(args.dataset)
    rows = _load_alerts(Path(args.alerts))
    orch = _orchestrator(args)
    outcome = orch.validate(requirement, dataset, rows)
    return _finish_outcome(args, outcome, labels_in_doc=True)


def _cmd_registry_list(args) -> int:
    registry = orchestrator.ModelRegistry(_registry_root(args.registry))
    entries = registry.entries()
    if args.as_json:
        print(json.dumps(entries, sort_keys=True, indent=1))
        return EXIT_OK
    if not entries:
        print("registry is empty")
        return EXIT_OK
    print(f"{'key id':18} {'f1':>8} {'family':8} {'scheme':14} key")
    for entry in entries:
        print(f"{entry['key_id']:18} {entry['f1']:>8.4f} {entry['family']:8} "
              f"{entry['scheme']:14} {entry['key']}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    n_algorithms = bench_mod.algorithm_count(args.tiers)
    if args.attributes is not None:
        plans = [bench_mod.ExperimentPlan(
            name="custom", n_attributes=args.attributes, n_labels=args.labels,
            n_requirements=args.requirements, n_algorithms=n_algorithms)]
    else:
        names = [n for n in args.preset.split(",") if n]
        plans = [bench_mod.preset_plan(name, n_algorithms=n_algorithms)
                 for name in names]
    report = bench_mod.bench_report(plans, samples=args.sample_seconds or (),
                                    timed_out=args.timed_out)
    doc = bench_mod.report_to_doc(report)
    if args.as_json:
        print(json.dumps(doc, sort_keys=True, indent=1))
    else:
        print(bench_mod.render_report(report))
    _write_doc(args.out, doc)
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build": _cmd_build,
    "validate": _cmd_validate,
    "registry-list": _cmd_registry_list,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CtiValidatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
