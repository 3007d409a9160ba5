"""End-to-end and per-layer benchmark of the on-demand validator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cold-text --seed 1 --seconds 30 --trace 0

One client in a closed loop drives the public API (ingest ->
``Orchestrator.validate`` -> ``ModelRegistry`` -> features -> learners) on
inputs generated from ``--seed``, checks every answer, and prints a human
report followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no tracing installed; with
``--trace 1`` they are the per-layer ones, taken from spans recorded around
every other request (the other half gives the tracing overhead).

``error_rate`` (failed / attempted) is carried by the ``attempted`` and
``failed`` fields rather than as a metric, because it is zero whenever the
program is correct.  Run records (metadata, chosen models, failures, and
spans for traced runs) go to ``.perfbench/`` under the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
IMPORT_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-text", "cold-numeric", "soc-replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that starts and imports the
    program and the harness: the process-start part of set-up.  It is
    taken several times because a single start, most of cold-text's
    set-up, varied from 0.17 s to 0.35 s between runs on 2 cores."""
    code = (f"import sys; sys.path[:0] = [{str(SOURCE)!r}, "
            f"{str(ROOT / 'perfbench')!r}]; from harness import report, workloads")
    times = []
    for _ in range(IMPORT_REPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "ctivalidator" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from harness import report, tracer as tracing, workloads

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload]
    try:
        result = workloads.run(workload, args.seed, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = result.client.checker
    meta = report.metadata(args.seed, ROOT, result)
    if args.trace:
        values = report.per_layer(result, tracer)
        units, counts = report.PER_LAYER_UNITS, {}
    else:
        values, counts = report.end_to_end(result, import_seconds())
        units = report.END_TO_END_UNITS
    correct = checker.failed == 0 and not result.paper_counts
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "meta": meta, "samples": counts,
              "error_rate": checker.error_rate, "failures": checker.failures[:50],
              "paper_counts": result.paper_counts or "ok", "metrics": values}
    out_dir.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {meta['kernel_backend']}  nproc {meta['nproc']}  "
          f"python {meta['python']}  numpy {meta['numpy']}  commit {meta['commit'][:12]}")
    print(f"chosen (family/scheme) per requirement: {meta['chosen']}  "
          f"varied within run: {meta['choice_varied']}")
    print(f"fresh alerts mislabelled by the answered models: "
          f"{workloads.fresh_alert_error(result.client):.4f}")
    print(f"paper experiment counts: {result.paper_counts or 'ok (992->112, 524160->704)'}")
    print(f"requests {checker.attempted}  failed {checker.failed}  "
          f"error_rate {checker.error_rate:.4f}  samples {counts}")
    for failure in checker.failures[:10]:
        print(f"  FAILED {failure}")
    if args.trace:
        print(report.stage_table(result, values))
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
