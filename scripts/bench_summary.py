#!/usr/bin/env python3
"""Summarize benchmark records into one committed BENCH_<rev>.json.

Reads every `.bench_out/<workload>/seed*_trace0.json` record that
`perfbench/run.py --trace 0` wrote under a checkout, and writes, per
workload, the run count, the seeds, and the median and quartiles of each
end-to-end metric that `BENCHMARK.json` declares, plus the environment of
the runs:

    python scripts/bench_summary.py                   # this checkout's records
    python scripts/bench_summary.py --root ../other   # another checkout's
    python scripts/bench_summary.py --rev 1043543     # name the output file

All records must come from the same code: a record whose `source_sha256`
(a digest of `src/msflow/*.py`) differs from the others is refused, and
the script exits with status 2 without writing anything.  <rev> defaults
to that digest; the summary file goes to the root of this checkout.
"""

import argparse
import glob
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Environment fields that describe the machine and the code, not the run.
ENV_KEYS = (
    "machine", "nproc", "affinity", "python", "numpy", "scipy",
    "numpy_openblas", "scipy_openblas", "git_revision", "source_sha256", "pinned_env",
)


def load_records(root):
    """The trace-0 records under root/.bench_out, by workload, each list
    sorted by seed."""
    records = {}
    for path in sorted(glob.glob(os.path.join(root, ".bench_out", "*", "seed*_trace0.json"))):
        with open(path) as fh:
            record = json.load(fh)
        record["path"] = os.path.relpath(path, root)
        records.setdefault(record["workload"], []).append(record)
    for runs in records.values():
        runs.sort(key=lambda r: r["seed"])
    return records


def summarize(records, metric_names):
    """Per-workload run counts, seeds, check verdicts and metric quartiles."""
    workloads = {}
    for name, runs in sorted(records.items()):
        metrics = {}
        for metric in metric_names:
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            if not values:
                continue
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "runs": len(values),
                "median": float(median),
                "q1": float(q1),
                "q3": float(q3),
            }
        workloads[name] = {
            "runs": len(runs),
            "seeds": [r["seed"] for r in runs],
            "seconds": sorted({r["seconds"] for r in runs}),
            "all_checks_passed": all(
                r["ops_failed_ratio"] == 0
                and all(c["ok"] is not False for c in r["checks"].values())
                for r in runs
            ),
            "metrics": metrics,
        }
    return workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="checkout whose .bench_out is read")
    parser.add_argument("--rev", default=None, help="name of the summary (default: source digest)")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metric_names = [m["name"] for m in json.load(fh)["end_to_end"]]
    records = load_records(args.root)
    runs = [r for workload in records.values() for r in workload]
    if not runs:
        print(f"error: no seed*_trace0.json records under {args.root}/.bench_out", file=sys.stderr)
        return 2
    digests = {r["environment"]["source_sha256"] for r in runs}
    if len(digests) > 1:
        for r in runs:
            print(f"{r['path']}: source_sha256 {r['environment']['source_sha256']}", file=sys.stderr)
        print(f"error: records of {len(digests)} different sources; refusing", file=sys.stderr)
        return 2
    environment = {k: runs[0]["environment"].get(k) for k in ENV_KEYS}
    rev = args.rev or environment["source_sha256"]
    summary = {
        "rev": rev,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <t> --trace 0",
        "quartiles": "numpy.percentile, linear interpolation",
        "environment": environment,
        "workloads": summarize(records, metric_names),
    }
    path = os.path.join(ROOT, f"BENCH_{rev}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}: {len(runs)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
