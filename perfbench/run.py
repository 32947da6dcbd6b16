"""msflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload desk-fine --seed 0 --seconds 10 --trace 0

Run from the repository root. With --trace 0 the last line of standard
output is a JSON object holding every end-to-end metric of BENCHMARK.json;
with --trace 1 it holds every per-layer metric. The lines before it give
the checks, the workload-specific figures and the environment; the same
record, with the spans of a traced run, goes to .bench_out/<workload>/.
See perfbench/README.md.
"""

import os
import sys

# Closed loop, one caller: pin every thread pool before numpy loads OpenBLAS.
# numpy's transparent-hugepage advice is switched off too: whether the kernel
# grants huge pages depends on the host's free memory, and it moved peak RSS
# by up to 30% between identical runs.
PINNED_ENV = {
    "MSFLOW_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_revision(root):
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over src/msflow/*.py, which names the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "msflow")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root):
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "pinned_env": dict(PINNED_ENV),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "msflow", "__init__.py")):
        print(f"error: no msflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(ROOT, workload.config)):
        print(f"error: missing {workload.config}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    out_dir = os.path.join(ROOT, ".bench_out", workload.name)
    outcome = workloads.Outcome()
    tracer = tracing.Tracer()
    env = environment(ROOT)
    status = 0
    try:
        result = workloads.run(
            workload, ROOT, args.seed, args.seconds, traced, out_dir, outcome, tracer
        )
    except Exception:  # the program under test failed: report it as a failed run
        traceback.print_exc()
        outcome.ops(1)
        outcome.failed += 1
        result = {"end_to_end": {}, "per_layer": {}, "figures": {}}
        status = 1
    result["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    values = result["per_layer"] if traced else result["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and status == 0:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        status = 1

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "environment": env,
        "checks": outcome.checks,
        "ops_failed_ratio": outcome.failed / max(outcome.attempted, 1),
        "figures": result["figures"],
        "metrics": metrics,
    }
    samples = result.get("samples", {})
    os.makedirs(out_dir, exist_ok=True)
    record_path = os.path.join(out_dir, f"seed{args.seed}_trace{int(traced)}.json")
    with open(record_path, "w") as fh:
        json.dump({**record, "samples": samples, "spans": tracer.spans}, fh, indent=1, default=str)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    for name, check in outcome.checks.items():
        verdict = {True: "PASS", False: "FAIL", None: "n/a "}[check["ok"]]
        print(f"check {verdict} {name}: {check['detail']}")
    print(f"ops_failed_ratio {record['ops_failed_ratio']:.6g} ({outcome.failed}/{outcome.attempted})")
    for name, value in sorted(result["figures"].items()):
        print(f"figure {name} {value}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"record {os.path.relpath(record_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": outcome.correct and status == 0,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
