"""rhpwn benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src` with
PYTHONPATH, nothing is installed.  One run:

1. builds the workload's call list from the seed (workloads.py);
2. with --trace 0, measures set-up: several fresh interpreters that start
   and `import rhpwn.cli`, timed from spawn to exit and scaled by reference
   interpreters run around each;
3. runs passes over the call list for --seconds (at least two), each pass in
   a fresh single-threaded worker process (worker.py) that times every call;
4. with --trace 1, adds one pass with every layer wrapped (tracer.py) and
   takes the exact work counters;
5. checks the outputs of the first pass against oracles that share no code
   with the engine (checks.py), and checks that every later pass, in its own
   process, printed byte-identical output for every call.

The last line of stdout is the result object; the line before it holds the
provenance (source digest, versions, call counts, combined output digest).
A copy of both goes to .bench_out/.  The layer spans of a traced pass are
written to .bench_out/spans_<workload>.npz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import adjoint_mismatches, check_outputs
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
MIN_PASSES = 2
TIME_LIMIT_S = 170  # a run must end within 180 s
# Call times are scaled to a machine on which the task of reference.py takes
# this long, about its median on the 2-vCPU sandbox this benchmark was built on.
REFERENCE_S = 0.0008
# The set-up reference: an interpreter that imports numpy and one that runs
# this loop take about SETUP_REFERENCE_S together on that sandbox.  Their sum
# tracks the drift of the import time far better than either alone.
SETUP_REFERENCE_LOOP = "s = 0\nfor i in range(1500000): s += i * i % 7\n"
SETUP_REFERENCE_S = 0.56
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Per-layer metrics of a traced run, with their units.
PER_LAYER = {
    "rewrite.steps": "count",
    "rewrite.untruncated_calls": "count",
    "rewrite.truncated_calls": "count",
    "rewrite.self_s": "s",
    "stepfn.refine_calls": "count",
    "stepfn.refine_segments": "count",
    "stepfn.self_s": "s",
    "mupoly.mul_calls": "count",
    "mupoly.self_s": "s",
    "scalars.mul_calls": "count",
    "scalars.self_s": "s",
    "series.calls": "count",
    "series.self_s": "s",
    "algebra.commutator_calls": "count",
    "algebra.self_s": "s",
    "fock.inner_product_calls": "count",
    "fock.self_s": "s",
    "nogo.calls": "count",
    "nogo.self_s": "s",
    "processes.density_calls": "count",
    "processes.log_gamma_calls": "count",
    "processes.sampler_knots": "count",
    "processes.self_s": "s",
    "jsonio.calls": "count",
    "jsonio.self_s": "s",
    "cli.calls": "count",
    "cli.bytes_out": "bytes",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def pinned_env(root: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError(f"run exceeded {TIME_LIMIT_S} s")
    return left


def _interpreter_s(root, env, code, deadline):
    """Seconds from spawn to exit of a fresh interpreter that runs `code`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=_remaining(deadline))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{code!r} failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def measure_setup(root, env, deadline):
    """Set-up time of fresh interpreters that import rhpwn.cli, scaled.

    Each start is scaled by SETUP_REFERENCE_S over the time of two fixed
    reference interpreters run around it, one that imports numpy and one
    that runs a pure-Python loop; neither depends on the package.  Returns
    the median scaled time, the median unscaled time and the median
    reference time.
    """
    scaled, raw, refs = [], [], []
    for _ in range(SETUP_RUNS):
        ref = _interpreter_s(root, env, "import numpy", deadline)
        raw.append(_interpreter_s(root, env, "import rhpwn.cli", deadline))
        ref += _interpreter_s(root, env, SETUP_REFERENCE_LOOP, deadline)
        refs.append(ref)
        scaled.append(raw[-1] * SETUP_REFERENCE_S / ref)
    return statistics.median(scaled), statistics.median(raw), statistics.median(refs)


def run_pass(root, env, calls, deadline, keep_outputs=False, trace=False, spans_path=None):
    job = {
        "calls": [{"argv": c["argv"], "stdin": c["stdin"]} for c in calls],
        "keep_outputs": keep_outputs,
        "trace": trace,
        "spans_path": str(spans_path) if spans_path else None,
    }
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def provenance(root: Path, passes, calls, digest):
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        git_sha = top[1] if len(top) == 2 and Path(top[0]).resolve() == root else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "rhpwn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        **passes[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "calls_per_pass": len(calls),
        "passes": len(passes),
        "latency_samples": len(calls) * len(passes),
        "output_digest": digest,
    }


def bench(args, root: Path):
    deadline = time.perf_counter() + TIME_LIMIT_S
    env = pinned_env(root)
    calls = generate(args.workload, args.seed)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setup_s, raw_setup_s, setup_reference_s = (None,) * 3 if args.trace else measure_setup(root, env, deadline)
    passes = []
    budget_end = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < budget_end:
        passes.append(run_pass(root, env, calls, deadline, keep_outputs=not passes))
    traced = None
    if args.trace:
        traced = run_pass(root, env, calls, deadline, trace=True,
                          spans_path=out_dir / f"spans_{args.workload}.npz")

    # Correctness: oracle checks on the first pass, byte-identical output after it.
    bad = check_outputs(calls, passes[0]["outputs"])
    reference = [rec["digest"] for rec in passes[0]["calls"]]
    attempted = failed = 0
    for report in passes + ([traced] if traced else []):
        for i, rec in enumerate(report["calls"]):
            attempted += 1
            if rec["rc"] != 0 or i in bad or rec["digest"] != reference[i]:
                failed += 1
    digest = hashlib.sha256("".join(reference).encode()).hexdigest()

    def scaled(report):
        """Call times, each scaled by the median of the four reference task
        times around it: before the previous call, before and after the
        call, and after the next one."""
        refs = report["reference_s"]
        return [rec["s"] * REFERENCE_S / statistics.median(refs[max(0, i - 1):i + 3])
                for i, rec in enumerate(report["calls"])]

    # wall_s sums each call's median over the passes, which damps a slow
    # moment of the machine.  The latency percentiles pool every execution.
    def summary(times):
        wall = sum(statistics.median(col) for col in zip(*times))
        latencies_ms = [t * 1000 for row in times for t in row]
        return wall, _percentile(latencies_ms, 50), _percentile(latencies_ms, 90)

    wall_s, p50_ms, p90_ms = summary([scaled(p) for p in passes])
    raw_wall_s, raw_p50_ms, raw_p90_ms = summary([[rec["s"] for rec in p["calls"]] for p in passes])
    if args.trace:
        values = dict(traced["trace"])
        values["cli.bytes_out"] = sum(rec["bytes"] for rec in traced["calls"])
        values["trace.overhead_ratio"] = sum(scaled(traced)) / wall_s
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "call_p50_ms": (p50_ms, "ms"),
            "call_p90_ms": (p90_ms, "ms"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    prov = provenance(root, passes, calls, digest)
    prov.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": failed / attempted,
        "failed_call_indices": sorted(bad),
        # Reported, not checked: the documented vacuum action is not Hermitian.
        "adjoint_mismatch_pairs": adjoint_mismatches(calls, passes[0]["outputs"]),
        "reference_ms": [statistics.median(p["reference_s"]) * 1000 for p in passes],
        "unscaled": {"wall_s": raw_wall_s, "call_p50_ms": raw_p50_ms, "call_p90_ms": raw_p90_ms,
                     "setup_s": raw_setup_s},
        "setup_reference_s": setup_reference_s,
    })
    record = {"provenance": prov, "result": result,
              "reference_ms": [[t * 1000 for t in p["reference_s"]] for p in passes],
              "calls": [{**c, "rc": passes[0]["calls"][i]["rc"], "stderr": passes[0]["calls"][i]["stderr"],
                         "ms": [p["calls"][i]["s"] * 1000 for p in passes]}
                        for i, c in enumerate(calls)]}
    (out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(f"# {args.workload} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "rhpwn" / "cli.py").is_file():
        print(f"error: no rhpwn sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        bench(args, root)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
