"""Executes one pass of a call list in a fresh process.

Reads a JSON job from stdin: {"calls": [{"argv", "stdin"}, ...],
"keep_outputs": bool, "trace": bool, "spans_path": str or null}.  Each call
runs through `rhpwn.cli.main(argv)` with stdin, stdout and stderr held in
memory; only the call itself is timed.  Writes one JSON report to stdout.

With "trace", the functions of every layer are wrapped for the pass (see
tracer.py) and, once they are restored, the exact work counters are taken
from public functions outside the timed loop.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time

from reference import reference_s


def run_calls(main, calls, keep_outputs, tracer=None):
    records, outputs, references = [], [], [reference_s()]
    real = sys.stdin, sys.stdout, sys.stderr
    for i, call in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(call["stdin"]), out, err
        if tracer is not None:
            tracer.call_id = i
        start = time.perf_counter()
        try:
            rc = main(call["argv"])
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = real
        text = out.getvalue()
        records.append({
            "s": elapsed,
            "rc": rc,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text.encode()),
            "stderr": err.getvalue()[-500:],
        })
        if keep_outputs:
            outputs.append(text)
        references.append(reference_s())
    return records, outputs, references


def exact_counters(calls):
    """Work counts that depend only on the inputs and the engine, not on timing."""
    from rhpwn import jsonio
    from rhpwn.processes import SecantSampler
    from rhpwn.rewrite import reduce_untruncated_with_stats

    steps = knots = 0
    for call in calls:
        command = call["argv"][0]
        if command == "vacuum-moment":
            word = jsonio.decode_word(json.loads(call["stdin"]))
            steps += reduce_untruncated_with_stats(word)[1]
        elif command == "sample":
            t = float(call["argv"][call["argv"].index("--t") + 1])
            knots += len(SecantSampler(t).grid)
    return {"rewrite.steps": steps, "processes.sampler_knots": knots}


def traced_counts(tracer):
    totals = tracer.layer_totals()
    out = {f"{layer}.self_s": self_s for layer, (_, self_s) in totals.items()}
    # Calls into a layer from another one: the spans it opened.
    out.update({f"{layer}.calls": opened for layer, (opened, _) in totals.items()})
    out.update({
        "rewrite.untruncated_calls": tracer.count("rewrite.reduce_untruncated_with_stats"),
        "rewrite.truncated_calls": tracer.count("rewrite.reduce_truncated"),
        "stepfn.refine_calls": tracer.count("stepfn.common_refinement"),
        "stepfn.refine_segments": tracer.segments,
        "mupoly.mul_calls": tracer.count("mupoly.MuPoly.__mul__"),
        "scalars.mul_calls": tracer.count("scalars.ComplexRational.__mul__"),
        "algebra.commutator_calls": tracer.count("algebra.commutator"),
        "fock.inner_product_calls": tracer.count("fock.exp_inner_product"),
        "processes.density_calls": tracer.count("processes.density_p"),
        "processes.log_gamma_calls": tracer.count("processes.complex_log_gamma"),
        "spans": len(tracer.span_start),
    })
    return out


def main():
    job = json.loads(sys.stdin.read())
    from rhpwn.cli import main as cli_main

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = sys.modules["rhpwn.cli"].main
    records, outputs, references = run_calls(cli_main, job["calls"], job.get("keep_outputs"), tracer)
    report = {
        "calls": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # The reference task's time before the first call and after each call.
        "reference_s": references,
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = traced_counts(tracer)
        if job.get("spans_path"):
            tracer.save(job["spans_path"])
        report["trace"].update(exact_counters(job["calls"]))
    if job.get("keep_outputs"):
        report["outputs"] = outputs

    import numpy
    import scipy

    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
