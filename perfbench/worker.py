"""One workload run in a fresh interpreter: set up, then a closed loop.

Started by run.py.  Setup (importing ``spectralconv`` and its CLI,
generating the seeded inputs, writing the spec files) is timed from the
moment run.py spawned this interpreter.  The loop then calls the
``spectral`` click entry point in-process, one op at a time (a single
client), for a fixed number of whole passes over the workload's op list.  Each op's
latency and CPU time cover the call only; the reference kernel of
speed.py is timed just before it.  Its stdout is stored for the checks,
which run.py performs after this process has exited.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import spectralconv
    import spectralconv.cli
    if not os.path.abspath(spectralconv.__file__).startswith(src + os.sep):
        raise ImportError("spectralconv was imported from %s, not from %s"
                          % (spectralconv.__file__, src))
    return spectralconv.cli.main


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def call(main, argv):
    """Run one op; returns (latency, cpu, exit code, error, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main.main(args=argv, prog_name="spectral", standalone_mode=False)
        code = 0 if code is None else code
    except Exception:  # an op that raises is a failed op; the loop goes on
        error = traceback.format_exc(limit=4)
    latency = time.perf_counter() - t0
    return latency, cpu_seconds() - c0, code, error, out.getvalue(), err.getvalue()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() at spawn, from the parent")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    spectral = import_program()
    from speed import kernel_seconds
    from workloads import FRESH_INPUTS_PER_PASS, NOMINAL_PASS_S, generate
    os.makedirs(args.rundir, exist_ok=True)
    os.chdir(args.rundir)
    ops = generate(args.workload, args.seed, 0, ".")
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        with open("setup.json", "w") as handle:
            json.dump({"setup_s": setup_s}, handle)
        return

    # Each op starts from a collected heap, as in a fresh `spectral`
    # process: without this, collections of the loop's own garbage land at
    # random in later ops and make short ops bimodal.
    gc.freeze()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    os.makedirs("out", exist_ok=True)
    manifest = {}  # argv key -> op description and stored stdout
    records = []
    passes = []
    count = max(2 if tracer else 1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    for p in range(count):
        if p and FRESH_INPUTS_PER_PASS[args.workload]:
            ops = generate(args.workload, args.seed, p, ".")
        # a traced run alternates traced and untraced passes
        traced = tracer is not None and p % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        wall = cpu = 0.0
        for i, op in enumerate(ops):
            op_id = len(records)
            gc.collect()
            kernel_s = kernel_seconds()
            if traced:
                tracer.begin_op(op_id, op.kind)
            latency, used_cpu, code, error, stdout, stderr = call(spectral, op.argv)
            if traced:
                tracer.end_op(len(stdout.encode()))
            wall += latency
            cpu += used_cpu
            key = json.dumps(op.argv)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            if key not in manifest:
                path = os.path.join("out", "%d.json" % len(manifest))
                with open(path, "w") as handle:
                    handle.write(stdout)
                manifest[key] = {"op": asdict(op), "stdout": path, "sha": digest,
                                 "code": code}
            records.append({
                "pass": p, "position": i, "key": key, "kind": op.kind, "latency_s": latency,
                "cpu_s": used_cpu, "kernel_s": kernel_s, "code": code, "error": error, "sha": digest,
                "stdout_bytes": len(stdout.encode()),
                "traceback": "Traceback" in stderr,
            })
        passes.append({"wall_s": wall, "cpu_s": cpu, "ops": len(ops), "traced": traced})
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "records": records,
        "manifest": manifest,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.summary(sum(1 for x in passes if x["traced"]))
        tracer.dump("spans.npz")
    with open("result.json", "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
