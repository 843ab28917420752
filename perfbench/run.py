"""Benchmark of the ``spectral`` command line, end to end and per layer.

    python3 perfbench/run.py --workload qgrid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters
(perfbench/worker.py): a few that only set up, to time set-up, and one
that sets up and then drives the workload's op list in a closed loop
with one client for about --seconds.  BLAS and OpenMP are pinned to one
thread.  Outputs are checked here, after the worker has exited, against
the oracles in checks.py.  Op times are given at the reference speed
of speed.py.  With --trace 1 the worker alternates traced
and untraced passes and the per-layer metrics are reported instead of
the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable
report with the environment, sample counts and every failure.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from checks import Checker  # noqa: E402
from workloads import CERTIFIED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9  # the worker's own set-up plus eight set-up-only starts
WORKER_TIMEOUT_S = 150
THREAD_PINS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
VERDICT_KINDS = ("verdict", "example")


def fail(message: str) -> None:
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def spawn_worker(args, rundir: str, setup_only: bool, timeout: float) -> None:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", rundir, "--spawned", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_PINS)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("worker did not finish within %d s" % timeout)
    if proc.returncode != 0:
        fail("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown",
           "python": platform.python_version(), "numpy": metadata.version("numpy"),
           "blas_threads": THREAD_PINS["OPENBLAS_NUM_THREADS"]}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lvl, open(os.path.join(index, "size")) as size:
                level = lvl.read().strip()
                if level in ("2", "3"):
                    env["L%s" % level] = size.read().strip()
        except OSError:
            pass
    # tracked by ROADMAP aim 2 for information, not a gated metric
    env["src_lines"] = sum(sum(1 for _ in open(path)) for path in
                           glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    return env


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def check_run(rundir: str, result: dict) -> tuple:
    """Check every distinct op once, then judge each executed op.

    Returns the failed ops as (record, reasons, known only) triples, the
    certified verdict count and the largest Q radius."""
    checker = Checker(rundir)
    verdicts = {}
    problems = {}
    for key, entry in result["manifest"].items():
        with open(os.path.join(rundir, entry["stdout"])) as handle:
            stdout = handle.read()
        try:
            problems[key] = checker.check(entry["op"], entry["code"], stdout)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems[key] = (["output not in the documented shape: %r" % exc], [])
        if entry["op"]["kind"] in VERDICT_KINDS and not any(problems[key]):
            payload = json.loads(stdout)
            verdicts[key] = payload.get("report", payload).get("verdict")
    failures = []
    certified = 0
    for rec in result["records"]:
        entry = result["manifest"][rec["key"]]
        bad, known = problems[rec["key"]]
        bad = list(bad)
        if rec["error"] or rec["traceback"]:
            bad = ["raised: " + (rec["error"] or "traceback on stderr").strip().splitlines()[-1]]
        elif rec["sha"] != entry["sha"] or rec["code"] != entry["code"]:
            bad.append("output differs from an earlier pass")
        if bad or known:
            failures.append((rec, bad + known, not bad))
        elif verdicts.get(rec["key"]) in CERTIFIED:
            certified += 1
    return failures, certified, checker.q_radius_max


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "spectralconv", "cli.py")):
        fail("no src/spectralconv in %s; run from the root of a checkout" % ROOT)
    contract = load_contract()

    rundir = os.path.join(ROOT, ".perfbench", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        probe = os.path.join(rundir, "setup%d" % i)
        spawn_worker(args, probe, True, 60)
        with open(os.path.join(probe, "setup.json")) as handle:
            setups.append(json.load(handle)["setup_s"])
        shutil.rmtree(probe)
    spawn_worker(args, rundir, False, WORKER_TIMEOUT_S)
    with open(os.path.join(rundir, "result.json")) as handle:
        result = json.load(handle)
    setups.append(result["setup_s"])

    failures, certified, q_radius_max = check_run(rundir, result)
    shutil.rmtree(os.path.join(rundir, "out"))  # stored stdout, up to 25 MB a run
    records = result["records"]
    attempted = len(records)
    correct = all(known_only for _, _, known_only in failures)
    passes = result["passes"]
    timed = [p for p in passes if not p["traced"]]
    ops = sum(p["ops"] for p in timed)
    seconds = sum(p["wall_s"] for p in timed)
    scale = speed.scales([r["kernel_s"] for r in records])
    untraced = [(r, f) for r, f in zip(records, scale) if not passes[r["pass"]]["traced"]]
    latencies = [r["latency_s"] * f for r, f in untraced]
    tail_s, tail_pct = tail(latencies)
    verdict_ops = sum(1 for r in records if r["kind"] in VERDICT_KINDS)
    env = environment()

    values = {
        "setup_s": (statistics.median(setups) * statistics.median(scale), "s",
                    "median of %d fresh interpreters" % len(setups)),
        "ops_per_s": (ops / sum(latencies), "1/s", "%d ops in %d passes over their summed latency"
                      % (ops, len(timed))),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms", "N=%d" % len(latencies)),
        "op_tail_ms": (1000 * tail_s, "ms", "p%.1f, N=%d, 10 ops beyond" % (tail_pct, len(latencies))),
        "cpu_s": (sum(r["cpu_s"] * f for r, f in untraced) / len(timed), "s",
                  "user+sys of the timed calls, mean over %d passes" % len(timed)),
        "peak_rss_mb": (result["max_rss_kb"] / 1024.0, "MB", "ru_maxrss of the worker"),
        "certified_ratio": (certified / verdict_ops if verdict_ops else 0.0, "ratio",
                            "%d of %d verdict and example ops" % (certified, verdict_ops)),
    }
    extra = {
        "fail_ratio": (len(failures) / attempted, "ratio", "%d of %d ops" % (len(failures), attempted)),
        "q_radius_max": (q_radius_max, "abs", "largest certified radius over all Q points"),
        "unscaled setup_s": (statistics.median(setups), "s", "as measured"),
        "unscaled ops_per_s": (ops / seconds, "1/s", "as measured"),
        "unscaled op_p50_ms": (1000 * statistics.median(r["latency_s"] for r, _ in untraced),
                               "ms", "as measured"),
        "speed scale": (statistics.median(scale), "", "median, %.3g to %.3g over the run"
                        % (min(scale), max(scale))),
    }
    if args.trace:
        layers = dict(result["per_layer"])
        layers["spectrality.q_partial.radius_max"] = q_radius_max
        traced = [r["latency_s"] * f for r, f in zip(records, scale) if passes[r["pass"]]["traced"]]
        traced_rate = len(traced) / sum(traced)
        layers["trace.overhead_ratio"] = values["ops_per_s"][0] / traced_rate
        extra["ops_per_s untraced / traced"] = (
            values["ops_per_s"][0], "1/s", "%.4g traced, %d + %d passes"
            % (traced_rate, len(timed), len(passes) - len(timed)))
        wanted = contract["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
        shown = {k: (v, next((m["unit"] for m in wanted if m["name"] == k), ""), "")
                 for k, v in sorted(layers.items())}
    else:
        wanted = contract["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
        shown = values

    print("perfbench %s seed=%d seconds=%d trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: " + " ".join("%s=%s" % kv for kv in env.items()))
    for name, (value, unit, note) in list(shown.items()) + list(extra.items()):
        print("  %-48s %14.6g %-6s %s" % (name, value, unit, note))
    for rec, reasons, _ in failures[:20]:
        print("  FAILED pass %d %s: %s" % (rec["pass"], " ".join(json.loads(rec["key"])), "; ".join(reasons)))
    with open(os.path.join(rundir, "report.json"), "w") as handle:
        json.dump({"environment": env, "metrics": metrics,
                   "also": {k: v[0] for k, v in extra.items()},
                   "failures": [(r["key"], reasons) for r, reasons, _ in failures]}, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
