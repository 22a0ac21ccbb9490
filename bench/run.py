"""diffalg benchmark: end-to-end CLI figures, or per-layer figures from a trace.

    python3 bench/run.py --workload ritt|linalg-galois|series-batch
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is the Python source under
src/, so there is nothing to build.  The seed makes the corpus (corpus.py);
worker.py runs it through diffalg's CLI in a fresh interpreter; oracle.py
checks every answer in sympy, outside the timed region.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones below; with --trace 1 they are tracer.metric_names().  The
line before it records the environment, the seed and per-verb figures.

End-to-end metrics:
  setup_s               fresh interpreter until the workload's first command
                        is answered (import diffalg, and sympy's lazy import
                        when that command factors); median of SETUP_SAMPLES,
                        half taken before the timed run and half after it,
                        so that the median spans two host states
  throughput_cmd_per_s  commands per second with one client: commands / sum
                        of their latencies
  latency_p50_ms        median per-command latency
  latency_p95_ms        95th percentile per-command latency; every corpus
                        has at least 200 commands, so 10 or more lie beyond
  peak_rss_mb           peak resident set (VmHWM) of the workload process
  passed_share          1 - failed/attempted; the failed share itself is
                        0 when all is well, so it is carried by the
                        attempted and failed fields

A command's latency is its median over the passes of a run.  Every time
is scaled to a host of REFERENCE_PROBE_RATE: multiplied by the probe rate
measured over the same stretch (a fixed Fraction loop, worker.HostProbe;
rounds over seconds, summed) and divided by REFERENCE_PROBE_RATE.  For
command latencies the probe runs between commands, about once a second;
for setup_s it runs in this process before each set-up sample.  On a
shared host the same pass takes up to 1.8x as long a minute later, and
ten unscaled runs made over five minutes spread by up to 0.4 of their
median; the probe slows with the host, so the scaled times keep what the
program costs and shed most of what the host did.  The probe runs no
diffalg code, so no change to diffalg moves it.  The unscaled figures
and the probe rates are in the line before the result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 16
# probe rounds per second on the host the bench was tuned on (2-core x86-64)
REFERENCE_PROBE_RATE = 400.0
END_TO_END = ("setup_s", "throughput_cmd_per_s", "latency_p50_ms",
              "latency_p95_ms", "peak_rss_mb", "passed_share")
# the whole run must end within 180 s
SETUP_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 130


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _worker_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, timeout, stdin=None):
    """Run worker.py to completion; subprocess.run kills it on timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args, input=stdin,
            capture_output=True, text=True, env=_worker_env(), cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail("worker %s did not finish within %d s" % (args[0], timeout))
    if proc.returncode != 0:
        _fail("worker %s failed: %s" % (args[0], proc.stderr.strip()[-2000:]))
    return proc.stdout


def _setup_sample(argv):
    """(seconds of a host probe here, seconds until the command is answered)"""
    import worker

    probe = worker.probe_seconds()
    start = time.monotonic()
    answered = _worker(["setup", json.dumps(argv)], SETUP_TIMEOUT_S)
    return probe, float(answered) - start


def _run_worker(job):
    return json.loads(_worker(["run"], WORKER_TIMEOUT_S, json.dumps(job)))


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _environment(args):
    import sympy
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "nproc": os.cpu_count(), "commit": _commit(),
            "src_sha256": _source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _check_all(corpus, result):
    """Indices of failed commands: wrong answer, changed answer, never run."""
    import oracle

    failed = set(result["mismatched"])
    reasons = {}
    for i, cmd in enumerate(corpus):
        if i >= len(result["results"]):
            failed.add(i)
            reasons.setdefault("never reached", i)
            continue
        why = oracle.check(cmd, *result["results"][i])
        if why is not None:
            failed.add(i)
            reasons.setdefault("%s: %s" % (cmd.verb, why), i)
    return failed, reasons


def _per_verb(corpus, latency):
    verbs = {}
    for cmd, dt in zip(corpus, latency):
        verbs.setdefault(cmd.verb, []).append(dt)
    return {v: {"count": len(ls), "p50_ms": statistics.median(ls) * 1e3,
                "sum_s": sum(ls)} for v, ls in sorted(verbs.items())}


def _rate(probe_seconds):
    import worker

    return worker.PROBE_ROUNDS * len(probe_seconds) / sum(probe_seconds)


def _end_to_end(corpus, result, setup):
    passes = result["passes"]
    done = min(len(p["latency"]) for p in passes)
    scale = result["probe_rate"] / REFERENCE_PROBE_RATE
    raw = [statistics.median(p["latency"][i] for p in passes) for i in range(done)]
    latency = [t * scale for t in raw]
    throughput = done / sum(latency)
    setup_scale = _rate(setup[0]) / REFERENCE_PROBE_RATE
    unscaled = {"probe_rate": result["probe_rate"],
                "setup_probe_rate": _rate(setup[0]),
                "setup_s": statistics.median(setup[1]),
                "throughput_cmd_per_s": done / sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_p95_ms": _percentile(raw, 95) * 1e3}
    return latency, unscaled, {
        "setup_s": (statistics.median(setup[1]) * setup_scale, "s"),
        "throughput_cmd_per_s": (throughput, "cmd/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p95_ms": (_percentile(latency, 95) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "diffalg" / "__init__.py").is_file():
        _fail("no diffalg source under %s" % (ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import corpus
        import tracer
    except ImportError as exc:
        _fail("cannot import the corpus tools: %s" % exc)
    if args.workload not in corpus.WORKLOADS:
        _fail("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(corpus.WORKLOADS)))

    started = time.monotonic()
    commands = corpus.WORKLOADS[args.workload](args.seed)
    corpus_s = time.monotonic() - started
    batch = args.workload == "series-batch"
    job = {"argvs": [c.argv for c in commands], "lines": [c.line for c in commands],
           "batch": batch, "trace": bool(args.trace),
           "seconds": 0 if args.trace else args.seconds}
    half = 0 if args.trace else SETUP_SAMPLES // 2
    samples = [_setup_sample(commands[0].argv) for _ in range(half)]
    result = _run_worker(job)
    samples += [_setup_sample(commands[0].argv) for _ in range(half)]
    setup = list(zip(*samples))
    checked = time.monotonic()
    failed, reasons = _check_all(commands, result)
    oracle_s = time.monotonic() - checked

    detail = {"env": _environment(args), "commands": len(commands),
              "passes": len(result["passes"]),
              "pass_wall_s": [p["wall"] for p in result["passes"]],
              "probes": result["probes"],
              "failures": reasons, "corpus_s": corpus_s, "oracle_s": oracle_s}
    if args.trace:
        trace = result["trace"]
        if not trace["same_output"]:
            failed.update(range(len(commands)))
            reasons["traced outputs differ from untraced"] = 0
        if not trace["restored"]:
            _fail("tracer left a patched attribute behind")
        metrics = {name: {"value": trace["metrics"][name], "unit": _unit(name)}
                   for name in tracer.metric_names()}
    else:
        latency, detail["unscaled"], e2e = _end_to_end(commands, result, setup)
        e2e["passed_share"] = (1 - len(failed) / len(commands), "share")
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in END_TO_END}
        detail["setup_samples_s"] = setup[1]
        detail["latency_samples"] = len(latency)
        detail["verbs"] = _per_verb(commands, latency)
    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(commands),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("bits_max"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
