"""Workload process: runs a corpus through diffalg's CLI in-process.

One thread, closed loop, one client: each command starts after the
previous one returns.  Two modes:

    worker.py setup ARGV_JSON   import diffalg, answer one command, print
                                the monotonic time at which it was answered
    worker.py run               read a job (JSON) on stdin, print the
                                result (JSON) on stdout

A run warms up with the first command of each verb, then repeats whole
passes over the corpus until the job's seconds are used up.  Outputs of
every pass must match the first byte for byte.  Between commands, about
every PROBE_EVERY_S seconds and outside every command's timing, the run
measures the host's speed with a fixed Fraction loop (HostProbe).  With
"trace", one traced pass follows, without probes; its wall time minus
the first pass's is the tracing overhead, and its outputs must equal the
first pass's.

The worker imports no sympy itself, so its peak RSS is what the program
needs; diffalg imports sympy lazily when a command factors.  The peak is
read from VmHWM, not getrusage: on Linux ru_maxrss survives exec, so it
would report the parent's peak (run.py has sympy and the corpus loaded)
whenever that is the larger.
"""

import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _run_one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = cli.run(argv, out, err)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _pass_commands(cli, argvs, probe):
    """Each command through cli.run; per-command latency and output."""
    lat, results = [], []
    for argv in argvs:
        probe()
        dt, code, out, err = _run_one(cli, argv)
        lat.append(dt)
        results.append((code, out, err))
    return lat, results


class _TimedLines:
    """stdin for batch mode that timestamps each line as the loop pulls it.

    Pulling line i+1 ends line i; the probe runs after that stamp and
    before line i+1's start stamp, so no line's latency includes it.
    """

    def __init__(self, lines, sink, probe):
        self.lines = lines
        self.sink = sink
        self.probe = probe
        self.starts = []    # (perf_counter, output position) per line pulled
        self.ends = []      # perf_counter when the line after it was pulled

    def __iter__(self):
        for line in self.lines:
            if self.starts:
                self.ends.append(time.perf_counter())
            self.probe()
            self.starts.append((time.perf_counter(), self.sink.tell()))
            yield line + "\n"


def _pass_batch(cli, lines, probe):
    """The whole corpus as one stdin batch through cli.main([])."""
    out, err = io.StringIO(), io.StringIO()
    stdin = _TimedLines(lines, out, probe)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, out, err
    try:
        code = cli.main([])
        stdin.ends.append(time.perf_counter())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    text = out.getvalue()
    positions = [p for _, p in stdin.starts] + [len(text)]
    lat, results = [], []
    for i, (t0, p0) in enumerate(stdin.starts):
        lat.append(stdin.ends[i] - t0)
        last = i == len(stdin.starts) - 1
        results.append((code if last else 0, text[p0:positions[i + 1]],
                        err.getvalue() if last else ""))
    # lines the batch never reached have no output and no latency
    return lat, results


def _timed_pass(cli, job, probe=lambda: None):
    if job["batch"]:
        return _pass_batch(cli, job["lines"], probe)
    return _pass_commands(cli, job["argvs"], probe)


def _warm_up(cli, job):
    seen = set()
    for argv in job["argvs"]:
        if argv[0] not in seen:
            seen.add(argv[0])
            _run_one(cli, argv)


PROBE_EVERY_S = 1.0
PROBE_ROUNDS = 20     # about 50 ms, 5% of a run


def probe_seconds(rounds=PROBE_ROUNDS):
    """Time of a fixed Fraction loop that does not touch diffalg."""
    start = time.perf_counter()
    for _ in range(rounds):
        a = Fraction(1, 3)
        for i in range(1, 500):
            a = a * Fraction(i, i + 1) + 1
    return time.perf_counter() - start


class HostProbe:
    """Host speed sampled through a run, for run.py to scale times by.

    On a shared host the same pass can take 1.8x as long a minute later,
    and speed flickers by 1.5x within a second.  A probe of this length
    every second, summed over the run, follows the host's average speed
    over the same seconds as the commands; two probes at the start and
    end of a run, or the median of short ones, do not.
    """

    def __init__(self):
        self.seconds = [probe_seconds()]
        self.due = time.perf_counter() + PROBE_EVERY_S

    def __call__(self):
        if time.perf_counter() >= self.due:
            self.seconds.append(probe_seconds())
            self.due = time.perf_counter() + PROBE_EVERY_S

    def rate(self):
        """Probe rounds per second over the whole run."""
        return PROBE_ROUNDS * len(self.seconds) / sum(self.seconds)


def peak_rss_mb():
    """This process's resident-set high-water mark, which exec restarts."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(job):
    import diffalg.cli as cli

    _warm_up(cli, job)
    # a traced run reports no times to scale, and its overhead figure
    # compares against an untimed pass that must not include probes
    probe = None if job["trace"] else HostProbe()
    passes, first, mismatched = [], None, set()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        lat, results = _timed_pass(cli, job, probe or (lambda: None))
        passes.append({"wall": time.perf_counter() - t0, "latency": lat})
        if first is None:
            first = results
        else:
            mismatched.update(i for i, r in enumerate(results)
                              if i >= len(first) or r != first[i])
            mismatched.update(range(len(results), len(first)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > job["seconds"]:
            break
    result = {"passes": passes, "results": first,
              "mismatched": sorted(mismatched), "probe_rate": probe.rate() if probe else None,
              "probes": len(probe.seconds) if probe else 0}
    if job["trace"]:
        result["trace"] = _traced(cli, job, first, passes[0]["wall"])
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _traced(cli, job, reference, untraced):
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        with tr.window() as window:
            _, results = _timed_pass(cli, job)
    finally:
        tr.uninstall()
    return {"metrics": tr.metrics(window, untraced),
            "same_output": results == reference,
            "restored": tr.restored()}


def setup(argv):
    import diffalg.cli as cli

    _run_one(cli, argv)
    return time.monotonic()


def main():
    if sys.argv[1] == "setup":
        print(repr(setup(json.loads(sys.argv[2]))))
        return 0
    job = json.load(sys.stdin)
    json.dump(run(job), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
