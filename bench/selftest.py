"""Self-test of the benchmark's own machinery.  Run from the repo root:

    python3 bench/selftest.py

Checks that corpora are deterministic, that the oracle accepts diffalg's
real answers and rejects corrupted ones (one changed digit, true for
false), and that a traced pass gives byte-identical outputs and leaves
every patched attribute as it found it, and that the worker's peak RSS
is its own.  Prints one line per check and
exits 1 if any fails.
"""

import io
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import diffalg.cli as cli  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

FAILURES = []


def _expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def _answer(cmd):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(cmd.argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _sample(seed=0):
    """A few commands of every verb, cheap enough for a quick test."""
    picked, seen = [], {}
    for name, make in corpus.WORKLOADS.items():
        for cmd in make(seed):
            key = (cmd.verb, cmd.expect.get("member"), cmd.expect.get("group"))
            if seen.get(key, 0) < 2 and _cheap(cmd):
                seen[key] = seen.get(key, 0) + 1
                picked.append(cmd)
    return picked


def _cheap(cmd):
    e = cmd.expect
    return (e.get("gap", 0) <= 2 and e.get("k", 0) <= 4
            and e.get("precision", 0) <= 32 and e.get("n", 0) <= 3)


def _corrupt(out):
    """Change the last digit, or swap true and false."""
    if "true" in out:
        return out.replace("true", "false", 1)
    if "false" in out:
        return out.replace("false", "true", 1)
    digits = [m.start() for m in re.finditer(r"[1-8]", out)]
    if not digits:
        return None
    i = digits[-1]
    return out[:i] + str(int(out[i]) + 1) + out[i + 1:]


def test_corpus_deterministic():
    for name, make in corpus.WORKLOADS.items():
        a, b, c = make(3), make(3), make(4)
        _expect([x.line for x in a] == [x.line for x in b], "%s: same seed, same corpus" % name)
        _expect([x.line for x in a] != [x.line for x in c], "%s: other seed, other corpus" % name)
        _expect(len(a) >= 200, "%s: at least 200 commands (p95 has 10 beyond it)" % name)


def test_oracle(sample):
    verbs = set()
    for cmd in sample:
        code, out, err = _answer(cmd)
        why = oracle.check(cmd, code, out, err)
        if why is not None:
            _expect(False, "oracle accepts %s: %s" % (cmd.line[:60], why))
            continue
        bad = _corrupt(out)
        if bad is None or bad == out:
            continue
        verbs.add(cmd.verb)
        if oracle.check(cmd, code, bad, err) is None:
            _expect(False, "oracle rejects corrupted %s -> %r" % (cmd.line[:60], bad[:80]))
        if oracle.check(cmd, 1, out, err) is None:
            _expect(False, "oracle rejects exit code 1 for %s" % cmd.verb)
    want = set(oracle._CHECKS)
    _expect(verbs == want, "oracle rejects a corrupted answer for every verb "
            "(missing: %s)" % sorted(want - verbs))


def test_tracer(sample):
    untraced = [_answer(cmd) for cmd in sample]
    tr = tracer.Tracer()
    originals = {name: getattr(cli, name) for name in dir(cli)}
    tr.install()
    try:
        import diffalg
        _expect(sys.modules["diffalg.cli"].wronskian is not originals["wronskian"]
                and diffalg.wronskian is sys.modules["diffalg.cli"].wronskian,
                "re-exported and imported names are both wrapped")
        with tr.window() as window:
            traced = [_answer(cmd) for cmd in sample]
    finally:
        tr.uninstall()
    _expect(traced == untraced, "traced outputs equal untraced outputs byte for byte")
    _expect(tr.restored(), "every patched attribute holds its original again")
    _expect(all(getattr(cli, n) is v for n, v in originals.items()),
            "cli namespace unchanged after uninstall")
    metrics = tr.metrics(window, window["wall"])
    _expect(set(metrics) == set(tracer.metric_names()), "metric set matches metric_names()")
    called = [p for p, *_ in tracer.SPANS if metrics[p + ".calls"] == 0]
    _expect(not called, "every span was reached by the sample (missing: %s)" % called)


def test_worker_peak_is_its_own():
    """On Linux ru_maxrss survives exec; the worker must report only its own peak."""
    ballast = b"\1" * (96 << 20)   # lifts this process's peak past any small worker's
    job = {"argvs": [["order", "x''"]], "lines": [], "batch": False,
           "trace": False, "seconds": 0}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "run"],
                          input=json.dumps(job), capture_output=True, text=True)
    del ballast
    peak = json.loads(proc.stdout)["peak_rss_mb"] if proc.returncode == 0 else None
    _expect(peak is not None and peak < 96,
            "worker reports its own peak RSS (%s MB), not its parent's" % peak)


def test_declared_metrics():
    import run
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    _expect(list(layer) == tracer.metric_names(),
            "BENCHMARK.json per_layer lists tracer.metric_names() in order")
    _expect(all(run._unit(n) == u for n, u in layer.items()),
            "per-layer units agree with run.py")
    e2e = [m["name"] for m in declared["end_to_end"]]
    _expect(sorted(e2e) == sorted(run.END_TO_END), "end_to_end names agree with run.py")
    _expect([w["name"] for w in declared["workloads"]] == list(corpus.WORKLOADS),
            "workloads agree with corpus.WORKLOADS")


def main():
    sample = _sample()
    test_declared_metrics()
    test_corpus_deterministic()
    test_oracle(sample)
    test_tracer(sample)
    test_worker_peak_is_its_own()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
