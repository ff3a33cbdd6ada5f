"""catmon benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload um_sweep --seed 1 --seconds 20 \
        --trace 0

Run it from the root of a catmon source checkout; it imports catmon from
``src/``.  One client sends requests in a closed loop on one thread: each
request starts when the previous one has returned.

With ``--trace 0`` the request list is replayed for ``--seconds`` seconds
and the end-to-end metrics are reported.  With ``--trace 1`` the first
``trace_cycles`` cycles of the list run once untraced and once under the
span recorder, and the per-layer metrics are reported; the traced run does a
fixed amount of work so that its counts repeat exactly for a seed.

Times are reported at a fixed reference speed.  The speed of a shared
machine drifts by up to half over seconds to minutes, and every wall time
drifts with it.  So the loop times a fixed pure-Python reference loop every
REF_EVERY_NS, and each request's wall time is scaled by REF_NOMINAL_NS over
the latest reference time: the result reads as the time on a machine where
the reference loop takes REF_NOMINAL_NS.  Set-up reps are scaled the same
way.  The text lines also print the unscaled wall-clock figures.

Outputs are checked after the timed loop, once per distinct request of the
list; ``attempted`` and ``failed`` count those distinct requests, so they
repeat exactly for a seed however many times the loop went round.  A
request that raises (or, for the CLI, exits 2) is a failed request; one whose
output fails its check is a failed request and makes ``correct`` false.
Neither stops the run.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the line before it records
provenance.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 9
MODULES = ("universal", "category", "poset", "interval", "spindle",
           "complexes", "homotopy", "presentations", "presented", "groups",
           "formats", "cli", "errors")
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, 'src'); import catmon, catmon.cli; "
                "print(time.perf_counter() - t)")
REF_NOMINAL_NS = 250_000
REF_EVERY_NS = 50_000_000
UNITS = {"requests_per_s": "1/s", "request_p50_ms": "ms",
         "request_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_ratio": "ratio"}


def load_catmon():
    if not (ROOT / "src" / "catmon" / "__init__.py").is_file():
        sys.exit(f"error: no catmon sources under {ROOT / 'src'}; run from "
                 "a catmon checkout")
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("catmon")
    return SimpleNamespace(package=package, **{
        name: importlib.import_module(f"catmon.{name}") for name in MODULES})


def cold_import_s():
    """Seconds a fresh interpreter spends importing catmon and its CLI."""
    done = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout)


def reference_ns():
    """The machine's speed now: median of three timings of a fixed loop."""
    times = []
    for _ in range(3):
        start = perf_counter_ns()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        times.append(perf_counter_ns() - start)
    return sorted(times)[1]


def set_up(cls, mods, seed, workdir):
    """Build the workload SETUP_REPS times; return the last one, the median
    set-up time at reference speed and the median wall time (cold import +
    input generation, file loading and warm-up)."""
    scaled, wall = [], []
    for _ in range(SETUP_REPS):
        before = reference_ns()
        imported = cold_import_s()
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workload = cls(mods, seed, ROOT, workdir)
        workload.warm_up()
        took = imported + perf_counter() - start
        wall.append(took)
        scaled.append(took * 2 * REF_NOMINAL_NS
                      / (before + reference_ns()))
    return workload, statistics.median(scaled), statistics.median(wall)


class Run:
    """Latencies and per-request outcomes of one pass of the loop."""

    def __init__(self, n):
        self.latency_ns = []
        self.scaled_ns = []          # latency at reference speed
        self.attempts = [0] * n
        self.failed_runs = [0] * n
        self.first = [None] * n      # (output, exception) of first attempt
        self.wall_s = 0.0


def drive(workload, max_requests=None, seconds=None, rec=None):
    """Closed loop over the request list, cycling until max_requests have
    run or `seconds` have passed."""
    reqs = workload.requests
    run = Run(len(reqs))
    lat, scaled, attempts, failed_runs, first = (
        run.latency_ns, run.scaled_ns, run.attempts, run.failed_runs,
        run.first)
    failed_run = workload.failed_run
    gc.collect()
    gc.freeze()
    scale = REF_NOMINAL_NS / reference_ns()
    begin = perf_counter_ns()
    next_ref = begin + REF_EVERY_NS
    deadline = None if seconds is None else begin + int(seconds * 1e9)
    i = 0
    while True:
        k = i % len(reqs)
        req = reqs[k]
        if rec is not None:
            rec.begin_request(k)
        exc = None
        t0 = perf_counter_ns()
        try:
            out = req.op(*req.args)
        except Exception as e:  # the loop must go on; counted as failed
            out, exc = None, e
        t1 = perf_counter_ns()
        lat.append(t1 - t0)
        scaled.append((t1 - t0) * scale)
        attempts[k] += 1
        if exc is not None or failed_run(out):
            failed_runs[k] += 1
        if first[k] is None:
            first[k] = (out, exc)
        i += 1
        if (max_requests is not None and i >= max_requests) or \
                (deadline is not None and t1 >= deadline):
            break
        if t1 >= next_ref:
            scale = REF_NOMINAL_NS / reference_ns()
            next_ref = perf_counter_ns() + REF_EVERY_NS
    run.wall_s = (t1 - begin) / 1e9
    return run


def verify(workload, run):
    """Check every request of the list once: its first output in the loop,
    or one untimed call for a request the loop never reached.  A request
    fails when any of its calls raised or reported failure, or when its
    output fails its check.  attempted and failed count the distinct
    requests of the list, so they depend on the seed alone, not on how many
    times the loop went round.  Returns (correct, attempted, failed,
    per-kind report)."""
    bad = {}
    failed_ks = set()
    reasons = {}
    for k, req in enumerate(workload.requests):
        outcome = run.first[k]
        if outcome is None:
            try:
                outcome = (req.op(*req.args), None)
            except Exception as e:  # counted as failed, like in the loop
                outcome = (None, e)
        out, exc = outcome
        if exc is not None:
            failed_ks.add(k)
            reasons.setdefault(req.kind, f"{type(exc).__name__}: {exc}")
            continue
        if run.failed_runs[k] or workload.failed_run(out):
            failed_ks.add(k)
            reasons.setdefault(req.kind, f"failed run: {out!r}"[:200])
            continue
        try:
            reason = workload.check(req, out)
        except Exception as e:  # a crashing check is a failed check
            reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            bad[k] = reason
            failed_ks.add(k)
            reasons.setdefault(req.kind, f"check failed: {reason}")
    n = len(workload.requests)
    kinds = {}
    for k, req in enumerate(workload.requests):
        row = kinds.setdefault(req.kind, [0, 0, None, 0, 0])
        row[0] += 1
        row[1] += k in failed_ks
        row[3] += run.attempts[k]
    for i, ns in enumerate(run.latency_ns):
        kinds[workload.requests[i % n].kind][4] += ns
    for kind, row in kinds.items():
        if row[1]:
            row[2] = reasons[kind]
    return not bad, n, len(failed_ks), kinds


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def latency_summary(lat_ns, busy_s):
    """(requests per second, p50 ms, p99 ms) of one list of latencies."""
    return (len(lat_ns) / busy_s, statistics.median(lat_ns) / 1e6,
            statistics.quantiles(lat_ns, n=100)[98] / 1e6)


def end_to_end(run, cycle_len, setup_s, attempted, failed):
    """Time metrics at reference speed.  Throughput is the median, over the
    whole cycles of the loop, of a cycle's requests over the scaled time
    spent in them: every cycle has the same mix, and the median drops the
    cycles that a burst of load on a shared machine slowed down."""
    scaled = run.scaled_ns
    rps, p50, p99 = latency_summary(scaled, sum(scaled) / 1e9)
    rates = [cycle_len * 1e9 / sum(scaled[i:i + cycle_len])
             for i in range(0, len(scaled) - cycle_len + 1, cycle_len)]
    if rates:
        rps = statistics.median(rates)
    return {
        "requests_per_s": rps,
        "request_p50_ms": p50,
        "request_p99_ms": p99,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "ok_ratio": 1 - failed / attempted,
    }


def write_spans(name, seed, rec):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.json"
    fields = ("id", "name", "start_ns", "end_ns", "parent", "request")
    agg = [{"request": r, "name": n, "calls": c, "total_ns": t, "self_ns": s}
           for (r, n), (c, t, s) in sorted(rec.agg.items())]
    path.write_text(json.dumps({
        "spans": [dict(zip(fields, s)) for s in rec.spans],
        "aggregates": agg}))
    return path


def main(argv=None):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    os.chdir(ROOT)
    why = next(w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]
        if w["name"] == args.workload)
    mods = load_catmon()
    cls = wl.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload, setup_s, setup_wall_s = set_up(cls, mods, args.seed,
                                                 workdir)
        if args.trace:
            import spans as tr
            n = workload.trace_cycles * workload.cycle_len
            untraced = drive(workload, max_requests=n)
            rec = tr.Recorder()
            tracer = tr.Tracer(mods, rec)
            try:
                run = drive(workload, max_requests=n, rec=rec)
            finally:
                tracer.uninstall()
            metrics = tr.layer_metrics(rec, run.wall_s, untraced.wall_s)
            spans_path = write_spans(args.workload, args.seed, rec)
        else:
            run = drive(workload, seconds=args.seconds)
        correct, attempted, failed, kinds = verify(workload, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed requests {len(run.latency_ns)} in {run.wall_s:.3f} s  "
          f"(list of {attempted}, cycle {workload.cycle_len})")
    for kind, (n, bad, reason, calls, ns) in sorted(kinds.items()):
        mean = f"{ns / calls / 1e6:9.3f} ms" if calls else "   untimed"
        line = (f"  check {kind:<20} {n:>5} requests  {bad:>4} failed  "
                f"{calls:>7} timed calls  mean {mean}")
        print(line + (f"  [{reason}]" if reason else ""))
    print(f"  correct {correct}  fail_ratio {failed / attempted:.6f}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        out_metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}
    else:
        values = end_to_end(run, workload.cycle_len, setup_s,
                            attempted, failed)
        rps, p50, p99 = latency_summary(run.latency_ns, run.wall_s)
        print(f"  wall clock, unscaled: {rps:.6g} requests/s  p50 "
              f"{p50:.6g} ms  p99 {p99:.6g} ms  setup {setup_wall_s:.6g} s")
        out_metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in values.items()}
    for k, m in out_metrics.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    print(json.dumps({"provenance": {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "clients": 1, "loop": "closed",
        "setup_reps": SETUP_REPS,
        "units": {k: m["unit"] for k, m in out_metrics.items()}}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
