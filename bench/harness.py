"""The benchmark's measuring loops, traced run and report.

``run.py`` is the command; it pins the thread variables, times the
imports and calls ``main`` here.  The self-test calls the pieces directly.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import io
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PERCENTILES = (("op_p50_ms", 50.0), ("op_p90_ms", 90.0), ("op_p99_ms", 99.0))
WARMUP_OPS = 5
PROBE_REPS = 7
SETUP_REPS = 3
# Room for the latencies of this many ops per second, taken up front.
MAX_OPS_PER_S = 10_000

# The CPU speed of a shared virtual machine drifts by up to +-20% over
# seconds to minutes, more than the changes the benchmark is meant to show.
# So a reference that does not touch hqmoduli is timed between ops, and
# each op time is scaled by (the reference's nominal time) / (median of the
# reference times nearest to it): it reads as on a machine where the
# reference takes its nominal time, its typical time on the machine of the
# first baseline.  Scaling by the nearest samples, not by the run's median,
# follows the drift inside a run as well as between runs.
#
# In-process ops use a calibration kernel of interpreter and small-numpy
# work, at most every CALIBRATE_EVERY_S; it also runs before each input
# build, which is scaled the same way.  The kernel does not track the cost
# of starting a process, so the ops of cli-oneshot, which each start one,
# use the start of a bare interpreter instead, at most every RESTART_EVERY_S.
REF_KERNEL_S = 2.5e-4
REF_START_S = 0.06
CALIBRATE_EVERY_S = 0.02
RESTART_EVERY_S = 0.5
NEAREST_SAMPLES = 10
SETUP_CALIBRATIONS = 25
_REF_MATRIX = numpy.full((3, 3), 0.5 + 0.5j)


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work,
    like the library's own mix."""
    start = time.perf_counter()
    x = 0.0
    for i in range(2000):
        x += i * 0.5
    a = _REF_MATRIX
    for _ in range(30):
        a = (a @ _REF_MATRIX) / abs(a[0, 0])
    return time.perf_counter() - start


def calibrate(n: int) -> list[float]:
    """Times of n kernel runs, after one more run that warms the caches
    an op has just evicted."""
    return [calibration_kernel() for _ in range(n + 1)][1:]


def interpreter_start() -> float:
    """Seconds to start and stop a bare interpreter (`python -c pass`)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def reference(wl):
    """(timing function, nominal seconds, seconds between samples) of the
    reference for the ops of `wl`."""
    if wl.run_inprocess is None:
        return (lambda: calibrate(1)[0]), REF_KERNEL_S, CALIBRATE_EVERY_S
    return interpreter_start, REF_START_S, RESTART_EVERY_S


def speed_factors(n_ops: int, ref_ops, ref_s, nominal: float):
    """nominal / the median of the NEAREST_SAMPLES reference times around
    each of n_ops ops (ref_ops holds the number of ops done when each
    reference time was taken)."""
    half = NEAREST_SAMPLES // 2
    rolling = numpy.array([statistics.median(ref_s[max(0, j - half):j + half])
                           for j in range(len(ref_s))])
    after = numpy.searchsorted(ref_ops, numpy.arange(n_ops), side="right")
    return nominal / rolling[numpy.minimum(after, len(rolling) - 1)]


def input_medians(ms, inputs):
    """The median latency of each distinct input over its ops in the run
    (inputs[i] is the pool index of op i)."""
    order = numpy.argsort(inputs, kind="stable")
    _, starts = numpy.unique(inputs[order], return_index=True)
    return [float(numpy.median(g))
            for g in numpy.split(ms[order], starts[1:])]


def percentile(samples, pct: float):
    """The pct-th percentile by nearest rank, lowered to the highest one
    with at least ten samples beyond it (never below the median).
    Returns (value, effective percentile, samples beyond it)."""
    xs = sorted(samples)
    n = len(xs)
    q = max(0.5, min(pct / 100.0, 1.0 - 10.0 / n))
    k = min(n - 1, max(0, math.ceil(q * n) - 1))
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


# ---------------------------------------------------------------------------
# loops

class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, fn, op) -> None:
        self.attempted += 1
        try:
            ok = fn(op)
            reason = "wrong answer"
        except Exception as exc:  # a failing op is counted; the run goes on
            ok = False
            reason = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{getattr(op, 'label', op)}: {reason}")


def closed_loop(wl, tally: Tally, seconds: float, ops: int | None):
    """Run ops back to back from the start of the pool, after a short
    warm-up; stop after `ops` ops or once `seconds` have passed.  Each op
    is prepared before its timer starts.  The reference is timed at the
    start, between ops and at the end.  Returns (per-op latencies in s,
    the pool index of each op, the number of ops done when each reference
    time was taken, the reference times in s)."""
    pool, prepare, clock = wl.ops, wl.prepare, time.perf_counter
    timing, _, every = reference(wl)
    index = 0 if ops else min(WARMUP_OPS, len(pool))
    for item in pool[:index]:
        tally.run(wl.run, prepare(item))
    # Filled in now, so that the memory the loop holds does not grow with
    # the op rate and move peak_rss_mb.
    latencies = numpy.ones(ops or int(seconds * MAX_OPS_PER_S) + 1)
    first, done, ref_ops, ref_s = index, 0, [], []
    last_sample = clock()

    def sample():
        nonlocal last_sample
        ref_s.append(timing())
        ref_ops.append(done)
        last_sample = clock()

    sample()
    deadline = clock() + seconds
    while True:
        op = prepare(pool[index % len(pool)])
        t0 = clock()
        tally.run(wl.run, op)
        t1 = clock()
        if done == len(latencies):
            latencies = numpy.concatenate((latencies, latencies))
        latencies[done] = t1 - t0
        done += 1
        index += 1
        if (done >= ops) if ops is not None else (t1 >= deadline):
            sample()
            inputs = (first + numpy.arange(done)) % len(pool)
            return latencies[:done], inputs, ref_ops, ref_s
        if t1 - last_sample >= every:
            sample()


def one_pass(run, ops, tally: Tally) -> float:
    start = time.perf_counter()
    for op in ops:
        tally.run(run, op)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# setup

def pool_size(args) -> int | None:
    """None, for the workload's default pool; with `--ops N`, N when that
    is smaller than the default."""
    return args.ops and min(args.ops, workloads.POOL[args.workload])


def setup(args, tracer_factory=None):
    """Build the workload SETUP_REPS times from the same seed, running the
    calibration kernel before each build and dropping each build before
    the next, so that only one pool is ever held.  Returns (workload,
    build times, speed factor of each build, sampling times,
    fingerprints)."""
    times, speeds, sampling, prints = [], [], [], []
    wl = None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.cleanup()
            wl = None
            gc.collect()
        speeds.append(REF_KERNEL_S /
                      statistics.median(calibrate(SETUP_CALIBRATIONS)))
        tracer = tracer_factory() if tracer_factory else None
        start = time.perf_counter()
        try:
            wl = workloads.build(
                args.workload, args.seed,
                str(OUT / f"inputs-{args.workload}-{os.getpid()}"), str(SRC),
                pool_size(args))
        finally:
            if tracer:
                tracer.uninstall()
        times.append(time.perf_counter() - start)
        if tracer:
            sampling.append(sum(tracer.self_time.values()))
        prints.append(wl.fingerprint)
    return wl, times, speeds, sampling, prints


# ---------------------------------------------------------------------------
# traced run

def cli_probes(args) -> dict:
    """Interpreter start, `import hqmoduli.cli` and in-process
    `cli.main(argv)` per subcommand, in ms (medians)."""
    env = workloads.cli_env(str(SRC))

    def wall(argv):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - start

    interp = statistics.median(wall(["-c", "pass"])
                               for _ in range(PROBE_REPS))
    imported = statistics.median(wall(["-c", "import hqmoduli.cli"])
                                 for _ in range(PROBE_REPS))
    probe_dir = OUT / f"probe-{os.getpid()}"
    calls = workloads.build_cli_oneshot(args.seed, str(probe_dir), str(SRC),
                                        len(workloads.CLI_SUBCOMMANDS))
    try:
        per_sub = {}
        for call in calls.ops:
            runs = []
            for _ in range(PROBE_REPS):
                start = time.perf_counter()
                ok = workloads.cli_answer_inprocess(call)
                runs.append(time.perf_counter() - start)
                if not ok:
                    raise RuntimeError(f"in-process CLI probe failed: "
                                       f"{call.label}")
            per_sub[call.argv[1]] = 1e3 * statistics.median(runs)
    finally:
        calls.cleanup()
    return {"interpreter_ms": 1e3 * interp,
            "import_ms": 1e3 * (imported - interp),
            "main_ms": statistics.fmean(per_sub.values()),
            "main_ms_by_subcommand": per_sub}


def traced_run(wl, args, tally: Tally):
    """Alternate untraced and traced passes over one period of the mix
    until `args.seconds` have passed (at least two of each), then one
    cProfile pass.  Counts come from the traced passes."""
    run = wl.run_inprocess or wl.run
    ops = [wl.prepare(item) for item in wl.ops[:args.ops or wl.period]]
    one_pass(run, ops[:WARMUP_OPS], Tally())
    plain, traced = [], []
    tracer = layers.Tracer([workloads])
    deadline = time.perf_counter() + args.seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        plain.append(one_pass(run, ops, tally))
        tracer.install()
        try:
            traced.append(one_pass(run, ops, tally))
        finally:
            tracer.uninstall()
        if args.ops:
            break
    profile = cProfile.Profile()
    profile.enable()
    one_pass(run, ops, Tally())
    profile.disable()
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats("tottime").print_stats(10)
    return tracer, len(traced) * len(ops), plain, traced, text.getvalue()


def layer_metrics(tracer, n_ops: int) -> dict:
    per_op = {}
    for module, attr in layers.COUNTED + layers.TIMED:
        key = layers.layer_name(module, attr)
        if key in tracer.missing:
            continue
        per_op[f"{key}.calls_per_op"] = tracer.calls[key] / n_ops
        if (module, attr) in layers.TIMED:
            per_op[f"{key}.ms_per_op"] = 1e3 * tracer.total[key] / n_ops
            per_op[f"{key}.self_ms_per_op"] = \
                1e3 * tracer.self_time[key] / n_ops
    return per_op


# ---------------------------------------------------------------------------
# reporting

def environment(args, pool: int, fingerprint: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "hqmoduli").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_commit": commit,
            "src_sha256": src_hash.hexdigest(),
            "threads": {k: v for k, v in os.environ.items()
                        if k.endswith("_NUM_THREADS")},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops": args.ops, "pool": pool, "setup_reps": SETUP_REPS,
            "input_fingerprint": fingerprint}


def peak_rss_mb(wl) -> float:
    """Peak resident memory in MiB of the process that does the math: the
    CLI processes for cli-oneshot, this process otherwise."""
    if wl.child_rss_mb:
        return max(wl.child_rss_mb)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(args, import_s: float) -> int:
    OUT.mkdir(exist_ok=True)

    def sampling_tracer():
        return layers.Tracer([workloads]).install(counted=(),
                                                  timed=layers.SAMPLING)

    wl, build_s, build_speed, sampling_s, prints = setup(
        args, sampling_tracer if args.trace else None)
    # The input pool belongs to the benchmark, not to the library: keep the
    # cyclic garbage collector from walking it during the ops.
    gc.collect()
    gc.freeze()
    tally = Tally()
    details = {"setup_build_s": build_s, "import_s": import_s,
               "fingerprints_agree": len(set(prints)) == 1}
    try:
        if args.trace:
            probes = cli_probes(args)
            tracer, n_ops, plain, traced, profile = traced_run(wl, args,
                                                               tally)
            metrics = layer_metrics(tracer, n_ops)
            metrics.update({
                "cli.interpreter_ms": probes["interpreter_ms"],
                "cli.import_ms": probes["import_ms"],
                "cli.main_ms": probes["main_ms"],
                "sampling.self_s": float(statistics.median(sampling_s)),
                "trace.overhead_frac":
                    1.0 - statistics.median(plain) / statistics.median(traced),
            })
            details.update(cli_main_ms=probes["main_ms_by_subcommand"],
                           pass_ops=n_ops // len(traced),
                           untraced_pass_s=plain, traced_pass_s=traced,
                           missing=tracer.missing)
            profile_path = OUT / f"profile-{args.workload}-seed{args.seed}.txt"
            profile_path.write_text(profile)
            if tracer.missing:
                sys.stderr.write(f"not traced (missing): {tracer.missing}\n")
        else:
            latencies, inputs, ref_ops, ref_s = closed_loop(
                wl, tally, args.seconds, args.ops)
            factors = speed_factors(len(latencies), ref_ops, ref_s,
                                    reference(wl)[1])
            raw_ms = 1e3 * latencies
            ms = raw_ms * factors
            builds = [t * f for t, f in zip(build_s, build_speed)]
            raw = {"ops_per_s": 1e3 * len(raw_ms) / raw_ms.sum(),
                   "setup_s": import_s + statistics.median(build_s)}
            metrics = {"ops_per_s": 1e3 * len(ms) / ms.sum(),
                       "setup_s": (import_s * build_speed[0]
                                   + statistics.median(builds)),
                       "peak_rss_mb": peak_rss_mb(wl)}
            # Latency percentiles are taken over the inputs, each at the
            # median of its ops: a burst of host noise slows a few ops, not
            # the median of an input that recurs.  The plain percentiles
            # over the ops stay in the record.
            by_input = input_medians(ms, inputs)
            raw_by_input = input_medians(raw_ms, inputs)
            per_op = {}
            for name, pct in PERCENTILES:
                metrics[name], eff, beyond = percentile(by_input, pct)
                raw[name] = percentile(raw_by_input, pct)[0]
                per_op[name] = percentile(ms, pct)[0]
                details[name] = {"percentile": eff, "inputs": len(by_input),
                                 "ops": len(ms), "beyond": beyond}
            details.update(raw=raw, per_op=per_op,
                           reference_s=statistics.median(ref_s),
                           reference_runs=len(ref_s),
                           build_speed=build_speed)
    finally:
        wl.cleanup()
    correct = tally.failed == 0 and details["fingerprints_agree"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    details.update(failed_frac=tally.failed / tally.attempted,
                   failures=tally.failures,
                   undeclared={k: v for k, v in metrics.items()
                               if k not in {d["name"] for d in declared}})
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {d["name"]: {"value": metrics[d["name"]],
                                      "unit": d["unit"]}
                          for d in declared if d["name"] in metrics}}
    record = {"environment": environment(args, len(wl.ops), prints[0]),
              "details": details, "result": result}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"inputs {prints[0][:16]}, python {platform.python_version()}, "
          f"{os.cpu_count()} cpus, threads pinned to 1")
    for name, entry in result["metrics"].items():
        note = ""
        if name in details.get("raw", {}):
            note += f"  (raw {details['raw'][name]:.6g})"
        if name in dict(PERCENTILES):
            extra = details[name]
            note += (f"  (p{extra['percentile']:.1f} of {extra['inputs']} "
                     f"inputs over {extra['ops']} ops, {extra['beyond']} "
                     f"beyond)")
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"{'failed_frac':48s} {details['failed_frac']:.6g} "
          f"({tally.failed} of {tally.attempted})")
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0
