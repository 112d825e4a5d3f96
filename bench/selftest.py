"""Smoke-size self-test of the benchmark; runs in well under a minute.

    python3 bench/selftest.py

Checks that:

* every run mode emits exactly the metrics that ``BENCHMARK.json``
  declares, with their units, and answers every op correctly;
* the same seed gives the same input fingerprint, another seed another;
* a deliberately wrong oracle answer raises ``failed_frac``;
* without the sources next to it, the command fails and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
from run import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / f"selftest-{os.getpid()}"
SMOKE = ["--seed", "3", "--seconds", "1", "--ops", "10"]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_command(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metric_names() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {d["name"]: d["unit"] for d in declared[key]}
        for workload in WORKLOADS:
            proc = run_command(["--workload", workload, "--trace",
                                str(trace), *SMOKE])
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what} exits 0: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what} emits every declared metric "
                  f"(missing {sorted(set(want) - set(got))})")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 10, f"{what} answers correctly")


def check_fingerprints_and_oracle() -> None:
    run.pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    def build(name, seed, tag):
        return workloads.build(name, seed, str(SCRATCH / f"{name}-{tag}"),
                               str(ROOT / "src"), 10)

    def spoil(wl):
        """Flip the expected answer of the first op prepared."""
        prepare, prepared = wl.prepare, []

        def spoiled(item):
            op = prepare(item)
            if not prepared:
                if wl.name == "congruence":
                    op.congruent = not op.congruent
                elif wl.name == "triangle-grid":
                    op.exists = not op.exists
                else:
                    op.exit_code = 1 - op.exit_code
            prepared.append(op)
            return op
        wl.prepare = spoiled

    for name in WORKLOADS:
        first = build(name, 5, "first")
        again = build(name, 5, "again")
        other = build(name, 6, "other")
        check(first.fingerprint == again.fingerprint,
              f"{name}: same seed, same input fingerprint")
        check(first.fingerprint != other.fingerprint,
              f"{name}: another seed, another input fingerprint")
        spoil(first)
        tally = harness.Tally()
        harness.closed_loop(first, tally, 1.0, len(first.ops))
        check(tally.failed == 1 and tally.attempted == len(first.ops),
              f"{name}: a wrong oracle answer counts as failed "
              f"(failed_frac {tally.failed}/{tally.attempted})")
        for wl in (first, again, other):
            wl.cleanup()


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_command(["--workload", "congruence", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without src/ the command fails and prints no result")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        check_metric_names()
        check_fingerprints_and_oracle()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
