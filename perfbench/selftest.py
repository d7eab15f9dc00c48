#!/usr/bin/env python3
"""Self-tests of the cloud benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Builds the benchmark (see run.py), then:

- runs phase_test: ordered lease milestones split into parts that
  tile submit -> bare metal exactly, tick for tick, and missing or
  out-of-order milestones are rejected;
- for every workload in BENCHMARK.json, runs one round with seed 1
  twice untraced and once traced, and once with a held-out seed:
  every run passes its correctness gate with no failed operation,
  reports exactly the metric names BENCHMARK.json lists, the two
  untraced runs agree on every simulated metric and fingerprint, and
  the traced run's simulated fingerprint equals the untraced one.

Exit status 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

HELD_OUT_SEED = 9001


def main():
    out = run.build()
    records = out / "selftest"
    records.mkdir(exist_ok=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    check(subprocess.run([str(out / "phase_test")]).returncode == 0,
          "lease phase check and split")

    def bench_run(workload, seed, trace, tag):
        d = records / tag
        d.mkdir(exist_ok=True)
        cmd = [str(out / "cloudbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0.1",
               "--trace", str(trace), "--out", str(d)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        rec = json.loads(
            (d / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        ok = (r.returncode == 0 and result["correct"]
              and result["failed"] == 0 and result["attempted"] > 0)
        check(ok, f"{workload} seed {seed} trace {trace} ({tag}): "
                  f"correct, {result['failed']} of "
                  f"{result['attempted']} operations failed")
        names = set(result["metrics"])
        check(names == (layer if trace else e2e),
              f"{workload} trace {trace} reports the BENCHMARK.json "
              f"metrics")
        return rec

    for w in (x["name"] for x in bench["workloads"]):
        a = bench_run(w, 1, 0, "a")
        b = bench_run(w, 1, 0, "b")
        t = bench_run(w, 1, 1, "traced")
        bench_run(w, HELD_OUT_SEED, 0, "held-out")
        check(a["simulated"] == b["simulated"]
              and a["fingerprint"] == b["fingerprint"],
              f"{w}: same seed, identical simulated metrics and "
              f"fingerprint {a['fingerprint']}")
        check(t["fingerprint"] == a["fingerprint"]
              and t["simulated"] == a["simulated"],
              f"{w}: traced run simulates exactly what the untraced "
              f"run does")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
