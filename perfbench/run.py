#!/usr/bin/env python3
"""End-to-end benchmark of GFlink-RS on both clocks.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Workloads: kmeans-cached, spmv-thrash, nexmark-mix (see perfbench/NOTES.md).

The script builds the `perfbench` binary from source, then runs it one
phase per process (see src/main.rs):

  --trace 0  end-to-end metrics with observability dark: repeated dark runs
             interleaved with repeated set-ups for `--seconds`, then one
             Flink CPU-engine baseline run and, for nexmark-mix, the
             sustained-rate ladder.
  --trace 1  per-layer metrics: dark and traced runs interleaved for
             `--seconds`. The traced runs' benchmark spans are written to
             <build dir>/perfbench/spans-<workload>-seed<N>.json.

Host-cost metrics are CPU seconds (all threads; time the host gives to
other guests is not counted), each scaled to a reference host speed by
reference work timed just before and just after it (src/calib.rs), and
reported as medians over the repeats. Simulated metrics must
repeat exactly across repeats and between dark and traced runs; a drift
is a determinism failure. Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
if the build or any phase fails, or if any correctness check fails.
"""

import argparse
import json
import os
import signal
from statistics import median
import struct
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ["kmeans-cached", "spmv-thrash", "nexmark-mix"]

# Seed for which the GFlink result digests are pinned.
DEFAULT_SEED = 42
PINNED = {
    "kmeans-cached": {"result": "40b1e0020f21e800"},
    "spmv-thrash": {"result": "c087e083a247d478"},
    "nexmark-mix": {
        "q6": "b7921bf195778287",
        "q6_watermarks": "0a837e95fb43729c",
        "q13": "f7e207914aaf570e",
        "q13_rows": "00000000000ac800",
    },
}
# Relative tolerance of batch digests against the Flink CPU engine (block-
# and partition-level partial sums accumulate in different orders).
BATCH_REL_TOL = 1e-3
# Set-ups per set-up phase; their median is one set-up sample.
SETUP_REPS = 51
# CPU seconds one unit of the reference work (src/calib.rs) takes at the
# reference host speed: about its median on the 2-vCPU Xeon host the
# benchmark was built on. Every timing is scaled by REF_UNIT_S over the
# median unit its own process measured.
REF_UNIT_S = 0.016
# After the build, a run never takes longer than this, whatever --seconds
# asks.
DEADLINE_S = 170.0
MIN_REPEATS = 3


class BenchError(Exception):
    """A build or phase failure: no result can be reported."""


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    path = Path(configured) if configured else ROOT / "perfbench" / "target"
    # Cargo runs from ROOT, so a relative target directory is under ROOT.
    return path if path.is_absolute() else ROOT / path


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    if (ROOT / "perfbench" / "Cargo.lock").exists():
        cmd.append("--locked")
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        raise BenchError("cargo build failed")
    binary = target_dir() / "release" / "perfbench"
    if not binary.is_file():
        raise BenchError(f"built binary not found at {binary}")
    return binary


class Runner:
    def __init__(self, binary, workload, seed, out_dir, deadline):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.deadline = deadline

    def phase(self, name, reps=1):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"deadline passed before phase {name}")
        cmd = [str(self.binary), name, "--workload", self.workload,
               "--seed", str(self.seed), "--reps", str(reps),
               "--out", str(self.out_dir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"phase {name} overran the deadline") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"phase {name} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_value(bits_hex):
    return struct.unpack("<d", int(bits_hex, 16).to_bytes(8, "little"))[0]


def rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class Checks:
    """Collects correctness failures; any failure makes the run incorrect."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def same_sim(self, runs):
        """Every simulated value and digest repeats exactly across runs."""
        first = runs[0]
        for i, run in enumerate(runs[1:], start=1):
            for key in first["sim"].keys() & run["sim"].keys():
                self.expect(first["sim"][key] == run["sim"][key],
                            f"run {i}: {key} drifted "
                            f"{first['sim'][key]!r} -> {run['sim'][key]!r}")
            self.expect(first["digests"] == run["digests"], f"run {i}: digests drifted")

    def against_baseline(self, workload, gflink, cpu):
        """GFlink's results agree with the Flink CPU engine's."""
        if workload == "nexmark-mix":
            for key, value in cpu.items():
                self.expect(gflink.get(key) == value,
                            f"{key} digest {gflink.get(key)} != CPU engine {value}")
        else:
            a = digest_value(gflink["result"])
            b = digest_value(cpu["result"])
            self.expect(rel_diff(a, b) <= BATCH_REL_TOL,
                        f"result {a!r} differs from CPU engine {b!r} "
                        f"by more than {BATCH_REL_TOL}")

    def pinned(self, workload, seed, digests):
        if seed != DEFAULT_SEED:
            return
        for key, value in PINNED[workload].items():
            self.expect(digests.get(key) == value,
                        f"{key} digest {digests.get(key)} != pinned {value}")


def at_ref_speed(phase, cpu_s):
    """CPU seconds measured by a phase, scaled to the reference host speed."""
    return cpu_s * phase["ref_scale"]


def set_ref_scales(phases):
    """Give each phase of a sequence its host-speed scale.

    A phase takes its reference samples just before its timed work, and
    the next phase takes its own just after it, so the scale uses both.
    """
    for i, p in enumerate(phases):
        samples = p["calib_s"] + (phases[i + 1]["calib_s"] if i + 1 < len(phases) else [])
        p["ref_scale"] = REF_UNIT_S / median(samples)


def run_dark(runner, seconds):
    """End-to-end metrics: dark runs interleaved with set-ups."""
    darks, setups, phases = [], [], []
    start = time.monotonic()
    while len(darks) < MIN_REPEATS or time.monotonic() - start < seconds:
        darks.append(runner.phase("dark"))
        setups.append(runner.phase("setup", SETUP_REPS))
        phases += [darks[-1], setups[-1]]
    set_ref_scales(phases)
    baseline = runner.phase("baseline")
    ladder = runner.phase("ladder") if runner.workload == "nexmark-mix" else None
    return darks, setups, baseline, ladder


def run_traced(runner, seconds):
    """Per-layer metrics: dark and traced runs interleaved."""
    darks, traced, phases = [], [], []
    start = time.monotonic()
    while len(darks) < MIN_REPEATS or time.monotonic() - start < seconds:
        darks.append(runner.phase("dark"))
        traced.append(runner.phase("traced"))
        phases += [darks[-1], traced[-1]]
    set_ref_scales(phases)
    return darks, traced


def end_to_end(darks, setups, ladder):
    sim = darks[0]["sim"]
    cpu = median([at_ref_speed(d, d["cpu_s"]) for d in darks])
    sustained = ladder["sim_sustained_eps"] if ladder else sim["sim_sustained_eps"]
    return {
        "sim_job_s": sim["sim_job_s"],
        "sim_emit_p50_ms": sim["sim_emit_p50_ms"],
        "sim_emit_p99_ms": sim["sim_emit_p99_ms"],
        "sim_sustained_eps": sustained,
        "run_cpu_s": cpu,
        "gworks_per_cpu_s": darks[0]["completed"] / cpu,
        "setup_s": median([at_ref_speed(s, median(s["setup_cpu_s"])) for s in setups]),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in darks]),
    }


def per_layer(darks, traced):
    t0 = traced[0]
    sim = t0["sim"]
    works = t0["completed"]
    dark_cpu = median([at_ref_speed(d, d["cpu_s"]) for d in darks])
    out = {k: v for k, v in sim.items() if not k.startswith(("sim_", "mix."))}
    attempted = works + t0["failed"]
    out.update({
        "flink.baseline_sim_job_s": t0["baseline_sim_job_s"],
        "flink.baseline_cpu_s": median([at_ref_speed(t, t["baseline_cpu_s"])
                                        for t in traced]),
        "gstream.works": works,
        "gstream.cpu_us_per_gwork": dark_cpu / works * 1e6,
        "memory.allocs_per_gwork": median([d["allocs"] for d in darks]) / works,
        "gpu.h2d_busy_s": t0["trace_h2d_busy_s"],
        "gpu.d2h_busy_s": t0["trace_d2h_busy_s"],
        "failed_frac": t0["failed"] / attempted,
        "obs.overhead_frac": median([at_ref_speed(t, t["cpu_s"]) for t in traced])
        / dark_cpu - 1.0,
        "obs.trace_events": t0["trace_events"],
        "obs.trace_dropped": t0["trace_dropped"],
        "obs.trace_export_cpu_s": median([at_ref_speed(t, t["trace_export_cpu_s"])
                                          for t in traced]),
        "obs.metrics_export_cpu_s": median([at_ref_speed(t, t["metrics_export_cpu_s"])
                                            for t in traced]),
        "obs.traced_peak_rss_mb": median([t["peak_rss_mb"] for t in traced]),
        "host.wall_s": median([d["wall_s"] for d in darks]),
        "host.cpu_s": median([d["cpu_s"] for d in darks]),
        "host.ref_unit_ms": median([c for r in darks + traced for c in r["calib_s"]]) * 1e3,
    })
    return out


def write_spans(out_dir, workload, seed, traced):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps([t["spans"] for t in traced], indent=1) + "\n")
    return path


def run_workload(binary, spec, workload, seed, seconds, trace, deadline):
    out_dir = target_dir() / "perfbench"
    runner = Runner(binary, workload, seed, out_dir, deadline)
    checks = Checks()
    if trace:
        darks, traced = run_traced(runner, seconds)
        runs = darks + traced
        for t in traced:
            checks.against_baseline(workload, t["digests"], t["baseline_digests"])
        values = per_layer(darks, traced)
        metrics_spec = spec["per_layer"]
        print(f"spans: {write_spans(out_dir, workload, seed, traced)}")
    else:
        darks, setups, baseline, ladder = run_dark(runner, seconds)
        runs = darks
        checks.against_baseline(workload, darks[0]["digests"], baseline["digests"])
        values = end_to_end(darks, setups, ladder)
        metrics_spec = spec["end_to_end"]
    checks.same_sim(runs)
    checks.pinned(workload, seed, runs[0]["digests"])
    failed = sum(int(r["failed"]) for r in runs)
    attempted = sum(int(r["completed"]) + int(r["failed"]) for r in runs)
    checks.expect(failed == 0, f"{failed} of {attempted} operations failed or were lost")

    metrics = {}
    for m in metrics_spec:
        if m["name"] not in values:
            raise BenchError(f"{workload}: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(f"== {workload} (seed {seed}, {len(runs)} runs, trace {trace})")
    print("  host: median dark run {:.4f} s wall, {:.4f} s CPU; reference unit {:.3f} ms"
          .format(median([d["wall_s"] for d in darks]), median([d["cpu_s"] for d in darks]),
                  median([c for d in darks for c in d["calib_s"]]) * 1e3))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>20.6g} {m['unit']}")
    for failure in checks.failures:
        print(f"  CHECK FAILED: {failure}")
    return {"correct": not checks.failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still kills and reaps the phase it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        if args.workload != "all":
            result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                  args.trace, time.monotonic() + DEADLINE_S)
        else:
            # Every workload, end-to-end and per-layer, in one command.
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    r = run_workload(binary, spec, workload, args.seed, args.seconds,
                                     trace, time.monotonic() + DEADLINE_S)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    for name, m in r["metrics"].items():
                        result["metrics"][f"{workload}/{name}"] = m
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
