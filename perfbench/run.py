#!/usr/bin/env python3
"""Builds and runs the tfet-sram benchmark.

One workload per call, each in its own process:

    python3 perfbench/run.py --workload cell_mc --seed 0 --seconds 20 --trace 0

or every workload in turn, with a summary table:

    python3 perfbench/run.py --all [--seed 0] [--seconds 20] [--trace 0]

The benchmark package in this directory is built with cargo (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`. A run prints each
metric with its unit and sample count, a provenance line, and as its last
line one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced run with `--trace 1`. The exit code is 0 only if every output check
passed. Workloads, metrics and their layer map are described in
perfbench/README.md and perfbench/layers.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cell_mc", "array_rw", "paper_quick")
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Worker pools size themselves to the machine's parallelism; a thread
    # override inherited from the caller would silently change that.
    env.pop("RAYON_NUM_THREADS", None)
    return env


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    return target_dir() / "release" / "perfbench"


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench/src"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.suffix in (".rs", ".toml") and p.is_file())
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True,
                             text=True, timeout=60, env=child_env())
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, raw result or None)."""
    out = target_dir() / "perfbench-out" / workload
    cmd = [str(binary), workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out", str(out),
           "--ref", str(HERE / "ref")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload} printed no result")
        return proc.returncode or 1, None


def report(raw, trace, provenance):
    """Prints the metric table, provenance and the final result line."""
    names = expected_metrics(trace)
    metrics = raw["metrics"]
    if sorted(names) != sorted(metrics):
        log(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
        return False
    for name in names:
        m = metrics[name]
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']:<6} "
              f"n={raw['samples'][name]}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": metrics[n]["value"],
                        "unit": metrics[n]["unit"]} for n in names},
    }
    print(json.dumps(result), flush=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    os.chdir(ROOT)
    if not (ROOT / "crates").is_dir():
        log("perfbench: no crates/ next to perfbench/; nothing to build")
        return 1
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    base = {"git_sha": git_sha(), "source_digest": source_digest(),
            "rustc": rustc_version()}

    status = 0
    for workload in (WORKLOADS if args.all else (args.workload,)):
        code, raw = run_workload(binary, workload, args.seed, seconds,
                                 args.trace)
        if raw is None:
            log(f"perfbench: {workload} failed with exit code {code}")
            return code or 1
        provenance = dict(base, **raw["provenance"])
        if not report(raw, args.trace, provenance):
            return 1
        if code != 0 or not raw["correct"]:
            status = code or 1
    return status


if __name__ == "__main__":
    sys.exit(main())
