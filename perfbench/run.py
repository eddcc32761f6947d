#!/usr/bin/env python3
"""Repository benchmark: build ipass_serve and the benchmark program from
source, run one workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload hot_cached --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The build goes to .bench_build/ under the
root.  Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  The line before it is the full report, provenance
included; the same report is written to .bench_build/results/.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
SOURCE_DIGEST_PATHS = ["CMakeLists.txt", "src", "tools", "perfbench"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_group(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout the whole group (the
    benchmark program and any daemon it spawned) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {timeout} s: {' '.join(cmd)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("repository sources not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_group(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    run_group(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1), "--target"]
              + targets, BUILD_TIMEOUT_S)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    """sha256 over the sources the benchmark builds, so a result without a
    git SHA still names the code it measured."""
    h = hashlib.sha256()
    for top in SOURCE_DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as fh:
            for line in fh:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
        "build_type": build_type(),
        "platform": platform.platform(),
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def load_json(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def self_test():
    build(["ipass_serve", "perfbench_selftest"])
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    run_group([os.path.join(BUILD, "perfbench_selftest"), "--serve-bin",
               os.path.join(BUILD, "ipass", "ipass_serve"), "--tmp-dir", tmp], RUN_TIMEOUT_S)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["hot_cached", "inline_journaled", "engine_sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    build(["ipass_serve", "ipass_perfbench"])
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    steal0, total0 = cpu_ticks()
    out = run_group([os.path.join(BUILD, "ipass_perfbench"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", repr(args.seconds),
                     "--trace", str(args.trace),
                     "--serve-bin", os.path.join(BUILD, "ipass", "ipass_serve"),
                     "--tmp-dir", tmp], RUN_TIMEOUT_S, capture=True)
    report = json.loads(out.strip().splitlines()[-1])
    steal1, total1 = cpu_ticks()
    report["provenance"] = provenance(args.seed)
    # Share of CPU time the hypervisor withheld during the run: the main
    # cause of run-to-run spread on a shared virtual machine.
    report["provenance"]["host_steal_share"] = (
        (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0)

    expected = load_json("digests.json")[args.workload]
    digest_ok = report["digest"] == expected
    report["digest_expected"] = expected
    if not digest_ok:
        report["why"] = "; ".join(filter(None, [
            report.get("why"), "default-seed output digest differs from digests.json"]))
    correct = bool(report["correct"]) and digest_ok

    source = report["layers"] if args.trace else report["e2e"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise RuntimeError(f"ipass_perfbench did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as err:
        log(f"error: {err}")
        sys.exit(1)
