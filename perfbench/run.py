#!/usr/bin/env python3
"""DT-SNN benchmark: the one command.

    python3 perfbench/run.py --workload offline_float --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --regen

Builds the library and the driver from this checkout (CMake, Release) into
.bench_build/perfbench, runs one workload, and prints the driver's output;
the last line is one JSON object with "correct", "attempted", "failed" and
"metrics". Every run also leaves a report with the host fingerprint in
.bench_build/perfbench/reports/ for perfbench/compare.py. --regen trains the
checkpoint and rewrites perfbench/assets/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dtsnn_perfbench"
ASSETS = BENCH_DIR / "assets"
WORKLOADS = ("offline_float", "offline_int8", "serve_two_tenant")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; build output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no DT-SNN source tree (CMakeLists.txt, src/) at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}", 1)
            if done.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}", 1)


def source_digest():
    """SHA-256 over the sources the binary is built from (a checkout need not
    be a git repository, so this identifies the code even without a commit)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", BENCH_DIR / "CMakeLists.txt"]
    for sub in (ROOT / "src", BENCH_DIR / "src"):
        files += sorted(p for p in sub.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the repository this checkout is, or "unknown"."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_driver(args):
    command = [str(BINARY), "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--assets", str(ASSETS), "--work", str(BUILD_DIR / "work")]
    (BUILD_DIR / "work").mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{args.workload} exited with code {done.returncode}", done.returncode or 1)
    result = json.loads(lines[-1])
    fingerprint = {}
    extras = {}
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
        elif line.startswith("extra: "):
            name, value = line[len("extra: "):].rsplit(" ", 1)
            extras[name] = float(value)
    fingerprint["commit"] = commit()
    fingerprint["source_digest"] = source_digest()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint, "extras": extras,
              "result": result}
    reports = BUILD_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_trace{args.trace}_seed{args.seed}.json"
    (reports / name).write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines[:-1]))
    print(f"fingerprint+: commit {fingerprint['commit']}, "
          f"source {fingerprint['source_digest']}")
    print(lines[-1])
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen", action="store_true",
                        help="train the checkpoint and rewrite perfbench/assets/")
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("DTSNN_"))
    if knobs:
        fail("refusing to run with DT-SNN tuning knobs set: " + ", ".join(knobs))
    if not args.regen and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.regen:
        return subprocess.run([str(BINARY), "regen", "--assets", str(ASSETS)],
                              check=False).returncode
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
