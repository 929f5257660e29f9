#!/usr/bin/env python3
"""Compare two sets of benchmark runs of the same (or different) code.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of reports (perfbench/run.py leaves one per run in
.bench_build/perfbench/reports/) or a list of files separated by commas. A
file is either such a report or a captured stdout whose last line is the
result JSON. Runs are grouped by workload and trace mode. For every metric
the tool prints each set's median and IQR (statistics.quantiles, n=4) and,
for the end-to-end metrics of BENCHMARK.json, whether the sets agree:

  * each set's IQR, as a share of its median, is within the metric's bound
    (setup_s is exempt from this spread check);
  * B's median is not worse than A's by more than the bound.

Exits 1 when any end-to-end metric disagrees. Standard library only.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = ("offline_float", "offline_int8", "serve_two_tenant")


def load_run(path):
    text = path.read_text()
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        # A captured stdout: the driver names its workload at the start of a
        # line ("serve_two_tenant: 32 shards, ...") and heads the traced
        # table "per-layer:".
        lines = [line for line in text.splitlines() if line.strip()]
        report = {"result": json.loads(lines[-1]),
                  "trace": int("per-layer:" in lines)}
        named = [line.split(":")[0] for line in lines if line.split(":")[0] in WORKLOADS]
        if named:
            report["workload"] = named[0]
    if "result" not in report:
        report = {"result": report}
    workload = report.get("workload", path.stem.split("_trace")[0])
    return (workload, report.get("trace", 0)), report


def load_set(spec):
    p = Path(spec)
    files = sorted(p.glob("*.json")) if p.is_dir() else [Path(f) for f in spec.split(",")]
    runs = defaultdict(list)
    for f in files:
        key, report = load_run(f)
        runs[key].append(report)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q3 - q1


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    set_a, set_b = load_set(argv[1]), load_set(argv[2])
    for label, runs in (("A", set_a), ("B", set_b)):
        prints = {json.dumps(r.get("fingerprint", {}), sort_keys=True)
                  for reports in runs.values() for r in reports}
        for fp in sorted(prints):
            print(f"fingerprint {label}: {fp}")
    ok = True
    for key in sorted(set(set_a) | set(set_b)):
        runs_a, runs_b = set_a.get(key, []), set_b.get(key, [])
        workload, trace = key
        print(f"== {workload} (trace {trace}): {len(runs_a)} vs {len(runs_b)} runs")
        if not runs_a or not runs_b:
            print("   (missing in one set)")
            ok = False
            continue
        names = list(runs_a[0]["result"]["metrics"])
        print(f"   {'metric':34} {'median A':>12} {'IQR A':>10} {'median B':>12} "
              f"{'IQR B':>10}  verdict")
        for name in names:
            a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            b = [r["result"]["metrics"][name]["value"] for r in runs_b
                 if name in r["result"]["metrics"]]
            if not b:
                continue
            med_a, iqr_a = summary(a)
            med_b, iqr_b = summary(b)
            verdict = ""
            spec = bounds.get(name) if trace == 0 else None
            if spec is not None:
                bound = spec["bound"]
                reasons = []
                for label, med, iqr in (("A", med_a, iqr_a), ("B", med_b, iqr_b)):
                    if name != "setup_s" and med != 0 and iqr / abs(med) > bound:
                        reasons.append(f"{label} spread {iqr / abs(med):.3f}")
                worse = (med_b - med_a) if spec["better"] == "lower" else (med_a - med_b)
                if med_a != 0 and worse / abs(med_a) > bound:
                    reasons.append(f"B worse by {worse / abs(med_a):.3f}")
                verdict = "agree" if not reasons else "DISAGREE: " + ", ".join(reasons)
                verdict += f" (bound {bound})"
                ok = ok and not reasons
            print(f"   {name:34} {med_a:12.6g} {iqr_a:10.4g} {med_b:12.6g} {iqr_b:10.4g}  "
                  f"{verdict}")
    print("sets agree within the bounds" if ok else "sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
