"""Run every workload over several seeds and summarize, as a regression gate does.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload in BENCHMARK.json: one `run.py --trace 0` per seed in
SEEDS, then one `--trace 1` on the first seed. Prints, per end-to-end metric, the median over seeds and the
spread (interquartile range / median, `statistics.quantiles(n=4)`) next to
the metric's bound in BENCHMARK.json, and writes everything to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        print(proc.stdout, file=sys.stderr)
    return last


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, bench["run_seconds"], 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{name} seed {seed}: correct {runs[-1]['correct']} {values}", flush=True)
        entry = {"failed": sum(r["failed"] for r in runs), "attempted": sum(r["attempted"] for r in runs)}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            entry[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                     "bound": metric["bound"], "values": values}
            print(f"  {metric['name']:<12} median {med:.5g}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {metric['bound']}", flush=True)
        traced = run_once(name, SEEDS[0], bench["run_seconds"], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
