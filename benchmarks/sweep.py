"""Run every workload over several seeds and summarise the spread.

Usage (from the repository root):

    python3 benchmarks/sweep.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]

Each run is a fresh ``benchmarks/run.py`` process with the settings in
BENCHMARK.json, ``run_seconds`` among them.  For every metric the sweep
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound; a spread over its bound, setup_s
included, makes the sweep exit with 1.  ``--out`` writes every run's
result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            start = perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            wall = perf_counter() - start
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.splitlines()
            line = json.loads(lines[-1])
            if not line["correct"]:
                ok = False
                print("\n".join(lines[:-1]), file=sys.stderr)
            runs.append({"seed": seed, "wall_s": wall, "result": line,
                         "env": json.loads(lines[0].split(" ", 1)[1])})
            values = " ".join(f"{k}={m['value']:.5g}"
                              for k, m in line["metrics"].items())
            print(f"{workload} seed {seed}: {wall:.1f} s wall, "
                  f"{line['attempted']} attempted, {line['failed']} failed"
                  + ("" if args.trace else f", {values}"), flush=True)
        summary = {}
        for name, entry in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = summarise(values) if len(values) > 1 else {"median": values[0]}
            stats["unit"] = entry["unit"]
            summary[name] = stats
            spread = stats.get("spread")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  above bound/3"
            print(f"  {name:<40} median {stats['median']:.6g} {entry['unit']}"
                  + ("" if spread is None else f"  spread {spread:.4f}")
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        result["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
