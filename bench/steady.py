"""Steadiness of the benchmark: repeated runs, quartiles and spreads.

    python3 bench/steady.py --runs 10 --sets 2 --trace

Runs `bench/run.py` `--runs` times per workload for `run_seconds` of
`BENCHMARK.json`, alternating between the workloads, with seeds 0 to
`--runs` - 1 in every set. For each set it prints, per workload and
end-to-end metric, the sample count, median, quartiles, the quartile
spread (Q3 - Q1) / median and the largest relative spread
(max - min) / median, plus the share of failed operations. With two sets
it prints each set's median against the first. `--trace` adds, per
workload, three back-to-back pairs of an untraced and a traced run on
seed 0: the per-layer table of the first traced run, its top-level span
coverage, and the tracing overhead, traced minus untraced `run_s` within
each pair. `--sets 0 --trace` makes the traced runs alone. Everything
printed is also written as JSON to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("frontier", "recourse", "stability")
TRACE_PAIRS = 3


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("info "):
            result["info"] = json.loads(line[len("info "):])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(runs: dict[str, list[dict]]) -> dict:
    table = {}
    for workload, results in runs.items():
        rows = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            rows[metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "n": len(values),
                "median": med, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / med,
                "range_share": (max(values) - min(values)) / med,
                "values": values,
            }
        rows["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
        rows["correct"] = all(r["correct"] for r in results)
        table[workload] = rows
    return table


def print_set(index: int, table: dict, first: dict | None) -> None:
    print(f"\n### Set {index + 1}\n")
    print("| workload | metric | n | median | Q1 | Q3 | (Q3-Q1)/median "
          "| (max-min)/median |" + (" median / set 1 |" if first else ""))
    print("|---|---|---|---|---|---|---|---|" + ("---|" if first else ""))
    for workload, rows in table.items():
        for metric, row in rows.items():
            if not isinstance(row, dict):
                continue
            line = (f"| {workload} | {metric} ({row['unit']}) | {row['n']} "
                    f"| {row['median']:.4g} | {row['q1']:.4g} | {row['q3']:.4g} "
                    f"| {row['iqr_share']:.3f} | {row['range_share']:.3f} |")
            if first:
                line += f" {row['median'] / first[workload][metric]['median']:.3f} |"
            print(line)
    for workload, rows in table.items():
        print(f"\n{workload}: correct={rows['correct']} "
              f"failed/attempted in {{{', '.join(f'{s:g}' for s in rows['failed_share'])}}}")


def traced_pairs(seconds: float) -> tuple[dict, dict]:
    """Per workload, `TRACE_PAIRS` back-to-back pairs of an untraced and
    a traced run on seed 0, alternating which of the two goes first, so
    that both sides of a pair meet about the same machine speed."""
    traced, pairs = {}, {w: [] for w in WORKLOADS}
    for i in range(TRACE_PAIRS):
        for workload in WORKLOADS:
            order = (False, True) if i % 2 == 0 else (True, False)
            got = {t: run_once(workload, 0, seconds, t) for t in order}
            traced.setdefault(workload, got[True])
            pairs[workload].append((got[False]["metrics"]["run_s"]["value"],
                                    got[True]["info"]["run_s"]))
    return traced, pairs


def print_traced(traced: dict, pairs: dict) -> None:
    print("\n### Traced run (the first of each workload)\n")
    names = list(next(iter(traced.values()))["metrics"])
    print("| metric | unit | " + " | ".join(traced) + " |")
    print("|---|---|" + "---|" * len(traced))
    for name in names:
        unit = next(iter(traced.values()))["metrics"][name]["unit"]
        cells = [f"{traced[w]['metrics'][name]['value']:.4g}" for w in traced]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    print(f"\n| workload | untraced run_s | traced run_s | overhead per pair "
          f"| median overhead | top-level span coverage |")
    print("|---|---|---|---|---|---|")
    for workload, rows in pairs.items():
        overheads = [(t - u) / u for u, t in rows]
        print(f"| {workload} | {', '.join(f'{u:.3f}' for u, _ in rows)} s "
              f"| {', '.join(f'{t:.3f}' for _, t in rows)} s "
              f"| {', '.join(f'{o:+.1%}' for o in overheads)} "
              f"| {statistics.median(overheads):+.1%} "
              f"| {traced[workload]['info']['top_level_coverage']:.2%} |")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    seeds = range(args.runs)
    sets = []
    for _ in range(args.sets):
        runs = {w: [] for w in WORKLOADS}
        for seed in seeds:
            for workload in WORKLOADS:
                runs[workload].append(run_once(workload, seed, seconds, False))
        sets.append(summarize(runs))
        print_set(len(sets) - 1, sets[-1], sets[0] if len(sets) > 1 else None)
    traced, pairs = {}, {}
    if args.trace:
        traced, pairs = traced_pairs(seconds)
        print_traced(traced, pairs)

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "seeds": list(seeds),
                                "sets": sets, "traced": traced,
                                "trace_pairs": pairs}, indent=1))
    print(f"\nwritten {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
