"""Steadiness check: run the benchmark several times and print, for
every metric of every workload, the median, the quartiles and the
spread (interquartile distance over the median) against the bound in
``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 3 --trace 1    # per-layer medians

Run from the repository root. Each run uses the next seed, and the
workload order alternates between runs (forward, then reversed), so a
slow patch of the host does not always land on the same workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(args.runs):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            seed = args.first_seed + r
            result = run_once(name, seed, bench["run_seconds"], args.trace)
            results[name].append(result)
            print(
                f"run {r} {name} seed {seed}: "
                + " ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()
                    if not args.trace
                )
                + f" failed={result['failed']}/{result['attempted']} "
                + " ".join(
                    n.split(": ", 1)[1]
                    for n in result["notes"]
                    if n.startswith("# host probe")
                ),
                flush=True,
            )

    print()
    print(f"{'workload':9} {'metric':34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        runs = results[name]
        shares = {r["failed"] / r["attempted"] for r in runs}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric) if not args.trace else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else (
                    "WIDE" if spread >= bound else "above bound/3"
                )
            print(
                f"{name:9} {metric:34} {median:12.6g} {q1:12.6g} "
                f"{q3:12.6g} {spread:8.4f} "
                f"{'' if bound is None else bound:>6} {verdict}"
            )
        print(f"{name:9} failed share per run: {sorted(shares)}")
        for r in runs:
            for note in r["notes"]:
                if "tracing overhead" in note or "op_tail_ms" in note:
                    print(f"{name:9} {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
