"""Run the benchmark once per seed and keep every result.

    python3 foldbench/series.py --workload reject --seeds 1-10 --out A.jsonl

Each run is `foldbench/run.py --workload W --seed N --seconds S --trace T`
with S from BENCHMARK.json; the runs go one after another, and each
result line is appended to --out as {"workload", "seed", "trace",
"wall_s", "result"}.  Compare two such files with foldbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="a seed or a range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    workload = args.workload
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("%s seed %d exited %d"
                             % (workload, seed, proc.returncode))
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        line = {"workload": workload, "seed": seed, "trace": args.trace,
                "wall_s": wall, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(line) + "\n")
        print("%s seed %d: %.1f s, correct %s, failed %d/%d"
              % (workload, seed, wall, result["correct"],
                 result["failed"], result["attempted"]), flush=True)


if __name__ == "__main__":
    main()
