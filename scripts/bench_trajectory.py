#!/usr/bin/env python3
"""Run the benchmark's workloads at fixed seeds and write BENCH_<pr>.json.

    python3 scripts/bench_trajectory.py --pr N
    python3 scripts/bench_trajectory.py --pr M --root ../earlier-checkout
    python3 scripts/bench_trajectory.py --pr N --parent ../parent-checkout

Each workload listed in the checkout's BENCHMARK.json runs through
``perfbench/run.py`` (end-to-end metrics, no trace) once per seed in SEEDS,
one after another, from the checkout given by --root (default: this
repository).  BENCH_<pr>.json, written to this repository, holds per workload
and seed the run's result line and its environment stamp, plus the
``src/dho`` line count of that checkout.  With --parent, each workload and
seed also runs from that checkout, as a pair with the --root run; which of
the two goes first flips from one workload to the next, since the host's
speed drifts between runs.  Those runs and that checkout's line count go
under "parent", and each run records its place in its pair ("order" 0 or
1).  It records numbers only: it sets no bound and gates nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1,)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "dho").glob("*.py")))


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    out = {"workload": workload, "seed": seed, "returncode": proc.returncode,
           "elapsed_s": round(time.perf_counter() - t0, 3)}
    lines = proc.stdout.splitlines()
    for line in lines:
        if line.startswith("# env "):
            out["env"] = json.loads(line[len("# env "):])
    if proc.returncode == 0 and lines:
        out["result"] = json.loads(lines[-1])
    else:
        out["stderr"] = proc.stderr.strip()[-500:]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True, help="number in the output name")
    p.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    p.add_argument("--parent", type=Path, default=None,
                   help="checkout to run in alternating pairs with --root")
    args = p.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs, parent_runs = [], []
    sides = [("root", root, runs)]
    if args.parent is not None:
        sides.append(("parent", args.parent.resolve(), parent_runs))
    for i, workload in enumerate(w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for order, (name, checkout, out) in enumerate(sides if i % 2 else sides[::-1]):
                run = run_one(checkout, workload, seed, spec["run_seconds"])
                if args.parent is not None:
                    run["order"] = order
                out.append(run)
                status = "ok" if "result" in run else f"failed (rc {run['returncode']})"
                print(f"{workload} seed {seed} {name}: {status} in {run['elapsed_s']:.1f} s",
                      file=sys.stderr)
    record = {"pr": args.pr, "src_dho_lines": src_lines(root),
              "run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "runs": runs}
    if args.parent is not None:
        record["parent"] = {"src_dho_lines": src_lines(args.parent.resolve()),
                            "runs": parent_runs}
    (REPO / f"BENCH_{args.pr}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all("result" in r for r in runs + parent_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
