#!/usr/bin/env python3
"""Run the benchmark's workloads at fixed seeds and write BENCH_<pr>.json.

    python3 scripts/bench_trajectory.py --pr N
    python3 scripts/bench_trajectory.py --pr M --root ../earlier-checkout
    python3 scripts/bench_trajectory.py --pr N --parent ../parent-checkout

Each workload listed in the checkout's BENCHMARK.json runs through
``perfbench/run.py`` (end-to-end metrics, no trace) once per seed in SEEDS
(1 to 10, so that a claim rests on ten alternating pairs), one after
another, from the checkout given by --root (default: this repository).
BENCH_<pr>.json, written to this repository, holds per workload and seed the
run's result line and its environment stamp, plus the ``src/dho`` line count
of that checkout.  With --parent, each workload and seed also runs from that
checkout, as a pair with the --root run; which of the two goes first flips
from one pair to the next, since the host's speed drifts between runs.
Those runs and that checkout's line count go under "parent", and each run
records its place in its pair ("order" 0 or 1).  Each checkout also gets a
"layers" section: build times measured in one process with fresh caches,
best of LAYER_REPEATS (Gauss-Laguerre rules, a member's roots and tanh-sinh
panel evaluator, one entropy kernel, one integer-q L_q integral, one closed
moment sum, one Bessel norm constant of the Rydberg Renyi asymptotics,
single three-term-recurrence passes over 1 to 100000 nodes, and the small
degrees of query-entropy and query-closed: eval_poly_scaled at degree 6,
fresh Gauss rules of order 8 and 31, and scaled_evaluator per point; see
LAYER_CODE).
It records numbers only: it sets no bound and gates nothing.

Each checkout's processes keep their bytecode in a fresh directory of their
own (PYTHONPYCACHEPREFIX, with PYTHONDONTWRITEBYTECODE dropped), removed at
the end, so neither side imports from a __pycache__ that the other lacks:
one left by a test run made a checkout import measurably faster.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
LAYER_REPEATS = 5
# run in a checkout's root; uses only names that older checkouts also have
LAYER_CODE = """
import json, sys, time
import numpy as np
sys.path.insert(0, "src")
from dho import asymptotics, moments, oracle, specfun, states
from dho.specfun import PolySpec

def fresh():
    for name in ("_RULE_CACHE", "_ENTROPY_CACHE", "_MEMBER_CACHE", "_LQ_CACHE"):
        getattr(oracle, name, {}).clear()
    getattr(moments, "_MOMENT_CACHE", {}).clear()
    asymptotics._BESSEL_CACHE.clear()

def best(work):
    times = []
    for _ in range(%d):
        fresh()
        t = time.perf_counter()
        work()
        times.append(time.perf_counter() - t)
    return round(min(times), 5)

def member(n):
    spec = PolySpec("laguerre", n, 0.5)
    specfun.panel_evaluator(spec, specfun.poly_roots(spec))

best(lambda: oracle.gauss_rule("laguerre", 40, 0.5))  # imports scipy.linalg
out = {}
for order in (402, 802, 1602, 2002):
    out[f"gauss_rule.laguerre_0.5.order_{order}_s"] = best(
        lambda: oracle.gauss_rule("laguerre", order, 0.5))
for n in (400, 800, 2000):
    out[f"member.laguerre_0.5.degree_{n}_s"] = best(lambda: member(n))
out["polynomial_entropy.laguerre_0.5.degree_800_s"] = best(
    lambda: oracle.polynomial_entropy(PolySpec("laguerre", 800, 0.5)))
out["log_lq_integral.laguerre_0.5.degree_800.q_2_s"] = best(
    lambda: oracle.log_lq_integral(PolySpec("laguerre", 800, 0.5), 2, 0.5))
moment_state = states.parse_state('{"kind":"hyper","D":3,"omega":1,"nr":800,"mu":[0,0]}')
out["radial_moment.D_3.n_r_800.k_1_s"] = best(
    lambda: moments.radial_moment(moment_state, 1.0))
out["bessel_norm_constant.alpha_3.5.q_2_s"] = best(
    lambda: asymptotics.bessel_norm_constant(3.5, -0.5, 2.0))

def recurrence(n, x, derivative):
    spec = PolySpec("laguerre", n, 0.5)
    diag, off = specfun._jacobi_coeffs(spec, n + 1)
    log_mass = specfun._log_weight_mass(spec)
    return lambda: specfun._recurrence(x, diag, off, n, log_mass, derivative)

from scipy.linalg import eigh_tridiagonal
diag, off = specfun._jacobi_coeffs(PolySpec("laguerre", 1602, 0.5), 1602)
starts = eigh_tridiagonal(diag, off, eigvals_only=True)  # gauss_nodes' first pass
for size in (1602, 52, 1):  # 52: about the nodes its second pass takes, near 0
    out[f"recurrence.laguerre_0.5.degree_1602.derivative_{size}_nodes_s"] = best(
        recurrence(1602, starts[:size].copy(), True))
out["recurrence.laguerre_0.5.degree_800.value_100000_nodes_s"] = best(
    recurrence(800, np.linspace(0.0, 3400.0, 100000), False))

def per_call(work, calls):  # seconds per call, best of the repeats of `calls` calls
    return round(best(lambda: [work() for _ in range(calls)]) / calls, 9)

def fresh_rule(*args):
    oracle._RULE_CACHE.clear()
    return oracle.gauss_rule(*args)

# the small degrees of query-entropy and query-closed
small = PolySpec("laguerre", 6, 2.5)
nodes = np.linspace(0.0, 40.0, 400)
out["eval_poly_scaled.laguerre_2.5.degree_6.400_nodes_s"] = per_call(
    lambda: specfun.eval_poly_scaled(small, nodes), 200)
out["gauss_rule.hermite.order_8_s"] = per_call(lambda: fresh_rule("hermite", 8), 100)
out["gauss_rule.laguerre_1.5.order_31_s"] = per_call(
    lambda: fresh_rule("laguerre", 31, 1.5), 50)
evaluate = specfun.scaled_evaluator(small)
points = np.linspace(0.0, 60.0, 4000).tolist()
out["scaled_evaluator.laguerre_2.5.degree_6.per_point_s"] = per_call(
    lambda: [evaluate(v) for v in points], 2) / len(points)
print(json.dumps(out))
""" % LAYER_REPEATS


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "dho").glob("*.py")))


def bytecode_env(prefix: str) -> dict:
    """The environment with bytecode read from and written to prefix alone."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_one(root: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
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


def layers(root: Path, env: dict) -> dict:
    """Per-layer build times of the checkout at root (LAYER_CODE)."""
    proc = subprocess.run([sys.executable, "-c", LAYER_CODE], cwd=root,
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout)


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
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        sides = [("root", root, runs, bytecode_env(f"{cache}/root"))]
        if args.parent is not None:
            sides.append(("parent", args.parent.resolve(), parent_runs,
                          bytecode_env(f"{cache}/parent")))
        pairs = [(w["name"], seed) for w in spec["workloads"] for seed in SEEDS]
        for i, (workload, seed) in enumerate(pairs):
            for order, (name, checkout, out, env) in enumerate(
                    sides if i % 2 else sides[::-1]):
                run = run_one(checkout, workload, seed, spec["run_seconds"], env)
                if args.parent is not None:
                    run["order"] = order
                out.append(run)
                status = "ok" if "result" in run else f"failed (rc {run['returncode']})"
                print(f"{workload} seed {seed} {name}: {status} in "
                      f"{run['elapsed_s']:.1f} s", file=sys.stderr)
        record = {"pr": args.pr, "src_dho_lines": src_lines(root),
                  "layers": layers(root, sides[0][3]), "run_seconds": spec["run_seconds"],
                  "seeds": list(SEEDS), "runs": runs}
        if args.parent is not None:
            record["parent"] = {"src_dho_lines": src_lines(sides[1][1]),
                                "layers": layers(sides[1][1], sides[1][3]),
                                "runs": parent_runs}
    (REPO / f"BENCH_{args.pr}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    ok = all("result" in r for r in runs + parent_runs)
    ok = ok and "error" not in record["layers"] and "error" not in record.get(
        "parent", {}).get("layers", {})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
