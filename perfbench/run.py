"""dho benchmark: one workload, one seed, every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload query-closed --seed 1 --seconds 10 --trace 0

Workloads: query-closed, query-entropy, sweep-rydberg, validate-full (see
BENCHMARK.json and perfbench/README.md).  The program runs from ``src/`` of
the checkout at its defaults; the benchmark only generates inputs, times
calls from outside and checks the outputs.

A run (1) times ``setup_s`` as the median of several fresh interpreters that
import ``dho.cli`` and answer one request, (2) runs the workload's
operations in a fresh worker process, (3) checks every output against an
independent route (``check.py``) outside the timed region, and (4) prints a
summary, the environment stamp and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 1``
the workload runs twice, untraced and then traced, and the metrics are the
per-layer ones; the difference of the two wall times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
RUN_BUDGET_S = 170.0       # everything, set-up and checking included
CHECK_RESERVE_S = 25.0     # kept free for the checker after the workers
OP_LIMIT_S = 30.0          # one request; normal requests take < 1 s
CHECK_LIMIT_S = 120.0      # one validate check; the slowest takes ~30 s
SWEEP_LIMIT_S = 120.0      # one sweep; the Rydberg sweep takes ~20 s
TMP = ".perfbench_tmp"

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import dho.cli; "
    "dho.cli.main(['compute', '--state', "
    "'{\"kind\":\"hyper\",\"D\":3,\"omega\":1.0,\"nr\":0,\"mu\":[0,0]}', "
    "'--quantity', 'fisher']); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()")

IMPORT_PROFILE = {"dho": "setup.import.dho_s",
                  "scipy.special": "setup.import.scipy_special_s",
                  "scipy.integrate": "setup.import.scipy_integrate_s",
                  "scipy.linalg": "setup.import.scipy_linalg_s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment stamp


def environment() -> dict:
    stamp = {"python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            stamp[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            stamp[pkg] = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    stamp["git_sha"] = sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    stamp["src_sha256"] = digest.hexdigest()[:16]
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["loadavg_start"] = [round(v, 2) for v in os.getloadavg()]
    stamp["probe_ms_start"] = speed_probe()
    return stamp


def speed_probe() -> float:
    """Milliseconds a fixed pure-Python loop takes here, median of 5.  On a
    shared virtual machine the CPU speed can change by 30% from minute to
    minute; the probe at the start and end of a run shows such drift."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return round(1000.0 * statistics.median(times), 3)


# ---------------------------------------------------------------------------
# set-up


def _spawn_ready(extra_flags: list[str]) -> tuple[float, str]:
    """Seconds from spawn until the child reports ready; its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *extra_flags, "-c", SETUP_CODE], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = None
        for line in proc.stdout:
            if line.strip() == "ready":
                ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {err.strip()[-300:]}")
    return ready, err


def setup_time() -> float:
    return statistics.median(_spawn_ready([])[0] for _ in range(SETUP_SPAWNS))


def import_profile() -> dict[str, float]:
    """Cumulative import time of dho and the scipy subpackages, from
    ``python -X importtime``, median over the set-up spawns."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_PROFILE.values()}
    for _ in range(SETUP_SPAWNS):
        _, err = _spawn_ready(["-X", "importtime"])
        seen: dict[str, float] = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if not parts[1].isdigit():
                continue
            module = parts[2].strip()
            if module in IMPORT_PROFILE and module not in seen:
                seen[module] = int(parts[1]) / 1e6
        for module, name in IMPORT_PROFILE.items():
            samples[name].append(seen.get(module, 0.0))
    return {name: statistics.median(vals) for name, vals in samples.items()}


# ---------------------------------------------------------------------------
# worker


def run_worker(ops: list[dict], trace: bool, deadline: float, tag: str) -> dict:
    tmp = ROOT / TMP
    tmp.mkdir(exist_ok=True)
    job_path, out_path, err_path = (tmp / f"{tag}.job.json", tmp / f"{tag}.out.jsonl",
                                    tmp / f"{tag}.stderr")
    job = {"root": str(ROOT), "ops": ops, "trace": trace, "out": str(out_path),
           "tmpdir": str(tmp), "op_limit_s": OP_LIMIT_S, "check_limit_s": CHECK_LIMIT_S,
           "sweep_limit_s": SWEEP_LIMIT_S}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    t0 = time.perf_counter()
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        killed = False
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            killed = True
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t0
    records, summary = {}, None
    if out_path.exists():
        for line in out_path.read_text(encoding="utf-8").splitlines():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # a line cut short by the kill
            if rec.get("done"):
                summary = rec
            else:
                records[rec["i"]] = rec
    if summary is None and not records:
        raise RuntimeError("worker produced no records: "
                           + err_path.read_text(encoding="utf-8").strip()[-600:])
    if summary is None:  # stopped at the deadline: the largest child so far
        summary = {"wall_s": elapsed,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    summary["killed"] = killed
    return {"records": records, "summary": summary}


# ---------------------------------------------------------------------------
# metrics


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics, which does not jump when two operations of similar
    cost swap places."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n <= 10:
        return max(latencies), 100
    pct = math.floor(100 * (n - 10) / n)
    return quantile(latencies, pct / 100), pct


def latencies(ops: list[dict], records: dict) -> list[float]:
    """Seconds from issue to completion per result.  A request is issued when
    the previous one returns; a sweep's rows and a validate run's checks are
    all issued when the command starts."""
    out: list[float] = []
    for i, op in enumerate(ops):
        rec = records.get(i)
        if rec is None:
            continue
        if "config" in op:
            out += [done - rec["t0"] for done in rec["rows"]]
        elif op["argv"][0] == "validate":
            for done, count in rec["checks"]:
                out += [done - rec["t0"]] * count
        else:
            out.append(rec["t"])
    return out


def check_outputs(ops: list[dict], records: dict):
    failures, attempted = [], 0
    for i, op in enumerate(ops):
        for result in check.check_op(op, records.get(i)):
            attempted += 1
            if result is not None:
                failures.append(result)
    return attempted, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    if not (ROOT / "src" / "dho" / "cli.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'dho'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    stamp = environment()
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    state_share, kernel_share = workloads.reuse_shares(ops)

    try:
        setup = import_profile() if args.trace else {"setup_s": setup_time()}
        deadline = start + RUN_BUDGET_S - CHECK_RESERVE_S
        plain = run_worker(ops, False, deadline, "plain")
        traced = run_worker(ops, True, deadline, "traced") if args.trace else None
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(ROOT / TMP, ignore_errors=True)

    attempted, failures = check_outputs(ops, plain["records"])
    if traced is not None:
        for i, rec in plain["records"].items():
            other = traced["records"].get(i)
            if other is None or other["out"] != rec["out"]:
                attempted += 1
                failures.append(check.Failure(f"operation {i}: traced output differs"))
    unknown = [f for f in failures if f.known is None]
    correct = not unknown
    wall = plain["summary"]["wall_s"]

    lat = latencies(ops, plain["records"])
    lat += [OP_LIMIT_S] * max(0, len(ops) - len(plain["records"]))  # never finished
    tail_value, tail_pct = tail(lat)
    e2e = {
        "setup_s": setup.get("setup_s"),
        "ops_per_s": attempted / wall,
        "wall_s": wall,
        "op_p50_ms": 1000.0 * quantile(lat, 0.5),
        "op_tail_ms": 1000.0 * tail_value,
        "ok_ratio": 1.0 - len(failures) / attempted,
        "peak_rss_mb": plain["summary"]["peak_rss_mb"],
    }

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    stamp["probe_ms_end"] = speed_probe()
    print("# env " + json.dumps(stamp, sort_keys=True))
    print(f"# operations {len(ops)}, checked results {attempted}, failed {len(failures)} "
          f"(fail_ratio {len(failures) / attempted:.4f}), outside known defects "
          f"{len(unknown)}")
    print(f"# op_p50_ms and op_tail_ms (p{tail_pct}) are Harrell-Davis estimates "
          f"over {len(lat)} samples; "
          f"state repeat share {state_share:.3f}, kernel repeat share {kernel_share:.3f}")
    kinds: dict[str, int] = {}
    for f in failures:
        kinds[f.known or "UNEXPECTED"] = kinds.get(f.known or "UNEXPECTED", 0) + 1
    for kind, count in sorted(kinds.items()):
        print(f"# failures {kind}: {count}")
    for f in unknown[:10]:
        print(f"#   unexpected: {f.what}")

    if args.trace:
        layers = dict(traced["summary"].get("layers") or {})
        layers.update(setup)
        layers["trace.overhead_s"] = traced["summary"]["wall_s"] - wall
        layers["trace.unaccounted_s"] = traced["summary"]["wall_s"] - layers.get("trace.main_s", 0.0)
        layers["gen.state_repeat_share"] = state_share
        layers["gen.kernel_repeat_share"] = kernel_share
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], e2e
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            return fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']:<58} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
