"""Runs one workload's operations in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job file names the repository root, the operations, whether to trace,
the per-operation limit and the file to write records to.  Operations run
one after another in this process (a closed loop with one client); each one
is a call of ``dho.cli.main`` with its stdout and stderr captured.  One JSON
record per operation goes to the output file as soon as the operation ends,
so the parent keeps every finished record if it has to stop this process.
The last record carries the wall time, the peak resident memory and, when
tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time


class OpLimit(BaseException):
    """Raised by the timer when an operation runs past its limit."""


def _on_alarm(signum, frame):
    raise OpLimit()


@contextlib.contextmanager
def limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _timers(check_limit: float):
    """Record when each sweep row and each validate check is done.

    A sweep or validate command issues all its rows or checks at once, so
    an operation's latency is the time from the command's start to its
    completion.  Validate checks run one after another, each under the
    per-operation limit.
    """
    import dho.cli
    import dho.validation as validation

    rows: list[float] = []
    checks: list[tuple[float, int]] = []
    compute_one = dho.cli._compute_one

    def timed_row(*args, **kwargs):
        try:
            return compute_one(*args, **kwargs)
        finally:
            rows.append(time.perf_counter())

    dho.cli._compute_one = timed_row

    def timed_check(fn):
        def run(*args, **kwargs):
            with limit(check_limit):
                out = fn(*args, **kwargs)
            checks.append((time.perf_counter(), len(out) if isinstance(out, list) else 1))
            return out
        return run

    for registry in (validation.CHECKS, validation.SLOW_CHECKS):
        for cid, fn in registry.items():
            registry[cid] = timed_check(fn)
    validation.discrepancy_reports = timed_check(validation.discrepancy_reports)
    validation.shannon_scaling_report = timed_check(validation.shannon_scaling_report)
    return rows, checks


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import dho.cli

    signal.signal(signal.SIGALRM, _on_alarm)
    rows, checks = _timers(job["check_limit_s"])
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    sweep_ops = set()
    with open(job["out"], "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        for i, op in enumerate(job["ops"]):
            argv = list(op["argv"])
            if "config" in op:
                path = os.path.join(job["tmpdir"], f"sweep-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op["config"], fh)
                argv.append(path)
                sweep_ops.add(i)
            if tracer:
                tracer.start_op(i)
            out, err = io.StringIO(), io.StringIO()
            n_rows, n_checks = len(rows), len(checks)
            rc, exc = None, None
            # validate checks carry their own limit (there is one timer)
            op_limit = {"validate": 0, "sweep": job["sweep_limit_s"]}.get(
                argv[0], job["op_limit_s"])
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if op_limit:
                        with limit(op_limit):
                            rc = dho.cli.main(argv)
                    else:
                        rc = dho.cli.main(argv)
            except OpLimit:
                exc = "OpLimit: the per-operation limit was hit"
            except SystemExit as stop:  # argparse refusing the argv
                rc = stop.code
            except Exception as error:  # noqa: BLE001 - every escape is a failure
                exc = f"{type(error).__name__}: {error}"
            elapsed = time.perf_counter() - t0
            record = {"i": i, "t0": t0, "t": elapsed, "rc": rc, "exc": exc,
                      "out": out.getvalue(), "err": err.getvalue()[-400:],
                      "rows": rows[n_rows:], "checks": checks[n_checks:]}
            sink.write(json.dumps(record) + "\n")
            sink.flush()
        wall = time.perf_counter() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = {"done": True, "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0}
        if tracer:
            summary["layers"] = tracing.layer_metrics(tracer, sweep_ops)
            summary["layers"]["oracle.cache_entries"] = tracing.cache_entries()
        sink.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
