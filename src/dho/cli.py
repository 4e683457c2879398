"""Command-line front end: compute, sweep, uncertainty, validate, list-quantities.

Output is deterministic: JSON lines use Python's shortest-roundtrip float
representation (lowercase exponents), CSV rows follow RFC 4180, and sweep row
order is the lexicographic order of the configuration ranges regardless of the
parallel execution order.  Exit codes: 2 parse error, 3 domain error, 4
convergence error (a partial result is still printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from . import asymptotics, infomeasures, moments, oracle, states, uncertainty, validation
from .errors import ConvergenceError, DomainError, ParseError, UnsupportedError
from .infomeasures import ENGINE_CLOSED, ENGINE_ORACLE
from .states import CartesianState, HyperState, Space

EXIT_PARSE, EXIT_DOMAIN, EXIT_CONVERGENCE = 2, 3, 4

# id -> (description, engines _compute_one serves for it)
QUANTITIES = {
    "energy": ("eigenvalue (N + D/2) omega", ("closed",)),
    "moment": ("radial expectation value <r^k> (or <p^k>); takes --k",
               ("closed", "oracle", "asymptotic")),
    "heisenberg": ("generalized product <r^k><p^k>; takes --k", ("closed", "asymptotic")),
    "fisher": ("Fisher information of the position/momentum density", ("closed", "oracle")),
    "shannon": ("Shannon entropy of the position/momentum density",
                ("closed", "oracle", "asymptotic")),
    "renyi": ("Renyi entropy; takes --q", ("closed", "oracle", "asymptotic")),
    "disequilibrium": ("int rho^2 (= exp(-R_2)); position space", ("closed", "oracle")),
}

ENGINES = ("closed", "oracle", "asymptotic")


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _record(state, quantity, space, engine, value, error_estimate=None,
            order_note=None, **extra) -> dict:
    rec = {"state": states.state_to_dict(state), "quantity": quantity,
           "space": None if space is None else space.value, "engine": engine,
           "value": None if value is None else float(value),
           "error_estimate": None if error_estimate is None else float(error_estimate),
           "order_note": order_note}
    rec.update(extra)
    return rec


def _compute_one(state, quantity: str, space: Space, engine: str, args) -> dict:
    """Evaluate one quantity for one state; shared by compute and sweep."""
    tol = args.tol
    if quantity == "energy":
        return _record(state, quantity, None, "closed", states.energy(state))

    if quantity == "moment":
        k = _require_k(args)
        if engine == "closed":
            _require_hyper(state, quantity)
            return _record(state, quantity, space, "closed",
                           moments.radial_moment(state, k, space))
        if engine == "oracle":
            _require_hyper(state, quantity)
            return _record(state, quantity, space, "oracle",
                           moments.oracle_radial_moment(state, k, space),
                           error_estimate=1e-13)
        _require_hyper(state, quantity)
        if args.regime == "highdim":
            a = asymptotics.highdim_moment(k, state.spec.dim, state.spec.omega,
                                           state.n_r, state.l, space=space)
        else:
            a = asymptotics.rydberg_moment(k, state.n_r,
                                           asymptotics.RydbergLimit(args.s),
                                           state.spec.omega, space)
        return _record(state, quantity, space, "asymptotic", a.value,
                       order_note=a.order_note)

    if quantity == "heisenberg":
        k = _require_k(args)
        _require_hyper(state, quantity)
        if engine == "asymptotic":
            if args.regime == "highdim":
                a = asymptotics.highdim_heisenberg(k, state.spec.dim)
            else:
                a = asymptotics.rydberg_heisenberg(k, state.n_r)
            return _record(state, quantity, None, "asymptotic", a.value,
                           order_note=a.order_note)
        return _record(state, quantity, None, "closed",
                       moments.heisenberg_product(state, k))

    if quantity == "fisher":
        _require_hyper(state, quantity)
        if engine == "asymptotic":
            raise UnsupportedError("fisher has no asymptotic engine")
        mv = infomeasures.fisher(state, space, engine)
        return _record(state, quantity, space, mv.engine, mv.value,
                       error_estimate=mv.error_estimate)

    if quantity == "shannon":
        if engine == "asymptotic":
            _require_hyper(state, quantity)
            if args.regime == "highdim":
                mode = "as_published" if args.mode == "as-published" else "leading"
                a = asymptotics.highdim_shannon(state, space, mode)
            else:
                a = asymptotics.rydberg_shannon(state, space, tol=tol)
            return _record(state, quantity, space, "asymptotic", a.value,
                           order_note=a.order_note)
        mv = infomeasures.shannon(state, space, engine, tol=tol)
        return _record(state, quantity, space, mv.engine, mv.value,
                       error_estimate=mv.error_estimate)

    if quantity == "renyi":
        q = _require_q(args)
        if engine == "asymptotic":
            _require_hyper(state, quantity)
            if args.regime == "highdim":
                a = asymptotics.highdim_renyi(state, q, space)
            else:
                a = asymptotics.rydberg_renyi(state, q, space, tol=tol)
            return _record(state, quantity, space, "asymptotic", a.value,
                           order_note=a.order_note, q=q)
        mv = infomeasures.renyi(state, q, space, engine, tol=tol)
        return _record(state, quantity, space, mv.engine, mv.value,
                       error_estimate=mv.error_estimate, q=q)

    if quantity == "disequilibrium":
        _require_hyper(state, quantity)
        if engine == "asymptotic":
            raise UnsupportedError("disequilibrium has no asymptotic engine")
        mv = infomeasures.disequilibrium(state, engine, tol=tol)
        return _record(state, quantity, Space.POSITION, mv.engine, mv.value,
                       error_estimate=mv.error_estimate)

    raise ParseError(f"unknown quantity {quantity!r}; see list-quantities")


def _require_hyper(state, quantity):
    if not isinstance(state, HyperState):
        raise DomainError(f"{quantity} requires a hyperspherical state here; "
                          "Cartesian states support energy/shannon/renyi")


def _require_k(args) -> float:
    if args.k is None:
        raise ParseError("--k is required for this quantity")
    return args.k


def _require_q(args) -> float:
    if args.q is None:
        raise ParseError("--q is required for this quantity")
    return args.q


# ---------------------------------------------------------------------------
# subcommands


def cmd_compute(args) -> int:
    state = states.parse_state(args.state)
    space = Space(args.space)
    rec = _compute_one(state, args.quantity, space, args.engine, args)
    _emit(rec)
    return 0


def cmd_uncertainty(args) -> int:
    state = states.parse_state(args.state)
    q = args.q if args.q is not None else 2.0
    if args.relation == "all":
        reports = uncertainty.check_all(state, q=q)
    else:
        kwargs = {"q": q} if args.relation == "renyi_conjugate" else {}
        reports = [uncertainty.check(args.relation, state, **kwargs)]
    for rep in reports:
        rec = asdict(rep)
        rec["state"] = states.state_to_dict(state)
        _emit(rec)
    return 0


def _expand_states(spec: dict) -> list:
    kind = spec.get("kind")
    if kind == "hyper":
        Ds = spec["D"] if isinstance(spec["D"], list) else [spec["D"]]
        omegas = spec["omega"] if isinstance(spec["omega"], list) else [spec["omega"]]
        nrs = spec["nr"] if isinstance(spec["nr"], list) else [spec["nr"]]
        mus = spec["mu"] if isinstance(spec["mu"][0], list) else [spec["mu"]]
        out = []
        for D in Ds:
            for om in omegas:
                for nr in nrs:
                    for mu in mus:
                        out.append(states.state_from_dict(
                            {"kind": "hyper", "D": D, "omega": om,
                             "nr": nr, "mu": mu}))
        return out
    if kind == "cartesian":
        omegas = spec["omega"] if isinstance(spec["omega"], list) else [spec["omega"]]
        ns = spec["n"] if isinstance(spec["n"][0], list) else [spec["n"]]
        return [states.state_from_dict({"kind": "cartesian", "omega": om, "n": n})
                for om in omegas for n in ns]
    raise ParseError(f"unknown state kind {kind!r} in sweep config")


def _sweep_rows(config: dict, args) -> tuple[list[dict], bool]:
    state_list = _expand_states(config["states"])
    quantities = config["quantities"]
    engines = config.get("engines", ["closed"])
    space = Space(config.get("space", "position"))
    jobs = []
    for st in state_list:
        for qspec in quantities:
            if isinstance(qspec, str):
                qspec = {"id": qspec}
            for eng in engines:
                jobs.append((st, qspec, eng))

    def run(job):
        st, qspec, eng = job
        ns = argparse.Namespace(k=qspec.get("k"), q=qspec.get("q"),
                                s=qspec.get("s", 0.0),
                                mode=qspec.get("mode", "leading"),
                                regime="rydberg", tol=args.tol)
        engine = eng
        if ":" in eng:
            engine, variant = eng.split(":", 1)
            ns.regime = "highdim" if variant.startswith("highdim") else "rydberg"
            if variant == "highdim-published":
                ns.mode = "as-published"
        elif eng == "asymptotic":
            ns.regime = qspec.get("regime", "rydberg")
        try:
            rec = _compute_one(st, qspec["id"], space, engine, ns)
            rec["error"] = ""
        except Exception as exc:  # per-row failures land in the error column
            rec = _record(st, qspec["id"], space, eng, None)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["engine_request"] = eng
        rec["k"] = qspec.get("k")
        rec["q"] = qspec.get("q")
        return rec

    workers = max(1, args.jobs)
    if workers == 1:
        rows = [run(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, jobs))
    failed = any(r["error"] for r in rows)
    return rows, failed


CSV_COLUMNS = ("state", "quantity", "k", "q", "space", "engine_request",
               "engine", "value", "error_estimate", "order_note", "error")


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return str(v)


def cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"sweep config is not valid JSON: {exc}") from exc
    for key in ("states", "quantities"):
        if key not in config or not config[key]:
            raise ParseError(f"sweep config needs a non-empty {key!r}")
    if not config.get("engines", ["closed"]):
        raise ParseError("sweep config needs a non-empty 'engines'")
    for qspec in config["quantities"]:
        qid = qspec if isinstance(qspec, str) else qspec.get("id")
        if qid not in QUANTITIES:
            raise ParseError(f"unknown quantity {qid!r} in sweep config; "
                             f"known: {sorted(QUANTITIES)}")
    rows, failed = _sweep_rows(config, args)
    fmt = config.get("output", "json")
    if fmt == "json":
        for r in rows:
            _emit(r)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([_format_cell(r.get(c)) for c in CSV_COLUMNS])
        sys.stdout.write(buf.getvalue())
    else:
        raise ParseError(f"unknown output format {fmt!r}")
    plot = config.get("plot")
    if plot:
        _emit_plot(rows, plot)
    return 1 if failed else 0


def _emit_plot(rows: list[dict], plot: dict) -> None:
    from . import svgplot

    axis = plot["x_axis"]
    series: dict[str, tuple[list, list]] = {}
    for r in rows:
        if r["value"] is None:
            continue
        x = r["state"].get(axis)
        if x is None:
            continue
        key = f'{r["quantity"]}/{r["engine_request"]}'
        xs, ys = series.setdefault(key, ([], []))
        xs.append(float(x))
        ys.append(float(r["value"]))
    svgplot.line_plot([(k, *series[k]) for k in sorted(series)],
                      axis, plot.get("ylabel", "value"), plot["file"])


def cmd_validate(args) -> int:
    results = validation.run_validation(args.preset)
    failed = False
    for res in results:
        _emit(res.to_dict())
        failed = failed or res.status == validation.FAIL
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in results], fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def cmd_list_quantities(args) -> int:
    for qid in sorted(QUANTITIES):
        description, engines = QUANTITIES[qid]
        _emit({"id": qid, "description": description, "engines": list(engines)})
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dho",
        description="Dispersion and entropy measures of D-dimensional "
                    "harmonic oscillator states")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate one quantity for one state")
    c.add_argument("--state", required=True,
                   help='JSON, e.g. {"kind":"hyper","D":3,"omega":1.0,"nr":0,"mu":[0,0]}')
    c.add_argument("--quantity", required=True, choices=sorted(QUANTITIES))
    c.add_argument("--space", default="position", choices=("position", "momentum"))
    c.add_argument("--engine", default="closed", choices=ENGINES)
    c.add_argument("--k", type=float, help="moment order")
    c.add_argument("--q", type=float, help="Renyi order")
    c.add_argument("--s", type=float, default=0.0,
                   help="Rydberg limit of l/n_r (asymptotic moments)")
    c.add_argument("--regime", default="rydberg", choices=("rydberg", "highdim"))
    c.add_argument("--mode", default="leading", choices=("leading", "as-published"),
                   help="high-D Shannon variant")
    c.add_argument("--tol", type=float, default=None, help="oracle tolerance")
    c.set_defaults(fn=cmd_compute)

    u = sub.add_parser("uncertainty", help="uncertainty-relation report")
    u.add_argument("--state", required=True)
    u.add_argument("--relation", default="all",
                   choices=["all"] + sorted(uncertainty.RELATIONS))
    u.add_argument("--q", type=float, default=None, help="conjugate Renyi order")
    u.set_defaults(fn=cmd_uncertainty)

    s = sub.add_parser("sweep", help="grid sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--jobs", type=int, default=4)
    s.add_argument("--tol", type=float, default=None)
    s.set_defaults(fn=cmd_sweep)

    v = sub.add_parser("validate", help="run the cross-engine validation suite")
    v.add_argument("--preset", default="quick", choices=("quick", "full"))
    v.add_argument("--report", default=None, help="also write a JSON report file")
    v.set_defaults(fn=cmd_validate)

    lq = sub.add_parser("list-quantities", help="enumerate computable quantities")
    lq.set_defaults(fn=cmd_list_quantities)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, UnsupportedError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        if exc.value is not None:
            _emit({"value": exc.value, "error_estimate": exc.error_estimate,
                   "converged": False})
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
