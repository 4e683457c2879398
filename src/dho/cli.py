"""Command-line front end: compute, sweep, uncertainty, validate, list-quantities.

Output is deterministic: JSON lines use Python's shortest-roundtrip float
representation (lowercase exponents), CSV rows follow RFC 4180, and sweep row
order is the lexicographic order of the configuration ranges regardless of the
parallel execution order.  Exit codes: 2 parse error, 3 domain error (also an
unserved quantity x engine pair, a non-finite parameter or a float overflow),
4 convergence error (a partial result is still printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from . import infomeasures, moments, states, uncertainty
from .errors import ConvergenceError, DomainError, ParseError, UnsupportedError
from .states import HyperState, Space

EXIT_PARSE, EXIT_DOMAIN, EXIT_CONVERGENCE = 2, 3, 4

ENGINES = ("closed", "oracle", "asymptotic")
REGIMES = ("rydberg", "highdim")
MODES = ("leading", "as-published")
# sweep engine string -> (engine, regime, mode); None leaves the quantity
# spec's own "regime" / "mode" in force
SWEEP_ENGINES = {**{e: (e, None, None) for e in ENGINES},
                 "asymptotic:rydberg": ("asymptotic", "rydberg", None),
                 "asymptotic:highdim": ("asymptotic", "highdim", None),
                 "asymptotic:highdim-published": ("asymptotic", "highdim", "as-published")}
# keys a sweep "states" spec of each kind must carry, and the output formats
STATE_KEYS = {"hyper": ("D", "omega", "nr", "mu"), "cartesian": ("omega", "n")}
OUTPUTS = ("json", "csv")


def _measured(fn):
    """closed and oracle evaluators of fn(state, space, args, engine) -> MeasureValue."""
    def evaluator(engine):
        def evaluate(st, sp, a):
            mv = fn(st, sp, a, engine)
            return mv.space, mv.engine, mv.value, mv.error_estimate, None
        return evaluate
    return {engine: evaluator(engine) for engine in ("closed", "oracle")}


def _asymptotic(rydberg, highdim, spatial=True):
    """Asymptotic evaluator: the Rydberg or the high-D form, by args.regime.
    Both take the asymptotics module first; it is imported here because it
    loads scipy.integrate, which no other route needs."""
    def evaluate(st, sp, a):
        from . import asymptotics

        av = (highdim if a.regime == "highdim" else rydberg)(asymptotics, st, sp, a)
        return sp if spatial else None, "asymptotic", av.value, None, av.order_note
    return evaluate


# id -> (description, parameter it takes, serves Cartesian states,
#        engine -> evaluator(state, space, args) returning
#        (space, engine tag, value, error estimate, order note)).
# Evaluators reach the engines through their modules at call time.
QUANTITIES = {
    "energy": ("eigenvalue (N + D/2) omega", None, True, {
        "closed": lambda st, sp, a: (None, "closed", states.energy(st), None, None)}),
    "moment": ("radial expectation value <r^k> (or <p^k>); takes --k", "k", False, {
        "closed": lambda st, sp, a: (sp, "closed", moments.radial_moment(st, a.k, sp),
                                     None, None),
        "oracle": lambda st, sp, a: (sp, "oracle", moments.oracle_radial_moment(st, a.k, sp),
                                     1e-13, None),
        "asymptotic": _asymptotic(
            lambda asy, st, sp, a: asy.rydberg_moment(
                a.k, st.n_r, asy.RydbergLimit(a.s), st.spec.omega, sp),
            lambda asy, st, sp, a: asy.highdim_moment(
                a.k, st.spec.dim, st.spec.omega, st.n_r, st.l, space=sp))}),
    "heisenberg": ("generalized product <r^k><p^k>; takes --k", "k", False, {
        "closed": lambda st, sp, a: (None, "closed", moments.heisenberg_product(st, a.k),
                                     None, None),
        "asymptotic": _asymptotic(
            lambda asy, st, sp, a: asy.rydberg_heisenberg(a.k, st.n_r),
            lambda asy, st, sp, a: asy.highdim_heisenberg(a.k, st.spec.dim),
            spatial=False)}),
    "fisher": ("Fisher information of the position/momentum density", None, False,
               _measured(lambda st, sp, a, e: infomeasures.fisher(st, sp, e))),
    "shannon": ("Shannon entropy of the position/momentum density", None, True, {
        **_measured(lambda st, sp, a, e: infomeasures.shannon(st, sp, e, tol=a.tol)),
        "asymptotic": _asymptotic(
            lambda asy, st, sp, a: asy.rydberg_shannon(st, sp, tol=a.tol),
            lambda asy, st, sp, a: asy.highdim_shannon(st, sp, a.mode.replace("-", "_")))}),
    "renyi": ("Renyi entropy; takes --q", "q", True, {
        **_measured(lambda st, sp, a, e: infomeasures.renyi(st, a.q, sp, e, tol=a.tol)),
        "asymptotic": _asymptotic(
            lambda asy, st, sp, a: asy.rydberg_renyi(st, a.q, sp, tol=a.tol),
            lambda asy, st, sp, a: asy.highdim_renyi(st, a.q, sp))}),
    "disequilibrium": ("int rho^2 (= exp(-R_2)); position space", None, False,
                       _measured(lambda st, sp, a, e: infomeasures.disequilibrium(
                           st, e, tol=a.tol))),
}


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _record(state, quantity, space, engine, value, error_estimate=None,
            order_note=None, **extra) -> dict:
    for x in (value, error_estimate):
        if x is not None and not math.isfinite(x):
            raise DomainError(f"{quantity} is not finite in floating point: {x!r}")
    rec = {"state": states.state_to_dict(state), "quantity": quantity,
           "space": None if space is None else space.value, "engine": engine,
           "value": None if value is None else float(value),
           "error_estimate": None if error_estimate is None else float(error_estimate),
           "order_note": order_note}
    rec.update(extra)
    return rec


def _json_number(x):
    """x, or None in place of a float NaN or infinity (not valid JSON)."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _require_finite(name: str, value) -> None:
    """Refuse a parameter that is set but not a finite real number (tol > 0)."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not math.isfinite(value) or name == "tol" and value <= 0):
        raise DomainError(f"{name} must be a finite real number"
                          f"{' > 0' if name == 'tol' else ''}, got {value!r}")


def _compute_one(state, quantity: str, space: Space, engine: str, args) -> dict:
    """Evaluate one quantity for one state; shared by compute and sweep."""
    if quantity not in QUANTITIES:
        raise ParseError(f"unknown quantity {quantity!r}; see list-quantities")
    _, param, cartesian, evaluators = QUANTITIES[quantity]
    if engine not in evaluators:
        raise UnsupportedError(f"{quantity} has no {engine} engine; see list-quantities")
    if param and getattr(args, param) is None:
        raise ParseError(f"--{param} is required for {quantity}")
    for name in ("k", "q", "s", "tol"):
        _require_finite(name, getattr(args, name))
    # the Rydberg and high-D limits are taken along hyperspherical ladders
    if not isinstance(state, HyperState) and (not cartesian or engine == "asymptotic"):
        raise DomainError(f"{quantity} ({engine}) requires a hyperspherical state; "
                          "Cartesian states support energy and closed/oracle "
                          "shannon/renyi")
    extra = {"q": args.q} if param == "q" else {}
    return _record(state, quantity, *evaluators[engine](state, space, args), **extra)


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
    _require_finite("q", args.q)
    reports = (uncertainty.check_all(state, q=args.q) if args.relation == "all"
               else [uncertainty.check(args.relation, state, q=args.q)])
    for rep in reports:
        rec = asdict(rep)
        rec["state"] = states.state_to_dict(state)
        _emit(rec)
    return 0


def _expand_states(spec: dict) -> list:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in STATE_KEYS:
        raise ParseError(f"unknown state kind {kind!r} in sweep config")
    missing = [key for key in STATE_KEYS[kind] if key not in spec]
    if missing:
        raise ParseError(f"sweep {kind} states spec lacks {missing}")
    axes = []  # each key's list of values; a single value stands for itself
    for key in STATE_KEYS[kind]:
        value = spec[key]
        if key in ("mu", "n"):  # a state's own list: only a list of lists is a range
            if not isinstance(value, list) or not value:
                raise ParseError(f"sweep states {key!r} must be a non-empty list")
            axes.append(value if isinstance(value[0], list) else [value])
        elif value == []:
            raise ParseError(f"sweep states {key!r} is an empty range")
        else:
            axes.append(value if isinstance(value, list) else [value])
    return [states.state_from_dict({"kind": kind, **dict(zip(STATE_KEYS[kind], combo))})
            for combo in itertools.product(*axes)]


def _resolve_engine(request, qspec: dict) -> tuple[str, str, str]:
    """The (engine, regime, mode) that compute's --engine/--regime/--mode give,
    for a sweep engine string and the quantity spec's "regime" / "mode"."""
    if not isinstance(request, str) or request not in SWEEP_ENGINES:
        raise ParseError(f"unknown engine {request!r} in sweep config; "
                         f"known: {sorted(SWEEP_ENGINES)}")
    regime, mode = qspec.get("regime", "rydberg"), qspec.get("mode", "leading")
    for name, value, known in (("regime", regime, REGIMES), ("mode", mode, MODES)):
        if value not in known:
            raise ParseError(f"unknown {name} {value!r} in sweep config; known: {known}")
    engine, fixed_regime, fixed_mode = SWEEP_ENGINES[request]
    return engine, fixed_regime or regime, fixed_mode or mode


def _sweep_rows(config: dict, args) -> tuple[list[dict], bool]:
    requests = []  # (quantity spec, engine string, resolved engine), config order
    for qspec in config["quantities"]:
        qspec = {"id": qspec} if isinstance(qspec, str) else qspec
        qid = qspec.get("id") if isinstance(qspec, dict) else qspec
        if not isinstance(qid, str) or qid not in QUANTITIES:
            raise ParseError(f"unknown quantity {qid!r} in sweep config; "
                             f"known: {sorted(QUANTITIES)}")
        requests += [(qspec, eng, _resolve_engine(eng, qspec))
                     for eng in config["engines"]]
    space = config.get("space", "position")
    if space not in [sp.value for sp in Space]:
        raise ParseError(f"unknown space {space!r} in sweep config")
    space = Space(space)
    jobs = [(st, *req) for st in _expand_states(config["states"]) for req in requests]

    def run(job):
        st, qspec, eng, (engine, regime, mode) = job
        ns = argparse.Namespace(k=qspec.get("k"), q=qspec.get("q"), s=qspec.get("s", 0.0),
                                regime=regime, mode=mode, tol=args.tol)
        try:
            rec = _compute_one(st, qspec["id"], space, engine, ns)
            rec["error"] = ""
        except Exception as exc:  # per-row failures land in the error column
            rec = _record(st, qspec["id"], space, eng, None)
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["engine_request"] = eng
        rec["k"] = _json_number(qspec.get("k"))
        rec["q"] = _json_number(qspec.get("q"))
        return rec

    if args.jobs == 1:
        rows = [run(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
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
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"sweep config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ParseError("sweep config must be a JSON object")
    config.setdefault("engines", ["closed"])
    for key, shape in (("states", dict), ("quantities", list), ("engines", list)):
        value = config.get(key)
        if not value or not isinstance(value, shape):
            raise ParseError(f"sweep config needs a non-empty {key!r} "
                             f"({'object' if shape is dict else 'list'})")
    fmt = config.get("output", "json")
    if fmt not in OUTPUTS:
        raise ParseError(f"unknown output format {fmt!r}; known: {OUTPUTS}")
    plot = config.get("plot")
    if plot and not (isinstance(plot, dict) and {"x_axis", "file"} <= plot.keys()):
        raise ParseError("sweep 'plot' needs an 'x_axis' and a 'file'")
    rows, failed = _sweep_rows(config, args)
    if fmt == "json":
        for r in rows:
            _emit(r)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow([_format_cell(r.get(c)) for c in CSV_COLUMNS])
        sys.stdout.write(buf.getvalue())
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
    from . import validation

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
        description, _, _, evaluators = QUANTITIES[qid]
        _emit({"id": qid, "description": description, "engines": list(evaluators)})
    return 0


# ---------------------------------------------------------------------------


def _default_jobs() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(4, cpus)


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
    c.add_argument("--regime", default="rydberg", choices=REGIMES)
    c.add_argument("--mode", default="leading", choices=MODES,
                   help="high-D Shannon variant")
    c.add_argument("--tol", type=float, default=None, help="oracle tolerance")
    c.set_defaults(fn=cmd_compute)

    u = sub.add_parser("uncertainty", help="uncertainty-relation report")
    u.add_argument("--state", required=True)
    u.add_argument("--relation", default="all",
                   choices=["all"] + sorted(uncertainty.RELATIONS))
    u.add_argument("--q", type=float, default=2.0, help="conjugate Renyi order")
    u.set_defaults(fn=cmd_uncertainty)

    s = sub.add_parser("sweep", help="grid sweep from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--jobs", type=int, default=_default_jobs(),
                   help="sweep threads (default: up to 4, no more than the usable CPUs)")
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
    except (DomainError, UnsupportedError, ArithmeticError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        if exc.value is not None:
            _emit({"value": _json_number(exc.value),
                   "error_estimate": _json_number(exc.error_estimate), "converged": False})
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
