"""Output checker: every operation's output against an independent route.

It runs after the timed region.  Each operation yields one or more checked
results (a compute request, an uncertainty report, a sweep row, a validate
check); a result fails on an exception, a nonzero exit, output that is not
strict JSON (bare NaN / Infinity), a missing value, a value outside
tolerance, or the per-operation limit being hit.

References:
- energy and the k = 2 Heisenberg product: exact forms;
- moments and Fisher information: the program's oracle engine (Gauss rules
  on the radial density, independent of the hypergeometric algebra);
- Shannon, Renyi, disequilibrium: direct density integrals from
  ``reference.py``;
- uncertainty reports: the ``satisfied`` flag of every relation;
- validate: each check's status against the statuses of the seed commit;
- asymptotic sweep rows: the residual against the exact value of the same
  row must shrink along the n_r ladder, the criterion ``dho validate``
  applies to its own Rydberg ladders.

Tolerances are those ``dho validate`` enforces for the same comparison, or
the error estimate the program printed with the value when that is larger.

Failures of the kinds listed in ``KNOWN_DEFECTS`` are defects of the seed
commit.  They count as failures like any other; ``correct`` turns false only
when a failure of another kind appears.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import reference

# (absolute or relative, tolerance) per quantity, as dho validate uses them
TOLERANCE = {
    "energy": ("rel", 1e-12),
    "moment": ("rel", 1e-10),          # moments_closed_vs_oracle
    "heisenberg": ("rel", 1e-12),      # heisenberg_k2_exact
    "fisher": ("rel", 1e-12),          # fisher_closed_and_moment_form
    "shannon": ("abs", 1e-9),          # shannon_bbm_saturation_and_cross_engine
    "shannon-cartesian": ("abs", 1e-7),  # shannon_cartesian_vs_oracle
    "renyi": ("abs", 1e-8),            # renyi_cartesian_vs_oracle
    "disequilibrium": ("rel", 1e-9),   # disequilibrium_closed_vs_oracle
}

# validate --preset full statuses on the seed commit; every other check passes
VALIDATE_SPECIAL = {
    "cartesian_width_exponent": "paper_discrepancy",
    "hermite_entropy_domain": "paper_discrepancy",
    "disequilibrium_ground_radial_constant": "paper_discrepancy",
    "disequilibrium_swave_angular": "paper_discrepancy",
    "highdim_shannon_scaling_report": "scaling_report",
}
VALIDATE_CHECKS = 27

# Highest axis degree at which the seed's closed Cartesian forms stay within
# tolerance, per form (Shannon, Renyi q = 2, q = 3), measured on one axis over
# omega in {0.5, 1, 2} and both spaces.  Above it they return wrong values or
# raise (Renyi q = 3 raises a ValueError at n = 16).
CARTESIAN_CLOSED_MAX_OK = {None: 16, 2.0: 10, 3.0: 8}

KNOWN_DEFECTS = {
    "cartesian-closed": "closed Cartesian Shannon / integer-q Renyi above the degrees "
                        "in CARTESIAN_CLOSED_MAX_OK: wrong values or uncaught errors "
                        "from the root and Lauricella sums",
    "moment-dual-form": "closed moments at n_r > 21 with k not even: the inline "
                        "3F2 cross-check loses digits and raises ConsistencyError",
    "disequilibrium-overflow": "closed disequilibrium at n_r > 100: the radial "
                               "triple sum overflows",
    "rydberg-renyi-offset": "asymptotic Renyi rows: the residual against the exact "
                            "value tends to ln 2 instead of shrinking",
}


class Failure:
    def __init__(self, what: str, known: str | None = None):
        self.what = what
        self.known = known


def strict_json(line: str):
    def refuse(token):
        raise ValueError(f"non-JSON number {token}")

    return json.loads(line, parse_constant=refuse)


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _compare(kind: str, got: float, want: float, stated: float | None) -> str | None:
    mode, tol = TOLERANCE[kind]
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return f"value {got!r} is not a finite number"
    dev = abs(got - want)
    if mode == "rel":
        dev /= max(abs(want), 1e-300)
    if stated is not None and mode == "abs":
        tol = max(tol, stated)
    if dev > tol:
        return f"{kind}: got {got!r}, reference {want!r} ({mode} dev {dev:.2e} > {tol:.0e})"
    return None


@lru_cache(maxsize=4096)
def _dho_reference(quantity: str, state_json: str, space: str, k: float | None) -> float:
    """Moments and Fisher through the program's oracle engine."""
    from dho import infomeasures, moments, states

    st = states.parse_state(state_json)
    sp = states.Space(space)
    if quantity == "moment":
        return moments.oracle_radial_moment(st, k, sp)
    return infomeasures.fisher(st, sp, "oracle").value


@lru_cache(maxsize=4096)
def _reference(quantity: str, state_json: str, space: str, k, q) -> float:
    state = json.loads(state_json)
    if quantity == "energy":
        return reference.energy(state)
    if quantity == "heisenberg":
        return reference.heisenberg_k2(state)
    if quantity in ("moment", "fisher"):
        return _dho_reference(quantity, state_json, space, k)
    if quantity == "shannon":
        return reference.shannon(state, space)
    if quantity == "renyi":
        return reference.renyi(state, space, q)
    if quantity == "disequilibrium":
        return reference.disequilibrium(state)
    raise ValueError(quantity)


def _known_kind(quantity: str, engine: str, state: dict, q=None) -> str | None:
    if (state.get("kind") == "cartesian" and engine == "closed"
            and quantity in ("shannon", "renyi")
            and max(state["n"]) > CARTESIAN_CLOSED_MAX_OK.get(q, -1)):
        return "cartesian-closed"
    if quantity == "moment" and engine == "closed" and state.get("nr", 0) > 21:
        return "moment-dual-form"
    if quantity == "disequilibrium" and engine == "closed" and state.get("nr", 0) > 100:
        return "disequilibrium-overflow"
    return None


def check_record(quantity: str, engine: str, state: dict, space: str,
                 k, q, rec: dict) -> str | None:
    """None if the printed record matches the reference, else why not."""
    if rec.get("value") is None:
        return "no value in the record"
    if quantity == "heisenberg" and k != 2:
        raise ValueError("only k = 2 Heisenberg products have an exact reference")
    if quantity == "disequilibrium":
        space = "position"
    kind = quantity
    if quantity == "shannon" and state["kind"] == "cartesian":
        kind = "shannon-cartesian"
    try:
        want = _reference(quantity, json.dumps(state, sort_keys=True), space,
                          None if k is None else float(k), None if q is None else float(q))
    except Exception as exc:  # noqa: BLE001 - a reference that cannot be formed
        return f"no reference: {type(exc).__name__}: {exc}"
    return _compare(kind, rec["value"], want, rec.get("error_estimate"))


# ---------------------------------------------------------------------------
# per operation kind


def check_query(op: dict, rec: dict | None) -> list[Failure | None]:
    argv = op["argv"]
    state = json.loads(_arg(argv, "--state"))
    if argv[0] == "uncertainty":
        return [_check_uncertainty(state, rec)]
    quantity = _arg(argv, "--quantity")
    engine = _arg(argv, "--engine", "closed")
    k = _arg(argv, "--k")
    q = _arg(argv, "--q")
    k, q = (None if k is None else float(k)), (None if q is None else float(q))
    known = _known_kind(quantity, engine, state, q)
    bad = _run_failure(rec)
    if bad:
        return [Failure(bad, known)]
    lines = rec["out"].splitlines()
    try:
        records = [strict_json(line) for line in lines]
    except ValueError as exc:
        return [Failure(f"unparseable output: {exc}", known)]
    if len(records) != 1:
        return [Failure(f"expected one record, got {len(records)}", known)]
    why = check_record(quantity, engine, state, _arg(argv, "--space", "position"),
                       k, q, records[0])
    return [Failure(why, known) if why else None]


def _check_uncertainty(state: dict, rec: dict | None) -> Failure | None:
    bad = _run_failure(rec)
    if bad:
        return Failure(bad)
    try:
        reports = [strict_json(line) for line in rec["out"].splitlines()]
    except ValueError as exc:
        return Failure(f"unparseable output: {exc}")
    expected = 8 if state["kind"] == "hyper" else 2
    if len(reports) != expected:
        return Failure(f"expected {expected} relations, got {len(reports)}")
    unsatisfied = [r.get("relation_id", "?") for r in reports if r.get("satisfied") is not True]
    return Failure(f"relations not satisfied: {unsatisfied}") if unsatisfied else None


def _run_failure(rec: dict | None) -> str | None:
    if rec is None:
        return "not run: the run's time limit was hit first"
    if rec.get("exc"):
        return f"uncaught {rec['exc']}"
    if rec.get("rc") not in (0, None):
        return f"exit code {rec['rc']}: {rec.get('err', '').strip()[:200]}"
    return None


def sweep_rows(config: dict) -> list[tuple]:
    """(state, quantity spec, engine) in the program's row order."""
    spec = config["states"]
    out = []
    for D in spec["D"]:
        for om in spec["omega"]:
            for nr in spec["nr"]:
                for mu in spec["mu"]:
                    st = {"kind": "hyper", "D": D, "omega": om, "nr": nr, "mu": mu}
                    for qs in config["quantities"]:
                        qs = {"id": qs} if isinstance(qs, str) else qs
                        for eng in config.get("engines", ["closed"]):
                            out.append((st, qs, eng))
    return out


def check_sweep(op: dict, rec: dict | None) -> list[Failure | None]:
    config = op["config"]
    expected = sweep_rows(config)
    space = config.get("space", "position")
    results: list[Failure | None] = []
    if rec is None or rec.get("exc"):
        why = _run_failure(rec)
        return [Failure(why, _known_kind(qs["id"], eng, st)) for st, qs, eng in expected]
    try:
        rows = [strict_json(line) for line in rec["out"].splitlines()]
    except ValueError as exc:
        return [Failure(f"unparseable output: {exc}") for _ in expected]
    if len(rows) != len(expected):
        return [Failure(f"expected {len(expected)} rows, got {len(rows)}") for _ in expected]
    exact: dict[tuple, float] = {}
    asymptotic: dict[tuple, list] = {}
    for (st, qs, eng), row in zip(expected, rows):
        known = _known_kind(qs["id"], eng, st)
        if row.get("error"):
            results.append(Failure(f"row error: {row['error'][:200]}", known))
            continue
        series = (json.dumps(st["mu"]), qs["id"], qs.get("k"), qs.get("q"))
        if eng.startswith("asymptotic"):
            asymptotic.setdefault(series, []).append((st["nr"], row.get("value"), len(results)))
            results.append(None)
            continue
        exact[series + (st["nr"],)] = row.get("value")
        why = check_record(qs["id"], eng, st, space, qs.get("k"), qs.get("q"), row)
        results.append(Failure(why, known) if why else None)
    for series, points in asymptotic.items():
        why = _ladder_failure(series, points, exact)
        if why:
            known = "rydberg-renyi-offset" if series[1] == "renyi" else None
            for _, _, idx in points:
                results[idx] = Failure(why, known)
    return results


def _ladder_failure(series, points, exact) -> str | None:
    resid = []
    for nr, value, _ in sorted(points):
        ref = exact.get(series + (nr,))
        if value is None or ref is None or not math.isfinite(value):
            return f"asymptotic {series[1]}: no value or no exact value at n_r={nr}"
        dev = abs(value - ref)
        # moments compare relatively; entropies are logarithms, so absolutely
        resid.append(dev / max(abs(ref), 1e-300) if series[1] == "moment" else dev)
    if any(b >= a for a, b in zip(resid, resid[1:])):
        return (f"asymptotic {series[1]}: residual does not shrink along n_r: "
                + ", ".join(f"{r:.3e}" for r in resid))
    return None


def check_validate(op: dict, rec: dict | None) -> list[Failure | None]:
    bad = _run_failure(rec) if rec is None or rec.get("exc") else None
    if bad:
        return [Failure(bad)] * VALIDATE_CHECKS
    try:
        results = [strict_json(line) for line in rec["out"].splitlines()]
    except ValueError as exc:
        return [Failure(f"unparseable output: {exc}")] * VALIDATE_CHECKS
    out: list[Failure | None] = []
    for res in results:
        want = VALIDATE_SPECIAL.get(res.get("check_id"), "pass")
        got = res.get("status")
        out.append(None if got == want else
                   Failure(f"validate {res.get('check_id')}: status {got}, expected {want}"))
    missing = VALIDATE_CHECKS - len(results)
    out += [Failure("validate: check missing from the report")] * max(0, missing)
    return out


def check_op(op: dict, rec: dict | None) -> list[Failure | None]:
    if "config" in op:
        return check_sweep(op, rec)
    if op["argv"][0] == "validate":
        return check_validate(op, rec)
    return check_query(op, rec)
