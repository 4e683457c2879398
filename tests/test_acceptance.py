"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
every tolerance is pinned here, none is deferred to later calibration.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from dho import asymptotics, infomeasures, moments, oracle, uncertainty, validation
from dho.infomeasures import ENGINE_ORACLE
from dho.specfun import EULER_GAMMA
from dho.states import CartesianState, HyperState, OscillatorSpec, Space

LN_PI = math.log(math.pi)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_moments():
    t0 = time.monotonic()
    oracle_chk = validation.CHECKS["moments_closed_vs_oracle"]("full")
    dual_chk = validation.CHECKS["moment_3f2_vs_finite_sum"]("full")
    loop_chk = validation.CHECKS["moment_recurrence_and_reflection"]("full")
    elapsed = time.monotonic() - t0
    ok = (oracle_chk.max_deviation <= 1e-10 and dual_chk.max_deviation <= 1e-12
          and loop_chk.max_deviation <= 1e-11 and elapsed < 30.0)
    report("1 moments", ok,
           f"oracle {oracle_chk.max_deviation:.1e} <= 1e-10, "
           f"dual {dual_chk.max_deviation:.1e} <= 1e-12, "
           f"loops {loop_chk.max_deviation:.1e} <= 1e-11, {elapsed:.1f}s < 30s")


def test_criterion_2_heisenberg():
    chk = validation.CHECKS["heisenberg_k2_exact"]("full")
    report("2 heisenberg", chk.max_deviation <= 1e-12,
           f"dev {chk.max_deviation:.1e} <= 1e-12 incl. ground saturation and "
           "omega invariance")


def test_criterion_3_fisher():
    chk = validation.CHECKS["fisher_closed_and_moment_form"]("full")
    g = HyperState(OscillatorSpec(2.0, 3), 0, (0, 0))
    sat = all(uncertainty.check(rid, g).saturated
              for rid in ("stam", "fisher_product_general", "fisher_product_central"))
    report("3 fisher", chk.max_deviation <= 1e-12 and sat,
           f"dev {chk.max_deviation:.1e} <= 1e-12; ground saturates both product "
           "bounds and the gradient bounds")


def test_criterion_4_shannon():
    ref = validation.check_shannon_reference_values()
    cart = validation.CHECKS["shannon_cartesian_vs_oracle"]("full")
    bbm = validation.CHECKS["shannon_bbm_saturation_and_cross_engine"]("full")
    swave = validation.CHECKS["swave_angular_entropy"]("full")
    ok = (ref.status == "pass" and cart.max_deviation <= 1e-7
          and bbm.max_deviation <= 1e-9 and swave.max_deviation <= 1e-10)
    report("4 shannon", ok,
           f"1-D refs pass, cartesian-vs-oracle {cart.max_deviation:.1e} <= 1e-7, "
           f"BBM/cross-engine {bbm.max_deviation:.1e} <= 1e-9, "
           f"S-wave angular {swave.max_deviation:.1e} <= 1e-10")


def test_criterion_5_renyi_disequilibrium():
    ren = validation.CHECKS["renyi_cartesian_vs_oracle"]("full")
    ground = validation.CHECKS["renyi_ground_closed_form"]("full")
    diseq = validation.CHECKS["disequilibrium_closed_vs_oracle"]("full")
    routes = validation.CHECKS["disequilibrium_d3_3j_vs_dougall_vs_oracle"]("full")
    conj = validation.CHECKS["renyi_conjugate_bound_and_ground_saturation"]("full")
    ok = (ren.max_deviation <= 1e-8 and ground.max_deviation <= 1e-10
          and diseq.max_deviation <= 1e-9 and routes.max_deviation <= 1e-9
          and conj.status == "pass")
    report("5 renyi/disequilibrium", ok,
           f"lauricella-vs-oracle {ren.max_deviation:.1e} <= 1e-8, ground "
           f"{ground.max_deviation:.1e} <= 1e-10, diseq {diseq.max_deviation:.1e} "
           f"and 3j/Dougall {routes.max_deviation:.1e} <= 1e-9, conjugate bound ok")


def test_criterion_6_hermite_entropy():
    target = math.sqrt(math.pi) * (4.0 - 2.0 * EULER_GAMMA)
    dev1 = abs(infomeasures.hermite_entropy(1) - target) / target
    chk = validation.check_hermite_entropy()
    report("6 hermite entropy", dev1 <= 1e-9 and chk.max_deviation <= 1e-8,
           f"E(H_1) dev {dev1:.1e} <= 1e-9, formula-vs-oracle n<=8 "
           f"{chk.max_deviation:.1e} <= 1e-8")


def test_criterion_7_rydberg():
    t0 = time.monotonic()
    mom = validation.check_rydberg_moments("full")
    ent = validation.check_laguerre_entropy_asymptotics("full")
    norm = validation.check_rydberg_norm_ratio("full")
    elapsed = time.monotonic() - t0
    ok = (mom.status == "pass" and ent.status == "pass"
          and norm.max_deviation <= 0.10 and elapsed < 300.0)
    report("7 rydberg asymptotics", ok,
           f"{mom.detail}; {ent.detail}; norm ratio dev {norm.max_deviation:.1e} "
           f"<= 0.1; {elapsed:.1f}s < 300s")


def test_criterion_8_highdim():
    r2 = validation.CHECKS["highdim_ground_r2_exact"]("full")
    ren = validation.check_highdim_renyi_remainder("full")
    scaling = validation.shannon_scaling_report()
    produced = scaling.status == "scaling_report" and scaling.extra.get("rows")
    print("  scaling report:", scaling.detail)
    for row in scaling.extra["rows"]:
        print(f"    D={row['D']}: exact={row['exact']:.4f} "
              f"leading={row['leading_mode']:.4f} published={row['published_mode']:.4f}")
    report("8 high-D asymptotics",
           r2.max_deviation <= 1e-12 and ren.status == "pass" and bool(produced),
           f"ground r^2 exact {r2.max_deviation:.1e} <= 1e-12; {ren.detail}; "
           "scaling report produced")


def test_criterion_9_uncertainty_suite():
    rel = validation.CHECKS["uncertainty_all_relations"]("full")
    census = validation.check_saturation_census("full")
    report("9 uncertainty suite", rel.status == "pass" and census.status == "pass",
           f"{rel.detail}, zero violations; census matches the closed-form "
           "equality conditions and the published ground-state claims")


def test_criterion_10_cli_validate():
    t0 = time.monotonic()
    p1 = subprocess.run([sys.executable, "-m", "dho.cli", "validate",
                         "--preset", "quick"], capture_output=True)
    elapsed = time.monotonic() - t0
    p2 = subprocess.run([sys.executable, "-m", "dho.cli", "validate",
                         "--preset", "quick"], capture_output=True)
    recs = [json.loads(line) for line in p1.stdout.decode().splitlines()]
    statuses = [r["status"] for r in recs]
    ok = (p1.returncode == 0 and p1.stdout == p2.stdout and elapsed < 60.0
          and statuses.count("paper_discrepancy") == 4
          and statuses.count("scaling_report") == 1
          and statuses.count("fail") == 0)
    ids = sorted(r["check_id"] for r in recs if r["status"] == "paper_discrepancy")
    expected_ids = ["cartesian_width_exponent", "disequilibrium_ground_radial_constant",
                    "disequilibrium_swave_angular", "hermite_entropy_domain"]
    report("10 cli validate", ok and ids == expected_ids,
           f"{elapsed:.1f}s < 60s, byte-identical reruns, four documented "
           "discrepancies plus the scaling note")
