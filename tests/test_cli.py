"""CLI surface: outputs, exit codes, determinism, sweep formats, plots."""

import argparse
import json
import math
import subprocess
import sys
import threading

import pytest

from dho import cli, specfun

GROUND3 = '{"kind":"hyper","D":3,"omega":1,"nr":0,"mu":[0,0]}'


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "dho.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_compute_fisher_ground():
    rc, out, _ = run_cli("compute", "--state", GROUND3, "--quantity", "fisher",
                         "--space", "position")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == 6.0
    assert rec["engine"] == "closed"
    assert rec["state"] == {"kind": "hyper", "D": 3, "omega": 1.0, "nr": 0,
                            "mu": [0, 0]}


def test_compute_moment_k0():
    rc, out, _ = run_cli("compute", "--state", GROUND3, "--quantity", "moment",
                         "--k", "0")
    assert rc == 0
    assert json.loads(out)["value"] == 1.0


def test_compute_shannon_oracle_1d():
    rc, out, _ = run_cli("compute", "--state",
                         '{"kind":"cartesian","omega":1.0,"n":[1]}',
                         "--quantity", "shannon", "--engine", "oracle")
    assert rc == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(1.3427280, abs=5e-7)
    assert rec["engine"] == "oracle"


def test_compute_closed_renyi_at_high_cartesian_degree(capsys):
    # the paper's Lauricella sum is non-positive here; the served value is exact
    state = '{"kind":"cartesian","omega":1,"n":[24]}'
    assert cli.main(["compute", "--state", state, "--quantity", "renyi", "--q", "2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert math.isfinite(rec["value"]) and rec["engine"] == "closed"


def test_exit_code_parse_error():
    rc, _, err = run_cli("compute", "--state", "nope", "--quantity", "energy")
    assert rc == 2
    assert "parse error" in err


def test_exit_code_domain_error():
    rc, _, err = run_cli("compute", "--state", GROUND3, "--quantity", "moment",
                         "--k", "-9")
    assert rc == 3
    assert "domain error" in err


# main() builds its parser on the first call and reuses it for every later one


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["compute", "--state", GROUND3, "--quantity", "energy"]) == 0
        first = len(built)
        for quantity in (["fisher"], ["moment", "--k", "2"], ["energy"]):
            assert cli.main(["compute", "--state", GROUND3, "--quantity", *quantity]) == 0
        assert cli.main(["list-quantities"]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == first and built.count("dho") == 1


def test_refused_argv_and_help_leave_the_parser_as_a_fresh_one(capsys):
    def outcome(parse, argv):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        return stop.value.code, *capsys.readouterr()

    request = ["compute", "--state", GROUND3, "--quantity", "renyi", "--q", "3"]
    fresh_out = run_cli(*request)[1]
    for argv in (["compute", "--state", GROUND3, "--quantity", "bogus"],
                 ["compute", "--state", GROUND3],
                 ["compute", "--state", GROUND3, "--quantity", "moment", "--k", "two"],
                 ["sweep", "--config", "c.json", "--jobs", "many"],
                 ["no-such-command"],
                 ["compute", "--help"]):
        fresh = outcome(cli.build_parser.__wrapped__().parse_args, argv)
        assert outcome(cli.main, argv) == fresh
        assert fresh[0] == (0 if "--help" in argv else 2)
        assert cli.main(request) == 0
        assert capsys.readouterr().out == fresh_out


def test_options_of_one_call_do_not_reach_the_next(monkeypatch, capsys):
    seen = []
    compute_one = cli._compute_one

    def recorded(state, quantity, space, engine, args):
        seen.append(vars(args))
        return compute_one(state, quantity, space, engine, args)

    monkeypatch.setattr(cli, "_compute_one", recorded)
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "moment", "--k", "3",
                     "--q", "2", "--tol", "1e-9", "--space", "momentum",
                     "--engine", "oracle"]) == 0
    argv = ["compute", "--state", GROUND3, "--quantity", "energy"]
    assert cli.main(argv) == 0
    assert seen[0]["k"] == 3.0 and seen[0]["tol"] == 1e-9
    assert seen[1] == vars(cli.build_parser.__wrapped__().parse_args(argv))
    assert (seen[1]["k"], seen[1]["q"], seen[1]["tol"]) == (None, None, None)


@pytest.mark.parametrize("state", [
    '{"kind":"hyper","D":3,"omega":1,"nr":2.5,"mu":[0,0]}',
    '{"kind":"hyper","D":3.5,"omega":1,"nr":0,"mu":[0,0]}',
    '{"kind":"hyper","D":3,"omega":1,"nr":1,"mu":[1.5,0]}',
    '{"kind":"hyper","D":3,"omega":1,"nr":1e400,"mu":[0,0]}',
    '{"kind":"cartesian","omega":1,"n":[2,0.5]}',
    '{"kind":"hyper","D":3,"omega":Infinity,"nr":0,"mu":[0,0]}',
    '{"kind":"cartesian","omega":NaN,"n":[1]}',
])
def test_non_integer_or_non_finite_state_is_domain_error(state, capsys):
    assert cli.main(["compute", "--state", state, "--quantity", "energy"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "domain error" in err


@pytest.mark.parametrize("state", [
    '{"kind":"hyper","D":3,"omega":1,"nr":true,"mu":[0,0]}',
    '{"kind":"hyper","D":3,"omega":"1","nr":0,"mu":[0,0]}',
    '{"kind":"hyper","D":"3","omega":1,"nr":"2","mu":["1",0]}',
    '{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":["1",0]}',
    '{"kind":"hyper","D":3,"omega":1,"nr":0,"mu":[true,false]}',
    '{"kind":"hyper","D":3,"omega":1,"nr":0,"mu":"10"}',
    '{"kind":"hyper","D":3,"omega":1,"nr":0,"mu":{"0":0}}',
    '{"kind":"cartesian","omega":1,"n":"21"}',
    '{"kind":"cartesian","omega":false,"n":[1]}',
])
def test_bool_string_or_non_list_state_field_is_parse_error(state, capsys):
    assert cli.main(["compute", "--state", state, "--quantity", "energy"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "parse error" in err


def test_missing_parameter_is_parse_error():
    rc, _, _ = run_cli("compute", "--state", GROUND3, "--quantity", "moment")
    assert rc == 2


def test_list_quantities(capsys):
    rc, out, _ = run_cli("list-quantities")
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    ids = [r["id"] for r in recs]
    assert ids == sorted(ids)
    all3 = ["closed", "oracle", "asymptotic"]
    assert {r["id"]: r["engines"] for r in recs} == {
        "energy": ["closed"], "heisenberg": ["closed", "asymptotic"],
        "fisher": ["closed", "oracle"], "disequilibrium": ["closed", "oracle"],
        "moment": all3, "shannon": all3, "renyi": all3}
    # compute serves exactly the listed pairs; Cartesian states only the
    # closed/oracle energy, shannon and renyi
    hyper = '{"kind":"hyper","D":3,"omega":1,"nr":1,"mu":[1,0]}'
    cart = '{"kind":"cartesian","omega":1,"n":[1,2]}'
    for rec in recs:
        for engine in cli.ENGINES:
            states = [hyper] + ([cart] if rec["id"] in ("energy", "shannon", "renyi") else [])
            for st in states:
                rc = cli.main(["compute", "--state", st, "--quantity", rec["id"],
                               "--engine", engine, "--k", "2", "--q", "2"])
                out, err = capsys.readouterr()
                served = engine in rec["engines"] and (st == hyper or engine != "asymptotic")
                assert rc == (0 if served else 3), (rec["id"], engine, st, err)
                assert bool(out) == served


@pytest.mark.parametrize("extra", [
    ["--quantity", "moment", "--k", "inf"], ["--quantity", "moment", "--k", "nan"],
    ["--quantity", "renyi", "--q", "inf"], ["--quantity", "renyi", "--q=-inf"],
    ["--quantity", "moment", "--k", "1", "--engine", "asymptotic", "--s", "inf"],
    ["--quantity", "shannon", "--tol", "-1"], ["--quantity", "shannon", "--tol", "0"],
    ["--quantity", "shannon", "--tol", "inf"],
])
def test_non_finite_or_out_of_range_parameter_is_domain_error(extra, capsys):
    state = '{"kind":"hyper","D":3,"omega":1,"nr":1,"mu":[0,0]}'
    assert cli.main(["compute", "--state", state, *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "domain error" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--state", '{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":[1,0]}',
     "--quantity", "renyi", "--q", "1e308"],
    ["compute", "--state", '{"kind":"cartesian","omega":1,"n":[2]}',
     "--quantity", "renyi", "--q", "1e308"],
    ["uncertainty", "--state", GROUND3, "--q", "inf"],
    ["uncertainty", "--state", GROUND3, "--relation", "bbm", "--q", "nan"],
    ["compute", "--state", '{"kind":"hyper","D":3,"omega":1,"nr":7000,"mu":[0,0]}',
     "--quantity", "disequilibrium"],
])
def test_unbounded_order_or_non_finite_q_is_refused_before_any_rule(argv, monkeypatch,
                                                                     capsys):
    def build(*args, **kwargs):
        raise AssertionError("a Gauss rule was built")

    monkeypatch.setattr(specfun, "gauss_nodes", build)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error") and "Traceback" not in err


@pytest.mark.parametrize("state, q, engine", [
    (GROUND3, "1e308", "closed"),
    ('{"kind":"cartesian","omega":1,"n":[0]}', "1e308", "closed"),
    ('{"kind":"cartesian","omega":1,"n":[0]}', "1e308", "oracle"),
])
def test_renyi_whose_lq_integral_leaves_the_float_range_is_refused(state, q, engine,
                                                                   capsys):
    # at q = 1e308 the logarithm of a factor integral leaves the float range
    assert cli.main(["compute", "--state", state, "--quantity", "renyi", "--q", q,
                     "--engine", engine]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error") and "float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("q, engine", [("300", "closed"), ("700", "closed"),
                                       ("2000", "closed"), ("300", "oracle"),
                                       ("2000", "oracle")])
def test_renyi_whose_angular_moment_leaves_the_float_range_is_served(q, engine, capsys):
    # Lambda_q = (4 pi)^(1-q) underflows from q ~ 280 at D = 3, and its s-wave
    # factor 2^(1-q) from q ~ 1075, but the entropy sums the logarithms of
    # the factor integrals and never forms either
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "renyi", "--q", q,
                     "--engine", engine]) == 0
    qf = float(q)
    exact = 1.5 * math.log(math.pi * qf ** (1.0 / (qf - 1.0)))
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_renyi_below_the_float_range_edge_is_still_served(capsys):
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "renyi",
                     "--q", "250"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["value"])


@pytest.mark.parametrize("engine", ["closed", "oracle"])
@pytest.mark.parametrize("state, q, value", [
    ('{"kind":"hyper","D":3,"omega":0.01,"nr":3,"mu":[2,0]}', "300", 8.512898227834881),
    ('{"kind":"hyper","D":3,"omega":1,"nr":0,"mu":[5,0]}', "50", 2.1974325754843754),
    ('{"kind":"hyper","D":6,"omega":1,"nr":2,"mu":[4,0,0,0,0]}', "80", 2.1229410652215283),
    ('{"kind":"hyper","D":3,"omega":1,"nr":3,"mu":[2,0]}', "100", 1.6587166141973789),
])
def test_renyi_whose_factor_integral_leaves_the_float_range_is_served(state, q, value,
                                                                      engine, capsys):
    # the radial integral (oracle) or its Gauss-rule sum (closed, a bare
    # "math range error") left the float range; each is now summed in log
    # space.  References: mpmath quadrature of the factor densities
    assert cli.main(["compute", "--state", state, "--quantity", "renyi", "--q", q,
                     "--engine", engine]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("state, space", [
    ('{"kind":"hyper","D":2,"omega":1,"nr":3,"mu":[2]}', "position"),
    ('{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":[1,0]}', "position"),
    ('{"kind":"hyper","D":4,"omega":1,"nr":1,"mu":[1,1,0]}', "position"),
    ('{"kind":"hyper","D":5,"omega":1,"nr":2,"mu":[2,1,0,0]}', "position"),
    ('{"kind":"hyper","D":6,"omega":1,"nr":1,"mu":[1,0,0,0,0]}', "position"),
    ('{"kind":"cartesian","omega":1,"n":[8]}', "position"),
    ('{"kind":"cartesian","omega":2,"n":[3,2]}', "position"),
    ('{"kind":"cartesian","omega":0.5,"n":[1,0,2]}', "position"),
    ('{"kind":"cartesian","omega":0.5,"n":[1,0]}', "momentum"),
    ('{"kind":"cartesian","omega":1,"n":[2,1]}', "momentum"),
    ('{"kind":"cartesian","omega":0.5,"n":[0,3]}', "momentum"),
])
def test_oracle_entropy_estimates_stay_within_the_tolerance(state, space, capsys):
    # the states of the CLI corpus, less D = 3, mu (400, 0), whose degree-400
    # angular factor takes seconds per request (test_infomeasures checks its
    # Shannon estimate).  QUADPACK is asked for tol |1 - q| on a Renyi factor
    # integral where |1 - q| < 1, so the printed estimate of ln I / (1 - q)
    # keeps tol (at q = 0.7 it read 1.04x without)
    for extra in ([], ["--q", "0.7"], ["--q", "2"]):
        quantity = "renyi" if extra else "shannon"
        assert cli.main(["compute", "--state", state, "--quantity", quantity, *extra,
                         "--space", space, "--engine", "oracle"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["error_estimate"] <= 1e-11 * max(1.0, abs(rec["value"])), extra


@pytest.mark.parametrize("state, extra, name", [
    (GROUND3, ["--quantity", "renyi", "--q", "1e308", "--engine", "oracle"],
     "the Laguerre factor integral of degree 0"),
    (GROUND3, ["--quantity", "moment", "--k", "1000"], "<r^k>"),
    (GROUND3, ["--quantity", "moment", "--k", "1000", "--engine", "oracle"], "<r^k>"),
    (GROUND3, ["--quantity", "moment", "--k", "1000", "--space", "momentum"], "<r^k>"),
    (GROUND3, ["--quantity", "heisenberg", "--k", "1000"], "<r^k>"),
])
def test_value_that_leaves_the_float_range_is_refused_by_name(state, extra, name, capsys):
    # each overflowed (or underflowed) inside a float expression, and the
    # message was a bare "math range error" or a traceback
    assert cli.main(["compute", "--state", state, *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"domain error: {name}") and "leaves the float range" in err


@pytest.mark.parametrize("quantity", ["moment", "heisenberg"])
@pytest.mark.parametrize("k", ["2", "1000"])
def test_rydberg_asymptotics_refuse_the_ground_radial_state(quantity, k, capsys):
    # the leading term (4 n_r)^(k/2) vanishes at n_r = 0: it printed value 0.0
    assert cli.main(["compute", "--state", GROUND3, "--quantity", quantity, "--k", k,
                     "--engine", "asymptotic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "domain error: Rydberg asymptotics need n_r >= 1\n"


@pytest.mark.parametrize("quantity, name", [("moment", "<r^k>"), ("heisenberg", "<r^k><p^k>")])
def test_rydberg_asymptotics_out_of_the_float_range_are_refused_by_name(quantity, name,
                                                                        capsys):
    # (4 n_r)^(k/2) overflowed to a bare "(34, 'Numerical result out of range')"
    state = '{"kind":"hyper","D":3,"omega":1,"nr":100,"mu":[0,0]}'
    assert cli.main(["compute", "--state", state, "--quantity", quantity, "--k", "1000",
                     "--engine", "asymptotic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"domain error: {name} at k = 1000.0 leaves the float range\n"


def test_unsettled_bessel_constant_is_refused(capsys):
    # at 4096 panels the last doubling still moved C_B by more than its rtol
    # 1e-8, and the Renyi entropy was served from it
    state = '{"kind":"hyper","D":3,"omega":1,"nr":400,"mu":[8,0]}'
    assert cli.main(["compute", "--state", state, "--quantity", "renyi", "--q", "1.6",
                     "--engine", "asymptotic"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: the Bessel norm constant at alpha = 8.5")
    assert err.endswith("above rtol 1e-08\n")


@pytest.mark.parametrize("engine", ["closed", "oracle"])
def test_moment_whose_omega_free_part_overflows_is_served(engine, capsys):
    # <r^400> at omega = 10 is 10^-200 Gamma(201.5) / Gamma(1.5) = 1.26e176; the
    # omega-free factor alone overflows, which exited 3 before
    state = '{"kind":"hyper","D":3,"omega":10,"nr":0,"mu":[0,0]}'
    assert cli.main(["compute", "--state", state, "--quantity", "moment", "--k", "400",
                     "--engine", engine]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == pytest.approx(1.2608738702695202e176, rel=1e-12)


@pytest.mark.parametrize("extra, value", [
    (["--quantity", "renyi", "--q", "250", "--engine", "oracle"], 1.7503566415323064),
    (["--quantity", "moment", "--k", "300"], 7.915483159347463e+263),
    (["--quantity", "moment", "--k", "300", "--engine", "oracle"], 7.915483159346562e+263),
])
def test_value_below_the_float_range_edge_is_still_served(extra, value, capsys):
    assert cli.main(["compute", "--state", GROUND3, *extra]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("state, extra", [
    ('{"kind":"hyper","D":3,"omega":1e300,"nr":0,"mu":[0,0]}',
     ["--quantity", "moment", "--k", "4", "--space", "momentum"]),
    ('{"kind":"hyper","D":3,"omega":1e-310,"nr":0,"mu":[0,0]}',
     ["--quantity", "fisher", "--space", "momentum"]),
])
def test_float_overflow_is_domain_error(state, extra, capsys):
    assert cli.main(["compute", "--state", state, *extra]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "domain error" in err


# served values that fall below the normal float range: a subnormal, or a 0.0
# where the quantity is positive
UNDERFLOWS = [
    (1e300, {"id": "moment", "k": 4}, "closed"),
    (1e300, {"id": "moment", "k": 4}, "oracle"),
    (1e300, {"id": "moment", "k": 2.1}, "closed"),
    (1e-300, {"id": "disequilibrium"}, "closed"),
    (1e-300, {"id": "disequilibrium"}, "oracle"),
    (1e-310, {"id": "fisher"}, "closed"),
]


def _underflow_argv(omega, qspec, engine):
    state = json.dumps({"kind": "hyper", "D": 3, "omega": omega, "nr": 2, "mu": [1, 0]})
    params = [f"--{key}={value}" for key, value in qspec.items() if key != "id"]
    return ["compute", "--state", state, "--quantity", qspec["id"], "--engine", engine,
            *params]


@pytest.mark.parametrize("omega, qspec, engine", UNDERFLOWS)
def test_value_below_the_normal_float_range_is_refused(omega, qspec, engine, capsys):
    assert cli.main(_underflow_argv(omega, qspec, engine)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error") and "below the normal float range" in err


@pytest.mark.parametrize("omega, qspec, engine", UNDERFLOWS)
def test_value_below_the_normal_float_range_is_a_sweep_row_error(omega, qspec, engine,
                                                                 tmp_path, capsys):
    config = {"states": {"kind": "hyper", "D": 3, "omega": [1.0, omega], "nr": 2,
                         "mu": [1, 0]}, "quantities": [qspec], "engines": [engine]}
    rc, (served, refused) = _sweep(tmp_path, capsys, config)
    assert rc == 1
    assert served["error"] == "" and served["value"] > 0.0
    assert refused["error"].startswith("UnsupportedError")
    assert "below the normal float range" in refused["error"]
    assert refused["value"] is None


def test_uncertainty_slack_below_the_normal_float_range_is_refused(capsys):
    # stam's sides are 2.6e-299 here and their difference is subnormal
    state = json.dumps({"kind": "hyper", "D": 3, "omega": 1e-300, "nr": 2, "mu": [1, 0]})
    assert cli.main(["uncertainty", "--state", state]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: stam slack") and "below the normal float range" in err


def test_zero_is_served_where_the_quantity_may_vanish():
    # a Renyi or Shannon entropy of 0.0 is a value, not an underflow
    state = cli.states.parse_state(GROUND3)
    assert cli._record(state, "shannon", None, "closed", 0.0)["value"] == 0.0
    with pytest.raises(cli.UnsupportedError):
        cli._record(state, "energy", None, "closed", 0.0)


def _no_bare_constants(name):
    raise AssertionError(f"bare {name} in JSON output")


def test_non_finite_value_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(cli.states, "energy", lambda state: math.inf)
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "energy"]) == 3
    out, _ = capsys.readouterr()
    assert out == ""


def test_convergence_error_prints_no_value(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise cli.ConvergenceError("diverged", value=math.nan, error_estimate=math.inf)

    monkeypatch.setattr(cli.infomeasures, "fisher", diverge)
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "fisher"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "convergence error: diverged\n"


def test_failed_kernel_value_is_not_printed_as_the_quantity(capsys):
    # the radial entropy kernel cannot reach tol 1e-17; its partial integral
    # (about -108) is not the Shannon value (8.7606...)
    state = '{"kind":"hyper","D":3,"omega":1,"nr":60,"mu":[2,1]}'
    argv = ["compute", "--state", state, "--quantity", "shannon"]
    assert cli.main(argv + ["--tol", "1e-17"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "convergence error: tanh-sinh refinement exhausted\n"
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr()[0])["value"] == pytest.approx(8.7606353575, rel=1e-10)


def test_refused_real_q_kernel_writes_one_stderr_line():
    # the D = 300 ground state at q = 0.2: the closed kernel's exp leaves the
    # float range, and the refusal is the only line on stderr
    state = json.dumps({"kind": "hyper", "D": 300, "omega": 1.0, "nr": 0, "mu": [0] * 299})
    rc, out, err = run_cli("compute", "--state", state, "--quantity", "renyi", "--q", "0.2")
    assert rc == 3 and out == ""
    assert err == "domain error: the tanh-sinh panel integral leaves the float range\n"


def test_closed_disequilibrium_at_high_l():
    state = '{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":[12,0]}'
    rc, out, _ = run_cli("compute", "--state", state, "--quantity", "disequilibrium")
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(6.899545060696685e-3, rel=1e-13, abs=0.0)


def test_closed_values_take_one_route(monkeypatch, capsys):
    def second_route(*args):
        raise AssertionError("a closed value reached a cross-check route")

    for module, name in ((cli.infomeasures, "_fisher_from_moments"),
                         (cli.moments, "moment_3f2_form"),
                         (cli.moments.specfun, "hyp_unit_terms"),
                         (cli.infomeasures, "disequilibrium_radial"),
                         (cli.infomeasures, "disequilibrium_angular"),
                         (cli.infomeasures, "disequilibrium_angular_3j")):
        monkeypatch.setattr(module, name, second_route)
    state = '{"kind":"hyper","D":3,"omega":1,"nr":3,"mu":[2,1]}'
    for argv in (["fisher"], ["fisher", "--space", "momentum"], ["moment", "--k", "-1"],
                 ["moment", "--k", "-1", "--space", "momentum"], ["disequilibrium"]):
        assert cli.main(["compute", "--state", state, "--quantity", *argv]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_uncertainty_report():
    rc, out, _ = run_cli("uncertainty", "--state", GROUND3)
    assert rc == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 8
    assert all(r["satisfied"] for r in recs)
    sat = {r["relation_id"]: r["saturated"] for r in recs}
    assert sat["bbm"] and sat["heisenberg_general"]


OMEGA_FREE = ("heisenberg_general", "heisenberg_central", "fisher_product_general",
              "fisher_product_central")


def _uncertainty_records(omega, nr, mu, capsys):
    state = json.dumps({"kind": "hyper", "D": 3, "omega": omega, "nr": nr, "mu": mu})
    assert cli.main(["uncertainty", "--state", state]) == 0
    return {r["relation_id"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}


@pytest.mark.parametrize("nr, mu", [(0, [1, 0]), (1, [1, 1])])
@pytest.mark.parametrize("omega", [1e-200, 1e-12, 1e12, 1e200])
def test_uncertainty_verdicts_do_not_depend_on_omega(omega, nr, mu, capsys):
    ref = _uncertainty_records(1.0, nr, mu, capsys)
    got = _uncertainty_records(omega, nr, mu, capsys)
    assert got.keys() == ref.keys()
    for rid, rec in got.items():
        assert all(math.isfinite(rec[key]) for key in ("lhs", "bound", "slack")), rid
        assert rec["satisfied"] and rec["saturated"] == ref[rid]["saturated"], rid
    for rid in OMEGA_FREE:  # evaluated on the state at omega = 1
        assert (got[rid]["lhs"], got[rid]["bound"]) == (ref[rid]["lhs"], ref[rid]["bound"])
    # stam prints its omega-scaled sides
    for key in ("lhs", "bound"):
        assert got["stam"][key] == pytest.approx(omega * ref["stam"][key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("omega", [1e-200, 1e-12, 1e12, 1e200])
def test_heisenberg_product_does_not_depend_on_omega(omega, capsys):
    state = json.dumps({"kind": "hyper", "D": 3, "omega": omega, "nr": 0, "mu": [1, 0]})
    assert cli.main(["compute", "--state", state, "--quantity", "heisenberg", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 6.25


def test_compute_deterministic_bytes():
    args = ("compute", "--state", GROUND3, "--quantity", "shannon")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


SWEEP_CONFIG = {
    "states": {"kind": "hyper", "D": [3], "omega": [1.0], "nr": [0, 1, 2],
               "mu": [[0, 0]]},
    "quantities": [{"id": "moment", "k": 2}, {"id": "fisher"}],
    "engines": ["closed", "oracle"],
    "space": "position",
    "output": "csv",
}


def test_sweep_csv_deterministic(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    # binary capture: RFC 4180 wants literal CRLF line endings
    p1, p2 = (subprocess.run([sys.executable, "-m", "dho.cli", "sweep", "--config", str(cfg)],
                             capture_output=True) for _ in range(2))
    assert p1.returncode == p2.returncode == 0
    assert p1.stdout == p2.stdout
    lines = p1.stdout.decode().split("\r\n")
    assert lines[0].startswith("state,quantity,k,q,space")
    assert len([ln for ln in lines if ln]) == 1 + 3 * 2 * 2
    # the moment rows carry their k in the k column
    assert any(",moment,2,," in ln for ln in lines[1:])


def test_sweep_json_rows_and_errors(tmp_path):
    cfg_data = dict(SWEEP_CONFIG)
    cfg_data["quantities"] = [{"id": "moment", "k": -9}]
    cfg_data["output"] = "json"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(cfg_data))
    rc, out, _ = run_cli("sweep", "--config", str(cfg))
    assert rc == 1  # per-row failures recorded, nonzero exit
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["error"].startswith("DomainError") for r in rows)


def _sweep(tmp_path, capsys, config):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["sweep", "--config", str(cfg)])
    out, _ = capsys.readouterr()
    return rc, [json.loads(line, parse_constant=_no_bare_constants)
                for line in out.splitlines()]


SMALL_SWEEP = {"states": {"kind": "hyper", "D": 3, "omega": 1.0, "nr": [1],
                          "mu": [[1, 0]]}}


def test_sweep_unserved_pairs_are_row_errors(tmp_path, capsys):
    config = dict(SMALL_SWEEP, quantities=["energy", {"id": "heisenberg", "k": 2}],
                  engines=["closed", "oracle"])
    rc, rows = _sweep(tmp_path, capsys, config)
    assert rc == 1
    assert [r["error"].split(":")[0] for r in rows] == [
        "", "UnsupportedError", "", "UnsupportedError"]


@pytest.mark.parametrize("engines, qspec", [
    (["bogus"], {"id": "moment", "k": 1}),
    (["closed", "asymptotic:foo"], {"id": "moment", "k": 1}),
    (["closed:rydberg"], {"id": "moment", "k": 1}),
    ([["asymptotic"]], {"id": "moment", "k": 1}),
    (["asymptotic"], {"id": "moment", "k": 1, "regime": "x"}),
    (["closed"], {"id": "shannon", "mode": "as_published"}),
])
def test_sweep_unknown_engine_regime_or_mode_is_parse_error(engines, qspec, tmp_path,
                                                            capsys):
    config = dict(SMALL_SWEEP, quantities=[qspec], engines=engines)
    assert _sweep(tmp_path, capsys, config) == (2, [])


@pytest.mark.parametrize("extra", [{"regime": "highdim"}, {"mode": "as-published"},
                                   {"regim": "highdim"}, {"K": 2}])
def test_sweep_quantity_key_outside_id_k_q_s_is_parse_error(extra, tmp_path, capsys):
    # the engine string is a sweep's one regime selector; a misspelt "regim"
    # used to be ignored, serving the Rydberg <r^2> in place of the high-D one
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "states": {"kind": "hyper", "D": 60, "omega": 1.0, "nr": [0], "mu": [[0] * 59]},
        "quantities": [{"id": "moment", "k": 2, **extra}],
        "engines": ["closed", "asymptotic"]}))
    assert cli.main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"unknown keys {sorted(extra)}" in err
    assert "['id', 'k', 'q', 's']" in err and "asymptotic:highdim-published" in err


@pytest.mark.parametrize("qspec", [{"id": "moment", "k": 2}, {"id": "shannon"}])
def test_highdim_sweep_rows_equal_compute(qspec, tmp_path, capsys):
    mu = [2, 1] + [0] * 57
    state = {"kind": "hyper", "D": 60, "omega": 1.5, "nr": 1, "mu": mu}
    rc, rows = _sweep(tmp_path, capsys, {
        "states": {**state, "nr": [1], "mu": [mu]}, "quantities": [qspec],
        "engines": ["asymptotic:highdim", "asymptotic:highdim-published"]})
    assert rc == 0 and [r["error"] for r in rows] == ["", ""]
    extra = ["--k", "2"] if "k" in qspec else []
    for row, mode in zip(rows, ("leading", "as-published")):
        assert cli.main(["compute", "--state", json.dumps(state), "--quantity", qspec["id"],
                         "--engine", "asymptotic", "--regime", "highdim", "--mode", mode]
                        + extra) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (row["value"], row["order_note"]) == (rec["value"], rec["order_note"])
        assert row["engine"] == "asymptotic" and row["state"] == state
    if qspec["id"] == "shannon":  # the published variant is another formula
        assert rows[0]["value"] != rows[1]["value"]


def test_sweep_non_finite_parameter_is_row_error(tmp_path, capsys):
    # Python's json writes and reads Infinity; the row is refused and echoes q as null
    config = dict(SMALL_SWEEP, quantities=[{"id": "renyi", "q": math.inf}])
    rc, (row,) = _sweep(tmp_path, capsys, config)
    assert rc == 1
    assert row["error"].startswith("DomainError")
    assert row["q"] is None and row["value"] is None


def test_sweep_runs_its_rows_in_order_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    def start(thread):
        raise AssertionError("the sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    rc, rows = _sweep(tmp_path, capsys, dict(SWEEP_CONFIG, output="json"))
    assert rc == 0
    assert [(r["state"]["nr"], r["quantity"], r["engine_request"]) for r in rows] == [
        (nr, qid, eng) for nr in (0, 1, 2) for qid in ("moment", "fisher")
        for eng in ("closed", "oracle")]


def _forbid(monkeypatch, *names):
    """Make the named cli functions fail if a sweep reaches them."""
    def reached(*args):
        raise AssertionError("the sweep went on to expand states or run rows")

    for name in names:
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("extra", [{"space": "bogus"}, {"output": "xml"}])
def test_sweep_unknown_space_or_output_is_parse_error(extra, tmp_path, capsys,
                                                      monkeypatch):
    _forbid(monkeypatch, "_expand_states", "_compute_one")
    config = dict(SMALL_SWEEP, quantities=["energy"], **extra)
    assert _sweep(tmp_path, capsys, config) == (2, [])


@pytest.mark.parametrize("states", [
    *({k: v for k, v in SMALL_SWEEP["states"].items() if k != key}
      for key in ("D", "omega", "nr", "mu")),
    {"kind": "cartesian", "omega": 1.0},
    {"kind": "cartesian", "n": [1, 0]},
])
def test_sweep_states_spec_missing_key_is_parse_error(states, tmp_path, capsys,
                                                      monkeypatch):
    _forbid(monkeypatch, "_compute_one")
    config = {"states": states, "quantities": ["energy"]}
    assert _sweep(tmp_path, capsys, config) == (2, [])


@pytest.mark.parametrize("config", [
    {"states": dict(SMALL_SWEEP["states"], mu=[]), "quantities": ["energy"]},
    {"states": {"kind": "cartesian", "omega": 1.0, "n": []}, "quantities": ["energy"]},
    {"states": [SMALL_SWEEP["states"]], "quantities": ["energy"]},
    {"states": dict(SMALL_SWEEP["states"], kind=["hyper"]), "quantities": ["energy"]},
    5,
    None,
    dict(SMALL_SWEEP, quantities=[5]),
    dict(SMALL_SWEEP, quantities=["energy"], plot={"file": "plot.svg"}),
])
def test_sweep_malformed_config_is_parse_error(config, tmp_path, capsys, monkeypatch):
    _forbid(monkeypatch, "_compute_one")
    assert _sweep(tmp_path, capsys, config) == (2, [])


@pytest.mark.parametrize("key", ["D", "omega", "nr"])
def test_sweep_empty_range_is_parse_error(key, tmp_path, capsys, monkeypatch):
    _forbid(monkeypatch, "_compute_one")
    config = {"states": dict(SMALL_SWEEP["states"], **{key: []}),
              "quantities": ["energy"], "output": "csv"}
    assert _sweep(tmp_path, capsys, config) == (2, [])


def _scipy_modules_after(*argv):
    """scipy modules a fresh interpreter holds after one dho.cli.main call."""
    code = ("import json, sys, dho.cli; "
            f"rc = dho.cli.main({list(argv)!r}); "
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    return modules


STATE21 = '{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":[1,0]}'


@pytest.mark.parametrize("quantity", ["fisher", "energy"])
def test_closed_fisher_and_energy_start_without_scipy(quantity):
    assert _scipy_modules_after("compute", "--state", STATE21,
                                "--quantity", quantity) == []


@pytest.mark.parametrize("quantity", [["moment", "--k", "1"], ["disequilibrium"],
                                      ["shannon"]])
def test_closed_routes_start_without_quadpack(quantity):
    modules = _scipy_modules_after("compute", "--state", STATE21, "--quantity", *quantity)
    assert not [m for m in modules if m.startswith("scipy.integrate")]


@pytest.mark.parametrize("state, quantity", [
    ('{"kind":"cartesian","omega":1,"n":[3]}', ["shannon"]),
    ('{"kind":"cartesian","omega":1,"n":[3]}', ["renyi", "--q", "2"]),
    ('{"kind":"hyper","D":4,"omega":1,"nr":1,"mu":[1,1,0]}', ["disequilibrium"]),
    ('{"kind":"hyper","D":4,"omega":1,"nr":1,"mu":[1,1,0]}', ["renyi", "--q", "2"]),
])
def test_closed_cartesian_entropies_load_only_linalg(state, quantity):
    # the Shannon shifts of the hyperspherical factors need digamma, from
    # scipy.special: a Renyi or disequilibrium request must not evaluate them
    modules = _scipy_modules_after("compute", "--state", state, "--quantity", *quantity)
    assert "scipy.linalg" in modules
    assert not [m for m in modules if m.startswith(("scipy.special", "scipy.integrate"))]


def test_sweep_asymptotic_engine_and_plot(tmp_path):
    cfg_data = {
        "states": {"kind": "hyper", "D": [3], "omega": [1.0],
                   "nr": [50, 200, 800], "mu": [[0, 0]]},
        "quantities": [{"id": "moment", "k": 1}],
        "engines": ["closed", "asymptotic:rydberg"],
        "output": "json",
        "plot": {"x_axis": "nr", "file": str(tmp_path / "plot.svg")},
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(cfg_data))
    rc, out, _ = run_cli("sweep", "--config", str(cfg))
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    closed = {r["state"]["nr"]: r["value"] for r in rows
              if r["engine_request"] == "closed"}
    asym = {r["state"]["nr"]: r["value"] for r in rows
            if r["engine_request"] == "asymptotic:rydberg"}
    resid = [abs(closed[nr] - asym[nr]) / closed[nr] for nr in (50, 200, 800)]
    assert resid[0] > resid[1] > resid[2]
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith('<?xml version="1.0"')
    assert "<polyline" in svg and "</svg>" in svg


def test_validate_quick_deterministic_and_discrepancy_count(tmp_path):
    rc1, out1, _ = run_cli("validate", "--preset", "quick", "--report",
                           str(tmp_path / "r1.json"))
    rc2, out2, _ = run_cli("validate", "--preset", "quick")
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2
    recs = [json.loads(line) for line in out1.splitlines()]
    statuses = [r["status"] for r in recs]
    assert statuses.count("paper_discrepancy") == 4
    assert statuses.count("scaling_report") == 1
    assert all(s in ("pass", "paper_discrepancy", "scaling_report")
               for s in statuses)
    report = json.loads((tmp_path / "r1.json").read_text())
    assert len(report) == len(recs)
