"""CLI surface: outputs, exit codes, determinism, sweep formats, plots."""

import json
import math
import os
import subprocess
import sys

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


def _no_bare_constants(name):
    raise AssertionError(f"bare {name} in JSON output")


def test_non_finite_value_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(cli.states, "energy", lambda state: math.inf)
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "energy"]) == 3
    out, _ = capsys.readouterr()
    assert out == ""


def test_convergence_partial_record_writes_null_for_non_finite(monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise cli.ConvergenceError("diverged", value=math.nan, error_estimate=math.inf)

    monkeypatch.setattr(cli.infomeasures, "fisher", diverge)
    assert cli.main(["compute", "--state", GROUND3, "--quantity", "fisher"]) == 4
    out, _ = capsys.readouterr()
    assert json.loads(out, parse_constant=_no_bare_constants) == {
        "value": None, "error_estimate": None, "converged": False}


def test_closed_disequilibrium_at_high_l():
    state = '{"kind":"hyper","D":3,"omega":1,"nr":2,"mu":[12,0]}'
    rc, out, _ = run_cli("compute", "--state", state, "--quantity", "disequilibrium")
    assert rc == 0
    assert json.loads(out)["value"] == pytest.approx(6.899545060696685e-3, rel=1e-13)


def test_closed_values_take_one_route(monkeypatch, capsys):
    def second_route(*args):
        raise AssertionError("a closed value reached a cross-check route")

    for module, name in ((cli.infomeasures, "_fisher_from_moments"),
                         (cli.moments, "moment_3f2_form"),
                         (cli.moments.specfun, "hyp_3F2_unit_terms"),
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
    p1 = subprocess.run([sys.executable, "-m", "dho.cli", "sweep",
                         "--config", str(cfg)], capture_output=True)
    p2 = subprocess.run([sys.executable, "-m", "dho.cli", "sweep",
                         "--config", str(cfg), "--jobs", "1"], capture_output=True)
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


def _sweep(tmp_path, capsys, config, *args):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["sweep", "--config", str(cfg), *args])
    out, _ = capsys.readouterr()
    return rc, [json.loads(line, parse_constant=_no_bare_constants)
                for line in out.splitlines()]


SMALL_SWEEP = {"states": {"kind": "hyper", "D": 3, "omega": 1.0, "nr": [1],
                          "mu": [[1, 0]]}}


def test_sweep_unserved_pairs_are_row_errors(tmp_path, capsys):
    config = dict(SMALL_SWEEP, quantities=["energy", {"id": "heisenberg", "k": 2}],
                  engines=["closed", "oracle"])
    rc, rows = _sweep(tmp_path, capsys, config, "--jobs", "1")
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


def test_sweep_non_finite_parameter_is_row_error(tmp_path, capsys):
    # Python's json writes and reads Infinity; the row is refused and echoes q as null
    config = dict(SMALL_SWEEP, quantities=[{"id": "renyi", "q": math.inf}])
    rc, (row,) = _sweep(tmp_path, capsys, config)
    assert rc == 1
    assert row["error"].startswith("DomainError")
    assert row["q"] is None and row["value"] is None


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_is_parse_error(jobs, tmp_path, capsys):
    config = dict(SMALL_SWEEP, quantities=["energy"])
    assert _sweep(tmp_path, capsys, config, "--jobs", jobs) == (2, [])


def test_sweep_jobs_default_is_capped_at_usable_cpus(monkeypatch):
    def jobs():
        return cli.build_parser().parse_args(["sweep", "--config", "c.json"]).jobs

    assert jobs() == min(4, len(os.sched_getaffinity(0)))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert jobs() == 3


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


@pytest.mark.parametrize("quantity", [["shannon"], ["renyi", "--q", "2"]])
def test_closed_cartesian_entropies_load_only_linalg(quantity):
    modules = _scipy_modules_after("compute", "--state", '{"kind":"cartesian","omega":1,"n":[3]}',
                                   "--quantity", *quantity)
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


def test_env_tolerance_accepted():
    proc = subprocess.run(
        [sys.executable, "-m", "dho.cli", "compute", "--state", GROUND3,
         "--quantity", "shannon", "--engine", "oracle"],
        capture_output=True, text=True,
        env={"HO_ORACLE_TOL": "1e-9", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": os.environ.get("PYTHONPATH", "")})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(
        1.5 * (1 + math.log(math.pi)), abs=1e-7)
