"""The validate suite: its identity rows as properties over validate-full's box,
and its verdict when a deviation is not finite."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dho import cli, infomeasures, validation
from dho.states import HyperState, OscillatorSpec


@st.composite
def hyper_states(draw, max_dim=12):
    """States inside validate-full's box: D 2-12, n_r <= 10, l <= 5, omega in [0.5, 2]."""
    D = draw(st.integers(2, max_dim))
    mu = sorted(draw(st.lists(st.integers(0, 5), min_size=D - 1, max_size=D - 1)),
                reverse=True)
    if draw(st.booleans()):
        mu[-1] = -mu[-1]
    omega = draw(st.floats(0.5, 2.0))
    return HyperState(OscillatorSpec(omega, D), draw(st.integers(0, 10)), tuple(mu))


def _assert_row_holds(check_id, *point):
    row = validation.CHECKS[check_id]
    for pair in row.pairs(*point):
        assert row.deviation(*pair) <= row.tolerance, (check_id, point, pair)


@pytest.mark.parametrize("check_id", ["moment_recurrence_and_reflection",
                                      "heisenberg_k2_exact",
                                      "fisher_closed_and_moment_form"])
@settings(max_examples=60, deadline=None)
@given(state=hyper_states())
def test_state_rows_hold_inside_the_full_box(check_id, state):
    _assert_row_holds(check_id, state)


@settings(max_examples=60, deadline=None)
@given(state=hyper_states(max_dim=10))  # the radial triple sum refuses D > 10
def test_disequilibrium_row_holds_where_its_sum_is_served(state):
    _assert_row_holds("disequilibrium_closed_vs_oracle", state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_moment_row_holds_wherever_the_moment_exists(data):
    state = data.draw(hyper_states())
    k = data.draw(st.floats(-state.spec.dim - 2 * state.l, 8.0, exclude_min=True))
    _assert_row_holds("moments_closed_vs_oracle", state, k)


def _refuse(constant):
    raise ValueError(f"bare {constant} in the output")


def test_a_nan_served_value_fails_its_check_in_strict_json(monkeypatch, capsys):
    fisher = infomeasures.fisher

    def nan_at_one_state(state, *args, **kwargs):
        value = fisher(state, *args, **kwargs)
        # the D = 6, omega = 2 ground state is reached by the Fisher row only
        if state.spec.dim == 6 and state.spec.omega == 2.0:
            return dataclasses.replace(value, value=math.nan)
        return value

    monkeypatch.setattr(infomeasures, "fisher", nan_at_one_state)
    assert cli.main(["validate", "--preset", "quick"]) == 1
    records = {r["check_id"]: r for r in (json.loads(line, parse_constant=_refuse)
                                          for line in capsys.readouterr().out.splitlines())}
    fisher_record = records.pop("fisher_closed_and_moment_form")
    assert fisher_record["status"] == validation.FAIL
    assert fisher_record["max_deviation"] is None
    assert fisher_record["detail"] == "non-finite deviation nan"
    assert all(r["status"] != validation.FAIL for r in records.values())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_deviation_fails_and_prints_null(bad):
    result = validation._verdict("probe", [1e-16, bad, 1e-15], 1e-12, "3 pairs")
    assert result.status == validation.FAIL
    record = json.loads(json.dumps(result.to_dict()), parse_constant=_refuse)
    assert record["max_deviation"] is None
    assert record["detail"] == f"non-finite deviation {bad!r}; 3 pairs"
