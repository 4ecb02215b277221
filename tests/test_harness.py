"""Scenario parsing, the run store, and the command line front end."""

import ast
import hashlib
import json
import math
import os
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardyheat
from hardyheat.cli import main
from hardyheat.errors import ConfigError, InvariantViolation, ParameterDomainError
from hardyheat.grids import build_grid, halves
from hardyheat.estimators import blowup_diagnostic, t_ref, weighted_row_mass
from hardyheat.evolution import heat_kernel, minimal_solution
from hardyheat.operators import assemble_operator, load_operator
from hardyheat.runstore import NUMERICS_EPOCH, RunStore, write_json
from hardyheat.scenario import build_u0, load_scenario, scenario_from_dict
from hardyheat.specfun import FractionalParams, beta_of_c, coupling_regime, hardy_constant
from hardyheat.suites import all_parts, run_suite, validate_for_suite
from hardyheat.threads import THREAD_VARS

import oracles

C_STAR = hardy_constant(FractionalParams(d=1, alpha=0.5))


def base_raw(**over):
    raw = {
        "d": 1,
        "alpha": 0.5,
        "c": "0.5*cstar",
        "domain": [-1.0, 1.0],
        "h": [0.05],
        "u0": "ball:0.2",
        "times": [0.1, 0.5],
    }
    raw.update(over)
    return raw


def write_scenario(tmp_path, name, raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

class TestScenarioParsing:
    def test_defaults_filled(self):
        scn = scenario_from_dict(base_raw())
        assert scn.d == 1 and scn.alpha == 0.5
        assert scn.c == pytest.approx(0.5 * C_STAR, rel=1e-15)
        assert scn.c_spec == "0.5*cstar"
        assert scn.domain == (-1.0, 1.0)
        assert scn.h_levels == (0.05,)
        assert scn.time_factors == (0.1, 0.5)
        assert scn.times_unit == "tref"
        assert scn.k_schedule is None
        assert scn.seed == 0
        assert scn.inner_half_width is None
        assert scn.t0_factor == 0.1

    def test_numeric_coupling_and_scalar_h(self):
        scn = scenario_from_dict(base_raw(c=0.05, h=0.05))
        assert scn.c == 0.05
        assert scn.c_spec == 0.05
        assert scn.h_levels == (0.05,)

    def test_unknown_keys_listed_sorted(self):
        raw = base_raw(zed=1, apple=2)
        with pytest.raises(ConfigError, match="unknown scenario keys: apple, zed"):
            scenario_from_dict(raw)

    def test_missing_key_reported(self):
        raw = base_raw()
        del raw["u0"]
        with pytest.raises(ConfigError, match="missing scenario key: 'u0'"):
            scenario_from_dict(raw)

    def test_bad_coupling_string(self):
        with pytest.raises(ConfigError, match="'c'"):
            scenario_from_dict(base_raw(c="half*cstar"))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ConfigError, match="must be >= 0"):
            scenario_from_dict(base_raw(c=-0.1))

    @pytest.mark.parametrize("d", [0, 3, "1", True])
    def test_dimension_rejected(self, d):
        with pytest.raises(ConfigError, match="'d'"):
            scenario_from_dict(base_raw(d=d))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
    def test_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ConfigError, match="'alpha'"):
            scenario_from_dict(base_raw(alpha=alpha))

    def test_planar_scenario_accepts_larger_alpha(self):
        raw = base_raw(d=2, alpha=1.5, domain=[-1.0, 1.0, -0.5, 0.5], c=0.02)
        scn = scenario_from_dict(raw)
        assert scn.domain == (-1.0, 1.0, -0.5, 0.5)
        assert scn.domain_spec() == [[-1.0, 1.0], [-0.5, 0.5]]

    def test_domain_wrong_length(self):
        with pytest.raises(ConfigError, match="'domain'"):
            scenario_from_dict(base_raw(domain=[-1.0, 1.0, -1.0, 1.0]))

    def test_domain_must_contain_origin(self):
        with pytest.raises(ConfigError, match="0 strictly inside"):
            scenario_from_dict(base_raw(domain=[0.5, 1.0]))

    def test_h_levels_must_refine(self):
        with pytest.raises(ConfigError, match="coarse to fine"):
            scenario_from_dict(base_raw(h=[0.02, 0.05]))
        with pytest.raises(ConfigError, match="coarse to fine"):
            scenario_from_dict(base_raw(h=[0.05, 0.05]))

    def test_h_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="'h'"):
            scenario_from_dict(base_raw(h=[0.05, -0.02]))

    def test_times_tref_strings_parse(self):
        scn = scenario_from_dict(base_raw(times=[0.1, "0.5*tref", 2.0]))
        assert scn.time_factors == (0.1, 0.5, 2.0)
        npt.assert_allclose(scn.resolve_times(3.0), [0.3, 1.5, 6.0])

    def test_absolute_times_pass_through(self):
        scn = scenario_from_dict(base_raw(times=[0.25, 1.0], times_unit="absolute"))
        npt.assert_array_equal(scn.resolve_times(3.0), [0.25, 1.0])

    def test_tref_string_conflicts_with_absolute_unit(self):
        raw = base_raw(times=["0.5*tref"], times_unit="absolute")
        with pytest.raises(ConfigError, match='times_unit "tref"'):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("times", [[], [0.0, 0.1], [0.5, 0.1], [0.1, 0.1]])
    def test_bad_time_lists(self, times):
        with pytest.raises(ConfigError):
            scenario_from_dict(base_raw(times=times))

    def test_k_schedule_validation(self):
        scn = scenario_from_dict(base_raw(k=[1.0, 4.0, 16.0]))
        assert scn.k_schedule == (1.0, 4.0, 16.0)
        with pytest.raises(ConfigError, match="strictly increasing"):
            scenario_from_dict(base_raw(k=[4.0, 1.0]))
        with pytest.raises(ConfigError, match="'k'"):
            scenario_from_dict(base_raw(k=[-1.0]))

    def test_scheme_and_seed_validation(self):
        # every trajectory is the exact exponential action, so there is no scheme to name
        for scheme in ("expm", "cn"):
            with pytest.raises(ConfigError, match="^unknown scenario keys: scheme$"):
                scenario_from_dict(base_raw(scheme=scheme))
        with pytest.raises(ConfigError, match="'seed'"):
            scenario_from_dict(base_raw(seed=1.5))
        with pytest.raises(ConfigError, match="'seed'"):
            scenario_from_dict(base_raw(seed=True))

    def test_negative_seed_is_rejected_when_parsed(self):
        # numpy's generators take non-negative seeds only
        with pytest.raises(ConfigError, match="'seed' must be a non-negative integer, got -1"):
            scenario_from_dict(base_raw(seed=-1))
        assert scenario_from_dict(base_raw(seed=0)).seed == 0

    @pytest.mark.parametrize("key, value", [
        ("alpha", True), ("c", True), ("c", False), ("domain", [-1.0, True]),
        ("h", True), ("h", [True]), ("times", [True]), ("k", [True]),
        ("inner_half_width", True), ("t0_factor", True),
    ])
    def test_real_valued_keys_reject_booleans(self, key, value):
        raw = base_raw(**{key: value})
        if key == "alpha":  # alpha = 1.0 is admissible only for d = 2
            raw.update(d=2, domain=[-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ConfigError, match=f"'{key}'"):
            scenario_from_dict(raw)

    def test_optional_positivity_checks(self):
        with pytest.raises(ConfigError, match="'inner_half_width'"):
            scenario_from_dict(base_raw(inner_half_width=-0.1))
        with pytest.raises(ConfigError, match="'t0_factor'"):
            scenario_from_dict(base_raw(t0_factor=0.0))

    @pytest.mark.parametrize("ihw, h, match", [
        (0.99, 0.05, None), (1.0, 0.05, "strictly inside the domain"),
        (0.1, 0.25, "fewer than 2 nodes"),
    ], ids=["inside", "touching_the_boundary", "too_few_nodes"])
    def test_kernel_box_is_checked_on_the_finest_grid(self, ihw, h, match):
        scn = scenario_from_dict(base_raw(inner_half_width=ihw, h=[h]))
        validate_for_suite(scn, "constants")  # only the kernel suite uses the box
        if match is None:
            validate_for_suite(scn, "kernel")
        else:
            with pytest.raises(ConfigError, match=match):
                validate_for_suite(scn, "kernel")

    @pytest.mark.parametrize("h", [[0.3, 0.05], [0.25, 0.15]], ids=["coarse", "finest"])
    def test_every_grid_level_must_build_at_parse_time(self, h):
        scn = scenario_from_dict(base_raw(h=h))
        with pytest.raises(ConfigError, match="does not tile"):
            validate_for_suite(scn, "operator")

    @pytest.mark.parametrize(
        "spec", ["ball:", "ball:0", "ball:-0.2", "csv:", "blob", "bump:x"]
    )
    def test_bad_u0_specs(self, spec):
        with pytest.raises(ConfigError):
            scenario_from_dict(base_raw(u0=spec))


class TestScenarioIdentity:
    def test_to_dict_layout(self):
        d = scenario_from_dict(base_raw()).to_dict()
        assert sorted(d) == [
            "alpha", "c", "c_spec", "d", "domain", "h", "inner_half_width",
            "k", "seed", "t0_factor", "times", "times_unit", "u0",
        ]
        assert d["c_spec"] == "0.5*cstar"
        assert d["h"] == [0.05]

    def test_run_id_shape_and_determinism(self):
        a = scenario_from_dict(base_raw()).run_id()
        b = scenario_from_dict(base_raw()).run_id()
        assert re.fullmatch(r"[0-9a-f]{16}", a)
        assert a == b

    def test_run_id_tracks_content(self):
        base = scenario_from_dict(base_raw()).run_id()
        assert scenario_from_dict(base_raw(seed=7)).run_id() != base


class TestSuiteRules:
    def test_decay_suites_need_positive_coupling(self):
        scn = scenario_from_dict(base_raw(c=0))
        for suite in ("sharp", "lp"):
            with pytest.raises(ConfigError, match="positive coupling"):
                validate_for_suite(scn, suite)
        validate_for_suite(scn, "kernel")

    def test_subcritical_suites_reject_supercritical(self):
        scn = scenario_from_dict(base_raw(c="2*cstar"))
        with pytest.raises(ConfigError, match="requires c <= c"):
            validate_for_suite(scn, "kernel")

    def test_blowup_needs_supercritical(self):
        scn = scenario_from_dict(base_raw(c="1.0*cstar"))
        with pytest.raises(ConfigError, match="requires c > c"):
            validate_for_suite(scn, "blowup")

    def test_refinement_suites_need_two_levels(self):
        scn = scenario_from_dict(base_raw())
        with pytest.raises(ConfigError, match="at least 2 grid levels"):
            validate_for_suite(scn, "operator")

    def test_all_applies_the_rules_of_its_parts(self):
        with pytest.raises(ConfigError, match="'sharp' requires a positive coupling"):
            validate_for_suite(scenario_from_dict(base_raw(c=0, h=[0.01, 0.005, 0.0025])), "all")
        two_levels = scenario_from_dict(base_raw(h=[0.01, 0.005]))
        validate_for_suite(two_levels, "all")
        assert "lp" not in all_parts(two_levels)
        assert "lp" in all_parts(scenario_from_dict(base_raw(h=[0.01, 0.005, 0.0025])))

    @pytest.mark.parametrize("suite, c", [("lp", "0.5*cstar"), ("blowup", "2*cstar")])
    def test_lp_and_blowup_need_three_levels_at_parse_time(self, suite, c):
        with pytest.raises(ConfigError, match=f"suite '{suite}' needs at least 3 grid levels"):
            validate_for_suite(scenario_from_dict(base_raw(c=c, h=[0.01, 0.005])), suite)
        validate_for_suite(scenario_from_dict(base_raw(c=c, h=[0.02, 0.01, 0.005])), suite)

    @pytest.mark.parametrize("d, alpha, domain, suite", [
        (1, 0.5, [-1.0, 1.0], "sharp"),
        (2, 1.0, [-1.0, 1.0, -1.0, 1.0], "sharp"),
        (2, 1.0, [-1.0, 1.0, -1.0, 1.0], "all"),
    ], ids=["d1_sharp", "d2_sharp", "d2_all"])
    def test_slope_window_must_fit_the_finest_grid(self, d, alpha, domain, suite):
        raw = base_raw(d=d, alpha=alpha, domain=domain, h=[0.1, 0.05])
        with pytest.raises(ConfigError, match="bad radial window"):
            validate_for_suite(scenario_from_dict(raw), suite)
        validate_for_suite(scenario_from_dict(raw), "operator")

    def test_off_centre_planar_box_holds_the_slope_window(self):
        raw = base_raw(d=2, alpha=1.0, domain=[-0.5, 1.5, -0.5, 1.5], h=[0.1, 0.05])
        validate_for_suite(scenario_from_dict(raw), "sharp")
        with pytest.raises(ConfigError, match="holds 4 nodes; need >= 6"):
            planar = dict(raw, domain=[-1.0, 1.0, -1.0, 1.0], h=[1 / 24])
            validate_for_suite(scenario_from_dict(planar), "sharp")

    def test_planar_sharp_at_the_node_limit_holds_the_slope_window(self):
        raw = base_raw(d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[1 / 32])
        grids, _ = validate_for_suite(scenario_from_dict(raw), "sharp")
        assert grids[-1].n == 4096
        assert int(np.sum(grids[-1].slope_window())) == 20

    @pytest.mark.parametrize("name, suite", [
        ("verify-1d-all", "all"), ("verify-2d-operator", "operator"), ("artifacts-1d", None),
    ])
    def test_bench_scenarios_parse_for_their_suites(self, name, suite):
        here = os.path.dirname(os.path.abspath(__file__))
        scn = load_scenario(os.path.join(here, "..", "bench", "scenarios", f"{name}.json"))
        if suite is not None:
            validate_for_suite(scn, suite)

    def test_u0_is_built_on_every_lp_level(self):
        # at h = 0.01 the nodes nearest the origin sit at +-0.005
        scn = scenario_from_dict(base_raw(u0="ball:0.004", h=[0.01, 0.005, 0.0025]))
        validate_for_suite(scn, "sharp")  # sharp builds u0 on the finest grid only
        with pytest.raises(ConfigError, match="covers no grid cell at h = 0.01"):
            validate_for_suite(scn, "lp")
        with pytest.raises(ConfigError, match="covers no grid cell at h = 0.01"):
            validate_for_suite(scn, "all")

    def test_csv_u0_must_fit_every_level_its_suite_builds_on(self, tmp_path):
        path = tmp_path / "u0.csv"
        np.savetxt(path, np.ones(800), delimiter=",")  # the finest grid, h = 0.0025
        raw = base_raw(u0=f"csv:{path}", h=[0.01, 0.005, 0.0025])
        scn = scenario_from_dict(raw)
        validate_for_suite(scn, "sharp")
        with pytest.raises(ConfigError, match=r"read shape \(800,\), grid has 200 nodes"):
            validate_for_suite(scn, "lp")
        np.savetxt(path, np.ones(200), delimiter=",")
        with pytest.raises(ConfigError, match=r"read shape \(200,\), grid has 800 nodes"):
            validate_for_suite(scenario_from_dict(raw), "sharp")
        with pytest.raises(ConfigError, match=r"read shape \(200,\), grid has 800 nodes"):
            validate_for_suite(scenario_from_dict(dict(raw, c="2*cstar")), "blowup")
        validate_for_suite(scenario_from_dict(raw), "operator")  # operator and kernel never build u0

    def test_unknown_suite(self):
        scn = scenario_from_dict(base_raw())
        with pytest.raises(ConfigError, match="unknown suite"):
            validate_for_suite(scn, "bogus")

    def test_suite_hint_applied_at_parse_time(self):
        with pytest.raises(ConfigError, match="positive coupling"):
            validate_for_suite(scenario_from_dict(base_raw(c=0)), "sharp")


@pytest.mark.parametrize("e, regime", [
    (-1e-10, "subcritical"),
    (-1e-13, "critical"),
    (0.0, "critical"),
    (1e-13, "critical"),
    (1e-10, "supercritical"),
])
def test_one_regime_rule_near_the_critical_coupling(e, regime):
    # every place that splits on c* agrees with coupling_regime, c = c*(1 + e)
    params = FractionalParams(d=1, alpha=0.5)
    c = C_STAR * (1.0 + e)
    assert coupling_regime(c, params) == regime
    supercritical = regime == "supercritical"
    if supercritical:
        with pytest.raises(ParameterDomainError, match="exceeds the critical value"):
            beta_of_c(c, params)
    else:
        assert (beta_of_c(c, params) == params.beta_star) == (regime == "critical")

    # max V is 0.89 on the h = 0.05 grid: the k levels keep the blowup probe
    # two distinct potentials, which its parse-time rule asks for
    raw = base_raw(c=c, h=[0.2, 0.1, 0.05], times=[0.01, 0.1, 1.0], k=[0.25, 0.5])
    scn = scenario_from_dict(raw)
    for suite, accepts in (("kernel", not supercritical), ("blowup", supercritical)):
        try:
            validate_for_suite(scn, suite)
        except ConfigError:
            assert not accepts, suite
        else:
            assert accepts, suite

    grid = build_grid([-1.0, 1.0], 0.1)
    op = assemble_operator(grid, params, c=c)
    _, rep = minimal_solution(op, build_u0("ball:0.3", grid), [0.01])
    assert rep["mode"] == ("divergence" if supercritical else "convergence")

    levels = [assemble_operator(build_grid([-1.0, 1.0], h), params, c=c) for h in (0.2, 0.1, 0.05)]
    try:
        blowup_diagnostic(levels, build_u0("ball:0.2", levels[-1].grid), 0.1 * t_ref(levels[-1]))
    except ConfigError:
        assert not supercritical
    else:
        assert supercritical

    if not supercritical:
        names = [chk["name"] for chk in run_suite(scn, "kernel")["checks"]]
        assert ("critical_exponent_within_cap" in names) == (regime == "critical")


class TestLoadScenario:
    def test_loads_json_file(self, tmp_path):
        path = write_scenario(tmp_path, "base.json", base_raw())
        scn = load_scenario(path)
        assert scn.run_id() == scenario_from_dict(base_raw()).run_id()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(str(path))


@st.composite
def small_1d_scenarios(draw):
    """1-d scenarios on grids with h >= 0.05; about every other one holds a non-finite value."""
    levels = st.lists(st.sampled_from([0.25, 0.2, 0.1, 0.05]), min_size=2, max_size=3, unique=True)
    times = st.lists(st.sampled_from([0.05, 0.1, 0.5, 2.0]), min_size=1, max_size=3, unique=True)
    raw = {
        "d": 1,
        "alpha": draw(st.sampled_from([0.25, 0.5, 0.9])),
        "c": draw(st.sampled_from([0, 0.3, "0.5*cstar", "1*cstar", "2*cstar"])),
        # h = 0.2 puts a node on the origin of the second and 0.25 does not tile the third
        "domain": draw(st.sampled_from([[-1.0, 1.0], [-0.5, 1.5], [-1.0, 0.6]])),
        "h": sorted(draw(levels), reverse=True),
        "u0": draw(st.sampled_from(["ball:0.2", "bump", "point"])),
        "times": sorted(draw(times)),
        "k": draw(st.sampled_from([None, [1.0, 4.0]])),
        "inner_half_width": draw(st.sampled_from([None, 0.1, 0.45, 0.99, 1.0, 5.0])),
        "t0_factor": 0.1,
    }
    spoiled = draw(st.one_of(st.none(), st.sampled_from(
        ["alpha", "c", "domain", "h", "u0", "times", "k", "inner_half_width", "t0_factor"])))
    if spoiled is not None:  # the last entry of a list, a u0 radius, or the value itself
        bad = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        old = raw[spoiled]
        if spoiled == "u0":
            bad = f"ball:{bad}"
        raw[spoiled] = [*old[:-1], bad] if isinstance(old, list) else bad
    return raw


@st.composite
def small_2d_scenarios(draw):
    """2-d scenarios with h in {0.25, 0.2, 0.1} on [-1, 1]^2 and two off-centre boxes.

    h = 0.2 puts a node on the origin of the last box.  All values are finite:
    the 1-d draws cover that rule.
    """
    levels = st.lists(st.sampled_from([0.25, 0.2, 0.1]), min_size=1, max_size=3, unique=True)
    times = st.lists(st.sampled_from([0.05, 0.1, 0.5, 2.0]), min_size=1, max_size=3, unique=True)
    return {
        "d": 2,
        "alpha": draw(st.sampled_from([0.5, 1.0, 1.5, 1.9])),
        "c": draw(st.sampled_from([0, 0.3, "0.5*cstar", "1*cstar", "2*cstar"])),
        "domain": draw(st.sampled_from(
            [[-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, -0.5, 1.5], [-0.5, 1.5, -0.5, 1.5]])),
        "h": sorted(draw(levels), reverse=True),
        "u0": draw(st.sampled_from(["ball:0.2", "bump", "point"])),
        "times": sorted(draw(times)),
        "k": draw(st.sampled_from([None, [1.0, 4.0]])),
        "inner_half_width": draw(st.sampled_from([None, 0.1, 0.45, 0.99, 1.0, 5.0])),
        "t0_factor": 0.1,
    }


@settings(max_examples=70, deadline=None)
@given(
    raw=st.one_of(small_1d_scenarios(), small_2d_scenarios()),
    suite=st.sampled_from(["operator", "kernel"]),
)
def test_a_scenario_fails_at_parse_time_or_completes_its_suite(raw, suite):
    try:
        scn = scenario_from_dict(raw)
        validate_for_suite(scn, suite)
    except ConfigError:
        return
    report = run_suite(scn, suite)
    assert report["checks"] and report["suite"] == suite


@st.composite
def propagating_1d_scenarios(draw):
    """A suite that runs minimal_solution and a 1-d scenario on h in {0.04, 0.02, 0.01}.

    c is drawn from [0.3c*, c*] for sharp and lp and from (c*, 3c*] for
    blowup; lp and blowup get all three levels, which they need, or sometimes
    0.04/0.025/0.01 instead, which parse time must reject.  Most draws
    get past parse time, so the exponential action is fuzzed through every
    level of minimal_solution.
    """
    suite = draw(st.sampled_from(["sharp", "lp", "blowup"]))
    levels = [0.04, 0.02, 0.01]
    if suite == "sharp":
        levels = draw(st.lists(st.sampled_from(levels), min_size=1, max_size=3, unique=True))
    if suite in ("lp", "blowup"):  # the second triple tiles every domain but does not halve
        levels = draw(st.sampled_from([levels, [0.04, 0.025, 0.01]]))
    if suite == "blowup":
        factor = draw(st.floats(1.0, 3.0, exclude_min=True))
    else:
        factor = draw(st.floats(0.3, 1.0))
    times = st.lists(st.sampled_from([0.05, 0.1, 0.5, 2.0]), min_size=1, max_size=3, unique=True)
    raw = {
        "d": 1,
        "alpha": draw(st.sampled_from([0.25, 0.5, 0.9])),
        "c": f"{factor!r}*cstar",
        "domain": draw(st.sampled_from([[-1.0, 1.0], [-1.0, 0.6], [-0.6, 1.0]])),
        "h": sorted(levels, reverse=True),
        "u0": draw(st.sampled_from(["ball:0.2", "bump", "point"])),
        "times": sorted(draw(times)),
        "k": draw(st.sampled_from([None, [1.0, 4.0]])),
        "t0_factor": draw(st.sampled_from([0.1, 0.5])),
    }
    return raw, suite


@settings(max_examples=60, deadline=None)
@given(drawn=propagating_1d_scenarios())
def test_a_propagating_scenario_fails_at_parse_time_or_completes_its_suite(drawn):
    raw, suite = drawn
    try:
        scn = scenario_from_dict(raw)
        validate_for_suite(scn, suite)
    except ConfigError:
        return
    assert suite == "sharp" or halves(scn.h_levels), "uneven levels got past parse time"
    report = run_suite(scn, suite)
    assert report["checks"] and report["suite"] == suite


# ---------------------------------------------------------------------------
# one run_suite call: shared operators and eigenvalues, nothing kept after it
# ---------------------------------------------------------------------------

def three_level_raw(**over):
    """1-d c = 0.5c* on n = 50/100/200, so 'all' runs every part, lp included."""
    return base_raw(h=[0.04, 0.02, 0.01], **over)


def _json(report) -> str:
    return json.dumps(report, sort_keys=True)


def test_all_equals_each_part_run_alone():
    # the oracle: every part on its own, so nothing is shared between parts
    scn = scenario_from_dict(three_level_raw())
    validate_for_suite(scn, "all")
    alone = [
        dict(c, name=f"{part}.{c['name']}")
        for part in all_parts(scn)
        for c in run_suite(scn, part)["checks"]
    ]
    assert "lp" in all_parts(scn)
    assert _json(run_suite(scn, "all")["checks"]) == _json(alone)


def test_operator_suite_peaks_at_one_matrix():
    # 2-d h 0.1/0.05 (n = 1600): an operator holds no n x n array, and the suite
    # forms none; H, a heat kernel or a dense J would each add 8 n^2 bytes
    import tracemalloc

    raw = base_raw(d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[0.1, 0.05])
    scn = scenario_from_dict(raw)
    n = build_grid(scn.domain_spec(), 0.05).n
    tracemalloc.start()
    try:
        report = run_suite(scn, "operator")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak <= 1.25 * 8 * n**2


# The jump pass of the operator suite: 1-d [-1, 1] (10 row blocks, the last
# shorter), 1-d [-1, 1.5] (no mirror axis), the 2-d square (3 blocks, the last
# shorter) and the mirror-free 2-d box [-1, 1.5] x [-0.5, 1] (50 blocks of one
# grid line).
JUMP_BOXES = {
    "d1_square": dict(d=1, alpha=0.5, domain=[-1.0, 1.0], h=[0.01, 0.0025]),
    "d1_skew": dict(d=1, alpha=0.5, domain=[-1.0, 1.5], h=[0.01, 0.005]),
    "d2_square": dict(d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[0.2, 0.1]),
    "d2_skew": dict(d=2, alpha=1.0, domain=[-1.0, 1.5, -0.5, 1.0], h=[0.125, 0.05]),
}


def _jump_box(box):
    """The box's scenario at c = 0 and the operator on its finest level."""
    scn = scenario_from_dict(base_raw(**JUMP_BOXES[box], c="0"))
    return scn, assemble_operator(build_grid(scn.domain_spec(), scn.h_levels[-1]), scn.params)


def _shifted_jump_view(table):
    """``operators._jump_view`` read one cell off along the first axis:
    J[i, j] = table[|j - i + 1|] there (0 past the table's end)."""
    from numpy.lib.stride_tricks import sliding_window_view

    k = table.shape[0]
    padded = np.pad(table, [(0, 1)] + [(0, 0)] * (table.ndim - 1))
    idx = [abs(np.arange(2 - k, k + 1))] + [abs(np.arange(1 - m, m)) for m in table.shape[1:]]
    return sliding_window_view(padded[np.ix_(*idx)], table.shape)[(slice(None, None, -1),) * table.ndim]


def _negative_jump_view(table):
    """``operators._jump_view`` of the table with the nearest-neighbour weight negated."""
    from hardyheat.operators import _jump_view

    out = table.copy()
    out.flat[1] = -out.flat[1]
    return _jump_view(out)


@pytest.mark.parametrize("box", list(JUMP_BOXES))
def test_jump_extremes_match_the_dense_oracle(box):
    from hardyheat.suites import _jump_extremes

    _, op = _jump_box(box)
    assert len(op.row_blocks()) > 1
    J = -op.rows(0, op.n)
    np.fill_diagonal(J, 0.0)
    want = (float(np.max(np.abs(J - J.T))), float(np.min(J)))
    assert want == (0.0, 0.0)
    assert _jump_extremes(op) == want


@pytest.mark.parametrize("mutation", ["shifted", "negative"])
@pytest.mark.parametrize("box", list(JUMP_BOXES))
def test_operator_suite_fails_a_mutated_jump_view(box, mutation, monkeypatch):
    from hardyheat.operators import DiscreteOperator

    view = _shifted_jump_view if mutation == "shifted" else _negative_jump_view
    monkeypatch.setattr(DiscreteOperator, "J", property(lambda self: view(self.table)))
    scn, _ = _jump_box(box)
    checks = [c for c in run_suite(scn, "operator")["checks"] if c["name"].startswith("jump_")]
    assert [c["name"] for c in checks] == [
        f"{name}_h{h:g}" for h in scn.h_levels for name in ("jump_symmetric", "jump_nonnegative")
    ]
    for c in checks:
        if c["name"].startswith("jump_symmetric"):
            assert c["pass"] == (mutation != "shifted") == (c["measured"] == 0.0)
        else:
            assert c["pass"] == (mutation != "negative") == (c["measured"] >= 0.0)


def test_jump_extremes_copy_no_block_of_j():
    # 2-d h = 1/32 (n = 4,096, one grid line of 64 x 4,096 entries per block):
    # the pass holds one block-sized temporary; copies of the row and the
    # column block, their difference and its absolute value would hold four
    import tracemalloc

    from hardyheat.suites import _jump_extremes

    op = assemble_operator(build_grid([(-1.0, 1.0), (-1.0, 1.0)], 1 / 32), FractionalParams(2, 1.0))
    block = op.J[op.row_blocks()[0]].nbytes
    assert block == 8 * 64 * 4096
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert _jump_extremes(op) == (0.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * block


# The kernel suite against the whole-P suite of tests/oracles.py: 1-d n = 800
# (one mirror axis, the verify-1d-all grid), 1-d [-1, 1.5] (none), the 2-d
# square at h = 0.1 (two) and a 2-d box with one mirror axis.
KERNEL_ORACLE_BOXES = {
    "d1_n800": dict(d=1, alpha=0.5, domain=[-1.0, 1.0], h=[0.0025]),
    "d1_skew": dict(d=1, alpha=0.5, domain=[-1.0, 1.5], h=[0.005]),
    "d2_square": dict(d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[0.1]),
    "d2_one_axis": dict(d=2, alpha=1.0, domain=[-1.0, 1.0, -0.5, 1.0], h=[1 / 12]),
}
# kernel_symmetric (block asymmetry against P - P^T) and chapman_kolmogorov
# (block products against the whole product) are roundoff on both sides:
# 1.6e-16 to 3.9e-15 on these cases, apart by at most 2e-15.  Their checks
# allow 1e-10 and 1e-8.
KERNEL_ROUNDOFF_TOL = 1e-14


@pytest.mark.parametrize("c", ["0.5*cstar", "0", "1*cstar"])
@pytest.mark.parametrize("box", list(KERNEL_ORACLE_BOXES))
def test_kernel_suite_matches_the_whole_kernel_oracle(box, c):
    scn = scenario_from_dict(base_raw(**KERNEL_ORACLE_BOXES[box], c=c, times=[0.01, 0.1, 0.5]))
    got = {chk["name"]: (chk["measured"], chk["pass"]) for chk in run_suite(scn, "kernel")["checks"]}
    op = assemble_operator(build_grid(scn.domain_spec(), scn.h_levels[-1]), scn.params, c=scn.c)
    grid = op.grid
    ts = [float(t) for t in scn.resolve_times(t_ref(op))]
    Ps = []
    for t in ts + [ts[0] + ts[1]]:
        ker = heat_kernel(op, t)
        P = oracles.parity_lift(ker.blocks, grid.shape, grid.mirror_axes) / grid.cell_volume
        # the slabs of KernelMatrix.rows are the rows of the whole lift, bit for bit
        assert np.array_equal(np.concatenate([R for _, R in ker.slabs()]).view(np.int64), P.view(np.int64))
        Ps.append(P)
    R = grid.inradius
    radii = [0.2 * R, 0.1 * R, 0.05 * R, 4 * grid.h, 2 * grid.h]
    want = oracles.kernel_suite_full(
        ts, Ps[:-1], Ps[-1], op.weight, grid.cell_volume, grid.inner_box(scn.inner_half_width),
        [(grid.radii <= r).astype(float) for r in radii if np.any(grid.radii <= r)],
        scn.d, scn.alpha, scn.c > 0.0, coupling_regime(scn.c, scn.params) == "critical",
    )
    assert list(got) == list(want)
    for name, (value, ok) in want.items():
        assert got[name][1] == ok, name
        if name in ("kernel_symmetric", "chapman_kolmogorov"):
            assert abs(got[name][0] - value) <= KERNEL_ROUNDOFF_TOL, name
        else:
            assert got[name][0] == value, name


def test_kernel_suite_peaks_below_five_halves_of_a_matrix(monkeypatch):
    # 1-d n = 800, its spectrum solved beforehand: the kernels at the two times
    # and at their sum stay in parity blocks of n/2 (n^2/2 numbers each), the
    # Chapman-Kolmogorov defect replaces the last in place, and P is formed a
    # slab of rows at a time.  The whole-P suite peaked at 5.0 x 8 n^2.
    import tracemalloc

    import hardyheat.suites

    scn = scenario_from_dict(base_raw(h=[0.0025]))
    op = assemble_operator(build_grid(scn.domain_spec(), 0.0025), scn.params, c=scn.c)
    assert len(op.spectrum) == 2
    monkeypatch.setattr(hardyheat.suites, "assemble_operator", lambda *args, **kwargs: op)
    tracemalloc.start()
    try:
        report = run_suite(scn, "kernel")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak < 2.5 * 8 * op.n**2


# (c, times) on 1-d n = 800: 0.5c* with two times and with three, c* and c = 0
# with three
@pytest.mark.parametrize("c, times", [
    ("0.5*cstar", [0.1, 0.5]),
    ("0.5*cstar", [0.01, 0.1, 0.5]),
    ("1*cstar", [0.01, 0.1, 0.5]),
    ("0", [0.01, 0.1, 0.5]),
])
def test_kernel_suite_walks_each_kernel_once(monkeypatch, c, times):
    # one KernelMatrix.reduce per kernel, and two over the t1 + t2 kernel (the
    # Chapman-Kolmogorov scale and its defect); every walk starts at row 0
    from hardyheat.evolution import KernelMatrix

    real, walks = KernelMatrix.rows, []

    def rows(self, start, stop):
        walks.append(start == 0)
        return real(self, start, stop)

    monkeypatch.setattr(KernelMatrix, "rows", rows)
    run_suite(scenario_from_dict(base_raw(h=[0.0025], c=c, times=times)), "kernel")
    assert 0 < sum(walks) <= len(times) + 2


def test_lp_evolves_each_level_at_its_last_time_only(monkeypatch):
    # lp reads only the profile at the last scenario time, and every output
    # time of evolve starts from u0: one exponential action per level
    import hardyheat.evolution

    real, actions = hardyheat.evolution._action, []

    def action(op, t, u0):
        actions.append((op.n, t))
        return real(op, t, u0)

    monkeypatch.setattr(hardyheat.evolution, "_action", action)
    scn = scenario_from_dict(three_level_raw())
    assert run_suite(scn, "lp")["passed"]
    assert [n for n, _ in actions] == [50, 100, 200]


def test_planar_operator_suite_passes_at_the_node_limit():
    # h = 1/32 on the square: 64 x 64 = 4096 nodes, the limit a 1-d grid has
    raw = base_raw(d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[1 / 16, 1 / 32])
    report = run_suite(scenario_from_dict(raw), "operator")
    assert report["passed"], [c["name"] for c in report["checks"] if not c["pass"]]


def test_operator_row_mass_matches_the_kernel_row_mass():
    # the suite's eps comes from exp(-tH) w as one action; a full kernel gives the same
    scn = scenario_from_dict(three_level_raw())
    (check,) = [
        c for c in run_suite(scn, "operator")["checks"]
        if c["name"] == "weighted_submarkov_excess_shrinks"
    ]
    assert len(check["measured"]) == len(scn.h_levels) == 3
    for h, eps in zip(scn.h_levels, check["measured"]):
        op = assemble_operator(build_grid(scn.domain_spec(), h), scn.params, c=scn.c)
        ker = heat_kernel(op, 0.1 * t_ref(op))
        assert abs(eps - weighted_row_mass(ker.reduce())["eps"]) <= 1e-12


@pytest.fixture()
def assembled(monkeypatch):
    """Weak references to every operator the suites assemble."""
    import weakref

    import hardyheat.suites

    refs = []
    real = hardyheat.suites.assemble_operator

    def assemble(*args, **kwargs):
        op = real(*args, **kwargs)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(hardyheat.suites, "assemble_operator", assemble)
    return refs


def _alive(refs) -> int:
    import gc

    gc.collect()
    return sum(ref() is not None for ref in refs)


def test_no_operator_outlives_run_suite(assembled, monkeypatch):
    import hardyheat.suites

    scn = scenario_from_dict(three_level_raw())
    validate_for_suite(scn, "all")
    run_suite(scn, "all")
    assert len(assembled) > 0 and _alive(assembled) == 0

    def fail(*args, **kwargs):  # mid-run: in sharp, with the finest operator live
        raise RuntimeError("stop")

    assembled.clear()
    monkeypatch.setattr(hardyheat.suites, "duhamel_residual", fail)
    with pytest.raises(RuntimeError, match="stop"):
        run_suite(scn, "all")
    assert len(assembled) > 0 and _alive(assembled) == 0


def test_after_sharp_the_run_holds_only_the_finest_h_spectrum(monkeypatch):
    # lp reuses every level; of their spectra only the finest H, which kernel
    # and sharp share, is still cached (the Duhamel L0 went with the trajectory)
    import hardyheat.suites

    scn = scenario_from_dict(three_level_raw())
    cached = {}
    real = hardyheat.suites._RUNNERS["lp"]

    def lp(scn, run):
        for h, op in run._ops.items():
            free = vars(op).get("free")
            cached[h] = ("spectrum" in vars(op), free is not None and "spectrum" in vars(free))
        return real(scn, run)

    monkeypatch.setitem(hardyheat.suites._RUNNERS, "lp", lp)
    assert run_suite(scn, "all")["passed"]
    assert cached == {h: (h == scn.h_levels[-1], False) for h in scn.h_levels}


def test_back_to_back_runs_give_the_bytes_of_separate_runs():
    a = scenario_from_dict(three_level_raw())
    validate_for_suite(a, "all")
    b = scenario_from_dict(base_raw(c="0.8*cstar", h=[0.05, 0.025, 0.0125],
                                    domain=[-1.0, 1.5], times=[0.2, 1.0]))
    validate_for_suite(b, "all")
    first = [_json(run_suite(a, "all")), _json(run_suite(b, "all"))]
    second = [_json(run_suite(b, "all")), _json(run_suite(a, "all"))]
    assert first == second[::-1]
    assert first[0] != first[1]


def test_verify_all_computes_each_weighted_tail_once(monkeypatch):
    # the harmonicity defect and the weighted form share the operator's tail
    import hardyheat.operators

    real, nodes = hardyheat.operators.exterior_power_tail, []

    def counted(x, *args):
        nodes.append(len(x))
        return real(x, *args)

    monkeypatch.setattr(hardyheat.operators, "exterior_power_tail", counted)
    scn = scenario_from_dict(three_level_raw())
    run_suite(scn, "all")
    assert nodes == [50, 100, 200]  # one per level; sharp reuses the finest


@pytest.mark.parametrize("env, want", [
    ({"OPENBLAS_NUM_THREADS": "1"}, "1"),
    ({"MKL_NUM_THREADS": "3"}, "3"),
    ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}, "2"),
    ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}, "1"),
    ({}, None),
], ids=["openblas", "mkl", "omp_first", "openblas_before_mkl", "none"])
def test_report_records_the_first_thread_variable_set(monkeypatch, env, want):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run_suite(scenario_from_dict(base_raw()), "constants")["threads"] == want


# ---------------------------------------------------------------------------
# initial data construction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid():
    return build_grid([-1.0, 1.0], 0.05)


class TestBuildU0:
    def test_ball_indicator(self, grid):
        u0 = build_u0("ball:0.2", grid)
        npt.assert_array_equal(u0, (grid.radii <= 0.2).astype(float))
        assert u0.sum() == 8.0

    def test_empty_ball_rejected(self, grid):
        with pytest.raises(ConfigError, match="covers no grid cell"):
            build_u0("ball:0.01", grid)

    def test_bump_default_width(self, grid):
        npt.assert_array_equal(build_u0("bump", grid), build_u0("bump:0.2", grid))
        wide = build_u0("bump:0.4", grid)
        npt.assert_allclose(wide, np.exp(-0.5 * (grid.radii / 0.4) ** 2))

    def test_point_mass_normalization(self, grid):
        u0 = build_u0("point", grid)
        assert np.count_nonzero(u0) == 1
        assert u0.max() == pytest.approx(1.0 / grid.h)
        assert u0.sum() * grid.cell_volume == pytest.approx(1.0)

    def test_csv_roundtrip(self, grid, tmp_path):
        vals = np.linspace(0.0, 1.0, grid.n)
        path = tmp_path / "u0.csv"
        np.savetxt(path, vals, delimiter=",")
        npt.assert_array_equal(build_u0(f"csv:{path}", grid), vals)

    def test_csv_unreadable_is_config_error(self, grid, tmp_path):
        with pytest.raises(ConfigError, match="is unreadable"):
            build_u0(f"csv:{tmp_path / 'missing.csv'}", grid)
        path = tmp_path / "words.csv"
        path.write_text("a\nb\n")
        with pytest.raises(ConfigError, match="is unreadable"):
            build_u0(f"csv:{path}", grid)

    @pytest.mark.parametrize("spec, message", [
        ("bump:x", "radius is not a number"),
        ("ball:-1", "radius must be finite and positive"),
        ("csv:", "needs a file path"),
        ("disc:0.2", "unknown u0 spec 'disc:0.2'; use"),
    ])
    def test_build_u0_reads_the_scenario_grammar(self, grid, spec, message):
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(base_raw(u0=spec))
        with pytest.raises(ConfigError, match=message):
            build_u0(spec, grid)

    def test_csv_shape_mismatch(self, grid, tmp_path):
        path = tmp_path / "short.csv"
        np.savetxt(path, np.ones(5), delimiter=",")
        with pytest.raises(ConfigError, match="grid has"):
            build_u0(f"csv:{path}", grid)

    def test_csv_of_several_columns_is_named_as_such(self, tmp_path):
        # 2 rows of 2 values on a 2-node grid: the row count matches, the shape does not
        two = build_grid((-1.0, 1.0), 1.0)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.ones((2, 2)), delimiter=",")
        msg = r"one value per line, one line per node: read shape \(2, 2\), grid has 2 nodes"
        with pytest.raises(ConfigError, match=msg):
            build_u0(f"csv:{path}", two)

    @pytest.mark.parametrize("bad, message", [
        (-0.5, "holds negative values, min = -5.000e-01"),
        (-1e-300, "holds negative values"),
        (float("nan"), "holds non-finite values"),
        (float("inf"), "holds non-finite values"),
    ])
    def test_csv_values_must_be_finite_and_nonnegative(self, grid, tmp_path, bad, message):
        vals = np.ones(grid.n)
        vals[3] = bad
        path = tmp_path / "bad.csv"
        np.savetxt(path, vals, delimiter=",")
        with pytest.raises(ConfigError, match=message):
            build_u0(f"csv:{path}", grid)
        vals[3] = -0.0  # a signed zero is nonnegative
        np.savetxt(path, vals, delimiter=",")
        assert build_u0(f"csv:{path}", grid)[3] == 0.0


# ---------------------------------------------------------------------------
# run store
# ---------------------------------------------------------------------------

class TestRunStore:
    def test_creates_layout(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        for sub in ("scenarios", "reports", "operators", "trajectories", "kernels"):
            assert os.path.isdir(os.path.join(store.root, sub))
        with pytest.raises(ConfigError, match="unknown store subdirectory"):
            store.path("misc", "x")

    def test_reports_cache_and_stay_bit_identical(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        scn = scenario_from_dict(base_raw())
        report, cached = store.run(scn, "constants")
        assert not cached
        assert report["suite"] == "constants"
        assert report["passed"] is True
        rpath = store.path("reports", f"{scn.run_id()}.constants.json")
        first = open(rpath, "rb").read()

        again, cached = store.run(scn, "constants")
        assert cached
        assert again == report
        assert open(rpath, "rb").read() == first

        forced, cached = store.run(scn, "constants", force=True)
        assert not cached
        assert open(rpath, "rb").read() == first

    @pytest.mark.parametrize("stamp", [None, 1, 2])
    def test_report_from_other_numerics_epoch_recomputed(self, tmp_path, stamp):
        store = RunStore(str(tmp_path / "store"))
        scn = scenario_from_dict(base_raw())
        report, _ = store.run(scn, "constants")
        assert report["numerics"] == NUMERICS_EPOCH
        rpath = store.path("reports", f"{scn.run_id()}.constants.json")
        stale = dict(report)
        if stamp is None:
            del stale["numerics"]
        else:
            stale["numerics"] = stamp
        with open(rpath, "w") as fh:
            json.dump(stale, fh)
        assert store.cached_report(scn, "constants") is None
        again, cached = store.run(scn, "constants")
        assert not cached
        assert again == report
        with open(rpath) as fh:
            assert json.load(fh)["numerics"] == NUMERICS_EPOCH

    def test_interrupted_save_keeps_previous_report(self, tmp_path, monkeypatch):
        store = RunStore(str(tmp_path / "store"))
        scn = scenario_from_dict(base_raw())
        report, _ = store.run(scn, "constants")
        rpath = store.path("reports", f"{scn.run_id()}.constants.json")
        first = open(rpath, "rb").read()

        real_dump = json.dump

        def dump_then_die(obj, fh, **kw):
            if "checks" not in obj:  # the scenario blob goes through
                return real_dump(obj, fh, **kw)
            fh.write('{"checks": [')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", dump_then_die)
        with pytest.raises(KeyboardInterrupt):
            store.save_report(scn, "constants", report)
        monkeypatch.undo()
        assert open(rpath, "rb").read() == first
        assert store.cached_report(scn, "constants") == report

    def test_interrupted_write_json_keeps_previous_bytes_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "out" / "obj.json"
        path.parent.mkdir()
        write_json(str(path), {"a": 1})
        first = path.read_bytes()

        def dump_then_die(obj, fh, **kw):
            fh.write('{"a": ')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", dump_then_die)
        with pytest.raises(KeyboardInterrupt):
            write_json(str(path), {"a": 2})
        monkeypatch.undo()
        assert path.read_bytes() == first
        assert os.listdir(path.parent) == ["obj.json"]

    def test_scenario_blob_saved_alongside(self, tmp_path):
        store = RunStore(str(tmp_path / "store"))
        scn = scenario_from_dict(base_raw())
        store.run(scn, "constants")
        spath = store.path("scenarios", f"{scn.run_id()}.json")
        with open(spath) as fh:
            assert json.load(fh) == scn.to_dict()


def _write_mode_opens(node, owner="<module>"):
    """The name of the innermost function around each write-mode open() under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
        mode = node.args[1] if len(node.args) > 1 else None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        # a mode that is not a literal counts as a write
        if mode is not None and not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
            yield owner
    for child in ast.iter_child_nodes(node):
        yield from _write_mode_opens(child, owner)


def test_only_the_atomic_writers_open_files_for_writing():
    # a plain write-mode open() elsewhere could leave a half-written file behind
    src = os.path.dirname(hardyheat.__file__)
    found = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            found |= {(name[:-3], owner) for owner in _write_mode_opens(tree)}
    assert found == {("runstore", "atomic_open"), ("operators", "_serve")}


def _scipy_linalg_calls(tree):
    """Names imported from scipy.linalg in ``tree``, and the calls to any of them or to
    an attribute of the module itself (``scipy.linalg.f(...)``, ``linalg.f(...)``)."""
    names, modules = set(), {"scipy.linalg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules |= {a.asname or a.name for a in node.names if a.name == "linalg"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "scipy.linalg" and a.asname}
    calls = [
        ast.unparse(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in names
            or isinstance(node.func, ast.Attribute) and ast.unparse(node.func.value) in modules
        )
    ]
    return names, calls


def test_dense_solves_and_products_run_on_one_blas():
    # numpy and scipy each bundle their own OpenBLAS with its own thread pool;
    # the dense spectral layer uses numpy's, and no scipy BLAS routine is called
    import hardyheat.operators

    assert hardyheat.operators.eigh is np.linalg.eigh
    src = os.path.dirname(hardyheat.__file__)
    imported, called, reads = set(), [], []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            names, calls = _scipy_linalg_calls(tree)
            imported |= {(name[:-3], n) for n in names}
            called += [(name[:-3], c) for c in calls]
            reads += [
                (name[:-3], node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "P"
            ]
    assert called == []
    assert reads == []  # kernels are read by KernelMatrix.rows, slabs or blocks, never whole
    # the names that bench/spans.py traces stay imported, and uncalled
    assert {("estimators", "eigvalsh"), ("evolution", "expm")} <= imported


def _module_level_imports(tree) -> list:
    """Modules that ``tree`` imports outside every function body (class bodies count)."""
    out, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_no_module_imports_scipy_at_import_time():
    # the bench-hook shims (estimators.eigvalsh, evolution.expm) import scipy
    # inside a module __getattr__, on first access only
    src = os.path.dirname(hardyheat.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            found += [(name, m) for m in _module_level_imports(tree) if m.split(".")[0] == "scipy"]
    assert found == []
    shim = ast.parse("def __getattr__(name):\n    from scipy.linalg import expm\nimport scipy.special")
    assert _module_level_imports(shim) == ["scipy.special"]


def test_only_the_propagator_layer_walks_kernel_slabs():
    # KernelMatrix.reduce is the one walk over P's row slabs: suites and
    # estimators read what it returns and never walk P themselves
    src = os.path.dirname(hardyheat.__file__)
    callers = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            if any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "slabs"
                for node in ast.walk(tree)
            ):
                callers.add(name)
    assert callers == {"evolution.py"}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.fixture()
def store_root(tmp_path):
    return str(tmp_path / "runs")


@pytest.fixture()
def no_assembly(monkeypatch):
    """Fail the test if a suite or a CLI command assembles an operator."""
    import hardyheat.operators
    import hardyheat.suites

    def assemble(*args, **kwargs):
        raise AssertionError("an operator was assembled")

    for mod in (hardyheat.suites, hardyheat.operators):
        monkeypatch.setattr(mod, "assemble_operator", assemble)


def small_raw():
    """A 20-node scenario so artifact commands run in milliseconds."""
    return base_raw(h=[0.1], times=[0.1, 0.5])


def _fresh_modules(code: str, *argv: str, after: str = "") -> list:
    """Run ``code`` in a fresh interpreter on this source tree; the modules it loaded.

    The last line of its output lists every loaded module whose name starts
    with scipy or numpy, or is a hardyheat module other than the root.  With
    ``after``, a statement run first, it lists only those that ``code`` added.
    """
    import subprocess
    import sys

    import hardyheat

    src = os.path.dirname(os.path.dirname(os.path.abspath(hardyheat.__file__)))
    if after:
        code = f"import sys; {after}; _before = set(sys.modules); {code}"
    code += (
        "; import json, sys; print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith(('scipy', 'numpy', 'hardyheat.'))"
        + (" and m not in _before" if after else "") + ")))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def count_calls(monkeypatch) -> dict:
    """Count the solves, assemblies, validations and grid builds of what runs next.

    A ``lambda_min`` solve is keyed by the (jump table, W) of the operator it
    acts on and an ``eigh`` by its matrix, so a repeated solve shows as a
    repeated key; ``eigh_n`` lists the order of each ``eigh`` matrix.
    ``lambda_min`` and ``build_grid`` are counted under every name that holds them.
    """
    import hashlib
    import sys

    import hardyheat.operators
    import hardyheat.suites

    calls = {"lambda_min": [], "eigh": [], "eigh_n": [], "assemble": 0, "validate": 0, "grids": 0}

    def digest(a):
        return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()

    def counted(mod, name, key):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            if key == "lambda_min":
                calls[key].append((digest(args[0].table), digest(args[0].W)))
            elif isinstance(calls[key], list):
                calls[key].append(digest(args[0]))
                if key == "eigh":
                    calls["eigh_n"].append(len(args[0]))
            else:
                calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    counted(hardyheat.operators, "eigh", "eigh")
    counted(hardyheat.suites, "assemble_operator", "assemble")
    counted(hardyheat.suites, "validate_for_suite", "validate")
    for mod in [m for n, m in sys.modules.items() if n.startswith("hardyheat.")]:
        for name, key in (("lambda_min", "lambda_min"), ("build_grid", "grids")):
            if hasattr(mod, name):
                counted(mod, name, key)
    return calls


class TestCli:
    def test_cli_import_leaves_out_scipy_integrate(self):
        mods = _fresh_modules("import hardyheat.cli, hardyheat.suites")
        assert [m for m in ("scipy.integrate", "scipy.optimize") if m in mods] == []

    def test_cli_import_leaves_out_numpy(self):
        # so that --threads sets the BLAS thread count before numpy loads BLAS
        mods = _fresh_modules("import hardyheat.cli")
        assert "hardyheat.cli" in mods
        assert [m for m in mods if m.startswith("numpy")] == []

    def test_cached_verify_loads_no_scipy_and_no_suites(self, tmp_path, store_root):
        path = write_scenario(tmp_path, "ok.json", base_raw())
        argv = ["--out", store_root, "verify", "--suite", "constants", "--scenario", path]
        assert main(argv) == 0
        code = "import sys, hardyheat.cli; assert hardyheat.cli.main(sys.argv[1:]) == 0"
        mods = _fresh_modules(code, *argv)
        assert "numpy" in mods  # the scenario is parsed
        assert [m for m in mods if m.startswith("scipy")] == []
        assert "hardyheat.suites" not in mods

    def test_evolution_needs_no_scenario_and_scenario_no_suites(self):
        # the file format sits below the propagator; the suites' rules sit above both
        assert "hardyheat.scenario" not in _fresh_modules("import hardyheat.evolution")
        mods = _fresh_modules("import hardyheat.scenario")
        assert "hardyheat.scenario" in mods
        assert [m for m in mods if m == "hardyheat.suites" or m.startswith("scipy")] == []

    def test_constants_loads_no_scipy(self):
        code = "import sys, hardyheat.cli; assert hardyheat.cli.main(sys.argv[1:]) == 0"
        argv = ["constants", "--d", "2", "--alpha", "1.0", "--c", "0.5*cstar"]
        assert [m for m in _fresh_modules(code, *argv) if m.startswith("scipy")] == []

    def test_runs_load_no_scipy_linear_algebra(self, tmp_path, store_root):
        # the bottom eigenvalue is a numpy Lanczos and the special functions are
        # numpy series, so a run loads no scipy module at all
        code = "import sys, hardyheat.cli; assert hardyheat.cli.main(sys.argv[1:]) == 0"
        three = write_scenario(tmp_path, "three.json", three_level_raw())
        small = write_scenario(tmp_path, "small.json", small_raw())
        runs = [
            _fresh_modules("import hardyheat.cli, hardyheat.suites"),
            _fresh_modules(code, "--out", store_root, "--force", "verify", "--suite", "all",
                           "--scenario", three),
            _fresh_modules(code, "--out", store_root, "evolve", "--scenario", small),
            _fresh_modules(code, "--out", store_root, "kernel", "--scenario", small, "--t", "0.5"),
        ]
        for mods in runs:
            assert "hardyheat.estimators" in mods
            assert [m for m in mods if m.startswith("scipy")] == []
        # the names that bench/spans.py traces still resolve, on first access
        import scipy.linalg

        import hardyheat.estimators
        import hardyheat.evolution

        assert hardyheat.evolution.expm is scipy.linalg.expm
        assert hardyheat.estimators.eigvalsh is scipy.linalg.eigvalsh
        assert not hasattr(hardyheat.estimators, "eigsh")

    def test_commands_load_no_module_past_the_cold_import(self, tmp_path, store_root):
        # numpy loads fft, random, ma and polynomial on first use; the package
        # loads what it uses with its modules, so a command's time holds no import
        code = "assert hardyheat.cli.main(sys.argv[1:]) == 0"
        cold = "import hardyheat.cli, hardyheat.suites"
        three = write_scenario(tmp_path, "three.json", three_level_raw())
        small = write_scenario(tmp_path, "small.json", small_raw())
        plane = write_scenario(tmp_path, "plane.json", base_raw(
            d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[0.25, 0.125]))
        runs = {
            "all": ["verify", "--suite", "all", "--scenario", three],
            "2-d operator": ["verify", "--suite", "operator", "--scenario", plane],
            "assemble": ["assemble", "--d", "1", "--alpha", "0.5", "--domain=-1,1", "--h", "0.1"],
            "evolve": ["evolve", "--scenario", small],
            "kernel": ["kernel", "--scenario", small, "--t", "0.5"],
        }
        loaded = {
            name: _fresh_modules(code, "--out", store_root, "--force", *argv, after=cold)
            for name, argv in runs.items()
        }
        assert {name: [m for m in mods if not m.startswith("hardyheat.")]
                for name, mods in loaded.items()} == {name: [] for name in runs}

    def test_unconverged_bottom_eigenvalue_exits_1(self, tmp_path, store_root, capsys, monkeypatch):
        # n = 400 takes two Lanczos cycles: capped at one, the solve cannot converge
        import hardyheat.estimators as est

        monkeypatch.setattr(est, "_LANCZOS_MATVECS", est._LANCZOS_BASIS)
        op = assemble_operator(build_grid((-1.0, 1.0), 0.005), FractionalParams(1, 0.5), c=0.5 * C_STAR)
        with pytest.raises(InvariantViolation, match="unconverged after 30 products"):
            est.lambda_min(op)
        path = write_scenario(tmp_path, "n400.json", base_raw(h=[0.01, 0.005]))
        assert main(["--out", store_root, "verify", "--suite", "operator", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: Lanczos") and "Traceback" not in err

    def test_unconverged_solve_in_blowup_is_no_failed_probe(self, tmp_path, store_root, capsys, monkeypatch):
        # only a falling truncation probe is a failed probe_monotone_in_k; a
        # Lanczos solve that does not converge (for t_ref or for the
        # diagnostic's lambda_min) leaves the suite as it does from operator
        import hardyheat.estimators as est

        monkeypatch.setattr(est, "_LANCZOS_MATVECS", est._LANCZOS_BASIS)
        path = write_scenario(tmp_path, "deep.json", base_raw(c="3*cstar", h=[0.01, 0.005, 0.0025]))
        assert main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("invariant violation: Lanczos") and "Traceback" not in err
        assert "[FAIL] probe_monotone_in_k" not in out
        rpath = os.path.join(store_root, "reports", f"{load_scenario(path).run_id()}.blowup.json")
        assert not os.path.exists(rpath)

    def test_bench_tracer_installs_on_the_current_names(self, tmp_path):
        # bench/spans.py patches names by hand (DiscreteOperator.with_truncation,
        # the FormEvaluator methods, evolution.expm, estimators.eigvalsh): a
        # renamed one must fail here, not in the next traced benchmark run
        import subprocess
        import sys

        import hardyheat

        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(hardyheat.__file__)))
        scn = write_scenario(tmp_path, "op.json", base_raw(h=[0.1, 0.05]))
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from spans import Tracer; tracer = Tracer(); tracer.install(); "
            "import hardyheat.cli; "
            "rc = hardyheat.cli.main(['--out', sys.argv[2], 'verify', '--suite', 'operator', "
            "'--scenario', sys.argv[3]]); "
            "calls = {k: v['calls'] for k, v in tracer.summary()['spans'].items()}; "
            "print(json.dumps({'rc': rc, 'calls': calls}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, os.path.join(here, "..", "bench"),
             str(tmp_path / "runs"), scn],
            # no bytecode cache: the test writes nothing under bench/
            env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["rc"] == 0
        calls = result["calls"]
        assert calls["operators.assemble_operator"] == 2
        assert calls["operators.forms"] > 0
        assert calls["estimators.t_ref"] > 0
        # the bottom of L0 on both levels and of H on the finest, all by Lanczos
        assert calls["estimators.lambda_min"] == 3
        assert calls["kernel.eigh"] == 0

    def test_verify_recomputes_truncated_report(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "ok.json", base_raw())
        assert main(["--out", store_root, "verify", "--suite", "constants", "--scenario", path]) == 0
        rpath = os.path.join(store_root, "reports", f"{load_scenario(path).run_id()}.constants.json")
        with open(rpath, "r+") as fh:
            fh.truncate(40)
        capsys.readouterr()
        assert main(["--out", store_root, "verify", "--suite", "constants", "--scenario", path]) == 0
        assert "(cached report" not in capsys.readouterr().out
        with open(rpath) as fh:
            assert json.load(fh)["numerics"] == NUMERICS_EPOCH

    def test_constants_emits_json(self, capsys):
        rc = main(["constants", "--d", "1", "--alpha", "0.5", "--c", "0.5*cstar"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["c_star"] == pytest.approx(C_STAR, rel=1e-15)
        assert out["c"] == pytest.approx(0.5 * C_STAR, rel=1e-15)
        assert 0.0 < out["beta"] < out["beta_star"] == pytest.approx(0.25)

    @pytest.mark.parametrize("spec", [0.25, "0.5*cstar", "0.5 * cstar", "half", "half*cstar"])
    def test_cli_coupling_follows_the_scenario_rule(self, store_root, capsys, spec):
        rc = main([
            "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            "--domain=-1,1", "--h", "0.5", "--c", str(spec),
        ])
        out, err = capsys.readouterr()
        if "half" in str(spec):
            assert rc == 2 and "bad coupling" in err
            with pytest.raises(ConfigError, match="'c'"):
                scenario_from_dict(base_raw(c=spec))
        else:
            assert rc == 0
            with open(out.split()[-1]) as fh:  # "wrote <header>.json"
                assert json.load(fh)["c"] == scenario_from_dict(base_raw(c=spec)).c

    def test_constants_bad_coupling_is_config_error(self, capsys):
        rc = main(["constants", "--d", "1", "--alpha", "0.5", "--c", "half"])
        assert rc == 2
        assert "bad coupling" in capsys.readouterr().err

    def test_threads_must_be_positive(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "constants", "--d", "1", "--alpha", "0.5"])
        assert exc.value.code == 2

    def test_late_threads_setting_warns(self, monkeypatch, capsys):
        # numpy is loaded in this process, so BLAS keeps its thread count: say so
        for var in THREAD_VARS:  # restored afterwards, although main sets them
            monkeypatch.setenv(var, "2")
        argv = ["constants", "--d", "1", "--alpha", "0.5"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert main(["--threads", "1", *argv]) == 0
        out, err = capsys.readouterr()
        assert out == quiet.out and quiet.err == ""
        assert err.count("\n") == 1
        assert err.startswith("warning: --threads 1 comes after numpy was loaded")

    def test_threads_in_a_fresh_process_do_not_warn(self):
        import subprocess
        import sys

        import hardyheat

        src = os.path.dirname(os.path.dirname(os.path.abspath(hardyheat.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "hardyheat.cli", "--threads", "1",
             "constants", "--d", "1", "--alpha", "0.5"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout)["c_star"] == pytest.approx(C_STAR, rel=1e-15)

    def test_a_cached_report_is_served_only_at_its_thread_count(self, tmp_path, store_root):
        # the threaded BLAS inside the eigensolves moves kernel and Duhamel
        # values with the thread count, so a report computed at 2 threads is
        # not the answer to a --threads 1 request
        import subprocess
        import sys

        import hardyheat

        src = os.path.dirname(os.path.dirname(os.path.abspath(hardyheat.__file__)))
        path = write_scenario(tmp_path, "three.json", three_level_raw())

        def verify(threads):
            out = subprocess.run(
                [sys.executable, "-m", "hardyheat.cli", "--threads", threads, "--out", store_root,
                 "verify", "--suite", "all", "--scenario", path],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            )
            assert out.returncode == 0, out.stderr
            return "(cached report" in out.stdout

        assert [verify("2"), verify("2"), verify("1"), verify("1")] == [False, True, False, True]
        (rpath,) = [p for p in os.listdir(os.path.join(store_root, "reports")) if p.endswith(".all.json")]
        with open(os.path.join(store_root, "reports", rpath)) as fh:
            assert json.load(fh)["threads"] == "1"

    def test_verify_passing_suite(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "ok.json", base_raw())
        report_copy = str(tmp_path / "report.json")
        rc = main([
            "--out", store_root, "verify", "--suite", "constants",
            "--scenario", path, "--report", report_copy,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] beta_roundtrip" in out
        assert "failures=0" in out
        with open(report_copy) as fh:
            assert json.load(fh)["passed"] is True

        rc = main(["--out", store_root, "verify", "--suite", "constants", "--scenario", path])
        assert rc == 0
        assert "(cached report" in capsys.readouterr().out

    def test_report_copy_and_operator_header_are_written_as_write_json_writes(
        self, tmp_path, store_root, capsys
    ):
        def canonical(path):
            with open(path, "rb") as fh:
                data = fh.read()
            return data, (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()

        path = write_scenario(tmp_path, "ok.json", base_raw())
        report_copy = str(tmp_path / "report.json")
        argv = ["--out", store_root, "verify", "--suite", "constants", "--scenario", path]
        for _ in range(2):  # computed, then served from the cache
            assert main([*argv, "--report", report_copy]) == 0
            data, want = canonical(report_copy)
            assert data == want
        stored = os.path.join(store_root, "reports", f"{load_scenario(path).run_id()}.constants.json")
        assert canonical(stored)[0] == data
        assert main([
            "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            "--domain=-1,1", "--h", "0.1", "--c", "0.25", "--name", "probe",
        ]) == 0
        data, want = canonical(os.path.join(store_root, "operators", "probe.json"))
        assert data == want

    def test_verify_failing_suite_exits_1(self, tmp_path, store_root, capsys):
        # Slightly supercritical on coarse grids: the spectral gaps still
        # shrink between refinements, so the diagnostic must not certify
        # blow-up and the suite reports failures.
        raw = base_raw(c="1.1*cstar", h=[0.04, 0.02, 0.01], times=[0.1])
        path = write_scenario(tmp_path, "marginal.json", raw)
        rc = main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] verdict_blowup" in out
        assert "[PASS] lambda_min_decreasing" in out

    def test_single_probe_level_fails_the_probe_check(
        self, tmp_path, store_root, capsys, no_assembly
    ):
        # max V = 0.69 < 1 on the h = 0.1 grid, so the default schedule is
        # [max V]: a probe that cannot grow is refused at parse time
        raw = base_raw(c="1.1*cstar", domain=[-0.8, 0.8], h=[0.4, 0.2, 0.1], times=[0.1])
        path = write_scenario(tmp_path, "shallow.json", raw)
        rc = main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "suite 'blowup': the truncation schedule [0.688707350345" in err
        assert "gives fewer than 2 distinct potentials min(V, k) on the finest grid (h = 0.1" in err
        assert "so the probe cannot grow" in err
        assert os.listdir(os.path.join(store_root, "reports")) == []
        # k levels at or above max V give it one potential too
        path = write_scenario(tmp_path, "high.json", dict(raw, k=[1.0, 4.0]))
        rc = main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path])
        assert rc == 2
        assert "[1.0, 4.0] gives fewer than 2 distinct" in capsys.readouterr().err

    def test_two_probe_levels_parse(self, tmp_path):
        # the same scenario with one level below max V = 0.69 has two
        # potentials, min(V, 0.5) and V, so it parses
        raw = base_raw(c="1.1*cstar", domain=[-0.8, 0.8], h=[0.4, 0.2, 0.1], times=[0.1])
        grids, _ = validate_for_suite(scenario_from_dict(dict(raw, k=[0.5, 1.0])), "blowup")
        assert [g.h for g in grids] == [0.4, 0.2, 0.1]
        # max V = 1.38 at h = 0.025, past the first default level: the schedule is [1, max V]
        raw = base_raw(c="1.1*cstar", domain=[-0.8, 0.8], h=[0.1, 0.05, 0.025], times=[0.1])
        validate_for_suite(scenario_from_dict(raw), "blowup")

    def test_blowup_probe_falling_in_k_is_a_failed_check(
        self, tmp_path, store_root, capsys, monkeypatch
    ):
        # the truncation probe reports its invariant as sharp reports
        # minimal_monotone: a failed check in a written report, exit 1
        import dataclasses

        import hardyheat.evolution

        real = hardyheat.evolution.evolve

        def falling(op, u0, times):
            traj = real(op, u0, times)
            return dataclasses.replace(traj, states=traj.states / op.k)

        monkeypatch.setattr(hardyheat.evolution, "evolve", falling)
        raw = base_raw(c="3*cstar", h=[0.04, 0.02, 0.01], k=[1.0, 4.0], times=[0.1])
        path = write_scenario(tmp_path, "deep.json", raw)
        rc = main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path])
        assert rc == 1
        assert "[FAIL] probe_monotone_in_k" in capsys.readouterr().out
        rpath = os.path.join(store_root, "reports", f"{load_scenario(path).run_id()}.blowup.json")
        with open(rpath) as fh:
            report = json.load(fh)
        assert report["passed"] is False
        (check,) = report["checks"]
        assert check["name"] == "probe_monotone_in_k" and check["pass"] is False
        assert "truncated evolutions must increase with the cutoff" in check["measured"]

    def test_verify_all_solves_each_eigenproblem_once(
        self, tmp_path, store_root, capsys, monkeypatch
    ):
        calls = count_calls(monkeypatch)
        path = write_scenario(tmp_path, "three.json", three_level_raw())
        assert main(["--out", store_root, "verify", "--suite", "all", "--scenario", path]) == 0
        # L0 on each of the three levels and H on the finest: four bottoms
        assert len(calls["lambda_min"]) == len(set(calls["lambda_min"])) == 4
        # H and L0 on the finest level (kernels and Duhamel), each as an even
        # and an odd block of n/2 = 100 on [-1, 1]; the operator suite takes
        # its row mass from one exponential action, not a full kernel
        assert len(calls["eigh"]) == len(set(calls["eigh"])) == 4
        assert calls["eigh_n"] == [100] * 4
        # every level is kept: lp reuses the three that the operator suite assembled
        assert calls["assemble"] == 3
        assert calls["validate"] == 1 and calls["grids"] == 3
        capsys.readouterr()
        # a cache hit computes nothing
        assert main(["--out", store_root, "verify", "--suite", "all", "--scenario", path]) == 0
        assert "(cached report" in capsys.readouterr().out
        assert (calls["assemble"], calls["validate"], calls["grids"]) == (3, 1, 3)
        assert len(calls["eigh"]) == 4

    def test_verify_all_without_a_mirror_axis_solves_two_full_eigenproblems(
        self, tmp_path, store_root, monkeypatch
    ):
        # [-1, 1.5] has no mirror axis: one block each for H and L0, of all n = 200 nodes
        calls = count_calls(monkeypatch)
        raw = base_raw(h=[0.05, 0.025, 0.0125], domain=[-1.0, 1.5])
        path = write_scenario(tmp_path, "skew.json", raw)
        # on these coarse grids the slope and lp checks fail; only the solves count here
        assert main(["--out", store_root, "verify", "--suite", "all", "--scenario", path]) in (0, 1)
        assert len(calls["eigh"]) == len(set(calls["eigh"])) == 2
        assert calls["eigh_n"] == [200, 200]

    def test_verify_blowup_builds_each_level_once(self, tmp_path, store_root, capsys, monkeypatch):
        # the diagnostic reads the run's levels, so no grid or operator is built twice
        calls = count_calls(monkeypatch)
        path = write_scenario(tmp_path, "three.json", three_level_raw(c="3*cstar"))
        assert main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path]) == 0
        # H on each of the three levels and L0 on the finest (t_ref): four bottoms
        assert len(calls["lambda_min"]) == len(set(calls["lambda_min"])) == 4
        assert calls["eigh"] == []
        assert (calls["assemble"], calls["validate"], calls["grids"]) == (3, 1, 3)
        capsys.readouterr()
        assert main(["--out", store_root, "verify", "--suite", "blowup", "--scenario", path]) == 0
        assert "(cached report" in capsys.readouterr().out
        assert len(calls["lambda_min"]) == 4
        assert (calls["assemble"], calls["validate"], calls["grids"]) == (3, 1, 3)

    def test_verify_unknown_scenario_key_exits_2(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "extra.json", base_raw(extra=1))
        rc = main(["--out", store_root, "verify", "--suite", "constants", "--scenario", path])
        assert rc == 2
        assert "unknown scenario keys: extra" in capsys.readouterr().err

    def test_verify_missing_file_exits_2(self, store_root, capsys):
        rc = main(["--out", store_root, "verify", "--suite", "constants", "--scenario", "nope.json"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_verify_unknown_suite_exits_2(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "ok.json", base_raw())
        rc = main(["--out", store_root, "verify", "--suite", "bogus", "--scenario", path])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_verify_all_supercritical_exits_2(self, tmp_path, store_root, capsys):
        # the supercritical case is the blowup suite; "all" is subcritical only
        path = write_scenario(tmp_path, "super.json", base_raw(c="2*cstar", h=[0.1, 0.05]))
        rc = main(["--out", store_root, "verify", "--suite", "all", "--scenario", path])
        assert rc == 2
        assert "suite 'all' requires c <= c*" in capsys.readouterr().err

    def test_verify_all_without_coupling_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly
    ):
        path = write_scenario(tmp_path, "free.json", base_raw(c=0, h=[0.01, 0.005, 0.0025]))
        rc = main(["--out", store_root, "verify", "--suite", "all", "--scenario", path])
        assert rc == 2
        assert "requires a positive coupling" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("alpha", math.nan, "'alpha' must be a number in (0, 1), got nan"),
        ("c", math.inf, "bad coupling 'c' = inf"),
        ("domain", [-1.0, math.inf], "'domain' must be a list of 2 finite numbers"),
        ("domain", [-1.0, 10**400], "'domain' must be a list of 2 finite numbers"),
        ("h", [math.nan], "'h' must be a list of finite positive spacings"),
        ("times", [0.1, math.inf], "'times' must be finite numbers"),
        ("times", ["1e999*tref"], "got '1e999*tref'"),
        ("k", [1.0, math.inf], "'k' must be a list of finite positive levels"),
        ("inner_half_width", math.nan, "'inner_half_width' must be a finite positive number"),
        ("t0_factor", math.inf, "'t0_factor' must be a finite positive number"),
        ("u0", "ball:nan", "bad u0 spec 'ball:nan'"),
        ("u0", "bump:inf", "bad u0 spec 'bump:inf'"),
    ], ids=["alpha", "c", "domain", "domain_past_float_range", "h", "times",
            "times_tref_string", "k", "inner_half_width", "t0_factor", "u0_ball", "u0_bump"])
    def test_non_finite_reals_exit_2_at_parse_time(
        self, tmp_path, store_root, capsys, no_assembly, key, value, message
    ):
        path = write_scenario(tmp_path, "nonfinite.json", base_raw(**{key: value}))
        rc = main(["--out", store_root, "verify", "--suite", "kernel", "--scenario", path])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["kernel", "all"])
    def test_oversized_comparison_box_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, suite
    ):
        raw = base_raw(inner_half_width=5.0, h=[0.01, 0.005, 0.0025])
        path = write_scenario(tmp_path, "wide.json", raw)
        rc = main(["--out", store_root, "verify", "--suite", suite, "--scenario", path])
        assert rc == 2
        assert "half-width 5 must sit strictly inside" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, c, h", [
        ("sharp", "0.5*cstar", 0.0025), ("lp", "0.5*cstar", 0.01), ("blowup", "2*cstar", 0.0025),
    ])
    def test_u0_covering_no_node_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, suite, c, h
    ):
        # sharp and blowup build u0 on the finest grid, lp on every level
        raw = base_raw(c=c, u0="ball:0.001", h=[0.01, 0.005, 0.0025])
        path = write_scenario(tmp_path, "tiny_ball.json", raw)
        rc = main(["--out", store_root, "verify", "--suite", suite, "--scenario", path])
        assert rc == 2
        assert f"u0 'ball:0.001' covers no grid cell at h = {h:g}" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["lp", "all", "blowup"])
    def test_non_halving_lp_levels_exit_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, suite
    ):
        # the halving rule of lp and blowup holds at parse time, also where
        # 'all' runs lp after three other parts
        checked, c = ("blowup", "3*cstar") if suite == "blowup" else ("lp", "0.5*cstar")
        path = write_scenario(tmp_path, "uneven.json", base_raw(c=c, h=[0.01, 0.004, 0.002]))
        rc = main(["--out", store_root, "verify", "--suite", suite, "--scenario", path])
        assert rc == 2
        assert (f"suite {checked!r}: grids must halve h between levels, got [0.01, 0.004, 0.002]"
                in capsys.readouterr().err)

    def test_evolve_checks_u0_before_assembly(self, tmp_path, store_root, capsys, no_assembly):
        path = write_scenario(tmp_path, "tiny_ball.json", base_raw(u0="ball:0.001", h=[0.01]))
        rc = main(["--out", store_root, "evolve", "--scenario", path])
        assert rc == 2
        assert "covers no grid cell at h = 0.01" in capsys.readouterr().err
        assert os.listdir(os.path.join(store_root, "trajectories")) == []

    @pytest.mark.parametrize("bad, message", [
        (-0.5, "holds negative values"), (float("nan"), "holds non-finite values"),
    ], ids=["negative", "nan"])
    @pytest.mark.parametrize("command", ["evolve", "verify-sharp"])
    def test_bad_csv_u0_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, bad, message, command
    ):
        # before, evolve and the sharp suite assembled the operator (and evolve
        # solved t_ref) before the state check rejected these values
        vals = np.ones(400)
        vals[150] = bad
        np.savetxt(tmp_path / "u0.csv", vals, delimiter=",")
        raw = base_raw(u0=f"csv:{tmp_path / 'u0.csv'}", h=[0.005])
        path = write_scenario(tmp_path, "csv.json", raw)
        argv = ["evolve"] if command == "evolve" else ["verify", "--suite", "sharp"]
        rc = main(["--out", store_root, *argv, "--scenario", path])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "verify-sharp"])
    def test_all_zero_csv_u0_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, command
    ):
        # a u0 of zeros has no profile to fit and no probe to grow: refused before any compute
        np.savetxt(tmp_path / "u0.csv", np.zeros(200), delimiter=",")
        path = write_scenario(tmp_path, "zero.json", base_raw(u0=f"csv:{tmp_path / 'u0.csv'}", h=[0.01]))
        argv = ["evolve"] if command == "evolve" else ["verify", "--suite", "sharp"]
        rc = main(["--out", store_root, *argv, "--scenario", path])
        assert rc == 2
        assert f"u0 csv '{tmp_path / 'u0.csv'}' holds no positive value" in capsys.readouterr().err
        assert os.listdir(os.path.join(store_root, "trajectories")) == []

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_scenario_file_exits_2(self, tmp_path, store_root, capsys, command, kind):
        path = tmp_path / "scn.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + json.dumps(base_raw()).encode())
        flag = "--scenario" if command == "verify" else "--scenarios"
        rc = main(["--out", store_root, command, "--suite", "constants", flag, str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario file {path} is unreadable: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite", ["operator", "kernel"])
    def test_negative_seed_exits_2_before_assembly(
        self, tmp_path, store_root, capsys, no_assembly, suite
    ):
        # the kernel suite draws no random numbers, and exited 0 with seed -1;
        # the operator suite died in numpy's generator with a traceback
        path = write_scenario(tmp_path, "ok.json", base_raw(h=[0.05, 0.025]))
        rc = main(["--out", store_root, "--seed", "-1", "verify", "--suite", suite, "--scenario", path])
        assert rc == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        path = write_scenario(tmp_path, "neg.json", base_raw(h=[0.05, 0.025], seed=-1))
        rc = main(["--out", store_root, "verify", "--suite", suite, "--scenario", path])
        assert rc == 2
        assert "'seed' must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_evolve_scheme_override_is_checked_before_anything_runs(
        self, tmp_path, store_root, capsys, no_assembly
    ):
        # there is no scheme to pick: the flag and the file key both exit 2 before anything runs
        path = write_scenario(tmp_path, "ok.json", small_raw())
        with pytest.raises(SystemExit) as exc:
            main(["--out", store_root, "evolve", "--scenario", path, "--scheme", "cn"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scheme cn" in capsys.readouterr().err
        path = write_scenario(tmp_path, "keyed.json", dict(small_raw(), scheme="expm"))
        assert main(["--out", store_root, "evolve", "--scenario", path]) == 2
        assert "unknown scenario keys: scheme" in capsys.readouterr().err
        assert not os.path.exists(store_root)

    def test_verify_seed_override_changes_run_id(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "ok.json", base_raw())
        rc = main([
            "--out", store_root, "--seed", "7", "verify",
            "--suite", "constants", "--scenario", path,
        ])
        assert rc == 0
        capsys.readouterr()
        seeded = scenario_from_dict(base_raw(seed=7))
        rpath = os.path.join(store_root, "reports", f"{seeded.run_id()}.constants.json")
        assert os.path.exists(rpath)

    def test_sweep_aggregates_worst_exit(self, tmp_path, store_root, capsys):
        ok = write_scenario(
            tmp_path, "deep.json",
            base_raw(c="3*cstar", h=[0.04, 0.02, 0.01], times=[0.1]),
        )
        bad = write_scenario(
            tmp_path, "marginal.json",
            base_raw(c="1.1*cstar", h=[0.04, 0.02, 0.01], times=[0.1]),
        )
        rc = main(["--out", store_root, "sweep", "--suite", "blowup", "--scenarios", ok, bad])
        out = capsys.readouterr().out
        assert rc == 1
        assert "deep.json: ok" in out
        assert "FAILED" in out and "run)" in out

        rc = main(["--out", store_root, "sweep", "--suite", "blowup", "--scenarios", ok])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache)" in out

    @pytest.mark.parametrize("domain", ["-1,x", "-1,1,0"], ids=["not_a_number", "three_values"])
    def test_assemble_bad_domain_is_config_error(self, store_root, capsys, domain):
        rc = main([
            "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            f"--domain={domain}", "--h", "0.5",
        ])
        assert rc == 2
        assert "--domain must be 2 or 4 comma-separated numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["inf", "nan", "0"])
    def test_assemble_level_follows_the_scenario_rule(self, store_root, capsys, no_assembly, k):
        # the operator header is JSON, which has no Infinity or NaN
        rc = main([
            "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            "--domain=-1,1", "--h", "0.1", "--c", "0.25", "--k", k,
        ])
        assert rc == 2
        assert f"--k must be a finite positive truncation level, got {float(k)}" in (
            capsys.readouterr().err
        )
        assert not os.path.exists(store_root)

    def test_assemble_writes_operator_artifact(self, store_root, capsys):
        rc = main([
            "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            "--domain=-1,1", "--h", "0.1", "--c", "0.25", "--name", "probe",
        ])
        assert rc == 0
        base = os.path.join(store_root, "operators", "probe")
        assert os.path.exists(base + ".csv") and os.path.exists(base + ".json")
        header, H = load_operator(base)
        assert header["n"] == 20
        assert header["c"] == 0.25
        assert H.shape == (20, 20)

    def test_assemble_default_names_spell_every_input(self, store_root, capsys):
        # k, the domain, or an h past the 6 digits of :g alone changes the
        # operator, so each gets its own artifact; a rerun keeps its name
        base = ["--out", store_root, "assemble", "--d", "1", "--alpha", "0.5", "--c", "0.25"]
        runs = {
            "plain": ["--domain=-1,1", "--h", "0.1"],
            "k": ["--domain=-1,1", "--h", "0.1", "--k", "4"],
            "domain": ["--domain=-1,1.2", "--h", "0.1"],
            "h": ["--domain=-1,1", "--h", "0.10000000001"],
        }
        names = {}
        for key, extra in list(runs.items()) + [("again", runs["plain"])]:
            assert main(base + extra) == 0
            csv_line = capsys.readouterr().out.splitlines()[0]
            names[key] = os.path.basename(csv_line.removeprefix("wrote ").removesuffix(".csv"))
        assert names == {
            "plain": "op-d1-a0.5-b-1_1-h0.1-c0.25",
            "k": "op-d1-a0.5-b-1_1-h0.1-c0.25-k4",
            "domain": "op-d1-a0.5-b-1_1.2-h0.1-c0.25",
            "h": "op-d1-a0.5-b-1_1-h0.10000000001-c0.25",
            "again": "op-d1-a0.5-b-1_1-h0.1-c0.25",
        }
        assert sorted(os.listdir(os.path.join(store_root, "operators"))) == sorted(
            f"{name}.{ext}" for name in set(names.values()) for ext in ("csv", "json")
        )
        for key, want in (("k", 4.0), ("plain", None)):
            header, _ = load_operator(os.path.join(store_root, "operators", names[key]))
            assert header["k"] == want

    def test_kernel_writes_triplet_csv(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        rc = main(["--out", store_root, "kernel", "--scenario", path, "--t", "0.5"])
        assert rc == 0
        run_id = load_scenario(path).run_id()
        base = os.path.join(store_root, "kernels", f"{run_id}-t0.5")
        lines = open(base + ".csv").read().splitlines()
        assert lines[0] == "i,j,value"
        assert len(lines) == 1 + 20 * 21 // 2
        with open(base + ".json") as fh:
            header = json.load(fh)
        assert header["n"] == 20
        assert header["t_factor"] == 0.5
        assert header["t_absolute"] > 0.0

    def test_kernel_csv_values_round_trip(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        assert main(["--out", store_root, "kernel", "--scenario", path, "--t", "0.5"]) == 0
        scn = load_scenario(path)
        base = os.path.join(store_root, "kernels", f"{scn.run_id()}-t0.5")
        grid = build_grid(scn.domain_spec(), scn.h_levels[-1])
        op = assemble_operator(grid, scn.params, c=scn.c, k=None)
        P = oracles.kernel_matrix(heat_kernel(op, 0.5 * t_ref(op)))
        lines = open(base + ".csv").read().splitlines()
        for line in lines[1:]:
            si, sj, sv = line.split(",")
            assert float(sv) == P[int(si), int(sj)], line
        with open(base + ".csv", "rb") as fh:
            assert fh.read() == oracles.kernel_csv_loop(P)

    def test_kernel_file_names_spell_the_time_losslessly(self, tmp_path, store_root, capsys):
        # 0.1234567 and 0.1234568 agree to the 6 digits of :g; 0.5 keeps its :g name
        path = write_scenario(tmp_path, "small.json", small_raw())
        factors = ("0.1234567", "0.1234568", "0.5")
        for t in factors:
            assert main(["--out", store_root, "kernel", "--scenario", path, "--t", t]) == 0
        base = os.path.join(store_root, "kernels", load_scenario(path).run_id())
        assert sorted(os.listdir(os.path.dirname(base))) == sorted(
            f"{os.path.basename(base)}-t{t}.{ext}" for t in factors for ext in ("csv", "json")
        )
        for t in factors:
            with open(f"{base}-t{t}.json") as fh:
                assert json.load(fh)["t_factor"] == float(t)

    def test_kernel_forms_no_matrix_beyond_its_spectrum(self, tmp_path, store_root, capsys, monkeypatch):
        # 1-d n = 800 at one thread, so the CSV rows are formed in this process,
        # in blocks of 4096 entries whose strings stay small against n^2: from
        # the solved spectrum on, the kernel's two blocks of n/2 and the CSV's
        # row slabs stay below one n x n array (the whole-P path formed two)
        import tracemalloc

        import hardyheat.evolution
        import hardyheat.operators

        real, seen = hardyheat.evolution.heat_kernel, {}

        def after_the_spectrum(op, t):
            assert len(op.spectrum) == 2
            tracemalloc.reset_peak()
            seen["n"], seen["base"] = op.n, tracemalloc.get_traced_memory()[0]
            return real(op, t)

        for var in THREAD_VARS:  # restored afterwards, although main sets them
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(hardyheat.evolution, "heat_kernel", after_the_spectrum)
        monkeypatch.setattr(hardyheat.operators, "_BLOCK_ROWS", 1 << 12)
        path = write_scenario(tmp_path, "k.json", base_raw(h=[0.0025]))
        tracemalloc.start()
        try:
            rc = main(["--threads", "1", "--out", store_root, "kernel", "--scenario", path, "--t", "0.5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and seen["n"] == 800
        assert peak - seen["base"] < 8 * seen["n"] ** 2

    def test_kernel_header_records_the_csv_sha256(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        assert main(["--out", store_root, "kernel", "--scenario", path, "--t", "0.5"]) == 0
        base = os.path.join(store_root, "kernels", f"{load_scenario(path).run_id()}-t0.5")
        with open(base + ".json") as fh:
            header = json.load(fh)
        with open(base + ".csv", "rb") as fh:
            assert header["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_threads_1_and_one_block_state_csvs_never_fork(
        self, tmp_path, store_root, capsys, monkeypatch
    ):
        import hardyheat.operators

        def no_fork():
            raise AssertionError("os.fork called")

        for var in THREAD_VARS:  # restored afterwards, although main sets them
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(hardyheat.operators, "_BLOCK_ROWS", 8)  # many blocks per artifact
        monkeypatch.setattr(os, "fork", no_fork)
        path = write_scenario(tmp_path, "small.json", small_raw())
        kernel = ["--out", store_root, "kernel", "--scenario", path, "--t", "0.5"]
        with pytest.raises(AssertionError, match="os.fork called"):  # the patch is in effect
            main(["--threads", "2", *kernel])
        assert os.listdir(os.path.join(store_root, "kernels")) == []  # no temp file left
        assert main(["--threads", "1", *kernel]) == 0
        assert main([
            "--threads", "1", "--out", store_root, "assemble", "--d", "1", "--alpha", "0.5",
            "--domain=-1,1", "--h", "0.1", "--name", "op",
        ]) == 0
        load_operator(os.path.join(store_root, "operators", "op"))
        # a state CSV is one block, so even two workers fork none
        monkeypatch.setattr(hardyheat.operators, "_cpus", lambda: 2)
        assert main(["--out", store_root, "evolve", "--scenario", path]) == 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_evolve_state_csv_matches_loop_oracle(self, tmp_path, store_root, capsys, d):
        raw = small_raw() if d == 1 else base_raw(
            d=2, alpha=1.0, domain=[-1.0, 1.0, -1.0, 1.0], h=[0.25], u0="bump")
        path = write_scenario(tmp_path, "small.json", raw)
        assert main(["--out", store_root, "evolve", "--scenario", path]) == 0
        scn = load_scenario(path)
        grid = build_grid(scn.domain_spec(), scn.h_levels[-1])
        csv_path = os.path.join(store_root, "trajectories", scn.run_id(), "state_001.csv")
        u = np.loadtxt(csv_path, delimiter=",", skiprows=1)[:, -1]
        with open(csv_path, "rb") as fh:
            assert fh.read() == oracles.state_csv_loop(grid.nodes, u)

    @pytest.mark.parametrize("t", ["nan", "inf", "0"])
    def test_kernel_time_is_checked_before_anything_runs(
        self, tmp_path, store_root, capsys, no_assembly, t
    ):
        path = write_scenario(tmp_path, "small.json", small_raw())
        rc = main(["--out", store_root, "kernel", "--scenario", path, "--t", t])
        assert rc == 2
        assert "kernel time must be positive and finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(store_root, "kernels"))

    def test_kernel_rejects_nonpositive_time(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        rc = main(["--out", store_root, "kernel", "--scenario", path, "--t", "0"])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    def test_evolve_writes_states_and_caches(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        rc = main(["--out", store_root, "evolve", "--scenario", path])
        assert rc == 0
        outdir = os.path.join(store_root, "trajectories", load_scenario(path).run_id())
        with open(os.path.join(outdir, "report.json")) as fh:
            rep = json.load(fh)
        assert rep["files"] == ["state_000.csv", "state_001.csv"]
        assert rep["report"]["converged"] is True
        lines = open(os.path.join(outdir, "state_000.csv")).read().splitlines()
        assert lines[0] == "x1,u"
        assert len(lines) == 21
        capsys.readouterr()

        rc = main(["--out", store_root, "evolve", "--scenario", path])
        assert rc == 0
        assert "cached:" in capsys.readouterr().out

    def test_evolve_recomputes_unstamped_report(self, tmp_path, store_root, capsys):
        path = write_scenario(tmp_path, "small.json", small_raw())
        assert main(["--out", store_root, "evolve", "--scenario", path]) == 0
        outdir = os.path.join(store_root, "trajectories", load_scenario(path).run_id())
        report_path = os.path.join(outdir, "report.json")
        with open(report_path) as fh:
            rep = json.load(fh)
        assert rep["numerics"] == NUMERICS_EPOCH
        del rep["numerics"]
        with open(report_path, "w") as fh:
            json.dump(rep, fh)
        capsys.readouterr()
        assert main(["--out", store_root, "evolve", "--scenario", path]) == 0
        assert "cached:" not in capsys.readouterr().out
        with open(report_path) as fh:
            assert json.load(fh)["numerics"] == NUMERICS_EPOCH
