import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from covertq.cli import main as cli_main
from covertq.errors import InfeasibleRateError, InstabilityError, ParameterError
from covertq.queueing import ServiceModel
from covertq.rates import (
    RatePoint,
    RegionSpec,
    choose_dummy_rate,
    covert_capacity,
    in_region,
    kl_to_exponential,
    min_key_rate,
    no_key_needed,
)

from oracles import (
    erlang_kl_closed_form,
    kl_by_monte_carlo,
    kl_by_quadrature,
    uniform_kl_closed_form,
)


def mm1_spec(mu1=1.0, mu2=2.0):
    return RegionSpec(mu1=mu1, mu2=mu2)


class TestCovertCapacity:
    def test_reference_value(self):
        assert covert_capacity(0.5, 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_argmax_over_arrival_rate(self):
        # d/dlam [lam ln(mu/lam)] = 0 at lam = mu/e, where the value is mu/e
        mu = 1.0
        lam_star = mu / math.e
        assert covert_capacity(lam_star, mu) == pytest.approx(mu / math.e, abs=1e-12)
        numeric = minimize_scalar(
            lambda lam: -covert_capacity(lam, mu), bounds=(1e-6, mu - 1e-6), method="bounded"
        )
        assert numeric.x == pytest.approx(lam_star, abs=1e-5)
        assert -numeric.fun <= covert_capacity(lam_star, mu) + 1e-12

    def test_vanishes_at_stability_boundary(self):
        assert covert_capacity(1.0 - 1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_instability_raises(self):
        with pytest.raises(InstabilityError):
            covert_capacity(1.0, 1.0)
        with pytest.raises(InstabilityError):
            covert_capacity(1.5, 1.0)
        with pytest.raises(ParameterError):
            covert_capacity(-0.5, 1.0)


class TestMinKeyRate:
    def test_reference_value(self):
        assert min_key_rate(0.5, mm1_spec(1.0, 2.0)) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_zero_when_adversary_is_slower(self):
        assert min_key_rate(0.5, mm1_spec(2.0, 1.0)) == 0.0
        assert min_key_rate(0.5, mm1_spec(1.0, 1.0)) == 0.0

    def test_monotone_in_adversary_rate(self):
        values = [min_key_rate(0.5, mm1_spec(1.0, mu2)) for mu2 in (1.0, 1.5, 2.0, 4.0)]
        assert values == sorted(values)

    def test_adds_the_divergence_of_the_law(self):
        model = ServiceModel.erlang(2.0, shape=2)
        got = min_key_rate(0.5, RegionSpec(1.0, 2.0, model))
        assert got == pytest.approx(0.5 * (math.log(2.0) + 0.11593151565841244), abs=1e-12)

    def test_instability_raises(self):
        with pytest.raises(InstabilityError):
            min_key_rate(1.0, mm1_spec(1.0, 2.0))
        with pytest.raises(InstabilityError):
            min_key_rate(0.8, mm1_spec(1.0, 0.5))
        with pytest.raises(ParameterError):
            min_key_rate(0.0, mm1_spec(1.0, 2.0))


class TestKlToExponential:
    def test_same_exponential_is_zero(self):
        assert kl_to_exponential(ServiceModel.exponential(2.0), 2.0) == 0.0

    def test_exponential_closed_form(self):
        # D(Exp(a) || Exp(b)) = ln(a/b) + b/a - 1
        got = kl_to_exponential(ServiceModel.exponential(3.0), 1.5)
        assert got == pytest.approx(math.log(2.0) + 0.5 - 1.0, abs=1e-12)

    def test_erlang_against_quadrature_oracle(self):
        model = ServiceModel.erlang(2.0, shape=2)
        got = kl_to_exponential(model, 2.0)
        want = kl_by_quadrature(
            lambda x: float(model.log_density(np.array([x]))[0]),
            lambda x: math.log(2.0) - 2.0 * x,
            0.0,
            60.0,
        )
        assert got == pytest.approx(want, abs=1e-6)
        # frozen closed-form value: ln 2 + psi(2) - 1, scale-invariant
        assert got == pytest.approx(0.11593151565841244, abs=1e-12)
        assert got == pytest.approx(erlang_kl_closed_form(2, 2.0, 2.0), abs=1e-12)

    @pytest.mark.parametrize("shape", [1, 2, 10, 99, 100, 101, 10**3, 10**12, 10**14, 10**16,
                                       10**20, 10**100, 10**300])
    @pytest.mark.parametrize("rate", [2.0, 0.7])
    def test_erlang_against_mpmath_at_any_shape(self, shape, rate):
        # the closed form up to 99 stages, the Stirling series from 100 on; the
        # reference cancels two terms of size k log k, so it carries k's digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(340):
            k, a, r = mpmath.mpf(shape), mpmath.mpf(2), mpmath.mpf(rate)
            want = float(mpmath.log(k * a) - mpmath.loggamma(k) + (k - 1) * mpmath.digamma(k)
                         - k - mpmath.log(r) + r / a)
        got = kl_to_exponential(ServiceModel.erlang(2.0, shape=shape), rate)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)  # abs: D = 0 at k = 1, rate 2

    @pytest.mark.parametrize("rate", [0.7, 3.3])
    def test_erlang_against_scipy_digamma(self, rate):
        # the harmonic-number digamma below 100 stages, the Stirling series at
        # 100 and 101, both against the closed form on scipy's digamma
        for shape in [*range(1, 100), 100, 101]:
            got = kl_to_exponential(ServiceModel.erlang(2.0, shape=shape), rate)
            want = erlang_kl_closed_form(shape, 2.0, rate)
            assert got == pytest.approx(want, rel=1e-12), shape

    def test_erlang_scale_invariance(self):
        for rate in (0.25, 1.0, 7.0):
            got = kl_to_exponential(ServiceModel.erlang(rate, shape=2), rate)
            assert got == pytest.approx(0.11593151565841244, abs=1e-10)

    def test_uniform_against_closed_form_and_monte_carlo(self):
        model = ServiceModel.uniform(2.0, halfwidth=0.2)
        got = kl_to_exponential(model, 2.0)
        want = uniform_kl_closed_form(0.5, 0.2, 2.0)
        assert got == pytest.approx(want, abs=1e-12)

        def log_f(x):
            return np.where((x >= 0.3) & (x <= 0.7), -math.log(0.4), -math.inf)

        def log_g(x):
            return math.log(2.0) - 2.0 * x

        mc, se = kl_by_monte_carlo(
            lambda rng, m: rng.uniform(0.3, 0.7, m), log_f, log_g, 1_000_000,
            np.random.default_rng(31),
        )
        assert got == pytest.approx(mc, abs=4 * se + 1e-4)

    @pytest.mark.parametrize("halfwidth", [0.05, 0.2, 0.5])
    @pytest.mark.parametrize("rate", [0.7, 2.0, 5.0])
    def test_uniform_against_quadrature_oracle(self, halfwidth, rate):
        model = ServiceModel.uniform(2.0, halfwidth=halfwidth)
        lo, hi = 0.5 - halfwidth, 0.5 + halfwidth
        want = kl_by_quadrature(
            lambda x: -math.log(2.0 * halfwidth) if lo <= x <= hi else -math.inf,
            lambda x: math.log(rate) - rate * x,
            lo, hi,
        )
        assert kl_to_exponential(model, rate) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_uniform_at_a_tiny_width_is_the_closed_form(self):
        # adaptive quadrature read 20.336971465 here, 1e-8 off
        got = kl_to_exponential(ServiceModel.uniform(2.0, halfwidth=1e-9), 2.0)
        assert got == pytest.approx(uniform_kl_closed_form(0.5, 1e-9, 2.0), rel=1e-15)
        assert got == pytest.approx(20.336971476, abs=1e-9)

    def test_nonnegative_across_family(self):
        for model in (
            ServiceModel.exponential(0.7),
            ServiceModel.erlang(1.3, shape=5),
            ServiceModel.uniform(1.0, halfwidth=0.5),
        ):
            for rate in (0.5, 1.0, 2.0):
                assert kl_to_exponential(model, rate) >= -1e-12


class TestInRegion:
    def test_no_key_needed_when_adversary_slower(self):
        point = RatePoint(arrival_rate=0.5, message_rate=0.2, key_rate=0.0)
        assert in_region(point, mm1_spec(mu1=1.0, mu2=0.8))

    def test_threshold_is_strict_when_positive(self):
        theta = 0.5 * math.log(2.0)
        spec = mm1_spec()
        at = RatePoint(arrival_rate=0.5, message_rate=0.1, key_rate=theta)
        above = RatePoint(arrival_rate=0.5, message_rate=0.1, key_rate=theta + 1e-9)
        assert not in_region(at, spec)
        assert in_region(above, spec)

    def test_capacity_edge_is_excluded(self):
        cap = covert_capacity(0.5, 1.0)
        spec = mm1_spec()
        assert not in_region(RatePoint(0.5, cap, 1.0), spec)
        assert in_region(RatePoint(0.5, cap - 1e-9, 1.0), spec)

    def test_negative_message_rate_excluded(self):
        assert not in_region(RatePoint(0.5, -0.1, 1.0), mm1_spec())

    def test_zero_rate_point_included(self):
        assert in_region(RatePoint(0.5, 0.0, 0.0), mm1_spec(mu1=1.0, mu2=0.9))

    def test_mg1_with_exponential_law_adds_nothing(self):
        # a spec given Exp(mu2) explicitly is the default spec
        spec_default = mm1_spec()
        spec_law = RegionSpec(mu1=1.0, mu2=2.0, willie_service=ServiceModel.exponential(2.0))
        assert spec_default == spec_law
        assert spec_law.willie_divergence() == 0.0
        rng = np.random.default_rng(32)
        for _ in range(200):
            r = float(rng.uniform(0.0, 0.4))
            rk = float(rng.uniform(0.0, 0.8))
            point = RatePoint(0.5, r, rk)
            want = 0.0 <= r < covert_capacity(0.5, 1.0) and rk > 0.5 * math.log(2.0)
            assert in_region(point, spec_law) == in_region(point, spec_default) == want

    def test_threshold_does_not_depend_on_message_rate(self):
        # R does not pay for the key: R_K just above the threshold is enough at
        # every R below capacity, and R_K just below it at none
        model = ServiceModel.erlang(1.5, shape=2)
        spec = RegionSpec(mu1=1.0, mu2=1.5, willie_service=model)
        theta = min_key_rate(0.5, spec)
        assert theta > 0.0
        for r in np.linspace(0.0, covert_capacity(0.5, 1.0), 20, endpoint=False):
            assert in_region(RatePoint(0.5, float(r), theta + 1e-9), spec)
            assert not in_region(RatePoint(0.5, float(r), theta - 1e-9), spec)

    def test_an_unstable_warden_queue_is_outside(self):
        # mu2 < mu1: the receiver's queue is stable up to mu1, the warden's
        # only below mu2, where min_key_rate has a value
        spec = mm1_spec(mu1=1.0, mu2=0.5)
        below = RatePoint(float(np.nextafter(0.5, 0.0)), 0.01, 1.0)
        assert in_region(below, spec) and choose_dummy_rate(below, spec) >= 0.0
        for lam in (0.5, float(np.nextafter(0.5, 1.0)), 0.8):
            point = RatePoint(lam, 0.01, 1.0)
            assert not in_region(point, spec)
            with pytest.raises(InfeasibleRateError):
                choose_dummy_rate(point, spec)
            with pytest.raises(InstabilityError):
                min_key_rate(lam, spec)

    def test_mg1_spec_validation(self):
        with pytest.raises(ParameterError):
            RegionSpec(mu1=1.0, mu2=2.0, willie_service=ServiceModel.exponential(1.0))  # rate != mu2
        with pytest.raises(ParameterError):
            RegionSpec(mu1=0.0, mu2=2.0)


class TestChooseDummyRate:
    def test_worked_interval(self):
        # lower = ln2 - 0.5, upper = 0.5 ln2 - 0.1, midpoint between them
        point = RatePoint(arrival_rate=0.5, message_rate=0.1, key_rate=0.4)
        got = choose_dummy_rate(point, mm1_spec())
        lower = math.log(2.0) - 0.5
        upper = 0.5 * math.log(2.0) - 0.1
        assert lower == pytest.approx(0.19314718055994531, abs=1e-12)
        assert upper == pytest.approx(0.24657359027997264, abs=1e-12)
        assert got == pytest.approx(0.5 * (lower + upper), abs=1e-12)
        assert got == pytest.approx(0.21986038541995897, abs=1e-9)

    def test_zero_lower_bound_when_budget_is_ample(self):
        # R close to capacity with the masking constraint already slack
        point = RatePoint(arrival_rate=0.5, message_rate=covert_capacity(0.5, 1.0) - 0.01,
                          key_rate=0.0)
        got = choose_dummy_rate(point, mm1_spec(mu1=1.0, mu2=0.52))
        # resolvability needs R + R0 + RK >= 0.5*ln(0.52/0.5) ~ 0.0196 < R already
        assert got == pytest.approx(0.005, abs=1e-12)

    def test_back_substitution_satisfies_both_constraints(self):
        rng = np.random.default_rng(33)
        spec = mm1_spec()
        cap = covert_capacity(0.5, 1.0)
        theta = 0.5 * math.log(2.0)
        checked = 0
        while checked < 2000:
            r = float(rng.uniform(0.0, cap * 0.999))
            rk = float(rng.uniform(theta + 1e-9, theta + 1.0))
            point = RatePoint(0.5, r, rk)
            if not in_region(point, spec):
                continue
            r0 = choose_dummy_rate(point, spec)
            assert r + r0 <= cap + 1e-12
            assert r + r0 + rk >= 0.5 * math.log(4.0) - 1e-12
            checked += 1

    def test_outside_region_raises(self):
        with pytest.raises(InfeasibleRateError):
            choose_dummy_rate(RatePoint(0.5, 0.1, 0.0), mm1_spec())

    def test_mg1_empty_interval_raises(self):
        # high message rate with no key: the masking floor lies above the
        # decodability cap, so the point is outside the region
        model = ServiceModel.erlang(2.0, shape=2)
        spec = RegionSpec(mu1=1.0, mu2=2.0, willie_service=model)
        kl = kl_to_exponential(model, 2.0)
        cap = covert_capacity(0.5, 1.0)
        point = RatePoint(0.5, cap - 1e-6, key_rate=0.0)
        need = 0.5 * (math.log(4.0) + kl) - (cap - 1e-6)
        assert need > 1e-6
        assert not in_region(point, spec)
        with pytest.raises(InfeasibleRateError):
            choose_dummy_rate(point, spec)


LAWS = st.one_of(
    st.just(ServiceModel.exponential),
    st.integers(1, 12).map(lambda k: lambda mu2: ServiceModel.erlang(mu2, shape=k)),
    st.floats(0.05, 1.0).map(lambda h: lambda mu2: ServiceModel.uniform(mu2, halfwidth=h / mu2)),
)


@given(lam=st.floats(0.05, 5.0), mu1=st.floats(0.05, 20.0), mu2=st.floats(0.05, 20.0),
       law=LAWS, r_frac=st.floats(-0.1, 1.1), key_rate=st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_in_region_exactly_where_a_dummy_rate_exists(lam, mu1, mu2, law, r_frac, key_rate):
    # in the region iff some R_0 >= 0 meets both constraints (with R below
    # capacity), and then choose_dummy_rate finds one; away from rounding at
    # the key threshold
    spec = RegionSpec(mu1, mu2, law(mu2))
    divergence = spec.willie_divergence()
    assume(abs(key_rate - lam * (math.log(mu2 / mu1) + divergence)) > 1e-9)
    cap = lam * math.log(mu1 / lam) if lam < mu1 else 0.0
    resolvability = lam * (math.log(mu2 / lam) + divergence)
    r = r_frac * cap if cap > 0.0 else r_frac
    point = RatePoint(lam, r, key_rate)
    # an unstable warden queue (lam >= mu2) has no region, whatever the rates
    exists = (lam < mu2 and 0.0 <= r < cap
              and max(0.0, resolvability - r - key_rate) <= cap - r)
    try:
        r0 = choose_dummy_rate(point, spec)
    except InfeasibleRateError:
        r0 = None
    assert in_region(point, spec) == exists == (r0 is not None)
    if r0 is not None:
        assert r0 >= 0.0
        assert r + r0 <= cap + 1e-12
        assert r + r0 + key_rate >= resolvability - 1e-12


class TestNoKeyNeeded:
    def test_mm1_cases(self):
        assert no_key_needed(mm1_spec(mu1=2.0, mu2=1.0))
        assert not no_key_needed(mm1_spec(mu1=1.0, mu2=2.0))
        assert not no_key_needed(mm1_spec(mu1=1.0, mu2=1.0))  # strict

    def test_mg1_divergence_penalty(self):
        model = ServiceModel.erlang(1.0, shape=2)
        spec = RegionSpec(mu1=1.05, mu2=1.0, willie_service=model)
        # ln(1.05) ~ 0.0488 < 0.1159: the shape penalty eats the rate advantage
        assert not no_key_needed(spec)
        spec_wide = RegionSpec(mu1=1.2, mu2=1.0, willie_service=model)
        assert math.log(1.2) > 0.11593151565841244
        assert no_key_needed(spec_wide)

    def test_matches_in_region_at_zero_key_rate_on_a_grid(self):
        # True iff every message rate below capacity is in the region with
        # zero key rate; the margin is strict, so an exponential tie
        # mu1 == mu2 is False although every such rate is in
        laws = (None, lambda mu2: ServiceModel.erlang(mu2, shape=2),
                lambda mu2: ServiceModel.erlang(mu2, shape=6),
                lambda mu2: ServiceModel.uniform(mu2, halfwidth=0.5 / mu2))
        for mu1 in (0.8, 1.0, 1.1, 1.5, 2.0, 4.0):
            for mu2 in (0.8, 1.0, 1.5, 2.0):
                for law in laws:
                    spec = RegionSpec(mu1, mu2, None if law is None else law(mu2))
                    tie = law is None and mu1 == mu2
                    for lam in (0.1 * mu1, 0.5 * mu1, 0.9 * mu1):
                        capacity = covert_capacity(lam, mu1)
                        every = all(in_region(RatePoint(lam, capacity * j / 20, 0.0), spec)
                                    for j in range(20))
                        if lam >= mu2:  # the warden's queue is unstable: no rate is in
                            assert not every, (mu1, mu2, law, lam)
                        else:
                            assert no_key_needed(spec) == (every and not tie), (mu1, mu2, law, lam)

    def test_rate_ratios_beyond_the_float_range(self):
        # 1e300 / 1e-300 overflows and its inverse underflows to 0; the log
        # ratio is still about +-1381.6
        assert no_key_needed(mm1_spec(mu1=1e300, mu2=1e-300))
        assert not no_key_needed(mm1_spec(mu1=1e-300, mu2=1e300))
        assert min_key_rate(1e-301, mm1_spec(1e300, 1e-300)) == 0.0
        assert min_key_rate(1e-301, mm1_spec(1e-300, 1e300)) == pytest.approx(1e-301 * 600 * math.log(10))
        assert covert_capacity(1e-300, 1e300) == pytest.approx(1e-300 * 600 * math.log(10))


def test_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency, and most of a cold import.  numpy.ma
    # (which np.unique imports) and concurrent.futures (which harness.run
    # imports for its workers) are left unloaded as well
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, covertq; print(sorted(m for m in sys.modules if m.split('.')[0] == "
             "'scipy' or m in ('numpy.ma', 'concurrent.futures')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_scipy(tmp_path):
    # the package needs numpy alone: with scipy unimportable, Erlang-warden
    # runs (the harmonic-number digamma at shape 3, the Stirling series at
    # 150) exit 0 and write the bytes of the same runs in this process
    law = {"kind": "erlang", "rate": 2.0, "shape": 3}
    base = dict(arrival_rate=0.5, mu1=1.0, mu2=2.0, willie_service=law, trials=20, master_seed=5)
    configs = [
        dict(base, experiment="region_table"),
        dict(base, experiment="region_table", willie_service=dict(law, shape=150)),
        dict(base, experiment="detection_sweep", n_list=[4], width_list=[[4, 1, 1]]),
        dict(base, experiment="info_density", n_list=[4, 8]),
    ]
    argv = []
    for i, payload in enumerate(configs):
        (tmp_path / f"{i}.json").write_text(json.dumps(payload))
        argv.append([str(tmp_path / f"{i}.json"), str(tmp_path / f"{i}.blocked.csv")])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import json, sys; sys.modules['scipy'] = None; from covertq.cli import main; "
             "print(json.dumps([main(['--config', c, '--out', o]) for c, o in "
             "json.loads(sys.argv[1])]))")
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0] * len(configs)
    for i, (cfg, blocked) in enumerate(argv):
        here = tmp_path / f"{i}.csv"
        assert cli_main(["--config", cfg, "--out", str(here)]) == 0
        assert Path(blocked).read_bytes() == here.read_bytes(), configs[i]
