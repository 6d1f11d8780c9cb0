import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covertq.errors import ParameterError, StructuralError
from covertq.queueing import (
    BLOCK_CELLS,
    ServiceModel,
    departure_epochs,
    poisson_arrivals,
    simulate_channel,
    trial_blocks,
)
from covertq.queueing import _MIN_VECTOR_WIDTH, _departures, _exponential_gaps

import oracles
from oracles import des_departures


EXP1 = ServiceModel.exponential(1.0)


class Replay:
    """A generator that hands an Erlang law's one ``sample`` call given
    standard gamma draws, which the law scales."""

    def __init__(self, draws):
        self.draws = draws

    def standard_gamma(self, shape, out):
        assert out.shape == self.draws.shape
        out[...] = self.draws


class TestGapChecks:
    """Gaps are checked where they enter the simulator, ``departure_epochs``,
    and epochs, their running sums, everywhere else."""

    def test_rejects_bad_shapes_and_values(self):
        bad_values = ([], [1.0, -0.5], [1.0, np.inf], [1.0, np.nan])
        for epochs in (np.ones((2, 2, 2)), [2.0, 1.0], *bad_values):
            with pytest.raises(StructuralError):
                simulate_channel(epochs, EXP1, np.random.default_rng(0))
        for gaps in (np.ones((2, 2, 2)), *bad_values):
            ok = np.ones(np.shape(gaps))
            with pytest.raises(StructuralError):
                departure_epochs(gaps, ok)
            with pytest.raises(StructuralError):
                departure_epochs(ok, gaps)

    def test_simulate_channel_takes_a_plain_array(self):
        gaps = np.array([1.0, 0.5, 2.0])
        epochs = np.cumsum(gaps)
        dep = simulate_channel(epochs, EXP1, np.random.default_rng(1))
        services = EXP1.sample(np.random.default_rng(1), 3)
        assert type(dep) is np.ndarray and dep.dtype == np.float64 and dep.shape == (3,)
        assert np.array_equal(dep, departure_epochs(gaps, services)[0])
        assert np.array_equal(epochs, [1.0, 1.5, 3.5])  # the input is not written to

    def test_overflowing_epochs_are_refused(self):
        # the running sum of finite gaps passes the float range
        services = np.ones(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="overflow"):
                departure_epochs([1e308, 1e308], services)
            with pytest.raises(ParameterError, match="overflow"):
                departure_epochs(np.ones(2), [1e308, 1e308])
            with pytest.raises(ParameterError, match="overflow"):
                poisson_arrivals(1e-308, 10, np.random.default_rng(0))
        # and the caller's services are not written to
        d, _ = departure_epochs([1.0, 1.0], services)
        assert np.array_equal(d, [2.0, 3.0]) and np.array_equal(services, [1.0, 1.0])


FILL_SHAPES = [(), (5,), (54, 300), (0,)]


class TestFills:
    """Every draw goes through a standard variate written in place and
    scaled: the bits numpy's own samplers give, and the generator left where
    they leave it."""

    @pytest.mark.parametrize("shape", FILL_SHAPES, ids=str)
    @pytest.mark.parametrize("lam", [0.5, 0.7, 3.3, 1e6])
    @pytest.mark.parametrize("law", ["gaps", "exponential", "erlang", "uniform"])
    def test_fills_draw_numpys_bits(self, law, lam, shape):
        got_rng, want_rng = np.random.default_rng(35), np.random.default_rng(35)
        if law == "gaps":
            got = _exponential_gaps(got_rng, lam, np.empty(shape))
            want = want_rng.exponential(1.0 / lam, shape)
        elif law == "exponential":
            got = ServiceModel.exponential(lam).sample(got_rng, shape)
            want = want_rng.exponential(1.0 / lam, shape)
        elif law == "erlang":
            got = ServiceModel.erlang(lam, shape=3).sample(got_rng, shape)
            want = want_rng.gamma(3, 1.0 / (3 * lam), shape)
        else:
            got = ServiceModel.uniform(lam, halfwidth=0.2 / lam).sample(got_rng, shape)
            want = want_rng.uniform(1.0 / lam - 0.2 / lam, 1.0 / lam + 0.2 / lam, shape)
        assert got.shape == np.shape(want) and got.tobytes() == np.asarray(want).tobytes()
        assert got_rng.random() == want_rng.random()

    def test_fill_into_a_piece_buffer_half(self):
        pieces = np.zeros((2, 54, 300))
        model = ServiceModel.erlang(0.7, shape=3)
        model._fill(np.random.default_rng(36), pieces[1, :20])
        want = np.random.default_rng(36).gamma(3, 1.0 / (3 * 0.7), (20, 300))
        assert pieces[1, :20].tobytes() == want.tobytes()
        assert not pieces[0].any() and not pieces[1, 20:].any()

    @pytest.mark.parametrize("law", ["gaps", "exponential", "erlang"])
    def test_a_scale_near_the_float_top_overflows_without_a_warning(self, law):
        # a mean gap of 1e308: a standard variate above 1.8 overflows to inf,
        # as numpy's samplers give it, and the callers refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if law == "gaps":
                got = _exponential_gaps(np.random.default_rng(37), 1e-308, np.empty(1000))
            else:
                model = (ServiceModel.exponential(1e-308) if law == "exponential"
                         else ServiceModel.erlang(1e-308, shape=2))
                got = model.sample(np.random.default_rng(37), 1000)
        assert np.isinf(got).any() and not np.isnan(got).any()
        want = (np.random.default_rng(37).gamma(2, 1.0 / (2 * 1e-308), 1000) if law == "erlang"
                else np.random.default_rng(37).exponential(1e308, 1000))
        assert got.tobytes() == want.tobytes()


class TestServiceModel:
    def test_exponential_log_density_is_the_masked_form(self):
        # -inf where x is not >= 0, NaN included; elsewhere log r - r x
        x = np.array([0.5, 0.0, -0.0, -1e-300, np.nan, np.inf, 1e308, 3.0])
        for model in (EXP1, ServiceModel.exponential(1e300)):
            with np.errstate(over="ignore"):
                got, want = model.log_density(x), oracles.service_log_density(model, x)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.isneginf(got), [False, False, False, True, True, True,
                                                     model.rate > 1, False])
        zero_d = EXP1.log_density(2.0)
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d == -2.0
        assert EXP1.log_density(-1.0) == -np.inf and EXP1.log_density(np.empty(0)).shape == (0,)

    def test_exponential_mean(self):
        rng = np.random.default_rng(11)
        x = ServiceModel.exponential(2.0).sample(rng, 1_000_000)
        assert x.mean() == pytest.approx(0.5, rel=0.01)

    def test_erlang_mean_and_variance(self):
        # k stages => mean 1/rate, variance 1/(k * rate^2)
        rng = np.random.default_rng(12)
        x = ServiceModel.erlang(1.0, shape=4).sample(rng, 1_000_000)
        assert x.mean() == pytest.approx(1.0, rel=0.01)
        assert x.var() == pytest.approx(0.25, rel=0.02)

    def test_uniform_support_and_mean(self):
        rng = np.random.default_rng(13)
        model = ServiceModel.uniform(2.0, halfwidth=0.2)
        x = model.sample(rng, 100_000)
        assert x.min() >= 0.3 and x.max() <= 0.7
        assert x.mean() == pytest.approx(0.5, rel=0.01)

    def test_uniform_support_must_stay_nonnegative(self):
        with pytest.raises(ParameterError):
            ServiceModel.uniform(2.0, halfwidth=0.6)  # 1/rate - h < 0

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ServiceModel.exponential(0.0)
        with pytest.raises(ParameterError):
            ServiceModel.erlang(1.0, shape=0)

    def test_log_density_matches_sampled_support(self):
        model = ServiceModel.erlang(2.0, shape=3)
        assert model.log_density(np.array([-1.0, 0.0]))[0] == -np.inf
        assert model.log_density(np.array([-1.0, 0.0]))[1] == -np.inf  # x=0 has density 0 for k>1
        assert np.isfinite(model.log_density(np.array([0.4]))[0])

    def test_erlang_density_past_the_float_range_is_a_parameter_error(self):
        # a config's shape may be any integer a float holds, up to 1.8e308
        with pytest.raises(ParameterError, match="float range"):
            ServiceModel.erlang(1.0, shape=10**306).log_density(np.array([1.0]))

    def test_exponential_log_density_value(self):
        model = ServiceModel.exponential(2.0)
        assert model.log_density(np.array([0.5]))[0] == pytest.approx(math.log(2.0) - 1.0)


def departure_gaps(arrivals, services):
    """Inter-departure gaps D_k and idle gaps U_k of one block."""
    d, u = departure_epochs(arrivals, services)
    return np.diff(d, prepend=0.0), u


class TestPushThroughQueue:
    """Departure and idle gaps of one block, from ``departure_epochs``."""

    def test_busy_server_example(self):
        # second packet arrives at t=2 while the first departs at 1.5:
        # no waiting, but the 2.0 service delays its departure to 4.0
        dep, idle = departure_gaps([1.0, 1.0], [0.5, 2.0])
        np.testing.assert_allclose(dep, [1.5, 2.5])
        np.testing.assert_allclose(idle, [1.0, 0.5])

    def test_back_to_back_example(self):
        # burst arrival: only the first packet sees idle time
        dep, idle = departure_gaps([1.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(dep, [2.0, 1.0, 1.0])
        np.testing.assert_allclose(idle, [1.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            departure_epochs([1.0, 1.0], [1.0])

    def test_single_packet(self):
        dep, idle = departure_gaps([0.7], [0.4])
        assert dep[0] == pytest.approx(1.1)
        assert idle[0] == pytest.approx(0.7)

    def test_departure_gap_dominates_service(self):
        rng = np.random.default_rng(2)
        a = rng.exponential(2.0, 500)
        s = rng.exponential(1.0, 500)
        dep, idle = departure_gaps(a, s)
        assert np.all(dep >= s - 1e-12)
        np.testing.assert_allclose(dep, idle + s, rtol=0, atol=1e-9)

    def test_idle_zero_means_gap_equals_service(self):
        rng = np.random.default_rng(3)
        a = rng.exponential(0.5, 500)  # heavy load => many busy periods
        s = rng.exponential(1.0, 500)
        dep, idle = departure_gaps(a, s)
        busy = idle == 0.0
        assert busy.any()
        np.testing.assert_allclose(dep[busy], s[busy], rtol=0, atol=1e-9)

    def test_epochs(self):
        # with instant service each departure epoch is its arrival epoch
        d, _ = departure_epochs([1.0, 0.5, 2.0], np.zeros(3))
        np.testing.assert_allclose(d, [1.0, 1.5, 3.5])

    def test_departure_epochs_strictly_increase(self):
        rng = np.random.default_rng(4)
        a = rng.exponential(1.0, 1000)
        s = rng.exponential(0.8, 1000)
        d, _ = departure_epochs(a, s)
        assert np.all(np.diff(d) > 0.0)

    def test_deterministic_rerun_is_bitwise_identical(self):
        rng = np.random.default_rng(5)
        a = rng.exponential(1.0, 300)
        s = rng.exponential(0.8, 300)
        d1, u1 = departure_epochs(a, s)
        d2, u2 = departure_epochs(a, s)
        assert np.array_equal(d1, d2) and np.array_equal(u1, u2)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=60),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_queue_identities_hold_for_arbitrary_inputs(self, gaps, data):
        services = data.draw(
            st.lists(
                st.floats(min_value=1e-6, max_value=1e3),
                min_size=len(gaps),
                max_size=len(gaps),
            )
        )
        a = np.array(gaps)
        s = np.array(services)
        d, u = departure_epochs(a, s)
        t = np.cumsum(a)
        # departures never precede arrivals + own service; work conservation
        assert np.all(d >= t + s - 1e-9)
        dprev = np.concatenate(([0.0], d[:-1]))
        np.testing.assert_allclose(u, np.maximum(t - dprev, 0.0), atol=1e-12)
        np.testing.assert_allclose(d, np.maximum(t, dprev) + s, rtol=1e-12)


class TestAgainstEventCalendar:
    def test_matches_des_oracle_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            a = rng.exponential(1.0, n)
            s = rng.exponential(1.0 / rng.uniform(0.5, 3.0), n)
            d, u = departure_epochs(a, s)
            d_oracle, starts = des_departures(a, s)
            assert np.array_equal(d, d_oracle)
            # idle gap = service start - previous departure, from oracle state
            dprev = np.concatenate(([0.0], d_oracle[:-1]))
            assert np.array_equal(u, np.maximum(np.cumsum(a) - dprev, 0.0))
            assert np.array_equal(d_oracle, starts + s)

    def test_fifo_order_preserved(self):
        rng = np.random.default_rng(7)
        a = rng.exponential(1.0, 400)
        s = rng.exponential(2.0, 400)
        d, _ = departure_epochs(a, s)
        assert np.all(np.diff(d) >= 0.0)


GAPS = st.floats(min_value=0.0, max_value=1e3)


@st.composite
def blocks(draw):
    """Packet-major (n, T) arrival gaps and service times, n and T from 1.

    T spans both loops: the scalar one per column and the vectorised one.
    """
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 20)))
    return draw(arrays(np.float64, shape, elements=GAPS)), draw(
        arrays(np.float64, shape, elements=GAPS)
    )


class TestBatchedRecursion:
    @given(blocks())
    @example((np.array([[0.7]]), np.array([[0.4]])))  # n = 1, T = 1
    @settings(max_examples=80, deadline=None)
    def test_columns_match_scalar_loop_and_event_calendar(self, block):
        a, s = block
        d, u = departure_epochs(a, s)
        assert d.shape == u.shape == a.shape
        for j in range(a.shape[1]):
            d1, u1 = departure_epochs(a[:, j], s[:, j])
            assert np.array_equal(d[:, j], d1) and np.array_equal(u[:, j], u1)
            assert np.array_equal(d[:, j], des_departures(a[:, j], s[:, j])[0])

    # None: one 1-d block; then the scalar loop per column, and the vector loop
    @pytest.mark.parametrize("width", [None, 1, _MIN_VECTOR_WIDTH - 1, _MIN_VECTOR_WIDTH, 20])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_recursion_restarted_from_its_last_row_is_one_recursion(self, width, data):
        # a block's rows in two calls, the second from the first's last row of
        # epochs, give the bits of one call over all of them
        n = data.draw(st.integers(1, 40), label="n")
        shape = (n,) if width is None else (n, width)
        a, s = (data.draw(arrays(np.float64, shape, elements=GAPS)) for _ in range(2))
        k = data.draw(st.integers(1, n), label="rows in the first call")
        t = np.cumsum(a, axis=0)
        head = _departures(t[:k], s[:k].copy())
        tail = _departures(t[k:], s[k:].copy(), prev=head[-1])
        assert np.array_equal(np.concatenate([head, tail]), _departures(t, s.copy()))

    @given(blocks())
    @settings(max_examples=80, deadline=None)
    def test_departure_gap_is_idle_plus_service(self, block):
        # D_k = U_k + S_k, up to the rounding of the epochs involved
        a, s = block
        d, u = departure_epochs(a, s)
        gaps = np.diff(d, axis=0, prepend=0.0)
        assert np.all(np.abs(gaps - (u + s)) <= 4.0 * np.spacing(d))

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            departure_epochs(np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(StructuralError):
            departure_epochs(np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        with pytest.raises(StructuralError):
            departure_epochs(np.ones((3, 0)), np.ones((3, 0)))

    def test_2d_columns_match_1d_simulate_channel(self):
        # a 2-d call draws its (n, T) services in C order: packet k of trial j
        # is draw k * T + j.  Given those services, column j is the 1-d call
        # on column j, bit for bit, on the scalar loop (T < 8) and the
        # vectorised one
        n = 30
        model = ServiceModel.erlang(1.0, shape=2)
        for T in (1, _MIN_VECTOR_WIDTH - 1, _MIN_VECTOR_WIDTH):
            gaps = np.random.default_rng(14).exponential(2.0, (n, T))
            got = simulate_channel(np.cumsum(gaps, axis=0), model, np.random.default_rng(15))
            services = model.sample(np.random.default_rng(15), n * T).reshape(n, T)
            standard = np.random.default_rng(15).standard_gamma(2, n * T).reshape(n, T)
            assert got.shape == (n, T)
            for j in range(T):
                one = simulate_channel(np.cumsum(gaps[:, j]), model, Replay(standard[:, j]))
                assert one.tobytes() == got[:, j].tobytes()
                assert np.array_equal(one, departure_epochs(gaps[:, j], services[:, j])[0])

    def test_trial_blocks_cover_trials_within_the_cell_budget(self):
        for n, trials in ((1, 5), (16, 2000), (3000, 50), (100_000, 3)):
            widths = [b.stop - b.start for b in trial_blocks(n, trials)]
            assert sum(widths) == trials and min(widths) >= 1
            assert all(w == 1 or n * w <= BLOCK_CELLS for w in widths)


class TestSimulateChannel:
    def test_near_transparent_channel_preserves_arrivals(self):
        rng = np.random.default_rng(8)
        arrivals = poisson_arrivals(0.5, 200, rng)
        fast = ServiceModel.exponential(1e9)
        dep = simulate_channel(arrivals, fast, rng)
        assert np.all(dep >= arrivals)
        np.testing.assert_allclose(dep, arrivals, atol=1e-6)

    def test_poisson_arrivals_are_the_running_sums_of_the_drawn_gaps(self):
        epochs = poisson_arrivals(0.5, 50, np.random.default_rng(8))
        gaps = np.random.default_rng(8).exponential(2.0, 50)
        assert epochs.tobytes() == np.cumsum(gaps).tobytes()

    def test_poisson_arrivals_validation(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ParameterError):
            poisson_arrivals(0.0, 10, rng)
        with pytest.raises(ParameterError):
            poisson_arrivals(1.0, 0, rng)

    def test_output_rate_matches_input_rate_when_stable(self):
        # stable queue passes all packets: long-run departure rate == arrival rate
        rng = np.random.default_rng(10)
        arrivals = poisson_arrivals(0.5, 20_000, rng)
        dep = simulate_channel(arrivals, ServiceModel.exponential(1.0), rng)
        assert dep[-1] == pytest.approx(arrivals[-1], rel=0.02)
