import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertq import laws
from covertq.errors import ParameterError, StructuralError
from covertq.laws import (
    conditional_log_density_batch,
    info_density_sample,
    poisson_log_density,
    reduce_tiles,
    sample_info_densities,
)
from covertq.queueing import (
    ServiceModel,
    departure_epochs,
    poisson_arrivals,
    simulate_channel,
)

import oracles
from scanning import shared_scores

EXP1 = ServiceModel.exponential(1.0)


def kernel_log_density(arrivals, departures, model):
    """log p(D | A) of one block of epochs: one column of the kernel, with its
    own column of departures."""
    return float(conditional_log_density_batch(np.asarray(arrivals)[:, None],
                                               np.asarray(departures)[:, None], model)[0])


def oracle_log_density(arrivals, departures, model):
    return oracles.conditional_log_density(arrivals, departures, model.log_density)


class TestConditionalLogDensity:
    def test_hand_example(self):
        # services (0.5, 2.0) at rate 1: total = 2*log(1) - 2.5
        t = np.array([1.0, 2.0])
        d = np.array([1.5, 4.0])
        assert kernel_log_density(t, d, EXP1) == pytest.approx(-2.5, abs=1e-12)
        # the same block scanned as a codebook: departures shared by every column
        shared = shared_scores(t[:, None], d, EXP1)
        assert shared[0] == pytest.approx(-2.5, abs=1e-12)

    def test_departure_before_arrival_is_infeasible(self):
        t = np.array([1.0, 2.0])
        d = np.array([0.5, 0.6])  # second departure epoch 0.6 < arrival epoch 2
        assert kernel_log_density(t, d, EXP1) == -math.inf

    def test_round_trip_recovers_true_services(self):
        # services formed again from the epochs cost a few ulps, nothing more
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            a = rng.exponential(2.0, n)
            s = rng.exponential(1.0, n)
            dep, _ = departure_epochs(a, s)
            got = kernel_log_density(np.cumsum(a), dep, EXP1)
            want = float(np.sum(math.log(1.0) - 1.0 * s))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            kernel_log_density(np.array([1.0]), np.array([1.0, 2.0]), EXP1)

    def test_erlang_law_value(self):
        # single packet, idle start: s = D - A; Erlang-2 density at s
        model = ServiceModel.erlang(1.0, shape=2)
        t = np.array([1.0])
        d = np.array([1.7])
        s = 0.7
        want = math.log(4.0) + math.log(s) - 2.0 * s  # k=2, stage rate 2
        assert kernel_log_density(t, d, model) == pytest.approx(want, abs=1e-12)

    def test_feasibility_monotone_in_first_departure(self):
        # every departure later by the same delay stays feasible
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = rng.exponential(2.0, 20)
            s = rng.exponential(1.0, 20)
            dep, _ = departure_epochs(a, s)
            assert np.isfinite(kernel_log_density(np.cumsum(a), dep, EXP1))
            shifted = dep + rng.uniform(0.01, 5.0)
            assert np.isfinite(kernel_log_density(np.cumsum(a), shifted, EXP1))


class TestBatchScan:
    def test_agrees_with_scalar_version(self):
        rng = np.random.default_rng(23)
        n, count = 40, 64
        gaps = rng.exponential(2.0, (count, n))
        epochs = np.ascontiguousarray(np.cumsum(gaps, axis=1).T)
        a = poisson_arrivals(0.5, n, rng)
        dep = simulate_channel(a, EXP1, rng)
        batch = shared_scores(epochs, dep, EXP1)
        for c in range(0, count, 7):
            scalar = oracle_log_density(epochs[:, c], dep, EXP1)
            assert batch[c] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_agrees_for_nonexponential_law(self):
        rng = np.random.default_rng(24)
        model = ServiceModel.erlang(1.0, shape=2)
        n, count = 30, 16
        gaps = rng.exponential(2.0, (count, n))
        epochs = np.ascontiguousarray(np.cumsum(gaps, axis=1).T)
        a = poisson_arrivals(0.5, n, rng)
        dep = simulate_channel(a, model, rng)
        batch = shared_scores(epochs, dep, model)
        for c in range(count):
            scalar = oracle_log_density(epochs[:, c], dep, model)
            if math.isinf(scalar):
                assert batch[c] == -math.inf
            else:
                assert batch[c] == pytest.approx(scalar, rel=1e-12, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            conditional_log_density_batch(np.ones(5), np.array([1.0]), EXP1)
        with pytest.raises(StructuralError):
            conditional_log_density_batch(np.ones((3, 4)), np.array([1.0, 1.0]), EXP1)
        with pytest.raises(StructuralError):  # one departure column per candidate
            conditional_log_density_batch(np.ones((3, 4)), np.ones((3, 3)), EXP1)
        with pytest.raises(StructuralError):
            conditional_log_density_batch(np.ones((3, 4)), np.ones((3, 4, 2)), EXP1)
        # departures shared by every candidate are reduce_tiles' to scan: the
        # kernel refuses one observation, (n,), and g of them, (n, g, 1)
        for shared in (np.ones(3), np.ones((3, 1, 1)), np.ones((3, 2, 1)), np.ones((3, 4, 1))):
            with pytest.raises(StructuralError):
                conditional_log_density_batch(np.ones((3, 4)), shared, EXP1)
        # and reduce_tiles refuses mismatched shapes before any unit runs
        for epochs, departures in [(np.ones(3), np.ones((3, 1))), (np.ones((3, 0)), np.ones((3, 1))),
                                   (np.ones((3, 4)), np.ones(3)), (np.ones((3, 4)), np.ones((2, 1))),
                                   (np.ones((3, 4)), np.ones((3, 2, 1)))]:
            with pytest.raises(StructuralError):
                reduce_tiles(epochs, departures, EXP1, pytest.fail, (np.int64,))


class TestPoissonLogDensity:
    def test_unit_example(self):
        assert poisson_log_density(np.array([1.0, 2.0]), 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_single_gap_example(self):
        want = math.log(0.5) - 1.0
        assert poisson_log_density(np.array([2.0]), 0.5) == pytest.approx(want, abs=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            poisson_log_density(np.array([1.0]), 0.0)

    def test_permutation_invariance(self):
        # the gaps' order does not move their product density
        rng = np.random.default_rng(25)
        x = rng.exponential(1.0, 200)
        base = poisson_log_density(np.cumsum(x), 0.7)
        for _ in range(5):
            shuffled = np.cumsum(rng.permutation(x))
            assert poisson_log_density(shuffled, 0.7) == pytest.approx(
                base, rel=1e-12
            )

    def test_reads_blocks_down_axis_zero(self):
        x = np.cumsum(np.random.default_rng(31).exponential(1.0, (7, 5)), axis=0)
        block = poisson_log_density(x, 0.7)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == poisson_log_density(x[:, j], 0.7)

    def test_epochs_must_not_decrease(self):
        with pytest.raises(StructuralError, match="non-decreasing"):
            poisson_log_density(np.array([1.0, 0.5]), 0.7)

    def test_matches_differential_entropy(self):
        # -E[log q]/n -> 1 - log(rate) for Exp(rate) draws
        rng = np.random.default_rng(26)
        x = np.cumsum(rng.exponential(2.0, 100_000))
        per_gap = -poisson_log_density(x, 0.5) / 100_000
        assert per_gap == pytest.approx(1.0 - math.log(0.5), rel=0.01)


class TestInfoDensity:
    def test_channel_output_is_feasible(self):
        rng = np.random.default_rng(27)
        a = poisson_arrivals(0.5, 100, rng)
        dep = simulate_channel(a, EXP1, rng)
        assert math.isfinite(info_density_sample(a, dep, EXP1, 0.5))

    def test_infeasible_block_flags_and_pins_value(self):
        t = np.array([1.0, 2.0])
        d = np.array([0.5, 0.6])
        assert info_density_sample(t, d, EXP1, 0.5) == -math.inf

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            info_density_sample(np.ones(3), np.ones(4), EXP1, 0.5)
        with pytest.raises(StructuralError):
            info_density_sample(np.ones((3, 2)), np.ones((3, 3)), EXP1, 0.5)
        with pytest.raises(StructuralError):
            info_density_sample(np.ones(0), np.ones(0), EXP1, 0.5)

    def test_mean_approaches_log_rate_ratio(self):
        # per-packet mean -> log(mu1 / lam) as n grows
        rng = np.random.default_rng(28)
        values = sample_info_densities(500, 0.5, EXP1, 150, rng)
        assert np.all(np.isfinite(values))
        assert values.mean() == pytest.approx(math.log(2.0), rel=0.15)

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            sample_info_densities(10, 0.5, EXP1, 0, np.random.default_rng(0))


# service laws at unit scale, and at a 1e12 rate, where a service is a few
# ulps of the epochs: services formed again from the epochs,
# d_k - max(t_k, d_{k-1}), then can leave the support, but the sampler scores
# the services it drew
LAWS = {
    "exponential": ServiceModel.exponential(1.0),
    "erlang": ServiceModel.erlang(1.0, shape=3),
    "uniform": ServiceModel.uniform(1.0, halfwidth=0.5),
    "fast-exponential": ServiceModel.exponential(1e12),
    "fast-uniform": ServiceModel.uniform(1e12, halfwidth=0.5e-12),
}


def per_trial_densities(n, rate, model, trials, seed):
    """The sampler's draws replayed trial by trial by numpy's own samplers,
    each trial scored by the oracle on its drawn services, with d_n from the
    event-calendar simulation.

    Trials run in blocks of min(trials, ``laws._PIECE_CELLS``) columns, and
    each block in row pieces of ``_PIECE_CELLS // cols`` rows.  Each piece
    draws its (rows, cols) arrival gaps, then its services, both in C order.
    Returns the per-trial values and the magnitude of the two log densities
    each one is the difference of.
    """
    rng = np.random.default_rng(seed)
    values, scales = [], []
    for first in range(0, trials, laws._PIECE_CELLS):
        cols = min(trials - first, laws._PIECE_CELLS)
        rows = laws._PIECE_CELLS // cols
        pieces = []
        for k in range(0, n, rows):
            size = min(rows, n - k) * cols
            pieces.append((rng.exponential(1.0 / rate, size),
                           oracles.numpy_services(rng, model, size)))
        gaps, services = (np.concatenate(drawn).reshape(n, cols) for drawn in zip(*pieces))
        for j in range(cols):
            cond, q = oracles.drawn_log_density(gaps[:, j], services[:, j], model.log_density,
                                                rate)
            values.append((cond - q) / n)
            scales.append((abs(cond) + abs(q)) / n)
    return np.array(values), np.array(scales)


def assert_matches_per_trial(n, rate, model, trials, seed):
    """The sampler against the event-calendar replay within 1e-12, and against
    the kernel it replaced bit for bit."""
    got = sample_info_densities(n, rate, model, trials, np.random.default_rng(seed))
    kernel = oracles.piecewise_info_densities(n, rate, model, trials,
                                              np.random.default_rng(seed), laws._PIECE_CELLS)
    assert got.tobytes() == kernel.tobytes()
    want, scale = per_trial_densities(n, rate, model, trials, seed)
    infeasible = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), infeasible)
    got, want, scale = got[~infeasible], want[~infeasible], scale[~infeasible]
    ok = np.abs(got - want) <= 1e-12 * (np.abs(want) + scale)
    assert ok.all(), (got[~ok], want[~ok])
    return infeasible


class TestBatchedInfoDensity:
    # at 64 cells a piece, these shapes cross up to 40 pieces; at the module's
    # 2^14 they would never cross one
    @given(
        n=st.integers(1, 40),
        trials=st.integers(1, 30),
        law=st.sampled_from(sorted(LAWS)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_trial_path(self, n, trials, law, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laws, "_PIECE_CELLS", 64)
            assert_matches_per_trial(n, 0.5, LAWS[law], trials, seed)

    def test_matches_per_trial_path_across_blocks(self, monkeypatch):
        # at 64 cells a piece, 130 trials run in blocks of 64, 64 and 2
        # columns: 300 one-row pieces each, then 10 pieces of 32 rows
        monkeypatch.setattr(laws, "_PIECE_CELLS", 64)
        assert_matches_per_trial(300, 0.5, EXP1, 130, 29)

    def test_fast_uniform_trials_are_all_finite(self):
        # services formed again from these epochs leave the support in some
        # trials; the drawn ones never do
        infeasible = assert_matches_per_trial(40, 0.5, LAWS["fast-uniform"], 200, 30)
        assert not infeasible.any()

    def test_block_length_validation(self):
        with pytest.raises(ParameterError):
            sample_info_densities(0, 0.5, EXP1, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            sample_info_densities(10, 0.0, EXP1, 10, np.random.default_rng(0))


# shapes that reach every branch of the sampler's layout: one-column blocks
# (the recursion's scalar loop), blocks narrower than its vector loop's least
# width, many row pieces, one piece, and a narrow block after a full one
@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("n, trials", [
    (40000, 3), (2000, 33), (2000, 300), (2000, 129), (1025, 200), (1024, 200), (10000, 40),
    (16, 2000), (3, 16390), (3000, 50), (100000, 1),
])
def test_sampler_matches_the_epoch_oracle(law, n, trials):
    assert_matches_per_trial(n, 0.5, LAWS[law], trials, 31)


# the sampler scores the services it drew, and every law's support lies on
# [0, inf), so no sampled trial is -inf, even where a service is below an ulp
# of the epochs and services formed again from the epochs leave the support:
# an Erlang-3 service at 1e12 rounds to 0 beside epochs near 4000, and
# uniform ones at 1e8 and 1e10 cross an edge of their support
@pytest.mark.parametrize("model, n, trials, seed", [
    pytest.param(ServiceModel.exponential(1e12), 16, 2000, 31, id="model0-16-2000"),
    pytest.param(ServiceModel.exponential(1e12), 2000, 300, 31, id="model1-2000-300"),
    pytest.param(ServiceModel.erlang(1e12, shape=3), 16, 2000, 31, id="model2-16-2000"),
    pytest.param(ServiceModel.erlang(1e12, shape=3), 2000, 300, 7, id="model3-2000-300"),
    pytest.param(ServiceModel.uniform(1e8, halfwidth=0.2e-8), 2000, 300, 7,
                 id="model4-2000-300"),
    pytest.param(ServiceModel.uniform(1e10, halfwidth=0.2e-10), 2000, 300, 7,
                 id="model5-2000-300"),
])
def test_services_on_the_half_line_score_no_trial_infeasible(model, n, trials, seed):
    got = sample_info_densities(n, 0.5, model, trials, np.random.default_rng(seed))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("n, trials", [
    (2000, 300), (2000, 3000), (16, 2000), (4, 50000), (100000, 1)])
def test_sampler_peak_is_one_piece_whatever_n(n, trials):
    # a row piece's arrays and its log density temporaries, and the (trials,)
    # result and a block's sums; at n=100000 the recursion's scalar loop holds
    # a piece's rows as Python lists
    tracemalloc.start()
    try:
        sample_info_densities(n, 0.5, EXP1, trials, np.random.default_rng(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (16 * laws._PIECE_CELLS + 2 * trials)
    assert peak <= bound, peak / bound
