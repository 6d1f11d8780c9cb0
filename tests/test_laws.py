import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertq.errors import ParameterError, StructuralError, UnsupportedLawError
from covertq.laws import (
    STACK_CELLS,
    _trial_stacks,
    conditional_log_density_batch,
    info_density_sample,
    poisson_log_density,
    reduce_tiles,
    sample_info_densities,
)
from covertq.queueing import (
    BLOCK_CELLS,
    ServiceModel,
    departure_epochs,
    poisson_arrivals,
    simulate_channel,
    trial_blocks,
)

import oracles
from scanning import shared_scores

EXP1 = ServiceModel.exponential(1.0)


def kernel_log_density(arrivals, departures, model):
    """log p(D | A) of one block: one column of the kernel, with its own
    column of departures."""
    epochs = np.cumsum(np.asarray(arrivals))[:, None]
    return float(conditional_log_density_batch(epochs, np.asarray(departures)[:, None], model)[0])


def departure_gaps(arrivals, services):
    """Inter-departure gaps of one block through the queue."""
    return np.diff(departure_epochs(arrivals, services)[0], prepend=0.0)


def oracle_log_density(arrivals, departures, model):
    return oracles.conditional_log_density(arrivals, departures, model.log_density)


class TestConditionalLogDensity:
    def test_hand_example(self):
        # services (0.5, 2.0) at rate 1: total = 2*log(1) - 2.5
        a = np.array([1.0, 1.0])
        d = np.array([1.5, 2.5])
        assert kernel_log_density(a, d, EXP1) == pytest.approx(-2.5, abs=1e-12)
        # the same block scanned as a codebook: departures shared by every column
        shared = shared_scores(np.cumsum(a)[:, None], d, EXP1)
        assert shared[0] == pytest.approx(-2.5, abs=1e-12)

    def test_departure_before_arrival_is_infeasible(self):
        a = np.array([1.0, 1.0])
        d = np.array([0.5, 0.1])  # second departure epoch 0.6 < arrival epoch 2
        assert kernel_log_density(a, d, EXP1) == -math.inf

    def test_round_trip_recovers_true_services(self):
        # gap->epoch conversion costs a few ulps, nothing more
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            a = rng.exponential(2.0, n)
            s = rng.exponential(1.0, n)
            dep = departure_gaps(a, s)
            got = kernel_log_density(a, dep, EXP1)
            want = float(np.sum(math.log(1.0) - 1.0 * s))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            kernel_log_density(np.array([1.0]), np.array([1.0, 2.0]), EXP1)

    def test_deterministic_law_rejected(self):
        a = np.array([1.0])
        with pytest.raises(UnsupportedLawError):
            kernel_log_density(a, np.array([1.5]), ServiceModel.deterministic(2.0))

    def test_erlang_law_value(self):
        # single packet, idle start: s = D - A; Erlang-2 density at s
        model = ServiceModel.erlang(1.0, shape=2)
        a = np.array([1.0])
        d = np.array([1.7])
        s = 0.7
        want = math.log(4.0) + math.log(s) - 2.0 * s  # k=2, stage rate 2
        assert kernel_log_density(a, d, model) == pytest.approx(want, abs=1e-12)

    def test_feasibility_monotone_in_first_departure(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = rng.exponential(2.0, 20)
            s = rng.exponential(1.0, 20)
            dep = departure_gaps(a, s)
            assert np.isfinite(kernel_log_density(a, dep, EXP1))
            shifted = dep.copy()
            shifted[0] += rng.uniform(0.01, 5.0)
            assert np.isfinite(kernel_log_density(a, shifted, EXP1))


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
            scalar = oracle_log_density(gaps[c], dep, EXP1)
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
            scalar = oracle_log_density(gaps[c], dep, model)
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
        assert poisson_log_density(np.array([1.0, 1.0]), 1.0) == pytest.approx(-2.0, abs=1e-12)

    def test_single_gap_example(self):
        want = math.log(0.5) - 1.0
        assert poisson_log_density(np.array([2.0]), 0.5) == pytest.approx(want, abs=1e-12)

    def test_rate_validation(self):
        with pytest.raises(ParameterError):
            poisson_log_density(np.array([1.0]), 0.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(25)
        x = rng.exponential(1.0, 200)
        base = poisson_log_density(x, 0.7)
        for _ in range(5):
            shuffled = rng.permutation(x)
            assert poisson_log_density(shuffled, 0.7) == pytest.approx(
                base, rel=1e-12
            )

    def test_reads_blocks_down_axis_zero(self):
        x = np.random.default_rng(31).exponential(1.0, (7, 5))
        block = poisson_log_density(x, 0.7)
        assert block.shape == (5,)
        for j in range(5):
            assert block[j] == poisson_log_density(x[:, j], 0.7)

    def test_matches_differential_entropy(self):
        # -E[log q]/n -> 1 - log(rate) for Exp(rate) draws
        rng = np.random.default_rng(26)
        x = rng.exponential(2.0, 100_000)
        per_gap = -poisson_log_density(x, 0.5) / 100_000
        assert per_gap == pytest.approx(1.0 - math.log(0.5), rel=0.01)


class TestInfoDensity:
    def test_channel_output_is_feasible(self):
        rng = np.random.default_rng(27)
        a = poisson_arrivals(0.5, 100, rng)
        dep = simulate_channel(a, EXP1, rng)
        assert math.isfinite(info_density_sample(a, dep, EXP1, 0.5))

    def test_infeasible_block_flags_and_pins_value(self):
        a = np.array([1.0, 1.0])
        d = np.array([0.5, 0.1])
        assert info_density_sample(a, d, EXP1, 0.5) == -math.inf

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
# ulps of the epochs: the uniform services formed from the epochs,
# d_k - max(t_k, d_{k-1}), then leave the support in some trials, which score
# -inf
LAWS = {
    "exponential": ServiceModel.exponential(1.0),
    "erlang": ServiceModel.erlang(1.0, shape=3),
    "uniform": ServiceModel.uniform(1.0, halfwidth=0.5),
    "fast-exponential": ServiceModel.exponential(1e12),
    "fast-uniform": ServiceModel.uniform(1e12, halfwidth=0.5e-12),
}


def per_trial_densities(n, rate, model, trials, seed):
    """The batched draws replayed trial by trial: each trial's departure
    epochs from the 1-d ``departure_epochs``, scored by the epoch oracle.

    Each block draws its (n, T) arrival gaps, then its (n, T) services, both
    in C order.  Returns the per-trial values and the magnitude of the two
    log densities each one is the difference of.
    """
    rng = np.random.default_rng(seed)
    values, scales = [], []
    for block in trial_blocks(n, trials):
        width = block.stop - block.start
        gaps = poisson_arrivals(rate, n * width, rng).reshape(n, width)
        services = model.sample(rng, n * width).reshape(n, width)
        for j in range(width):
            epochs = departure_epochs(gaps[:, j], services[:, j])[0]
            cond, q = oracles.epoch_log_density(gaps[:, j], epochs, model.log_density, rate)
            values.append((cond - q) / n)
            scales.append((abs(cond) + abs(q)) / n)
    return np.array(values), np.array(scales)


def assert_matches_per_trial(n, rate, model, trials, seed):
    got = sample_info_densities(n, rate, model, trials, np.random.default_rng(seed))
    want, scale = per_trial_densities(n, rate, model, trials, seed)
    infeasible = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), infeasible)
    got, want, scale = got[~infeasible], want[~infeasible], scale[~infeasible]
    ok = np.abs(got - want) <= 1e-12 * (np.abs(want) + scale)
    assert ok.all(), (got[~ok], want[~ok])
    return infeasible


class TestBatchedInfoDensity:
    @given(
        n=st.integers(1, 40),
        trials=st.integers(1, 30),
        law=st.sampled_from(sorted(LAWS)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_trial_path(self, n, trials, law, seed):
        assert_matches_per_trial(n, 0.5, LAWS[law], trials, seed)

    def test_matches_per_trial_path_across_blocks(self):
        # n = 3000 packs 21 trials per block: blocks of 21, 21 and 8
        assert_matches_per_trial(3000, 0.5, EXP1, 50, 29)

    def test_infeasible_trials_match(self):
        infeasible = assert_matches_per_trial(40, 0.5, LAWS["fast-uniform"], 200, 30)
        assert infeasible.any() and not infeasible.all()

    def test_block_length_validation(self):
        with pytest.raises(ParameterError):
            sample_info_densities(0, 0.5, EXP1, 10, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            sample_info_densities(10, 0.0, EXP1, 10, np.random.default_rng(0))


# shapes that reach every branch of the sampler's stacking rule
@pytest.mark.parametrize("n, trials, stacks", [
    (40000, 3, [[1], [1], [1]]),  # one-column blocks, never stacked
    (2000, 33, [[32], [1]]),  # a 32-column block, then a one-column block
    (2000, 300, [[32] * 5, [32] * 4 + [12]]),  # bound_long's shape: five blocks a stack
    (2000, 129, [[32] * 4, [1]]),  # a stack, then a one-column block alone
    (1025, 200, [[63, 63, 63, 11]]),  # 63-column blocks, the widest that stack
    (1024, 200, [[64], [64], [64], [8]]),  # 64-column blocks stay alone
    (10000, 40, [[6] * 5, [6, 4]]),  # blocks narrower than the vector loop's least width
    (16, 2000, [[2000]]),  # one block with more columns than packets
])
def test_trial_stacks(n, trials, stacks):
    got = [[block.stop - block.start for block in stack] for stack in _trial_stacks(n, trials)]
    assert got == stacks
    assert all(n * sum(stack) <= STACK_CELLS for stack in got if len(stack) > 1)


@pytest.mark.parametrize("law", sorted(LAWS))
@pytest.mark.parametrize("n, trials", [
    (40000, 3), (2000, 33), (2000, 300), (2000, 129), (1025, 200), (1024, 200), (10000, 40),
    (16, 2000),
])
def test_sampler_matches_the_epoch_oracle(law, n, trials):
    assert_matches_per_trial(n, 0.5, LAWS[law], trials, 31)


# scored on the recursion's epochs, a service is fl(fl(m + S_k) - m) with
# m = max(t_k, d_{k-1}), never below 0, so a law on [0, inf) scores no sampled
# trial -inf.  An Erlang density is also 0 at s = 0, which a 1e12-rate service
# below half an ulp of epochs near 4000 rounds to, so Erlang runs at n=16 only
@pytest.mark.parametrize("model, n, trials", [
    (ServiceModel.exponential(1e12), 16, 2000),
    (ServiceModel.exponential(1e12), 2000, 300),
    (ServiceModel.erlang(1e12, shape=3), 16, 2000),
])
def test_services_on_the_half_line_score_no_trial_infeasible(model, n, trials):
    got = sample_info_densities(n, 0.5, model, trials, np.random.default_rng(31))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("n, trials", [(2000, 300), (16, 2000), (2000, 3000)])
def test_sampler_holds_two_stack_arrays_and_four_block_arrays(n, trials):
    # a stack's two (n, W) arrays, and a row piece's log density temporaries;
    # the peak does not grow with the trial count
    cells = 2 * min(n * trials, STACK_CELLS) + 4 * min(n * trials, BLOCK_CELLS)
    tracemalloc.start()
    try:
        sample_info_densities(n, 0.5, EXP1, trials, np.random.default_rng(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * cells, peak / (8 * cells)
