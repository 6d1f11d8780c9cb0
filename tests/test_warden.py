import inspect
import math

import numpy as np
import pytest

from covertq.codec import encode, generate_codebook
from covertq.errors import ParameterError
from covertq.harness import ExperimentConfig, run
from covertq.laws import info_density_sample, poisson_log_density
from covertq.queueing import (
    ServiceModel,
    poisson_arrivals,
    simulate_channel,
)
from covertq.warden import (
    auc_stderr,
    rank_auc,
    run_detection_trials,
    summarize_detection,
    tv_distance_estimate,
    willie_llr,
)

import oracles

LAM = 0.5
WILLIE = ServiceModel.exponential(2.0)


def replay_observations(book, trials, seed):
    """``run_detection_trials``' blocks, drawn trial by trial in its order.

    Returns the (null, alt) lists of observed departure gaps.
    """
    rng = np.random.default_rng(seed)
    null, alt = [], []
    for _ in range(trials):
        message = int(rng.integers(book.num_messages))
        key = int(rng.integers(book.num_keys))
        alt.append(simulate_channel(encode(book, message, key, rng).codeword, WILLIE, rng))
        null.append(simulate_channel(poisson_arrivals(LAM, book.n, rng), WILLIE, rng))
    return null, alt


class TestLlr:
    def test_single_codeword_book_is_detectable(self):
        # the mixture collapses to one known arrival sequence; observing its
        # output through a fast queue is near-certain evidence
        book = generate_codebook(50, 0, 0, 0, arrival_rate=LAM, seed=41)
        fast = ServiceModel.exponential(50.0)
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(1000):
            dep = simulate_channel(book.codeword(0, 0, 0), fast, rng)
            if willie_llr(book, dep, fast, LAM) > 5.0:
                hits += 1
        assert hits >= 990

    def test_llr_is_symmetric_mixture_not_max(self):
        # mixture over B codewords is at most log-sum-exp; for an observation
        # produced by codeword 0 it must dominate the 1/B-weighted term alone
        book = generate_codebook(12, 2, 0, 1, arrival_rate=LAM, seed=43)
        rng = np.random.default_rng(44)
        dep = simulate_channel(book.codeword(1, 0, 0), WILLIE, rng)
        llr = willie_llr(book, dep, WILLIE, LAM)
        null = poisson_log_density(dep, LAM)
        single = oracles.conditional_log_density(book.codeword(1, 0, 0), dep, WILLIE.log_density)
        assert llr >= single - null - math.log(book.total) - 1e-9

    def test_infeasible_observation_gives_minus_inf(self):
        book = generate_codebook(4, 1, 0, 0, arrival_rate=LAM, seed=45)
        dep = np.full(4, 1e-12)
        assert willie_llr(book, dep, WILLIE, LAM) == -math.inf

    def test_detector_never_sees_a_key(self):
        # structural covertness check: no key parameter anywhere in the API
        for fn in (willie_llr, run_detection_trials, summarize_detection):
            assert "key" not in inspect.signature(fn).parameters


class TestRankStatistics:
    def test_auc_on_separated_samples(self):
        assert rank_auc([0.0, 1.0], [5.0, 6.0]) == 1.0
        assert rank_auc([5.0, 6.0], [0.0, 1.0]) == 0.0

    def test_auc_handles_ties(self):
        assert rank_auc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_auc_matches_brute_force(self):
        rng = np.random.default_rng(46)
        x0 = rng.normal(0.0, 1.0, 80)
        x1 = rng.normal(0.4, 1.3, 60)
        brute = np.mean([
            1.0 if b > a else (0.5 if b == a else 0.0) for a in x0 for b in x1
        ])
        assert rank_auc(x0, x1) == pytest.approx(float(brute), abs=1e-12)

    def test_tv_bounds_and_known_case(self):
        rng = np.random.default_rng(47)
        x0 = rng.normal(0.0, 1.0, 4000)
        x1 = rng.normal(0.0, 1.0, 4000) + 10.0
        assert tv_distance_estimate(x0, x1) == pytest.approx(1.0, abs=1e-3)
        same = rng.normal(0.0, 1.0, 4000)
        assert 0.0 <= tv_distance_estimate(same, same) <= 1.0
        assert tv_distance_estimate(same, same) == 0.0

    def test_tv_against_gaussian_formula(self):
        # TV between N(0,1) and N(d,1) is 2*Phi(d/2) - 1
        from scipy.stats import norm

        rng = np.random.default_rng(48)
        d = 1.0
        x0 = rng.normal(0.0, 1.0, 20000)
        x1 = rng.normal(d, 1.0, 20000)
        want = 2.0 * norm.cdf(d / 2.0) - 1.0
        assert tv_distance_estimate(x0, x1) == pytest.approx(want, abs=0.02)


class TestDetectionExperiment:
    def test_null_vs_null_is_blind(self):
        # feed the summary two null samples: AUC must sit at 1/2 within noise
        book = generate_codebook(20, 2, 1, 1, arrival_rate=LAM, seed=49)
        rng = np.random.default_rng(50)
        scores = []
        for _ in range(1000):
            arrivals = poisson_arrivals(LAM, book.n, rng)
            dep = simulate_channel(arrivals, WILLIE, rng)
            scores.append(willie_llr(book, dep, WILLIE, LAM))
        scores = np.array(scores)
        finite = scores[np.isfinite(scores)]
        half = finite.size // 2
        auc = rank_auc(finite[:half], finite[half:2 * half])
        m = half
        null_se = math.sqrt((2 * m + 1) / (12.0 * m * m))
        assert abs(auc - 0.5) <= 3 * null_se
        # ECDF sup-distance of same-law samples stays under the binomial floor
        tv = tv_distance_estimate(finite[:half], finite[half:2 * half])
        assert tv <= 1.628 * math.sqrt(2.0 / m)

    def test_under_resolved_codebook_is_detected(self):
        book = generate_codebook(200, 2, 1, 1, arrival_rate=LAM, seed=51)
        rng = np.random.default_rng(52)
        null, alt = run_detection_trials(book, WILLIE, LAM, 150, rng)
        assert null.shape == alt.shape == (150,)
        assert summarize_detection(null, alt)["auc"][0] > 0.6

    def test_tv_shrinks_as_codebook_grows(self):
        # same block length, growing randomness: the output mixture approaches
        # the stationary law, so the detector's advantage decays
        rng_seeds = {2: 53, 8: 54, 14: 55}
        tvs = []
        for bits, seed in rng_seeds.items():
            book = generate_codebook(4, bits - 2, 1, 1, arrival_rate=LAM, seed=seed)
            rng = np.random.default_rng(seed + 100)
            null, alt = run_detection_trials(book, WILLIE, LAM, 400, rng)
            tvs.append(summarize_detection(null, alt)["tv_estimate"][0])
        slack = 2 * math.sqrt(0.5 / 400)
        assert tvs[1] <= tvs[0] + slack
        assert tvs[2] <= tvs[1] + slack
        assert tvs[2] < tvs[0]

    def test_llr_beats_scalar_summaries(self):
        # the likelihood ratio is the optimal test: no moment statistic of the
        # block should out-rank it (up to Monte Carlo noise)
        book = generate_codebook(50, 3, 1, 0, arrival_rate=LAM, seed=56)
        llr0, llr1 = run_detection_trials(book, WILLIE, LAM, 400, np.random.default_rng(57))
        obs0, obs1 = replay_observations(book, 400, 57)
        mean0, mean1 = ([d.mean() for d in obs] for obs in (obs0, obs1))
        var0, var1 = ([d.var() for d in obs] for obs in (obs0, obs1))
        auc_llr = rank_auc(llr0, llr1)
        se = auc_stderr(llr0, llr1)
        for x0, x1 in ((mean0, mean1), (var0, var1)):
            auc_stat = max(rank_auc(x0, x1), 1.0 - rank_auc(x0, x1))
            assert auc_llr >= auc_stat - 2 * se

    def test_summarize_requires_both_hypotheses(self):
        book = generate_codebook(8, 1, 0, 0, arrival_rate=LAM, seed=58)
        rng = np.random.default_rng(59)
        _, alt = run_detection_trials(book, WILLIE, LAM, 5, rng)
        with pytest.raises(ParameterError):
            summarize_detection(np.empty(0), alt)

    @pytest.mark.parametrize("sizes", [(1, 5), (5, 1), (1, 1)])
    def test_summarize_needs_two_scores_per_hypothesis(self, sizes):
        with pytest.raises(ParameterError):
            summarize_detection(np.zeros(sizes[0]), np.ones(sizes[1]))

    def test_arrays_replay_the_per_trial_draws(self):
        # the draw order criterion 5's pinned seeds rely on: per trial, the
        # encoded block and its services, then a Poisson block and its services
        book = generate_codebook(6, 2, 1, 1, arrival_rate=LAM, seed=63)
        null, alt = run_detection_trials(book, WILLIE, LAM, 40, np.random.default_rng(64))
        obs0, obs1 = replay_observations(book, 40, 64)
        for got, obs in ((null, obs0), (alt, obs1)):
            assert got.dtype == np.float64 and got.shape == (40,)
            want = np.array([willie_llr(book, d, WILLIE, LAM) for d in obs])
            assert np.array_equal(got, want)
        # the summary's keys are the rows a sweep at this shape emits, in order
        rows = run(ExperimentConfig(
            experiment="detection_sweep", arrival_rate=LAM, mu1=1.0, mu2=2.0,
            n_list=(6,), width_list=((2, 1, 1),), trials=40, master_seed=65,
        ))
        assert list(summarize_detection(null, alt)) == [row.metric for row in rows] == [
            "auc", "tv_estimate", "llr_infeasible_fraction", "mean_llr_null", "mean_llr_message",
        ]


class TestWillieInfoDensity:
    def test_mean_matches_adversary_rate_ratio(self):
        # per-packet mean -> ln(mu2/lam) = ln 4 through the observer's queue
        rng = np.random.default_rng(62)
        values = []
        for _ in range(200):
            arrivals = poisson_arrivals(LAM, 400, rng)
            dep = simulate_channel(arrivals, WILLIE, rng)
            values.append(info_density_sample(arrivals, dep, WILLIE, LAM))
        assert np.mean(values) == pytest.approx(math.log(4.0), rel=0.05)
