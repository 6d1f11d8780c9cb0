import inspect
import math

import numpy as np
import pytest

import covertq
from covertq import warden
from covertq.codec import _BOOK_FIELDS, generate_codebook
from covertq.errors import ParameterError, StructuralError
from covertq.harness import ExperimentConfig, run
from covertq.laws import info_density_sample, poisson_log_density
from covertq.queueing import (
    ServiceModel,
    poisson_arrivals,
    simulate_channel,
    trial_blocks,
)
from covertq.warden import (
    run_detection_trials,
    summarize_detection,
    willie_llr,
)

import oracles

LAM = 0.5
WILLIE = ServiceModel.exponential(2.0)


def replay_observations(book, trials, seed):
    """``run_detection_trials``' blocks, replayed through the public calls:
    per trial block, ``Codebook.send``'s draws and the columns they pick
    (``oracles.sent_codewords``) through ``simulate_channel``, then a Poisson
    block through ``simulate_channel``.

    Returns the (null, alt) lists of observed departure epochs.
    """
    rng = np.random.default_rng(seed)
    null, alt = [], []
    for block in trial_blocks(book.n, trials):
        count = block.stop - block.start
        *_, codewords = oracles.sent_codewords(book, rng, count)
        alt.extend(simulate_channel(np.stack(codewords, axis=1), WILLIE, rng).T)
        poisson = np.cumsum(rng.exponential(1.0 / LAM, size=(book.n, count)), axis=0)
        null.extend(simulate_channel(poisson, WILLIE, rng).T)
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
            dep = simulate_channel(book.arrival_epochs[:, 0], fast, rng)
            if willie_llr(book, dep, fast) > 5.0:
                hits += 1
        assert hits >= 990

    def test_llr_is_symmetric_mixture_not_max(self):
        # mixture over B codewords is at most log-sum-exp; for an observation
        # produced by codeword 0 it must dominate the 1/B-weighted term alone
        book = generate_codebook(12, 2, 0, 1, arrival_rate=LAM, seed=43)
        rng = np.random.default_rng(44)
        arrivals = book.arrival_epochs[:, book.column(1, 0, 0)]
        dep = simulate_channel(arrivals, WILLIE, rng)
        llr = willie_llr(book, dep, WILLIE)
        null = poisson_log_density(dep, LAM)
        single = oracles.conditional_log_density(arrivals, dep, WILLIE.log_density)
        assert llr >= single - null - math.log(book.total) - 1e-9

    def test_sent_blocks_score_finite_at_a_fast_service(self):
        # a sent block is one the book could have produced: scored on the
        # recursion's own epochs, its services are never below 0, even where
        # they are a few ulps of the epochs
        book = generate_codebook(16, 3, 1, 1, arrival_rate=LAM, seed=0)
        _, alt = run_detection_trials(book, ServiceModel.exponential(1e12), 2000,
                                      np.random.default_rng(100))
        assert np.isfinite(alt).all()

    def test_infeasible_observation_gives_minus_inf(self):
        book = generate_codebook(4, 1, 0, 0, arrival_rate=LAM, seed=45)
        dep = np.cumsum(np.full(4, 1e-12))
        assert willie_llr(book, dep, WILLIE) == -math.inf

    def test_detector_never_sees_a_key(self):
        # structural covertness check: no key parameter anywhere in the API
        for fn in (willie_llr, run_detection_trials, summarize_detection):
            assert "key" not in inspect.signature(fn).parameters


def auc(null_scores, alt_scores):
    return summarize_detection(null_scores, alt_scores)["auc"][0]


def tv(null_scores, alt_scores):
    return summarize_detection(null_scores, alt_scores)["tv_estimate"][0]


class TestRankStatistics:
    def test_auc_on_separated_samples(self):
        assert auc([0.0, 1.0], [5.0, 6.0]) == 1.0
        assert auc([5.0, 6.0], [0.0, 1.0]) == 0.0

    def test_auc_handles_ties(self):
        assert auc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_auc_matches_brute_force(self):
        rng = np.random.default_rng(46)
        x0 = rng.normal(0.0, 1.0, 80)
        x1 = rng.normal(0.4, 1.3, 60)
        brute = np.mean([
            1.0 if b > a else (0.5 if b == a else 0.0) for a in x0 for b in x1
        ])
        assert auc(x0, x1) == pytest.approx(float(brute), abs=1e-12)

    def test_tv_bounds_and_known_case(self):
        rng = np.random.default_rng(47)
        x0 = rng.normal(0.0, 1.0, 4000)
        x1 = rng.normal(0.0, 1.0, 4000) + 10.0
        assert tv(x0, x1) == pytest.approx(1.0, abs=1e-3)
        same = rng.normal(0.0, 1.0, 4000)
        assert 0.0 <= tv(same, same) <= 1.0
        assert tv(same, same) == 0.0

    def test_tv_against_gaussian_formula(self):
        # TV between N(0,1) and N(d,1) is 2*Phi(d/2) - 1
        from scipy.stats import norm

        rng = np.random.default_rng(48)
        d = 1.0
        x0 = rng.normal(0.0, 1.0, 20000)
        x1 = rng.normal(d, 1.0, 20000)
        want = 2.0 * norm.cdf(d / 2.0) - 1.0
        assert tv(x0, x1) == pytest.approx(want, abs=0.02)

    @pytest.mark.parametrize("sizes", [(2, 2), (37, 53), (400, 300)])
    def test_summary_matches_a_sort_per_statistic_bit_for_bit(self, sizes):
        # tied scores, and -inf null scores, the first one among them
        rng = np.random.default_rng(sum(sizes))
        null = rng.normal(0.0, 1.0, sizes[0]).round(1)
        null[rng.random(sizes[0]) < 0.2] = -math.inf
        null[0] = -math.inf
        alt = rng.normal(0.3, 1.2, sizes[1]).round(1)
        got = summarize_detection(null, alt)
        want = oracles.detection_summary(null, alt)
        assert list(got) == list(want)
        assert {name: [float(x).hex() for x in pair] for name, pair in got.items()} == {
            name: [float(x).hex() for x in pair] for name, pair in want.items()}


class TestDetectionExperiment:
    def test_null_vs_null_is_blind(self):
        # feed the summary two null samples: AUC must sit at 1/2 within noise
        book = generate_codebook(20, 2, 1, 1, arrival_rate=LAM, seed=49)
        rng = np.random.default_rng(50)
        scores = []
        for _ in range(1000):
            arrivals = poisson_arrivals(LAM, book.n, rng)
            dep = simulate_channel(arrivals, WILLIE, rng)
            scores.append(willie_llr(book, dep, WILLIE))
        scores = np.array(scores)
        finite = scores[np.isfinite(scores)]
        half = finite.size // 2
        m = half
        null_se = math.sqrt((2 * m + 1) / (12.0 * m * m))
        assert abs(auc(finite[:half], finite[half:2 * half]) - 0.5) <= 3 * null_se
        # ECDF sup-distance of same-law samples stays under the binomial floor
        assert tv(finite[:half], finite[half:2 * half]) <= 1.628 * math.sqrt(2.0 / m)

    def test_under_resolved_codebook_is_detected(self):
        book = generate_codebook(200, 2, 1, 1, arrival_rate=LAM, seed=51)
        rng = np.random.default_rng(52)
        null, alt = run_detection_trials(book, WILLIE, 150, rng)
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
            null, alt = run_detection_trials(book, WILLIE, 400, rng)
            tvs.append(summarize_detection(null, alt)["tv_estimate"][0])
        slack = 2 * math.sqrt(0.5 / 400)
        assert tvs[1] <= tvs[0] + slack
        assert tvs[2] <= tvs[1] + slack
        assert tvs[2] < tvs[0]

    def test_llr_beats_scalar_summaries(self):
        # the likelihood ratio is the optimal test: no moment statistic of the
        # block should out-rank it (up to Monte Carlo noise)
        book = generate_codebook(50, 3, 1, 0, arrival_rate=LAM, seed=56)
        llr0, llr1 = run_detection_trials(book, WILLIE, 400, np.random.default_rng(57))
        obs0, obs1 = ([np.diff(d, prepend=0.0) for d in obs]
                      for obs in replay_observations(book, 400, 57))
        mean0, mean1 = ([gaps.mean() for gaps in obs] for obs in (obs0, obs1))
        var0, var1 = ([gaps.var() for gaps in obs] for obs in (obs0, obs1))
        auc_llr, se = summarize_detection(llr0, llr1)["auc"]
        for x0, x1 in ((mean0, mean1), (var0, var1)):
            auc_stat = max(auc(x0, x1), 1.0 - auc(x0, x1))
            assert auc_llr >= auc_stat - 2 * se

    def test_summarize_requires_both_hypotheses(self):
        book = generate_codebook(8, 1, 0, 0, arrival_rate=LAM, seed=58)
        rng = np.random.default_rng(59)
        _, alt = run_detection_trials(book, WILLIE, 5, rng)
        with pytest.raises(ParameterError):
            summarize_detection(np.empty(0), alt)

    @pytest.mark.parametrize("sizes", [(1, 5), (5, 1), (1, 1)])
    def test_summarize_needs_two_scores_per_hypothesis(self, sizes):
        with pytest.raises(ParameterError):
            summarize_detection(np.zeros(sizes[0]), np.ones(sizes[1]))

    @pytest.mark.parametrize("null, alt", [([0.1, math.nan, 0.3], [0.2, 0.5]),
                                           ([0.1, 0.3], [math.nan, 0.5])])
    def test_a_nan_score_is_a_structural_error(self, null, alt):
        # no llr is NaN: an infeasible block's -inf is counted, a NaN refused
        summary = summarize_detection([0.1, -math.inf, 0.3], [0.2, 0.5])
        assert summary["llr_infeasible_fraction"][0] == pytest.approx(1 / 3)
        with pytest.raises(StructuralError, match="NaN"):
            summarize_detection(null, alt)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_minus_inf_message_score_is_a_parameter_error(self):
        # a sent block's llr has no mean to report once it reads -inf
        with pytest.raises(ParameterError, match="1 of 3 message scores are -inf"):
            summarize_detection([0.1, 0.2, 0.3], [-math.inf, 1.0, 2.0])

    def test_a_sweep_whose_sent_blocks_score_minus_inf_names_them(self):
        # a uniform law 4e-14 wide, under an ulp of epochs near 400 s
        # (5.7e-14): every sent block leaves its support once its services
        # are formed from epochs
        config = ExperimentConfig(
            experiment="detection_sweep", arrival_rate=LAM, mu1=1.0, mu2=1e13,
            willie_service=ServiceModel.uniform(1e13, 2e-14), n_list=(200,),
            width_list=((4, 2, 2),), trials=40)
        with pytest.raises(ParameterError, match="40 of 40 message scores are -inf"):
            run(config)

    def test_the_null_rate_travels_with_a_rebuilt_book(self):
        # the warden reads lam from the book it scores: a book rebuilt from its
        # six recipe fields scores the bits of the book drawn
        book = generate_codebook(6, 2, 1, 1, arrival_rate=0.3, seed=66)
        clone = generate_codebook(*(getattr(book, f) for f in _BOOK_FIELDS))
        rng = np.random.default_rng(67)
        observations = simulate_channel(
            np.cumsum(rng.exponential(1 / 0.3, size=(6, 30)), axis=0), WILLIE, rng)
        assert (willie_llr(clone, observations, WILLIE).tobytes()
                == willie_llr(book, observations, WILLIE).tobytes())
        drawn, rebuilt = (run_detection_trials(b, WILLIE, 30, np.random.default_rng(68))
                          for b in (book, clone))
        assert [x.tobytes() for x in drawn] == [x.tobytes() for x in rebuilt]

    def test_summarize_is_the_one_public_summary(self):
        # the statistics it is built from check nothing: an empty side gives NaN
        for name in ("rank_auc", "auc_stderr", "tv_distance_estimate"):
            assert name not in warden.__all__ and not hasattr(covertq, name)

    def test_arrays_replay_the_per_trial_draws(self):
        # the draw order criterion 5's pinned seeds rely on: per trial block,
        # the sent blocks and their services, then Poisson blocks and theirs.
        # The trials and the public calls score the same epochs, bit for bit
        book = generate_codebook(6, 2, 1, 1, arrival_rate=LAM, seed=63)
        null, alt = run_detection_trials(book, WILLIE, 40, np.random.default_rng(64))
        obs0, obs1 = replay_observations(book, 40, 64)
        for got, obs in ((null, obs0), (alt, obs1)):
            assert got.dtype == np.float64 and got.shape == (40,)
            want = np.array([willie_llr(book, d, WILLIE) for d in obs])
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
