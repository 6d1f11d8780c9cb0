"""The tiled codebook scan and its two reductions, against the oracles.

``conditional_log_density_batch`` and ``scan_tiles`` are checked against the
per-packet loop they replaced (``oracles.scan_scores*``), and the kernel's
per-column path and ``info_density_sample`` against the per-trial scorer
(``oracles.conditional_log_density``); ``willie_llr``
against a one-shot log-sum-exp of the oracle's scores; ``decode`` against
``np.argmax`` over the oracle's strided gather of the key's sub-book.

Two kinds of data are drawn.  Continuous data (exponential gaps) checks the
float agreement.  Grid data (multiples of 1/64, or of 1/2 where ties are
wanted) keeps every sum and difference exact, so both kernels see the same
s_k bit for bit: support boundaries such as t_k == d_k are hit often, and
exact ties test the first-index tie-break across tiles.  The Erlang law is
checked on grid data only: its log s term is ill-conditioned near s = 0,
where the two kernels' equally accurate s_k can differ in relative terms.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertq.codec import decode, generate_codebook
from covertq.laws import SCAN_TILE, conditional_log_density_batch, info_density_sample, scan_tiles
from covertq.queueing import ServiceKind, ServiceModel, simulate_channel
from covertq.warden import willie_llr

import oracles

LAM = 0.5
LAWS = {
    "exponential": ServiceModel.exponential(2.0),
    "erlang": ServiceModel.erlang(2.0, shape=3),
    "uniform": ServiceModel.uniform(1.0, halfwidth=0.5),
}
WIDTHS = (1, SCAN_TILE - 1, SCAN_TILE, SCAN_TILE + 1, 2 * SCAN_TILE + 3)


def grid_services(model, rng, n):
    """Service times on the 1/64 grid inside the law's support."""
    if model.kind is ServiceKind.UNIFORM:  # Uniform(0.5, 1.5) at rate 1
        return rng.integers(32, 97, n) / 64.0
    low = 1 if model.kind is ServiceKind.ERLANG else 0  # Erlang needs s > 0
    return rng.integers(low, 129, n) / 64.0


def draw_scan(model, n, count, grid, seed):
    """(n, count) candidate epochs and the departure gaps of candidate 0
    pushed through the model's queue."""
    rng = np.random.default_rng(seed)
    if grid:
        gaps = rng.integers(0, 257, (count, n)) / 64.0
        services = grid_services(model, rng, n)
    else:
        gaps = rng.exponential(1.0 / LAM, (count, n))
        services = model.sample(rng, n)
    departures, _ = oracles.des_departures(gaps[0], services)
    epochs = np.ascontiguousarray(np.cumsum(gaps, axis=1).T)
    return epochs, np.diff(departures, prepend=0.0)


def oracle_scores(epochs, departures, model):
    if model.kind is ServiceKind.EXPONENTIAL:
        return oracles.scan_scores_exponential(epochs, departures, model.rate)
    return oracles.scan_scores(epochs, departures, model.log_density)


def scan_size(want, terms, model, n, last_departure):
    """A score's size: its magnitude, ``terms`` (the sum of its per-packet
    terms' magnitudes), and rate * n * d_n for the epochs the kernel
    subtracts."""
    return np.abs(want) + terms + model.rate * n * last_departure


def abs_log_density(model):
    return lambda s: np.abs(model.log_density(s))


def assert_scores_match(got, want, size):
    """Identical -inf sets; elsewhere agreement to 1e-12 of each score's size."""
    infeasible = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), infeasible)
    got, want, size = got[~infeasible], want[~infeasible], size[~infeasible]
    ok = np.abs(got - want) <= 1e-12 * size
    assert ok.all(), (got[~ok], want[~ok])


class TestKernel:
    @given(
        count=st.sampled_from(WIDTHS),
        n=st.integers(1, 5),
        law=st.sampled_from(sorted(LAWS)),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, count, n, law, grid, seed):
        assume(grid or law != "erlang")
        model = LAWS[law]
        epochs, departures = draw_scan(model, n, count, grid, seed)
        want = oracle_scores(epochs, departures, model)
        got = conditional_log_density_batch(epochs, departures, model)
        terms = oracles.scan_scores(epochs, departures, abs_log_density(model))
        last_departure = np.cumsum(departures)[-1]
        assert_scores_match(got, want, scan_size(want, terms, model, n, last_departure))
        assert np.isfinite(want[0])  # the candidate that was sent is feasible
        if grid:
            assert np.array_equal(got, want)  # exact arithmetic: the same bits
        # each tile overwrites the last one's scores: copy them as they come
        tiles = [(start, scores.copy()) for start, scores in scan_tiles(epochs, departures, model)]
        assert [start for start, _ in tiles] == list(range(0, count, SCAN_TILE))
        assert np.array_equal(np.concatenate([scores for _, scores in tiles]), got)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_arrival_one_ulp_after_departure_is_infeasible(self, law):
        model = LAWS[law]
        departures = np.array([1.25, 0.75, 1.0])
        d = np.cumsum(departures)
        columns = [d, d.copy(), d.copy(), d - 0.75]  # the last: services all 0.75
        columns[1][1] = np.nextafter(d[1], np.inf)  # packet 2 arrives 1 ulp too late
        columns[2][2] = np.nextafter(d[2], np.inf)
        epochs = np.stack(columns, axis=1)
        got = conditional_log_density_batch(epochs, departures, model)
        assert np.array_equal(got, oracle_scores(epochs, departures, model))
        assert np.isneginf(got[1:3]).all()
        # s_k = 0 when t = d: inside the exponential law's support only
        assert np.isfinite(got[3]) and (law == "exponential") == np.isfinite(got[0])

    @pytest.mark.parametrize("law", ["erlang", "uniform"])
    @pytest.mark.parametrize("n", [4, 32, 200])
    def test_shared_departures_score_like_one_column_each(self, law, n):
        # the per-packet loop adds the rows' log densities in the order the
        # whole-block formula sums them, so both give the same bits
        model = LAWS[law]
        epochs, departures = draw_scan(model, n, 500, grid=False, seed=n)
        shared = conditional_log_density_batch(epochs, departures, model)
        columns = np.repeat(departures[:, None], 500, axis=1)
        assert np.array_equal(shared, conditional_log_density_batch(epochs, columns, model))
        assert np.isfinite(shared[0])

    def test_shared_departures_scan_in_small_memory(self):
        # one n = 200 tile: the per-packet loop keeps (SCAN_TILE,) temporaries,
        # where forming every s_k at once took over 200 MB
        epochs, departures = draw_scan(LAWS["erlang"], 200, SCAN_TILE, grid=False, seed=3)
        work = np.empty((3, SCAN_TILE))
        tracemalloc.start()
        try:
            conditional_log_density_batch(epochs, departures, LAWS["erlang"], work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak


def draw_trials(model, n, count, grid, seed):
    """(n, count) arrival gaps and one column of departure gaps each: the
    even columns pushed through the model's queue, the odd columns' outputs
    then reversed among themselves, so most of them are infeasible."""
    rng = np.random.default_rng(seed)
    if grid:
        gaps = rng.integers(0, 257, (n, count)) / 64.0
        services = grid_services(model, rng, n * count).reshape(n, count)
    else:
        gaps = rng.exponential(1.0 / LAM, (n, count))
        services = model.sample(rng, n * count).reshape(n, count)
    departures = np.empty((n, count))
    for c in range(count):
        epochs, _ = oracles.des_departures(gaps[:, c], services[:, c])
        departures[:, c] = np.diff(epochs, prepend=0.0)
    departures[:, 1::2] = departures[:, 1::2][:, ::-1]
    return gaps, departures


class TestPerColumn:
    """The kernel with a column of departures per candidate, and the
    information density of a block of trials built on it, column by column
    against the per-trial oracle.  Unit-scale laws only: at a 1e12 rate the
    two forms of s_k can disagree on a support boundary; those cases are
    checked against a per-trial replay through the library in test_laws."""

    @given(
        count=st.integers(1, 40),
        n=st.integers(1, 6),
        law=st.sampled_from(sorted(LAWS)),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_column_by_column(self, count, n, law, grid, seed):
        assume(grid or law != "erlang")
        model = LAWS[law]
        gaps, departures = draw_trials(model, n, count, grid, seed)
        want = np.array([
            oracles.conditional_log_density(gaps[:, c], departures[:, c], model.log_density)
            for c in range(count)
        ])
        terms = np.array([
            oracles.conditional_log_density(gaps[:, c], departures[:, c], abs_log_density(model))
            for c in range(count)
        ])
        size = scan_size(want, terms, model, n, departures.sum(axis=0))
        got = conditional_log_density_batch(np.cumsum(gaps, axis=0), departures, model)
        assert_scores_match(got, want, size)
        assert np.isfinite(want[::2]).all()  # the columns that were sent are feasible
        if grid:
            assert np.array_equal(got, want)  # exact arithmetic: the same bits
        reference = n * math.log(LAM) - LAM * departures.sum(axis=0)
        density = info_density_sample(gaps, departures, model, LAM)
        assert_scores_match(density, (want - reference) / n, (size + np.abs(reference)) / n)


def mixture_llr(epochs, departures, model):
    """One-shot log-sum-exp of the oracle's scores, minus log q(D)."""
    scores = oracle_scores(epochs, departures, model)
    top = scores.max()
    null = departures.size * math.log(LAM) - LAM * departures.sum()
    if top == -math.inf:
        return -math.inf
    return top + math.log(np.exp(scores - top).sum()) - math.log(scores.size) - null


class TestWillieLlr:
    @given(
        count=st.sampled_from(WIDTHS),
        n=st.integers(1, 4),
        law=st.sampled_from(["exponential", "erlang"]),
        observed=st.sampled_from(["message", "no-message", "infeasible"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot_and_any_column_order(self, count, n, law, observed, seed):
        model = LAWS[law]
        rng = np.random.default_rng(seed)
        bits = max(0, math.ceil(math.log2(count)))
        book = generate_codebook(n, bits, 0, 0, arrival_rate=LAM, seed=seed)
        if observed == "message":
            arrivals = book.codeword(int(rng.integers(book.total)), 0, 0)
        else:
            arrivals = rng.exponential(1.0 / LAM, n)
        departures = simulate_channel(arrivals, model, rng)
        if observed == "infeasible":
            departures = np.full(n, 1e-12)
        columns = np.sort(rng.permutation(book.total)[:count])
        epochs = np.ascontiguousarray(book.arrival_epochs[:, columns])
        shuffled = np.ascontiguousarray(epochs[:, rng.permutation(count)])
        want = mixture_llr(epochs, departures, model)
        for cols in (epochs, shuffled):
            got = willie_llr(replace(book, arrival_epochs=cols), departures, model, LAM)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert (want == -math.inf) == (observed == "infeasible")


class TestDecode:
    @given(
        widths=st.sampled_from([(0, 0, 0), (2, 1, 1), (10, 2, 2), (13, 2, 1), (15, 1, 1)]),
        n=st.integers(1, 4),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_argmax_over_strided_sub_book(self, widths, n, grid, seed):
        model = LAWS["exponential"]
        rng = np.random.default_rng(seed)
        book = generate_codebook(n, *widths, arrival_rate=LAM, seed=seed)
        codewords = oracles.flat_codewords(book)
        if grid:  # half-integer gaps: exact ties, also across tiles
            codewords = rng.integers(0, 6, codewords.shape) / 2.0
            book = replace(book, arrival_epochs=oracles.key_major_epochs(codewords, book.num_keys))
        key = int(rng.integers(book.num_keys))
        sent = int(rng.integers(book.num_pairs))
        arrivals = codewords[sent * book.num_keys + key]
        if grid:
            departures, _ = oracles.des_departures(arrivals, grid_services(model, rng, n))
            departures = np.diff(departures, prepend=0.0)
        else:
            departures = simulate_channel(arrivals, model, rng)
        scores = oracle_scores(oracles.key_sub_book(codewords, key, book.num_keys),
                               departures, model)
        best = int(np.argmax(scores))
        got = decode(book, departures, key, model)
        assert (got.message, got.dummy) == divmod(best, book.num_dummies)
        assert got.feasible_count == np.isfinite(scores).sum() >= 1
        if grid:
            assert got.log_likelihood == scores[best]
        else:
            assert got.log_likelihood == pytest.approx(scores[best], rel=1e-12)

    def test_all_infeasible_observation_fails_to_message_zero(self):
        # a two-tile key block, and departures faster than every first arrival
        book = generate_codebook(3, 15, 1, 1, arrival_rate=LAM, seed=5)
        departures = np.full(3, 1e-12)
        scores = oracles.scan_scores_exponential(
            oracles.key_sub_book(oracles.flat_codewords(book), 1, book.num_keys),
            departures, 2.0,
        )
        assert np.isneginf(scores).all()
        got = decode(book, departures, 1, LAWS["exponential"])
        assert (got.message, got.dummy) == (0, 0)
        assert got.failed and got.log_likelihood == -math.inf
