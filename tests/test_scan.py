"""The tiled codebook scan and its two reductions, against the oracles.

``reduce_tiles``, the one scan of candidates against shared departures, is
checked against the per-packet loop it replaced (``oracles.scan_scores*``),
through ``scanning.shared_scores``, which copies every unit's scores out; the
per-column kernel ``conditional_log_density_batch`` and
``info_density_sample`` against the per-trial scorer
(``oracles.conditional_log_density``); ``willie_llr``
against a one-shot log-sum-exp of the oracle's scores; ``decode`` against
``np.argmax`` over the oracle's scores of the key's sub-book, redrawn from
the seed.
``TestThreads`` checks that both keep their bits on 1, 2 and 3 threads, and
``TestBlocks`` that their ``(n, T)`` calls give each observation the bits of
its ``(n,)`` call, for any grouping of the observations into units and any
thread count.  ``TestInfeasibleRule`` checks
the exponential kernel's branch-free -inf bit for bit against the masked rule
it replaced (``oracles.masked_exponential_scores``), and ``TestBuffer`` the
one-row ufunc buffer of grouped units and its restoration on every thread.

Two kinds of data are drawn.  Continuous data (exponential gaps) checks the
float agreement.  Grid data (multiples of 1/64, or of 1/2 where ties are
wanted) keeps every sum and difference exact, so both kernels see the same
s_k bit for bit: support boundaries such as t_k == d_k are hit often, and
exact ties test the first-index tie-break across tiles.  The Erlang law is
checked on grid data only: its log s term is ill-conditioned near s = 0,
where the two kernels' equally accurate s_k can differ in relative terms.
"""

import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertq import laws
from covertq.codec import Codebook, decode, generate_codebook
from covertq.errors import StructuralError
from covertq.laws import SCAN_TILE, conditional_log_density_batch, info_density_sample, reduce_tiles
from covertq.queueing import ServiceKind, ServiceModel, simulate_channel, trial_blocks
from covertq.warden import run_detection_trials, willie_llr

import oracles
from scanning import assert_scores_match, shared_scores

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
    """(n, count) candidate epochs and the departure epochs of candidate 0
    pushed through the model's queue."""
    rng = np.random.default_rng(seed)
    if grid:
        gaps = rng.integers(0, 257, (count, n)) / 64.0
        services = grid_services(model, rng, n)
    else:
        gaps = rng.exponential(1.0 / LAM, (count, n))
        services = model.sample(rng, n)
    departures, _ = oracles.des_departures(gaps[0], services)
    return np.ascontiguousarray(np.cumsum(gaps, axis=1).T), departures


def reverse_gaps(departures):
    """The epochs of the departure gaps of ``departures`` in reverse order."""
    return np.cumsum(np.diff(departures, prepend=0.0)[::-1])


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
        got = shared_scores(epochs, departures, model)
        terms = oracles.scan_scores(epochs, departures, abs_log_density(model))
        assert_scores_match(got, want, scan_size(want, terms, model, n, departures[-1]))
        assert np.isfinite(want[0])  # the candidate that was sent is feasible
        if grid:
            assert np.array_equal(got, want)  # exact arithmetic: the same bits
        # each unit overwrites its thread's last scores: copy them as they come
        seen = {}

        def keep(start, scores):
            seen[start] = scores[0].copy()
            return (np.full(len(scores), start),)

        [starts] = reduce_tiles(epochs, departures[:, None], model, keep, (np.int64,))
        assert starts.tolist() == [list(range(0, count, SCAN_TILE))]
        assert np.array_equal(np.concatenate([seen[start] for start in starts[0]]), got)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_arrival_one_ulp_after_departure_is_infeasible(self, law):
        model = LAWS[law]
        d = np.array([1.25, 2.0, 3.0])
        columns = [d, d.copy(), d.copy(), d - 0.75]  # the last: services all 0.75
        columns[1][1] = np.nextafter(d[1], np.inf)  # packet 2 arrives 1 ulp too late
        columns[2][2] = np.nextafter(d[2], np.inf)
        epochs = np.stack(columns, axis=1)
        got = shared_scores(epochs, d, model)
        assert np.array_equal(got, oracle_scores(epochs, d, model))
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
        shared = shared_scores(epochs, departures, model)
        columns = np.repeat(departures[:, None], 500, axis=1)
        assert np.array_equal(shared, conditional_log_density_batch(epochs, columns, model))
        assert np.isfinite(shared[0])

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("n", [1, 4, 32])
    @pytest.mark.parametrize("count", [37, 300])
    def test_grouped_departures_score_like_one_observation_each(self, law, n, count):
        model = LAWS[law]
        epochs, departures = draw_scan(model, n, count, grid=False, seed=n)
        rng = np.random.default_rng(n)
        observations = np.stack([
            departures, reverse_gaps(departures),
            simulate_channel(np.cumsum(rng.exponential(1.0 / LAM, n)), model, rng)], axis=1)
        # one unit of three observations, and three units of one
        grouped = shared_scores(epochs, observations, model)
        assert grouped.shape == (3, count)
        for row, column in zip(grouped, observations.T):
            assert np.array_equal(row, shared_scores(epochs, column, model))
        assert np.isfinite(grouped[0, 0])

    def test_shared_departures_scan_in_small_memory(self):
        # one n = 200 tile: the per-packet loop keeps (SCAN_TILE,) temporaries,
        # where forming every s_k at once took over 200 MB
        epochs, departures = draw_scan(LAWS["erlang"], 200, SCAN_TILE, grid=False, seed=3)
        tracemalloc.start()
        try:
            shared_scores(epochs, departures, LAWS["erlang"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak


def draw_trials(model, n, count, grid, seed):
    """(n, count) arrival epochs and one column of departure epochs each: the
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
        departures[:, c] = oracles.des_departures(gaps[:, c], services[:, c])[0]
    departures[:, 1::2] = departures[:, 1::2][:, ::-1]
    return np.cumsum(gaps, axis=0), departures


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
        arrivals, departures = draw_trials(model, n, count, grid, seed)
        want = np.array([
            oracles.conditional_log_density(arrivals[:, c], departures[:, c], model.log_density)
            for c in range(count)
        ])
        terms = np.array([
            oracles.conditional_log_density(arrivals[:, c], departures[:, c],
                                            abs_log_density(model))
            for c in range(count)
        ])
        size = scan_size(want, terms, model, n, departures[-1])
        got = conditional_log_density_batch(arrivals, departures, model)
        assert_scores_match(got, want, size)
        assert np.isfinite(want[::2]).all()  # the columns that were sent are feasible
        if grid:
            assert np.array_equal(got, want)  # exact arithmetic: the same bits
        reference = n * math.log(LAM) - LAM * departures[-1]
        density = info_density_sample(arrivals, departures, model, LAM)
        assert_scores_match(density, (want - reference) / n, (size + np.abs(reference)) / n)


def mixture_llr(epochs, departures, model):
    """One-shot log-sum-exp of the oracle's scores, minus log q(D)."""
    scores = oracle_scores(epochs, departures, model)
    top = scores.max()
    null = departures.size * math.log(LAM) - LAM * departures[-1]
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
            arrivals = book.arrival_epochs[:, int(rng.integers(book.total))]
        else:
            arrivals = np.cumsum(rng.exponential(1.0 / LAM, n))
        departures = simulate_channel(arrivals, model, rng)
        if observed == "infeasible":
            departures = np.full(n, 1e-12)
        columns = np.sort(rng.permutation(book.total)[:count])
        # count of the book's columns, padded back to its width with columns
        # that arrive after every departure: infeasible, and in the mixture
        pad = book.arrival_epochs[:, :book.total - count] + departures[-1] + 1.0
        epochs = np.hstack([book.arrival_epochs[:, columns], pad])
        shuffled = np.ascontiguousarray(epochs[:, rng.permutation(book.total)])
        want = mixture_llr(epochs, departures, model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laws, "SCAN_TILE", SCAN_TILE - 1)  # no width divides: a partial tile
            for cols in (epochs, shuffled):
                got = willie_llr(replace(book, arrival_epochs=cols), departures, model)
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
    def test_matches_argmax_over_key_sub_book(self, widths, n, grid, seed):
        model = LAWS["exponential"]
        rng = np.random.default_rng(seed)
        book = generate_codebook(n, *widths, arrival_rate=LAM, seed=seed)
        codewords = oracles.flat_codewords(book)
        if grid:  # half-integer gaps: exact ties, also across tiles
            codewords = rng.integers(0, 6, codewords.shape) / 2.0
            book = replace(book, arrival_epochs=np.ascontiguousarray(np.cumsum(codewords, 1).T))
        key = int(rng.integers(book.num_keys))
        sub_book = codewords[key * book.num_pairs:(key + 1) * book.num_pairs]
        arrivals = sub_book[int(rng.integers(book.num_pairs))]
        if grid:
            departures, _ = oracles.des_departures(arrivals, grid_services(model, rng, n))
        else:
            departures = simulate_channel(np.cumsum(arrivals), model, rng)
        scores = oracle_scores(np.cumsum(sub_book, axis=1).T, departures, model)
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
            np.cumsum(oracles.flat_codewords(book)[book.num_pairs:], axis=1).T, departures, 2.0)
        assert np.isneginf(scores).all()
        got = decode(book, departures, 1, LAWS["exponential"])
        assert (got.message, got.dummy) == (0, 0)
        assert got.failed and got.log_likelihood == -math.inf


@pytest.fixture
def scan_threads(monkeypatch):
    """Sets the scan's thread count, the module rule, to a given value."""
    return lambda count: monkeypatch.setattr(laws, "scan_threads", lambda: count)


def tied_book(model, count, n, seed):
    """A book of half-integer codewords, and departures from its codeword
    ``count - 1``, with exact ties at the top score across tiles of
    ``laws.SCAN_TILE`` columns: the best codeword is copied into the second
    and the third tile and into the last column.  Its columns from ``count``
    on, up to the book's 2^ceil(log2 count), arrive after every departure and
    are infeasible, but for those copies; so is the first tile when there is
    more than one."""
    rng = np.random.default_rng(seed)
    bits = max(0, math.ceil(math.log2(count)))
    epochs = np.cumsum(rng.integers(0, 6, (n, 1 << bits)) / 2.0, axis=0)
    departures, _ = oracles.des_departures(np.diff(epochs[:, count - 1], prepend=0.0),
                                           grid_services(model, rng, n))
    tile = laws.SCAN_TILE
    epochs[:, count:] += departures[-1] + 1.0
    if count > tile:
        epochs[:, :tile] += departures[-1] + 1.0
    best = int(np.argmax(oracle_scores(epochs, departures, model)))
    for column in (tile + 1, 2 * tile + 1, epochs.shape[1] - 1):
        if column < epochs.shape[1]:
            epochs[:, column] = epochs[:, best]
    book = Codebook(n=n, bits_message=bits, bits_dummy=0, bits_key=0, arrival_rate=LAM,
                    seed=seed, arrival_epochs=epochs)
    return book, departures


class TestThreads:
    """Every thread count gives the same bits: the partials are reduced per
    tile and combined in tile order."""

    @pytest.mark.parametrize("count", WIDTHS)
    @pytest.mark.parametrize("law", ["exponential", "erlang"])
    def test_llr_and_decode_bits_do_not_depend_on_threads(self, monkeypatch, scan_threads,
                                                         count, law):
        model = LAWS[law]
        monkeypatch.setattr(laws, "SCAN_TILE", SCAN_TILE - 1)  # no book width divides
        book, departures = tied_book(model, count, 3, seed=count)
        scores = oracle_scores(book.arrival_epochs, departures, model)
        observations = np.stack([departures, reverse_gaps(departures)], axis=1)
        got = []
        for threads in (1, 2, 3):
            scan_threads(threads)
            llr = willie_llr(book, departures, model)
            result = decode(book, departures, 0, model)
            got.append((llr.hex(), result))
            # an (n, T) call: column j is the (n,) call on column j
            llrs = willie_llr(book, observations, model)
            results = decode(book, observations, np.zeros(2, dtype=int), model)
            assert [x.hex() for x in llrs.tolist()] == [
                willie_llr(book, column, model).hex() for column in observations.T]
            assert [outcome(*row) for row in zip(*astuple(results))] == [
                outcome(*astuple(decode(book, column, 0, model))) for column in observations.T]
        assert got[1] == got[0] and got[2] == got[0]
        assert llr == pytest.approx(mixture_llr(book.arrival_epochs, departures, model),
                                    rel=1e-12, abs=1e-12)
        assert (result.message, result.log_likelihood) == (int(np.argmax(scores)), scores.max())
        assert result.feasible_count == np.isfinite(scores).sum()
        if count > laws.SCAN_TILE + 1:  # the top score in more than one tile
            assert np.count_nonzero(scores == scores.max()) >= 2

    def test_each_tile_is_reduced_once_under_contention(self, monkeypatch, scan_threads):
        # more threads than cores and 4-column tiles, with the interpreter
        # switching threads as often as it can: a unit handed out twice or
        # not at all, or a partial stored at another's index, shows
        model = LAWS["exponential"]
        epochs, departures = draw_scan(model, 2, 4001, grid=True, seed=4)
        observations = np.stack([departures, reverse_gaps(departures), 2.0 * departures], axis=1)
        scan_threads(1)
        want = shared_scores(epochs, observations, model)  # one unit: the whole book
        monkeypatch.setattr(laws, "SCAN_TILE", 4)
        scan_threads(7)
        seen = []

        def summary(start, scores):
            seen.append(start)
            return np.full(len(scores), start), scores.max(axis=1), np.argmax(scores, axis=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            starts, tops, firsts = reduce_tiles(epochs, observations, model, summary,
                                                (np.int64, np.float64, np.int64))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == sorted(list(range(0, 4001, 4)) * 3)
        assert starts.shape == (3, 1001)
        for row, scores in enumerate(want):
            assert starts[row].tolist() == list(range(0, 4001, 4))
            assert tops[row].tolist() == [scores[s:s + 4].max() for s in range(0, 4001, 4)]
            assert firsts[row].tolist() == [int(np.argmax(scores[s:s + 4]))
                                            for s in range(0, 4001, 4)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_an_error_in_a_tile_is_raised_on_the_calling_thread(self, monkeypatch, scan_threads,
                                                               threads):
        scan_threads(threads)
        unit = laws._scan_unit
        calls = []

        def failing(tile, departures, model, work):
            calls.append(tile.shape[1])
            if len(calls) == 2:
                raise FloatingPointError("tile failed")
            return unit(tile, departures, model, work)

        monkeypatch.setattr(laws, "_scan_unit", failing)
        epochs, departures = draw_scan(LAWS["exponential"], 2, 3 * SCAN_TILE, grid=True, seed=1)
        alive = threading.active_count()
        with pytest.raises(FloatingPointError, match="tile failed"):
            reduce_tiles(epochs, departures[:, None], LAWS["exponential"],
                         lambda start, scores: (np.full(len(scores), start),), (np.int64,))
        assert threading.active_count() == alive  # every thread was joined

    @pytest.mark.parametrize("threads", [1, 2])
    def test_shapes_are_checked_before_any_tile(self, scan_threads, threads):
        scan_threads(threads)
        epochs, departures = draw_scan(LAWS["exponential"], 2, 2 * SCAN_TILE, grid=True, seed=2)
        with pytest.raises(StructuralError):
            reduce_tiles(epochs, departures[:1], LAWS["exponential"], pytest.fail,
                         (np.int64,))


# SCAN_TILE in the block tests: units of a few observations, so that key
# blocks and books narrower than, as wide as and wider than one tile all occur;
# or tiles of 1024 columns, whose units hold a few rows of 256 or 512 columns
BLOCK_TILES = (8, 1024)
BLOCK_WIDTHS = [(0, 0, 0), (1, 0, 1), (2, 0, 1), (1, 1, 1), (3, 0, 1), (2, 1, 2), (4, 1, 1),
                (7, 1, 1), (8, 1, 0)]


def draw_block(model, widths, n, trials, grid, seed):
    """A book, its codewords' gaps, and (n, trials) observed departure epochs
    with random keys: a third each sent codewords and other arrivals, pushed
    through the model's queue, and a third departures all at 1e-12, which few
    codewords could have produced.  On the grid the arrivals have
    half-integer gaps, so exact ties occur."""
    rng = np.random.default_rng(seed)
    book = generate_codebook(n, *widths, arrival_rate=LAM, seed=seed)
    codewords = oracles.flat_codewords(book)
    if grid:
        codewords = rng.integers(0, 6, codewords.shape) / 2.0
        book = replace(book, arrival_epochs=np.ascontiguousarray(np.cumsum(codewords, 1).T))
    keys = rng.integers(book.num_keys, size=trials)
    observations = np.empty((n, trials))
    for j, key in enumerate(keys):
        kind = int(rng.integers(3))
        if kind == 2:
            observations[:, j] = 1e-12
            continue
        if kind == 0:
            arrivals = codewords[key * book.num_pairs + int(rng.integers(book.num_pairs))]
        elif grid:
            arrivals = rng.integers(0, 6, n) / 2.0
        else:
            arrivals = rng.exponential(1.0 / LAM, n)
        if grid:
            observations[:, j] = oracles.des_departures(arrivals, grid_services(model, rng, n))[0]
        else:
            observations[:, j] = simulate_channel(np.cumsum(arrivals), model, rng)
    return book, codewords, observations, keys


def outcome(message, dummy, log_likelihood, feasible):
    """One decoded observation, its log likelihood by its bits."""
    return int(message), int(dummy), float(log_likelihood).hex(), int(feasible)


class TestBlocks:
    """The block forms against their one-observation calls, bit for bit, with
    ``SCAN_TILE`` at one of ``BLOCK_TILES`` and 1, 2 or 7 threads; on grid
    data also against the oracle's scores."""

    @given(
        law=st.sampled_from(sorted(LAWS)),
        widths=st.sampled_from(BLOCK_WIDTHS),
        n=st.integers(1, 5),
        trials=st.integers(1, 30),
        threads=st.sampled_from([1, 2, 7]),
        tile=st.sampled_from(BLOCK_TILES),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_decode_is_decode_column_by_column(self, law, widths, n, trials, threads, tile,
                                                      grid, seed):
        model = LAWS[law]
        book, codewords, observations, keys = draw_block(model, widths, n, trials, grid, seed)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            patch.setattr(laws, "SCAN_TILE", tile)
            patch.setattr(laws, "scan_threads", lambda: threads)
            got = astuple(decode(book, observations, keys, model))
            want = [decode(book, observations[:, j], int(key), model)
                    for j, key in enumerate(keys)]
        assert all(array.shape == (trials,) for array in got)
        assert [outcome(*row) for row in zip(*got)] == [outcome(*astuple(r)) for r in want]
        if grid:  # exact arithmetic: the oracle's argmax, maximum and feasible count
            for message, dummy, top, feasible, column, key in zip(*got, observations.T, keys):
                sub_book = codewords[key * book.num_pairs:(key + 1) * book.num_pairs]
                scores = oracle_scores(np.cumsum(sub_book, axis=1).T, column, model)
                best = int(np.argmax(scores))
                assert (message, dummy) == divmod(best, book.num_dummies)
                assert top == scores[best]
                assert feasible == np.isfinite(scores).sum()

    @given(
        law=st.sampled_from(sorted(LAWS)),
        widths=st.sampled_from(BLOCK_WIDTHS),
        n=st.integers(1, 5),
        trials=st.integers(1, 30),
        threads=st.sampled_from([1, 2, 7]),
        tile=st.sampled_from(BLOCK_TILES),
        grid=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_llr_is_willie_llr_column_by_column(self, law, widths, n, trials, threads, tile,
                                                       grid, seed):
        model = LAWS[law]
        book, _, observations, _ = draw_block(model, widths, n, trials, grid, seed)
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            patch.setattr(laws, "SCAN_TILE", tile)
            patch.setattr(laws, "scan_threads", lambda: threads)
            got = willie_llr(book, observations, model)
            want = [willie_llr(book, column, model) for column in observations.T]
        assert got.shape == (trials,)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        if not grid and law == "erlang":
            return  # see the module docstring: no float oracle for Erlang
        for llr, column in zip(want, observations.T):
            oracle = mixture_llr(book.arrival_epochs, column, model)
            if oracle == -math.inf:
                assert llr == -math.inf
            else:
                assert llr == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scan_tile", [BLOCK_TILES[0], SCAN_TILE])
    def test_all_infeasible_observations_fail_quietly(self, monkeypatch, scan_tile):
        # next to a feasible observation in one unit, and a unit of them alone
        monkeypatch.setattr(laws, "SCAN_TILE", scan_tile)
        model = LAWS["exponential"]
        book = generate_codebook(3, 1, 1, 1, arrival_rate=LAM, seed=6)
        rng = np.random.default_rng(6)
        sent = simulate_channel(book.arrival_epochs[:, book.column(1, 0, 1)], model, rng)
        observations = np.full((3, 9), 1e-12)
        observations[:, 0] = sent
        keys = np.ones(9, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            messages, dummies, top, feasible = astuple(decode(book, observations, keys, model))
            llr = willie_llr(book, observations, model)
        assert feasible[0] > 0 and np.isfinite(llr[0])
        assert (messages[1:] == 0).all() and (dummies[1:] == 0).all()
        assert (feasible[1:] == 0).all() and np.isneginf(top[1:]).all()
        assert np.isneginf(llr[1:]).all()

    @pytest.mark.parametrize("count", [1, 3, 8, 9, 20])
    @pytest.mark.parametrize("trials", [1, 5, 17])
    def test_units_hold_at_most_scan_tile_scores(self, monkeypatch, count, trials):
        # g = max(1, SCAN_TILE // tile width) observations x one tile, each
        # unit's partial at its rows of its tile's column
        monkeypatch.setattr(laws, "SCAN_TILE", 8)
        epochs, departures = draw_scan(LAWS["exponential"], 2, count, grid=True, seed=count)
        observations = np.repeat(departures[:, None], trials, axis=1)
        units = []

        def shape(start, scores):
            units.append((start, scores.shape))
            return tuple(np.full(len(scores), value) for value in (start, *scores.shape))

        got = reduce_tiles(epochs, observations, LAWS["exponential"], shape,
                           (np.int64, np.int64, np.int64))
        group = max(1, 8 // min(count, 8))
        want = [(start, (min(group, trials - first), min(8, count - start)))
                for first in range(0, trials, group) for start in range(0, count, 8)]
        assert sorted(units) == sorted(want)  # each unit once
        assert all(rows * width <= 8 for _, (rows, width) in units)
        assert [[tuple(field[j, t] for field in got) for t in range(got[0].shape[1])]
                for j in range(trials)] == [
            [(start, min(group, trials - j // group * group), min(8, count - start))
             for start in range(0, count, 8)]
            for j in range(trials)
        ]

    def test_many_tile_scans_of_many_observations_in_small_memory(self, monkeypatch,
                                                                   scan_threads):
        # 16 tiles of one observation each (4 per key block), 256
        # observations: 5120 units, whose partials held as Python objects took
        # 1.4 MB, where the warden's two (256, 16) partial arrays take 64 KB
        monkeypatch.setattr(laws, "SCAN_TILE", 8)
        scan_threads(1)  # 8-column units run slower on two threads
        model = LAWS["exponential"]
        book = generate_codebook(2, 3, 2, 2, arrival_rate=LAM, seed=7)
        rng = np.random.default_rng(7)
        observations = np.cumsum(rng.exponential(1.0, (2, 256)), axis=0)
        keys = rng.integers(book.num_keys, size=256)
        tracemalloc.start()
        try:
            llr = willie_llr(book, observations, model)
            decoded = astuple(decode(book, observations, keys, model))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10, peak
        # and the partial arrays keep each observation's bits
        for j in range(0, 256, 5):
            assert llr[j].hex() == willie_llr(book, observations[:, j], model).hex()
            assert outcome(*(array[j] for array in decoded)) == outcome(
                *astuple(decode(book, observations[:, j], int(keys[j]), model)))

    def test_criterion_5_narrow_book_llrs_are_the_per_observation_ones(self):
        # criterion 5's under-resolved half, 16 codewords at n=200: its first
        # 400 trials are two trial blocks of several hundred observations,
        # each scored in one unit on the departure epochs the recursion wrote;
        # two slices of them, replayed through the public calls and scored one
        # at a time, keep their bits
        model = ServiceModel.exponential(2.0)
        book = generate_codebook(200, 2, 1, 1, arrival_rate=LAM, seed=5001)
        null, alt = run_detection_trials(book, model, 400, np.random.default_rng(5002))
        rng = np.random.default_rng(5002)
        blocks = list(trial_blocks(book.n, 400))
        assert len(blocks) == 2
        for block in blocks:
            count = block.stop - block.start
            *_, codewords = oracles.sent_codewords(book, rng, count)
            sent = simulate_channel(np.stack(codewords, axis=1), model, rng)
            arrivals = np.cumsum(rng.exponential(1.0 / LAM, size=(book.n, count)), axis=0)
            poisson = simulate_channel(arrivals, model, rng)
            keep = [j for j, i in enumerate(range(block.start, block.stop)) if i < 20 or i >= 320]
            for got, observations in ((alt[block], sent), (null[block], poisson)):
                observations = observations[:, keep]
                want = np.array([willie_llr(book, column, model)
                                 for column in observations.T])
                assert np.array_equal(got[keep], want)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_public_path_scores_every_sent_block_at_a_fast_rate(n):
    # at Exp(1e12) a service is a few ulps of the epochs: a block the queue
    # wrote, scored on those epochs, never forms a service below 0, so no
    # sent block scores -inf and every decode finds a feasible candidate
    model = ServiceModel.exponential(1e12)
    book = generate_codebook(n, 3, 1, 1, arrival_rate=LAM, seed=100)
    rng = np.random.default_rng(100)
    messages, dummies, keys, epochs = book.send(rng, 1000)
    sent = simulate_channel(epochs, model, rng)
    poisson = np.cumsum(rng.exponential(1.0 / LAM, (n, 1000)), axis=0)
    for arrivals, departures in ((epochs, sent), (poisson, simulate_channel(poisson, model, rng))):
        assert np.isfinite(info_density_sample(arrivals, departures, model, LAM)).all()
    assert np.isfinite(willie_llr(book, sent, model)).all()
    got = decode(book, sent, keys, model)
    assert (got.feasible_count >= 1).all() and np.isfinite(got.log_likelihood).all()
    assert not got.failed.any()
    assert np.array_equal(got.message, messages) and np.array_equal(got.dummy, dummies)


@pytest.mark.parametrize("tile", [8, SCAN_TILE])
@pytest.mark.parametrize("law", ["exponential", "uniform"])
def test_a_float32_book_scans_as_its_float64_values(monkeypatch, scan_threads, tile, law):
    # the scan takes epochs of any float dtype and works on their float64
    # values, as the kernel does (a Codebook holds float64 epochs only).
    # Tile 8: one observation per unit
    monkeypatch.setattr(laws, "SCAN_TILE", tile)
    scan_threads(2)
    model = LAWS[law]
    book, _, observations, _ = draw_block(model, (4, 1, 1), 3, 9, False, seed=8)
    epochs32 = book.arrival_epochs.astype(np.float32)
    assert not np.array_equal(epochs32, book.arrival_epochs)
    # one field per column of a tile: the scores themselves
    fields = reduce_tiles(epochs32, observations, model,
                          lambda start, scores: scores.T.copy(), (np.float64,) * min(tile, 64))
    scores = np.stack(fields, axis=-1).reshape(9, 64)
    for got, column in zip(scores, observations.T):
        want = shared_scores(epochs32.astype(np.float64), column, model)
        assert got.tobytes() == want.tobytes()


def edge_scan(n, count, seed):
    """(n, count) half-integer epochs and (n, 4) departure epochs whose s_k
    sit on the support's edge: gaps of 0.0 and -0.0, columns that tie with an
    observation's departures (s_k = 0), a first tile (of 8 columns, or all but
    those two) that arrives after every departure, and an observation of zero
    gaps, against which only the last candidate, of zero epochs, is feasible."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 3, (n, 4)) / 2.0
    gaps[:, 3] = 0.0
    gaps[(gaps == 0.0) & (rng.random((n, 4)) < 0.5)] = -0.0
    epochs = np.cumsum(rng.integers(1, 4, (n, count)) / 2.0, axis=0)
    departures = np.cumsum(gaps, axis=0)
    epochs[:, -2] = departures[:, 0]
    epochs[:, -1] = 0.0
    epochs[:, :min(8, count - 2)] += 1.0 + departures[-1].max()
    return epochs, departures


class TestInfeasibleRule:
    """The exponential kernel's branch-free -inf, bit for bit against the
    masked rule (``oracles.masked_exponential_scores``), with every
    RuntimeWarning an error: the 0 * inf the rule relies on never surfaces."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("count", [3, 19])
    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_edges_score_like_the_masked_rule(self, monkeypatch, scan_threads, n, count, threads):
        scan_threads(threads)
        model = LAWS["exponential"]
        epochs, departures = edge_scan(n, count, seed=n * count)
        want = np.stack([oracles.masked_exponential_scores(epochs, column, model.rate)
                         for column in departures.T])
        assert np.isneginf(want[:, :min(8, count - 2)]).all()
        assert np.isneginf(want[3, :-1]).all()
        assert np.isfinite(want[0, -2]) and np.isfinite(want[3, -1])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error", RuntimeWarning)
            # the whole book in one unit: of four observations, and of one each
            grouped = shared_scores(epochs, departures, model)
            columns = [shared_scores(epochs, column, model) for column in departures.T]
            monkeypatch.setattr(laws, "SCAN_TILE", 8)  # 3 columns: g = 2; 19: three tiles
            # one field per column of a tile: the scores themselves
            fields = reduce_tiles(
                epochs, departures, model, lambda start, scores: np.pad(
                    scores, ((0, 0), (0, 8 - scores.shape[1])), constant_values=np.nan).T,
                (np.float64,) * 8)
        scanned = np.stack(fields, axis=-1).reshape(4, -1)[:, :count]
        for got in (grouped, np.stack(columns), scanned):
            assert got.tobytes() == want.tobytes()
        for got, column in zip(columns, departures.T):  # and the per-packet oracle's values
            assert np.array_equal(got, oracles.scan_scores_exponential(epochs, column, model.rate))

    @given(n=st.integers(1, 4), g=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_nan_inf_and_signed_zeros_score_like_the_masked_rule(self, n, g, seed):
        # the kernel checks shapes only: values no public call lets through,
        # and sums that overflow, still take the masked rule's -inf set and bits
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, 1.0, 0.5, 1e308, np.inf, -np.inf, np.nan, -1.0])
        epochs = rng.choice(special, (n, 12))
        gaps = rng.choice(special[:5], (n, g))
        with np.errstate(all="ignore"):
            departures = np.cumsum(gaps, axis=0)
            want = np.stack([oracles.masked_exponential_scores(epochs, column, 2.0)
                             for column in departures.T])
            scores = shared_scores(epochs, departures, LAWS["exponential"])
        assert np.array_equal(np.isnan(scores), np.isnan(want))
        assert np.array_equal(scores, want, equal_nan=True)
        assert np.array_equal(np.signbit(scores[~np.isnan(want)]),
                              np.signbit(want[~np.isnan(want)]))


class TestBuffer:
    """Grouped units at least 256 columns wide run with a one-row ufunc
    buffer, on every scan thread, and every thread gives its old size back."""

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_grouped_units_run_with_a_one_row_buffer(self, monkeypatch, scan_threads, threads):
        # 300-column rows, which numpy 1.x takes as a buffer only rounded up
        # to 304; two observations per unit, four units
        monkeypatch.setattr(laws, "SCAN_TILE", 600)
        scan_threads(threads)
        model = LAWS["exponential"]
        epochs, departures = draw_scan(model, 3, 300, grid=False, seed=5)
        rng = np.random.default_rng(5)
        observations = np.column_stack([departures] + [
            simulate_channel(np.cumsum(rng.exponential(1.0 / LAM, 3)), model, rng)
            for _ in range(6)])
        sizes = []

        def summary(start, scores):
            sizes.append(np.getbufsize())
            return scores.max(axis=1), np.argmax(scores, axis=1), scores.sum(axis=1)

        before = np.getbufsize()
        tops, firsts, sums = reduce_tiles(epochs, observations, model, summary,
                                          (np.float64, np.int64, np.float64))
        assert np.getbufsize() == before
        assert sizes == [304] * 4
        for j, column in enumerate(observations.T):
            want = shared_scores(epochs, column, model)  # a unit of one observation
            assert (tops[j, 0], firsts[j, 0]) == (want.max(), np.argmax(want))
            assert sums[j, 0].hex() == want.sum().hex()
        # the 300 columns, padded to a book of 512 with columns that arrive
        # after every departure; 1024-column tiles group two of its rows a unit
        pad = epochs[:, :212] + observations.max() + 1.0
        book = replace(generate_codebook(3, 9, 0, 0, arrival_rate=LAM, seed=5),
                       arrival_epochs=np.hstack([epochs, pad]))
        monkeypatch.setattr(laws, "SCAN_TILE", 1024)
        llrs = willie_llr(book, observations, model)
        assert [x.hex() for x in llrs.tolist()] == [
            willie_llr(book, column, model).hex() for column in observations.T]

    @pytest.mark.parametrize("count, trials", [(255, 3), (300, 1)])
    def test_other_units_keep_the_callers_buffer(self, scan_threads, count, trials):
        # rows under 256 columns, and a unit of one observation
        scan_threads(1)
        epochs, departures = draw_scan(LAWS["exponential"], 2, count, grid=True, seed=count)
        sizes = []

        def top(start, scores):
            sizes.append(np.getbufsize())
            return (scores.max(axis=1),)

        reduce_tiles(epochs, np.repeat(departures[:, None], trials, axis=1),
                     LAWS["exponential"], top, (np.float64,))
        assert sizes == [np.getbufsize()]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_the_callers_buffer_is_restored_on_return_and_on_error(self, scan_threads, threads):
        scan_threads(threads)
        epochs, departures = draw_scan(LAWS["exponential"], 2, 400, grid=True, seed=6)
        observations = np.repeat(departures[:, None], 5, axis=1)
        default = np.getbufsize()
        np.setbufsize(4096)
        try:
            reduce_tiles(epochs, observations, LAWS["exponential"],
                         lambda start, scores: (scores.max(axis=1),), (np.float64,))
            assert np.getbufsize() == 4096
            with pytest.raises(ZeroDivisionError):
                reduce_tiles(epochs, observations, LAWS["exponential"],
                             lambda start, scores: 1 / 0, (np.float64,))
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(default)
