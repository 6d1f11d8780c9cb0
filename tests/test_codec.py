import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from covertq import codec, queueing
from covertq.codec import (
    Codebook,
    decode,
    encode,
    generate_codebook,
    mm1_log_output_ratio_bound,
    random_coding_error_bounds,
)
from covertq.errors import InstabilityError, ParameterError, ResourceLimitError, StructuralError
from covertq.laws import sample_info_densities
from covertq.queueing import BLOCK_CELLS, ServiceModel, simulate_channel

import oracles

BOB = ServiceModel.exponential(50.0)  # high-rate receiver: near-transparent queue


class Draw:
    """Stands in for ``encode``'s generator: its one draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def integers(self, high):
        assert 0 <= self.value < high
        return self.value


def small_book(seed=7, n=16, widths=(3, 2, 2), lam=0.5):
    return generate_codebook(n, *widths, arrival_rate=lam, seed=seed)


class TestGenerate:
    def test_shape_and_positivity(self):
        book = small_book()
        assert book.arrival_epochs.shape == (16, 128)
        assert np.all(np.diff(book.arrival_epochs, axis=0, prepend=0.0) > 0.0)

    def test_epochs_are_key_major(self):
        # the codewords in the order they are drawn: key, then message, then dummy
        book = small_book(widths=(2, 1, 2))
        assert book.num_pairs == book.num_messages * book.num_dummies
        drawn = iter(oracles.flat_codewords(book))
        for k in range(book.num_keys):
            for w in range(book.num_messages):
                for wt in range(book.num_dummies):
                    column = k * book.num_pairs + w * book.num_dummies + wt
                    assert book.column(w, wt, k) == column
                    assert np.array_equal(book.arrival_epochs[:, column], np.cumsum(next(drawn)))

    def test_same_seed_same_book(self):
        assert np.array_equal(small_book(seed=3).arrival_epochs, small_book(seed=3).arrival_epochs)
        assert not np.array_equal(small_book(seed=3).arrival_epochs,
                                  small_book(seed=4).arrival_epochs)

    def test_symbols_have_exponential_mean(self):
        book = generate_codebook(50, 4, 2, 3, arrival_rate=0.5, seed=11)
        gaps = np.diff(book.arrival_epochs, axis=0, prepend=0.0)
        assert gaps.mean() == pytest.approx(2.0, rel=0.02)

    def test_single_codeword_book(self):
        book = generate_codebook(4, 0, 0, 0, arrival_rate=1.0, seed=0)
        assert book.total == 1
        assert book.column(0, 0, 0) == 0

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError, match="codewords exceeds the enumeration cap"):
            generate_codebook(4, 10, 10, 1, arrival_rate=1.0, seed=0)
        # 2^20 codewords are within the cap, but not at n=2^9: 2^29 cells
        with pytest.raises(ResourceLimitError, match="cells"):
            generate_codebook(2**9, 10, 10, 0, arrival_rate=0.5, seed=0)

    def test_width_validation(self):
        with pytest.raises(ParameterError):
            generate_codebook(4, -1, 0, 0, arrival_rate=1.0, seed=0)
        with pytest.raises(ParameterError):
            generate_codebook(0, 1, 0, 0, arrival_rate=1.0, seed=0)

    @pytest.mark.parametrize("n, widths", [
        (4, (2.0, 0, 0)),
        (4, (0, 0, 1.5)),
        (4.0, (1, 0, 0)),
        (True, (1, 0, 0)),
        (4, (True, 0, 0)),
        (4, (0, np.bool_(True), 0)),
        (np.float64(4.0), (1, 0, 0)),
    ])
    def test_non_integer_sizes_are_parameter_errors(self, n, widths):
        with pytest.raises(ParameterError):
            generate_codebook(n, *widths, arrival_rate=1.0, seed=0)

    @pytest.mark.parametrize("n, widths", [(4, (2, 0, 1)), (BLOCK_CELLS // 2, (0, 0, 2))])
    def test_numpy_integer_sizes_are_accepted(self, n, widths):
        # stored as Python ints
        book = generate_codebook(np.int64(n), *np.array(widths), arrival_rate=1.0, seed=0)
        want = generate_codebook(n, *widths, arrival_rate=1.0, seed=0)
        sizes = (book.n, book.bits_message, book.bits_dummy, book.bits_key)
        assert sizes == (n, *widths) and all(type(v) is int for v in sizes)
        assert np.array_equal(book.arrival_epochs, want.arrival_epochs)

    @pytest.mark.parametrize("rate", [np.float32(0.5), np.int64(1)], ids=repr)
    def test_a_book_drawn_at_a_numpy_rate_is_rebuilt_from_its_fields(self, rate):
        # the book holds its rate as a Python float and its seed as an int, and
        # its six recipe fields redraw its bytes
        book = generate_codebook(4, 2, 1, 1, arrival_rate=rate, seed=np.int64(21))
        assert type(book.arrival_rate) is float and type(book.seed) is int
        clone = generate_codebook(*(getattr(book, f) for f in codec._BOOK_FIELDS))
        want = generate_codebook(4, 2, 1, 1, arrival_rate=float(rate), seed=21)
        assert clone.arrival_epochs.tobytes() == book.arrival_epochs.tobytes() == \
            want.arrival_epochs.tobytes()

    def test_column_layout_is_key_major(self):
        book = small_book(widths=(2, 1, 3))
        # adjacent dummies are adjacent columns; message then key are higher strides
        assert book.column(0, 1, 0) - book.column(0, 0, 0) == 1
        assert book.column(1, 0, 0) - book.column(0, 0, 0) == 2
        assert book.column(0, 0, 1) - book.column(0, 0, 0) == 8
        for indices in ((4, 0, 0), (0, 2, 0), (0, 0, 8)):
            with pytest.raises(StructuralError):
                book.column(*indices)


class TestChunkedGenerator:
    """The chunked draw against a one-shot redraw of the book from its seed."""

    @pytest.mark.parametrize("n, widths", [
        (5, (0, 0, 0)),       # one codeword
        (16, (3, 2, 2)),      # the whole book in one chunk
        (20, (11, 0, 2)),     # chunks of 3276 codewords: the last one ends mid-book
        (4, (7, 7, 6)),       # 64 chunks of 16384 codewords, 2^20 in all
        (2048, (1, 0, 6)),    # chunks of 32 codewords, 16 keys' blocks of 2
        (3000, (0, 1, 5)),    # chunks of 21 codewords: they end mid-key-block
        (BLOCK_CELLS // 2, (0, 0, 2)),  # chunks of 2 codewords, one per key
        (BLOCK_CELLS + 3, (0, 0, 1)),  # a codeword longer than a chunk
    ])
    def test_epochs_are_the_key_major_cumsum_of_one_draw(self, n, widths):
        book = generate_codebook(n, *widths, arrival_rate=0.5, seed=23)
        want = np.cumsum(oracles.flat_codewords(book), axis=1).T
        assert np.array_equal(book.arrival_epochs.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n, widths, digest", [
        (4, (8, 8, 0), "8b5ad96e65113479"),
        (20, (11, 0, 0), "7aefe2113e7643d6"),
        (3000, (0, 0, 5), "645fa143941b724d"),
        (BLOCK_CELLS + 3, (0, 0, 1), "5f446bffb12f63ba"),
    ])
    def test_books_of_one_key_or_one_pair_keep_their_epochs(self, n, widths, digest):
        # the version-1 draw order took codewords pair-major: (w * dummies
        # + wt) * keys + k.  With one key, or one pair per key, that is the
        # column order, so these books kept their bytes (sha256 prefixes)
        book = generate_codebook(n, *widths, arrival_rate=0.5, seed=23)
        assert hashlib.sha256(book.arrival_epochs.tobytes()).hexdigest()[:16] == digest

    def test_peak_memory_is_about_one_book(self):
        tracemalloc.start()
        try:
            book = generate_codebook(4, 7, 7, 6, arrival_rate=0.5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * book.arrival_epochs.nbytes


class TestEncode:
    def test_indices_recorded_and_codeword_matches(self):
        book = small_book()
        rng = np.random.default_rng(5)
        tx = encode(book, 5, 2, rng)
        assert tx.message == 5 and tx.key == 2
        assert tx.dummy == np.random.default_rng(5).integers(book.num_dummies)
        column = book.column(tx.message, tx.dummy, tx.key)
        assert np.array_equal(tx.arrival_epochs, np.cumsum(oracles.flat_codewords(book)[column]))

    def test_no_dummy_bits_means_zero_dummy(self):
        book = generate_codebook(8, 2, 0, 1, arrival_rate=1.0, seed=1)
        rng = np.random.default_rng(6)
        for _ in range(20):
            assert encode(book, 1, 0, rng).dummy == 0

    def test_dummy_is_uniform(self):
        from scipy.stats import chisquare

        book = small_book(widths=(1, 4, 1))
        rng = np.random.default_rng(7)
        draws = np.array([encode(book, 0, 0, rng).dummy for _ in range(100_000)])
        counts = np.bincount(draws, minlength=16)
        assert chisquare(counts).pvalue > 0.01

    @pytest.mark.parametrize("widths", [(3, 2, 2), (2, 0, 1), (0, 0, 0)])
    def test_send_is_encode_of_a_uniform_message_and_key_per_trial(self, widths):
        # 40 messages, then 40 keys, then 40 dummies; trial j is encode's
        # codeword of message j under key j, when encode draws dummy j
        book = small_book(n=5, widths=widths)
        sender = np.random.default_rng(9)
        messages, dummies, keys, epochs = book.send(sender, 40)
        assert epochs.shape == (5, 40)
        rng = np.random.default_rng(9)
        *want, _ = oracles.sent_codewords(book, rng, 40)
        assert [messages.tolist(), dummies.tolist(), keys.tolist()] == want
        for j in range(40):
            tx = encode(book, int(messages[j]), int(keys[j]), Draw(int(dummies[j])))
            assert (tx.message, tx.dummy, tx.key) == (messages[j], dummies[j], keys[j])
            assert epochs[:, j].tobytes() == tx.arrival_epochs.tobytes()
        assert sender.random() == rng.random()  # and it drew nothing more

    def test_dummy_free_book_draws_no_dummy(self):
        book = generate_codebook(8, 2, 0, 1, arrival_rate=1.0, seed=1)
        rng = np.random.default_rng(6)
        encode(book, 1, 0, rng)
        assert rng.random() == np.random.default_rng(6).random()
        sender = np.random.default_rng(7)
        book.send(sender, 30)
        rng = np.random.default_rng(7)
        rng.integers(book.num_messages, size=30), rng.integers(book.num_keys, size=30)
        assert sender.random() == rng.random()

    def test_out_of_range_rejected(self):
        book = small_book()
        rng = np.random.default_rng(8)
        with pytest.raises(StructuralError):
            encode(book, 8, 0, rng)
        with pytest.raises(StructuralError):
            encode(book, 0, 4, rng)


class TestDecode:
    def test_round_trip_through_near_transparent_channel(self):
        book = small_book(n=32, widths=(3, 2, 2))
        rng = np.random.default_rng(9)
        channel = ServiceModel.exponential(1e6)
        for w in range(8):
            tx = encode(book, w, 3, rng)
            dep = simulate_channel(tx.arrival_epochs, channel, rng)
            got = decode(book, dep, 3, ServiceModel.exponential(1e6))
            assert (got.message, got.dummy) == (w, tx.dummy)
            assert not got.failed

    def test_single_codeword_book_decodes_to_zero(self):
        book = generate_codebook(8, 0, 0, 0, arrival_rate=0.5, seed=2)
        rng = np.random.default_rng(10)
        dep = simulate_channel(book.arrival_epochs[:, 0], BOB, rng)
        got = decode(book, dep, 0, BOB)
        assert (got.message, got.dummy) == (0, 0)

    def test_sent_blocks_decode_through_a_fast_queue(self):
        # 8 keys in a book of 4 chunks, behind a queue 1000 times faster than
        # the arrivals: the sweep's calls recover every sent pair
        lam = 0.5
        book = generate_codebook(32, 8, 2, 3, arrival_rate=lam, seed=31)
        assert book.n * book.total == 4 * BLOCK_CELLS
        model = ServiceModel.exponential(1e3 * lam)
        rng = np.random.default_rng(32)
        messages, dummies, keys, epochs = book.send(rng, 2000)
        assert np.unique(keys).size == book.num_keys
        got = codec._decode(book, queueing._queue(epochs, model, rng), keys, model)
        assert np.array_equal(got[0], messages) and np.array_equal(got[1], dummies)

    def test_high_snr_error_rate(self):
        # receiver 100x faster than the codeword rate: errors should be rare
        lam = 0.5
        book = generate_codebook(50, 4, 2, 1, arrival_rate=lam, seed=13)
        rng = np.random.default_rng(14)
        trials = 10_000
        sent, departures = [], []
        for _ in range(trials):
            w = int(rng.integers(book.num_messages))
            k = int(rng.integers(book.num_keys))
            tx = encode(book, w, k, rng)
            departures.append(simulate_channel(tx.arrival_epochs, BOB, rng))
            sent.append((w, tx.dummy, k))
        got = decode(book, np.stack(departures, axis=1), [k for *_, k in sent], BOB)
        w, wt, _ = np.array(sent).T
        errors = np.count_nonzero((got.message != w) | (got.dummy != wt))
        assert errors / trials < 1e-3

    def test_reported_likelihood_is_maximal(self):
        book = small_book(n=12, widths=(2, 1, 1))
        rng = np.random.default_rng(15)
        channel = ServiceModel.exponential(2.0)
        for _ in range(40):
            tx = encode(book, int(rng.integers(4)), 0, rng)
            dep = simulate_channel(tx.arrival_epochs, channel, rng)
            got = decode(book, dep, 0, ServiceModel.exponential(2.0))
            truth = oracles.conditional_log_density(tx.arrival_epochs, dep, channel.log_density)
            assert got.log_likelihood >= truth - 1e-9
            assert got.feasible_count >= 1  # the true codeword is always feasible

    def test_all_infeasible_flags_failure(self):
        book = small_book(n=4, widths=(2, 0, 0))
        # a departure block faster than any codeword's first arrival
        dep = np.cumsum(np.full(4, 1e-12))
        got = decode(book, dep, 0, BOB)
        assert got.failed
        assert got.log_likelihood == -math.inf
        assert (got.message, got.dummy) == (0, 0)

    def test_error_rate_monotone_in_codebook_size(self):
        # moderate SNR, short blocks: adding codewords can only hurt
        lam, n, trials = 0.5, 6, 2000
        bob = ServiceModel.exponential(1.0)
        rates = []
        for bits in (4, 6, 8, 10):
            book = generate_codebook(n, bits, 0, 0, arrival_rate=lam, seed=16)
            rng = np.random.default_rng(17)
            errors = 0
            for _ in range(trials):
                w = int(rng.integers(book.num_messages))
                tx = encode(book, w, 0, rng)
                dep = simulate_channel(tx.arrival_epochs, bob, rng)
                if decode(book, dep, 0, bob).message != w:
                    errors += 1
            rates.append(errors / trials)
        se = math.sqrt(0.25 / trials)
        assert all(b >= a - 2 * se for a, b in zip(rates, rates[1:])), rates

    def test_key_and_length_validation(self):
        book = small_book()
        dep = np.arange(1.0, 17.0)
        with pytest.raises(StructuralError):
            decode(book, dep, 4, BOB)
        with pytest.raises(StructuralError):
            decode(book, np.ones(4), 0, BOB)


class TestErrorBounds:
    def test_bracket_orders_and_limits(self):
        rng = np.random.default_rng(18)
        lam, mu1, n = 0.5, 1.0, 100
        samples = sample_info_densities(n, lam, ServiceModel.exponential(mu1), 400, rng)
        kappa = mm1_log_output_ratio_bound(lam, mu1)
        lo_bits = 10   # well under n * ln2 / ln2 ... deep inside capacity
        hi_bits = 160  # far above capacity
        lo = random_coding_error_bounds(samples, n, lo_bits, kappa)
        hi = random_coding_error_bounds(samples, n, hi_bits, kappa)
        assert 0.0 <= lo.lower <= lo.upper <= 1.0
        assert lo.upper < 0.1
        assert hi.lower > 0.9
        # more messages can only increase both bounds
        assert hi.upper >= lo.upper and hi.lower >= lo.lower

    def test_upper_bound_tracks_empirical_error_for_tiny_books(self):
        # at bits small enough to enumerate, the certified upper bound must
        # sit above the measured ML error
        lam, mu1, n, trials = 0.5, 1.0, 30, 800
        bob = ServiceModel.exponential(mu1)
        book = generate_codebook(n, 3, 0, 0, arrival_rate=lam, seed=19)
        rng = np.random.default_rng(20)
        errors = 0
        for _ in range(trials):
            w = int(rng.integers(book.num_messages))
            tx = encode(book, w, 0, rng)
            dep = simulate_channel(tx.arrival_epochs, bob, rng)
            if decode(book, dep, 0, bob).message != w:
                errors += 1
        empirical = errors / trials
        samples = sample_info_densities(n, lam, bob, 800, np.random.default_rng(21))
        bounds = random_coding_error_bounds(samples, n, 3, mm1_log_output_ratio_bound(lam, mu1))
        slack = 3 * math.sqrt(0.25 / trials)
        assert empirical <= bounds.upper + slack
        assert empirical >= bounds.lower - slack

    def test_input_validation(self):
        with pytest.raises(StructuralError):
            random_coding_error_bounds(np.empty(0), 10, 4, 0.5)
        with pytest.raises(ParameterError):
            random_coding_error_bounds(np.ones(5), 10, -1, 0.5)
        with pytest.raises(InstabilityError):
            mm1_log_output_ratio_bound(1.0, 1.0)
