"""Random exponential codebooks, encoding, and maximum-likelihood decoding.

A codebook holds 2^(bits_message + bits_dummy + bits_key) codewords, each an
i.i.d. Exp(arrival_rate) gap sequence of length n.  The gaps are drawn in the
flat index order

    index(w, wt, k) = (w * 2^bits_dummy + wt) * 2^bits_key + k

but only their running sums are stored: the arrival epochs, key-major, in
column k * 2^(bits_message + bits_dummy) + w * 2^bits_dummy + wt, so the
decoder's key-k sub-codebook is a contiguous key block.  A codeword's gaps are
differenced from its epoch column when it is sent: by ``encode``, or a block
at a time by ``Codebook.send``.  The decoder searches the sub-codebook
exhaustively for the (message, dummy) pair maximizing the conditional log
density of the observed departures, breaking ties toward the smallest index.
``decode_block`` decodes many observations into arrays: those sent under one
key share one scan of its key block, in the (observation group x column tile)
units of ``laws.reduce_tiles``, whose per-tile argmax partials are
folded over the tile axis; ``decode`` is its one-observation call.
Sizes, counts and the arrival rate follow ``queueing``'s count and rate rules,
and ``decode_block`` checks its departures with its gap rule, once per call.

Enumeration is capped at 2^20 codewords and 2^28 cells (n x codewords).
Beyond the cap, decoding performance is certified by two-sided
information-spectrum bounds on the random-codebook ML error
(``random_coding_error_bounds``) instead of by simulation.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    OutputError,
    ParameterError,
    ResourceLimitError,
    StructuralError,
)
from .laws import reduce_tiles
from .queueing import (BLOCK_CELLS, ServiceModel, _as_times, _check_count, _check_rate,
                       _is_number, _running_sum)

__all__ = [
    "CODEBOOK_CAP_BITS",
    "Codebook",
    "generate_codebook",
    "save_codebook_spec",
    "load_codebook",
    "Transmission",
    "encode",
    "DecodeResult",
    "decode",
    "decode_block",
    "DecodingErrorBounds",
    "random_coding_error_bounds",
    "mm1_log_output_ratio_bound",
]

CODEBOOK_CAP_BITS = 20  # log2 of the most codewords a book may have
_MAX_CELLS_BITS = 28  # log2 of n x codewords: a float64 book of at most 2 GB

_FORMAT_TAG = "covertq-codebook"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Codebook:
    """Dense random codebook, stored as its codewords' arrival epochs."""

    n: int
    bits_message: int
    bits_dummy: int
    bits_key: int
    arrival_rate: float
    seed: int
    # (n, total), packet-major for column scans; key-major columns, so key k's
    # (message, dummy) pairs are the contiguous key block [k * pairs, (k+1) * pairs)
    arrival_epochs: np.ndarray

    @property
    def total(self) -> int:
        return 1 << (self.bits_message + self.bits_dummy + self.bits_key)

    @property
    def num_messages(self) -> int:
        return 1 << self.bits_message

    @property
    def num_dummies(self) -> int:
        return 1 << self.bits_dummy

    @property
    def num_keys(self) -> int:
        return 1 << self.bits_key

    @property
    def num_pairs(self) -> int:
        """(message, dummy) pairs per key: the width of one key block."""
        return 1 << (self.bits_message + self.bits_dummy)

    def index(self, w: int, wt: int, k: int) -> int:
        """Position of codeword (w, wt, k) in the order its gaps are drawn."""
        self._check_indices(w, wt, k)
        return (w * self.num_dummies + wt) * self.num_keys + k

    def column(self, w: int, wt: int, k: int) -> int:
        """Column of codeword (w, wt, k) in ``arrival_epochs``."""
        self._check_indices(w, wt, k)
        return k * self.num_pairs + w * self.num_dummies + wt

    def codeword(self, w: int, wt: int, k: int) -> np.ndarray:
        """The gaps of codeword (w, wt, k), differenced from its epoch column.

        They can differ from the drawn gaps in the last ulp, but their running
        sum is the column bit for bit: each epoch is b = fl(a + g) for the
        epoch a before it and a gap g >= 0, and then fl(a + fl(b - a)) = b.
        """
        epochs = self.arrival_epochs[:, self.column(w, wt, k)]
        return np.diff(epochs, prepend=0.0)

    def draw_dummy(self, rng: np.random.Generator) -> int:
        """A uniform dummy index; nothing is drawn when there are no dummy bits."""
        return int(rng.integers(self.num_dummies)) if self.bits_dummy > 0 else 0

    def send(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        """``count`` transmissions, each drawing a uniform message, a uniform key,
        then ``draw_dummy`` (``encode``'s draws).  Returns their ``(messages,
        dummies, keys)`` and their codewords' packet-major ``(n, count)`` gaps."""
        sent = [(int(rng.integers(self.num_messages)), int(rng.integers(self.num_keys)),
                 self.draw_dummy(rng)) for _ in range(_check_count("count", count, 0))]
        messages, keys, dummies = np.array(sent, dtype=np.int64).reshape(-1, 3).T
        columns = keys * self.num_pairs + (messages << self.bits_dummy) + dummies
        return messages, dummies, keys, np.diff(self.arrival_epochs[:, columns], axis=0,
                                                prepend=0.0)

    def _check_indices(self, w: int, wt: int, k: int):
        if not (0 <= w < self.num_messages):
            raise StructuralError(f"message index {w} out of range [0, {self.num_messages})")
        if not (0 <= wt < self.num_dummies):
            raise StructuralError(f"dummy index {wt} out of range [0, {self.num_dummies})")
        if not (0 <= k < self.num_keys):
            raise StructuralError(f"key index {k} out of range [0, {self.num_keys})")


def _check_book_size(n: int, total_bits: int):
    """Refuse a book of n x 2^total_bits cells past the cap; cells are checked first."""
    if total_bits > _MAX_CELLS_BITS or n << total_bits > 1 << _MAX_CELLS_BITS:
        raise ResourceLimitError(f"a codebook of n={n} x 2^{total_bits} codewords exceeds "
                                 f"the budget of 2^{_MAX_CELLS_BITS} cells")
    if total_bits > CODEBOOK_CAP_BITS:
        raise ResourceLimitError(f"a codebook of 2^{total_bits} codewords exceeds the "
                                 f"enumeration cap of 2^{CODEBOOK_CAP_BITS}")


def generate_codebook(
    n: int,
    bits_message: int,
    bits_dummy: int,
    bits_key: int,
    arrival_rate: float,
    seed: int,
) -> Codebook:
    """Draw the full codebook from the seed.

    Raises the resource-limit error for a book of more than 2^20 codewords or
    2^28 cells; large-rate regimes must use the certified bounds instead of
    enumeration.
    """
    n = _check_count("n", n, 1)
    bits_message = _check_count("bits_message", bits_message, 0)
    bits_dummy = _check_count("bits_dummy", bits_dummy, 0)
    bits_key = _check_count("bits_key", bits_key, 0)
    _check_rate("arrival_rate", arrival_rate)
    _check_book_size(n, bits_message + bits_dummy + bits_key)
    keys, pairs = 1 << bits_key, 1 << (bits_message + bits_dummy)
    rng = np.random.default_rng(seed)
    # The gaps are drawn in flat index order, whole codewords at a time and at
    # most BLOCK_CELLS gaps per chunk (one codeword when n is larger): a chunk
    # is a run of pairs with all their keys, or a run of one pair's keys.  So
    # the stream is consumed as by one (total, n) draw.  Each chunk is summed
    # down its packets straight into its key-major columns.
    per_chunk = max(1, BLOCK_CELLS // n)
    if per_chunk >= keys:
        key_step, pair_step = keys, per_chunk // keys
    else:
        key_step, pair_step = 1 << (per_chunk.bit_length() - 1), 1
    # A gap, or a running sum of gaps, can overflow to inf when the mean gap is
    # near the top of the float range: the last row of epochs, the largest,
    # is checked once, by its maximum (a mask of it would add 1 MB to a 2^20
    # book's peak memory), and the sums run without a warning.
    epochs = np.empty((n, keys, pairs))
    with np.errstate(over="ignore"):
        for p in range(0, pairs, pair_step):
            q = min(p + pair_step, pairs)
            for k in range(0, keys, key_step):
                gaps = rng.exponential(1.0 / arrival_rate, size=(q - p, key_step, n))
                _running_sum(gaps.T, out=epochs[:, k:k + key_step, p:q])
    if not math.isfinite(epochs[-1].max()):
        raise ParameterError(f"codebook epochs overflow the float range within {n} packets: "
                             f"the mean gap 1/arrival_rate is too large")
    epochs = epochs.reshape(n, keys * pairs)
    epochs.setflags(write=False)
    return Codebook(
        n=n,
        bits_message=bits_message,
        bits_dummy=bits_dummy,
        bits_key=bits_key,
        arrival_rate=arrival_rate,
        seed=int(seed),
        arrival_epochs=epochs,
    )


def save_codebook_spec(book: Codebook, path: str):
    """Persist the generating snapshot (never the codewords themselves)."""
    payload = {
        "format": _FORMAT_TAG,
        "version": _FORMAT_VERSION,
        "n": book.n,
        "bits_message": book.bits_message,
        "bits_dummy": book.bits_dummy,
        "bits_key": book.bits_key,
        "arrival_rate": book.arrival_rate,
        "seed": book.seed,
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write codebook snapshot to {path}: {exc}") from exc


def _snapshot_field(payload: dict, name: str, path: str):
    """A snapshot's integer field, or its real ``arrival_rate``, by the
    package's number rule: finite, and never a bool."""
    value = payload.get(name)
    if not _is_number(value, numbers.Real if name == "arrival_rate" else numbers.Integral):
        raise StructuralError(f"codebook snapshot {path}: bad {name} {value!r}")
    return value


def load_codebook(path: str) -> Codebook:
    """Regenerate a codebook from its persisted snapshot."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read codebook snapshot {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise StructuralError(f"{path} is not a codebook snapshot: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_TAG:
        raise StructuralError(f"{path} is not a codebook snapshot")
    version = payload.get("version")
    if version != _FORMAT_VERSION or isinstance(version, bool):
        raise StructuralError(f"unsupported codebook snapshot version {version!r}")
    fields = {name: _snapshot_field(payload, name, path) for name in
              ("n", "bits_message", "bits_dummy", "bits_key", "arrival_rate", "seed")}
    if fields["seed"] < 0:
        raise StructuralError(f"codebook snapshot {path}: bad seed {fields['seed']!r}")
    return generate_codebook(**fields)


@dataclass(frozen=True)
class Transmission:
    """One encoded block: chosen indices and the codeword to play as arrivals."""

    message: int
    dummy: int
    key: int
    codeword: np.ndarray


def encode(book: Codebook, message: int, key: int, rng: np.random.Generator) -> Transmission:
    """Pick a uniform dummy index and look up the codeword for (w, wt, k)."""
    dummy = book.draw_dummy(rng)
    return Transmission(
        message=message,
        dummy=dummy,
        key=key,
        codeword=book.codeword(message, dummy, key),
    )


@dataclass(frozen=True)
class DecodeResult:
    message: int
    dummy: int
    log_likelihood: float
    feasible_count: int

    @property
    def failed(self) -> bool:
        """True when no candidate codeword could have produced the departures."""
        return self.feasible_count == 0


def _argmax_partial(start: int, scores: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row of a unit: its first argmax (as a column of the scan), its
    maximum, and its count of feasible candidates."""
    best = np.argmax(scores, axis=1)  # first occurrence == smallest (w, wt)
    return (start + best, scores[np.arange(best.size), best],
            np.count_nonzero(scores > -np.inf, axis=1))


def decode_block(
    book: Codebook,
    departures: np.ndarray,
    keys,
    model: ServiceModel,
) -> tuple[np.ndarray, ...]:
    """``decode`` of every column of the packet-major ``(n, T)`` departures,
    column j under ``keys[j]``.

    Returns ``DecodeResult``'s fields as (T,) arrays: ``(messages, dummies,
    log_likelihood, feasible)``.  The observations sent under one key are
    scanned together over its key block, in trial order, so each column's
    values are bit for bit the ones ``decode`` gives for that column alone.
    """
    gaps = _as_times(departures, "departures", ndims=(2,))
    keys = np.asarray(keys)
    if gaps.shape[0] != book.n or keys.shape != gaps.shape[1:]:
        raise StructuralError(f"need (n={book.n}, T) departures with (T,) keys, "
                              f"got {gaps.shape} and {keys.shape}")
    if keys.size and not (np.issubdtype(keys.dtype, np.integer)
                          and 0 <= keys.min() and keys.max() < book.num_keys):
        raise StructuralError(f"key indices must be integers in [0, {book.num_keys})")
    pairs = book.num_pairs
    best = np.empty(keys.size, dtype=np.int64)
    top = np.empty(keys.size)
    feasible = np.empty(keys.size, dtype=np.int64)
    for key in sorted(set(keys.tolist())):  # np.unique would import numpy.ma (0.5 MB)
        rows = np.flatnonzero(keys == key)
        block = book.arrival_epochs[:, key * pairs:(key + 1) * pairs]
        tile_best, tile_top, tile_feasible = reduce_tiles(
            block, gaps[:, rows], model, _argmax_partial, (np.int64, np.float64, np.int64))
        # the first tile with the maximum: a strict > fold over tiles keeps it
        first = np.argmax(tile_top, axis=1)
        pick = np.arange(rows.size)
        best[rows], top[rows] = tile_best[pick, first], tile_top[pick, first]
        feasible[rows] = tile_feasible.sum(axis=1)
    return best >> book.bits_dummy, best & (book.num_dummies - 1), top, feasible


def decode(
    book: Codebook,
    departures: np.ndarray,
    key: int,
    model: ServiceModel,
) -> DecodeResult:
    """Exhaustive ML decoding over the key-k sub-codebook.

    Scores every (message, dummy) candidate by the conditional log density of
    the departures given the candidate's arrivals, and returns the argmax with
    first-index (lexicographic) tie-breaking.

    ``departures`` holds the n inter-departure gaps, such as the output of
    ``queueing.simulate_channel`` or a column of ``queueing.simulate_block``.
    Their shape is checked here, and their values (finite, non-negative) by
    ``decode_block``, whose one-column call this is.
    """
    gaps = np.asarray(departures, dtype=np.float64)
    if gaps.shape != (book.n,):
        raise StructuralError(
            f"length mismatch: departures of shape {gaps.shape} vs n={book.n}"
        )
    # decode_block checks the key
    return DecodeResult(*(field[0].item() for field in
                          decode_block(book, gaps[:, None], [key], model)))


def mm1_log_output_ratio_bound(arrival_rate: float, mu1: float) -> float:
    """log of sup_D p_out(D)/q(D) for the exponential-service queue.

    Under no message the stationary output is Poisson(arrival_rate) = q.  The
    codeword-averaged output of the empty-started queue differs from q only
    through the initial state; conditioning the stationary process on an empty
    system at time 0 (probability 1 - lam/mu1) gives

        p_out(D) <= q(D) / (1 - lam/mu1)   for every block D,

    so the log-ratio is bounded by -log(1 - lam/mu1).
    """
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("mu1", mu1)
    if arrival_rate >= mu1:
        raise ParameterError(f"need arrival_rate < mu1, got {arrival_rate} vs {mu1}")
    return -math.log1p(-arrival_rate / mu1)


@dataclass(frozen=True)
class DecodingErrorBounds:
    """Certified bracket on the random-codebook ML message-error rate."""

    upper: float
    lower: float
    message_bits: int
    n: int
    trials: int


def random_coding_error_bounds(
    per_packet_info: np.ndarray,
    n: int,
    message_bits: int,
    log_output_ratio_bound: float,
) -> DecodingErrorBounds:
    """Two-sided bounds on the ML error from information-density samples.

    Parameters
    ----------
    per_packet_info : (trials,) array
        Monte Carlo draws of the per-packet information density of honestly
        generated (codeword, departures) pairs.
    n : block length used to form the draws
    message_bits : log2 of the number of decoder hypotheses
    log_output_ratio_bound : scalar >= 0
        log sup_D p_out(D)/q(D) for the reference measure used in the
        information density (``mm1_log_output_ratio_bound`` for M/M/1).

    Upper bound (achievability): a threshold decoder errs with probability at
    most P[i_n <= T] + (M-1) e^{-T} sup(p/q), for every T; ML can only do
    better.  Minimized over T at the sample points.

    Lower bound (converse): every decoder errs with probability at least
    P[i_n <= log M - gamma] - e^{-gamma}, for every gamma > 0; the bound is
    linear in the codebook, so it survives averaging over the random ensemble.
    """
    samples = np.asarray(per_packet_info, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0 or np.isnan(samples).any():
        raise StructuralError("need a non-empty 1-d array of information densities, "
                              "none NaN (-inf marks an infeasible trial)")
    # sup p/q >= 1 for two densities: a negative log would certify too little
    if not (_is_number(log_output_ratio_bound) and log_output_ratio_bound >= 0):
        raise ParameterError(f"log_output_ratio_bound must be a finite number >= 0, "
                             f"got {log_output_ratio_bound!r}")
    n = _check_count("n", n, 1)
    message_bits = _check_count("message_bits", message_bits, 0)
    i_tot = np.sort(samples * n)
    trials = i_tot.size
    log_m = message_bits * math.log(2.0)

    # upper: value_j = j/N + exp(log M + log kappa - s_j), T just below s_j
    exponent = np.minimum(log_m + log_output_ratio_bound - i_tot, 0.0)
    union = np.exp(exponent)
    upper = float(min(1.0, np.min(np.arange(trials) / trials + union)))

    # lower: value_j = (j+1)/N - exp(s_j - log M), gamma = log M - s_j
    slack = np.exp(np.minimum(i_tot - log_m, 0.0))
    lower = float(max(0.0, np.max((np.arange(trials) + 1.0) / trials - slack)))

    return DecodingErrorBounds(
        upper=upper,
        lower=lower,
        message_bits=message_bits,
        n=n,
        trials=trials,
    )
