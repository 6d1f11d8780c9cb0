"""Random exponential codebooks, encoding, and maximum-likelihood decoding.

A codebook holds 2^(bits_message + bits_dummy + bits_key) codewords, each an
i.i.d. Exp(arrival_rate) gap sequence of length n.  Codeword (w, wt, k) is
column k * 2^(bits_message + bits_dummy) + w * 2^bits_dummy + wt, key-major,
so the decoder's key-k sub-codebook is a contiguous key block.  The gaps are
drawn in that column order, one codeword after another, and only their
running sums are stored: the arrival epochs.  ``encode`` sends a codeword's
epoch column, and ``Codebook.send`` gathers a block of epoch columns, as they
are.  The decoder searches the sub-codebook exhaustively for the (message,
dummy) pair maximizing the conditional log density of the observed
departures, breaking ties toward the smallest index.
``decode`` takes one observation or many: those sent under one key share one
scan of its key block, in the (observation group x column tile) units of
``laws.reduce_tiles``, whose per-tile argmax partials are folded over the
tile axis.
A ``Codebook`` checks itself when built, by one rule (``_book_fields``, which
``generate_codebook`` also applies before it allocates): n >= 1, widths >= 0,
the arrival rate by ``queueing``'s rate rule and a seed that is an integer
>= 0, else ``ParameterError``; at most the cap, else ``ResourceLimitError``;
float64 ``arrival_epochs`` of shape (n, total), else ``StructuralError``.
The rule reads metadata only, never the epochs' values.
``decode`` checks its departure epochs and keys once per call and hands them
to ``_decode``, the unchecked core the decode sweep runs on the queue's
epochs.

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
from .queueing import (BLOCK_CELLS, ServiceModel, _as_epochs, _check_count, _check_rate,
                       _check_stable, _exponential_gaps, _is_number, _running_sum)

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
    "DecodingErrorBounds",
    "random_coding_error_bounds",
    "mm1_log_output_ratio_bound",
]

CODEBOOK_CAP_BITS = 20  # log2 of the most codewords a book may have
_MAX_CELLS_BITS = 28  # log2 of n x codewords: a float64 book of at most 2 GB

_FORMAT_TAG = "covertq-codebook"
_FORMAT_VERSION = 2  # version 1 drew its gaps in another order
_BOOK_FIELDS = ("n", "bits_message", "bits_dummy", "bits_key", "arrival_rate", "seed")


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

    def __post_init__(self):
        fields = _book_fields(*(getattr(self, name) for name in _BOOK_FIELDS))
        for name, value in zip(_BOOK_FIELDS, fields):
            object.__setattr__(self, name, value)
        epochs = self.arrival_epochs
        if not (isinstance(epochs, np.ndarray) and epochs.dtype == np.float64
                and epochs.shape == (self.n, self.total)):
            raise StructuralError(f"arrival_epochs must be float64 of shape ({self.n}, "
                                  f"{self.total}), got {getattr(epochs, 'dtype', type(epochs))} "
                                  f"of shape {np.shape(epochs)}")

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

    def column(self, w: int, wt: int, k: int) -> int:
        """Column of codeword (w, wt, k) in ``arrival_epochs``, for indices that
        are integers (numpy's too, never a bool) in range."""
        for name, index, high in (("message", w, self.num_messages),
                                  ("dummy", wt, self.num_dummies), ("key", k, self.num_keys)):
            if not (_is_number(index, numbers.Integral) and 0 <= index < high):
                raise StructuralError(f"{name} index must be an integer in [0, {high}), "
                                      f"got {index!r}")
        return int(k) * self.num_pairs + int(w) * self.num_dummies + int(wt)

    def send(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        """``count`` transmissions: ``count`` uniform messages, then as many
        uniform keys, then as many uniform dummies (none are drawn when there
        are no dummy bits).  Returns their ``(messages, dummies, keys)`` and
        their codewords' packet-major ``(n, count)`` arrival epochs, a gather of
        their columns."""
        count = _check_count("count", count, 0)
        messages, keys, dummies = (rng.integers(high, size=count) for high in
                                   (self.num_messages, self.num_keys, self.num_dummies))
        columns = keys * self.num_pairs + (messages << self.bits_dummy) + dummies
        return messages, dummies, keys, self.arrival_epochs[:, columns]


def _check_book_size(n: int, total_bits: int):
    """Refuse a book of n x 2^total_bits cells past the cap; cells are checked first."""
    if total_bits > _MAX_CELLS_BITS or n << total_bits > 1 << _MAX_CELLS_BITS:
        raise ResourceLimitError(f"a codebook of n={n} x 2^{total_bits} codewords exceeds "
                                 f"the budget of 2^{_MAX_CELLS_BITS} cells")
    if total_bits > CODEBOOK_CAP_BITS:
        raise ResourceLimitError(f"a codebook of 2^{total_bits} codewords exceeds the "
                                 f"enumeration cap of 2^{CODEBOOK_CAP_BITS}")


def _book_fields(n, bits_message, bits_dummy, bits_key, arrival_rate, seed) -> tuple:
    """The book rule on every field but the epochs: the counts and the seed as
    Python ints and the rate as a Python float, in ``_BOOK_FIELDS`` order."""
    n = _check_count("n", n, 1)
    widths = [_check_count(name, value, 0) for name, value in
              zip(_BOOK_FIELDS[1:4], (bits_message, bits_dummy, bits_key))]
    _check_rate("arrival_rate", arrival_rate)
    seed = _check_count("seed", seed, 0)
    _check_book_size(n, sum(widths))
    return (n, *widths, float(arrival_rate), seed)


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
    n, bits_message, bits_dummy, bits_key, arrival_rate, seed = _book_fields(
        n, bits_message, bits_dummy, bits_key, arrival_rate, seed)
    total = 1 << (bits_message + bits_dummy + bits_key)
    rng = np.random.default_rng(seed)
    # Whole codewords are drawn in column order, at most BLOCK_CELLS gaps per
    # chunk (one codeword when n is larger), so the stream is consumed as by
    # one (total, n) draw.  Each chunk is summed down its packets straight
    # into its columns.
    step = max(1, BLOCK_CELLS // n)
    # A gap, or a running sum of gaps, can overflow to inf when the mean gap is
    # near the top of the float range: the last row of epochs, the largest,
    # is checked once, by its maximum (a mask of it would add 1 MB to a 2^20
    # book's peak memory), and the sums run without a warning.
    epochs = np.empty((n, total))
    # every chunk's draws, a short last chunk in its first rows
    gaps = np.empty((min(step, total), n))
    with np.errstate(over="ignore"):
        for c in range(0, total, step):
            chunk = _exponential_gaps(rng, arrival_rate, gaps[:min(step, total - c)])
            _running_sum(chunk.T, out=epochs[:, c:c + step])
    if not math.isfinite(epochs[-1].max()):
        raise ParameterError(f"codebook epochs overflow the float range within {n} packets: "
                             f"the mean gap 1/arrival_rate is too large")
    epochs.setflags(write=False)
    return Codebook(n, bits_message, bits_dummy, bits_key, arrival_rate, seed, epochs)


def save_codebook_spec(book: Codebook, path: str):
    """Persist the generating snapshot (never the codewords themselves)."""
    payload = {"format": _FORMAT_TAG, "version": _FORMAT_VERSION,
               **{name: getattr(book, name) for name in _BOOK_FIELDS}}
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(f"cannot write codebook snapshot to {path}: {exc}") from exc


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
    try:
        return generate_codebook(*(payload.get(name) for name in _BOOK_FIELDS))
    except ParameterError as exc:
        raise StructuralError(f"codebook snapshot {path}: {exc}") from exc


@dataclass(frozen=True)
class Transmission:
    """One encoded block: chosen indices and the codeword's arrival epochs."""

    message: int
    dummy: int
    key: int
    arrival_epochs: np.ndarray


def encode(book: Codebook, message: int, key: int, rng: np.random.Generator) -> Transmission:
    """Pick a uniform dummy index (nothing is drawn when there are no dummy
    bits) and look up the epochs of codeword (w, wt, k)."""
    dummy = int(rng.integers(book.num_dummies))
    column = book.column(message, dummy, key)  # checks the indices
    return Transmission(int(message), dummy, int(key), book.arrival_epochs[:, column])


@dataclass(frozen=True)
class DecodeResult:
    """``decode``'s outcome: Python scalars for one observation, (T,) arrays
    for T."""

    message: int | np.ndarray
    dummy: int | np.ndarray
    log_likelihood: float | np.ndarray
    feasible_count: int | np.ndarray

    @property
    def failed(self):
        """True where no candidate codeword could have produced the departures."""
        return self.feasible_count == 0


def _argmax_partial(start: int, scores: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row of a unit: its first argmax (as a column of the scan), its
    maximum, and its count of feasible candidates."""
    best = np.argmax(scores, axis=1)  # first occurrence == smallest (w, wt)
    return (start + best, scores[np.arange(best.size), best],
            np.count_nonzero(scores > -np.inf, axis=1))


def decode(
    book: Codebook,
    departures: np.ndarray,
    keys,
    model: ServiceModel,
) -> DecodeResult:
    """Exhaustive ML decoding over the key sub-codebooks.

    Scores every (message, dummy) candidate of the key block by the
    conditional log density of the departures given the candidate's
    arrivals, and returns the argmax with first-index (lexicographic)
    tie-breaking, its log likelihood and the count of feasible candidates.

    ``departures`` holds departure epochs, such as ``queueing.simulate_channel``
    returns: ``(n,)`` for one observation under one integer key, giving
    Python scalars, or packet-major ``(n, T)``, column j under ``keys[j]``,
    giving (T,) arrays.  The observations sent under one key are scanned
    together over its key block, in trial order, so each column's values are
    bit for bit the ones the 1-d call gives for that column alone.
    """
    d = _as_epochs(departures, "departure epochs", ndims=(1, 2))
    keys = np.asarray(keys)
    if d.shape[0] != book.n or keys.shape != d.shape[1:]:
        raise StructuralError(f"need (n={book.n},) departure epochs with one key or "
                              f"(n={book.n}, T) with (T,) keys, got {d.shape} and {keys.shape}")
    if keys.size and not (np.issubdtype(keys.dtype, np.integer)
                          and 0 <= keys.min() and keys.max() < book.num_keys):
        raise StructuralError(f"key indices must be integers in [0, {book.num_keys})")
    fields = _decode(book, d.reshape(book.n, -1), keys.reshape(-1), model)
    if d.ndim == 1:
        return DecodeResult(*(field[0].item() for field in fields))
    return DecodeResult(*fields)


def _decode(book: Codebook, d, keys, model: ServiceModel) -> tuple[np.ndarray, ...]:
    """``decode``'s fields of the ``(n, T)`` departure epochs d under the (T,)
    integer keys, as (T,) arrays, unchecked."""
    pairs = book.num_pairs
    best = np.empty(keys.size, dtype=np.int64)
    top = np.empty(keys.size)
    feasible = np.empty(keys.size, dtype=np.int64)
    for key in sorted(set(keys.tolist())):  # np.unique would import numpy.ma (0.5 MB)
        rows = np.flatnonzero(keys == key)
        block = book.arrival_epochs[:, key * pairs:(key + 1) * pairs]
        tile_best, tile_top, tile_feasible = reduce_tiles(
            block, d[:, rows], model, _argmax_partial, (np.int64, np.float64, np.int64))
        # the first tile with the maximum: a strict > fold over tiles keeps it
        first = np.argmax(tile_top, axis=1)
        pick = np.arange(rows.size)
        best[rows], top[rows] = tile_best[pick, first], tile_top[pick, first]
        feasible[rows] = tile_feasible.sum(axis=1)
    return best >> book.bits_dummy, best & (book.num_dummies - 1), top, feasible


def mm1_log_output_ratio_bound(arrival_rate: float, mu1: float) -> float:
    """log of sup_D p_out(D)/q(D) for the exponential-service queue.

    Under no message the stationary output is Poisson(arrival_rate) = q.  The
    codeword-averaged output of the empty-started queue differs from q only
    through the initial state; conditioning the stationary process on an empty
    system at time 0 (probability 1 - lam/mu1) gives

        p_out(D) <= q(D) / (1 - lam/mu1)   for every block D,

    so the log-ratio is bounded by -log(1 - lam/mu1).  An unstable queue,
    arrival_rate >= mu1, has no stationary output: ``InstabilityError``.
    """
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("mu1", mu1)
    _check_stable(arrival_rate, mu1)
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
