"""Random exponential codebooks, encoding, and maximum-likelihood decoding.

A codebook is a dense array of 2^(bits_message + bits_dummy + bits_key)
codewords, each an i.i.d. Exp(arrival_rate) gap sequence of length n.  The
flat index layout is

    index(w, wt, k) = (w * 2^bits_dummy + wt) * 2^bits_key + k

The cached arrival epochs are stored key-major instead: column
k * 2^(bits_message + bits_dummy) + w * 2^bits_dummy + wt, so the decoder's
key-k sub-codebook is a contiguous key block.  The encoder draws the dummy
index uniformly per transmission; the decoder searches the sub-codebook
exhaustively for the (message, dummy) pair maximizing the conditional log
density of the observed departures, breaking ties toward the smallest index.

Enumeration is capped (default 2^20 codewords).  Beyond the cap, decoding
performance is certified by two-sided information-spectrum bounds on the
random-codebook ML error (``random_coding_error_bounds``) instead of by
simulation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    ResourceLimitError,
    StructuralError,
)
from .laws import scan_tiles
from .queueing import ServiceModel, TimeSequence

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

CODEBOOK_CAP_BITS = 20

_FORMAT_TAG = "covertq-codebook"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Codebook:
    """Dense random codebook plus cached cumulative arrival epochs."""

    n: int
    bits_message: int
    bits_dummy: int
    bits_key: int
    arrival_rate: float
    seed: int
    codewords: np.ndarray  # (total, n) gaps, flat index order
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
        self._check_indices(w, wt, k)
        return (w * self.num_dummies + wt) * self.num_keys + k

    def codeword(self, w: int, wt: int, k: int) -> TimeSequence:
        return TimeSequence(self.codewords[self.index(w, wt, k)])

    def _check_indices(self, w: int, wt: int, k: int):
        if not (0 <= w < self.num_messages):
            raise StructuralError(f"message index {w} out of range [0, {self.num_messages})")
        if not (0 <= wt < self.num_dummies):
            raise StructuralError(f"dummy index {wt} out of range [0, {self.num_dummies})")
        if not (0 <= k < self.num_keys):
            raise StructuralError(f"key index {k} out of range [0, {self.num_keys})")


def _check_widths(bits_message: int, bits_dummy: int, bits_key: int):
    for name, b in (
        ("bits_message", bits_message),
        ("bits_dummy", bits_dummy),
        ("bits_key", bits_key),
    ):
        if b != int(b) or b < 0:
            raise ParameterError(f"{name} must be a non-negative integer, got {b}")


def generate_codebook(
    n: int,
    bits_message: int,
    bits_dummy: int,
    bits_key: int,
    arrival_rate: float,
    seed: int,
    max_codewords: int = 1 << CODEBOOK_CAP_BITS,
) -> Codebook:
    """Draw the full codebook from the seed.

    Raises the resource-limit error when the index space exceeds
    ``max_codewords``; large-rate regimes must use the certified bounds
    instead of enumeration.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1 packets, got {n}")
    _check_widths(bits_message, bits_dummy, bits_key)
    if not (arrival_rate > 0.0 and math.isfinite(arrival_rate)):
        raise ParameterError(f"arrival rate must be positive, got {arrival_rate}")
    total_bits = bits_message + bits_dummy + bits_key
    if total_bits >= 63 or (1 << total_bits) > max_codewords:
        raise ResourceLimitError(
            f"codebook of 2^{total_bits} codewords exceeds the enumeration cap "
            f"of {max_codewords}"
        )
    total = 1 << total_bits
    rng = np.random.default_rng(seed)
    codewords = rng.exponential(1.0 / arrival_rate, size=(total, n))
    codewords.setflags(write=False)
    # key-major epochs, summed in place packet by packet in cumsum's order
    gaps = codewords.reshape(1 << (bits_message + bits_dummy), 1 << bits_key, n).T
    epochs = np.empty(gaps.shape)  # (n, keys, pairs)
    epochs[0] = gaps[0]
    for k in range(1, n):
        np.add(epochs[k - 1], gaps[k], out=epochs[k])
    epochs = epochs.reshape(n, total)
    epochs.setflags(write=False)
    return Codebook(
        n=n,
        bits_message=bits_message,
        bits_dummy=bits_dummy,
        bits_key=bits_key,
        arrival_rate=arrival_rate,
        seed=int(seed),
        codewords=codewords,
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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_codebook(path: str, max_codewords: int = 1 << CODEBOOK_CAP_BITS) -> Codebook:
    """Regenerate a codebook from its persisted snapshot."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != _FORMAT_TAG:
        raise StructuralError(f"{path} is not a codebook snapshot")
    if payload.get("version") != _FORMAT_VERSION:
        raise StructuralError(f"unsupported codebook snapshot version {payload.get('version')}")
    return generate_codebook(
        n=payload["n"],
        bits_message=payload["bits_message"],
        bits_dummy=payload["bits_dummy"],
        bits_key=payload["bits_key"],
        arrival_rate=payload["arrival_rate"],
        seed=payload["seed"],
        max_codewords=max_codewords,
    )


@dataclass(frozen=True)
class Transmission:
    """One encoded block: chosen indices and the codeword to play as arrivals."""

    message: int
    dummy: int
    key: int
    codeword: TimeSequence


def encode(book: Codebook, message: int, key: int, rng: np.random.Generator) -> Transmission:
    """Pick a uniform dummy index and look up the codeword for (w, wt, k)."""
    dummy = int(rng.integers(book.num_dummies)) if book.bits_dummy > 0 else 0
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


def decode(
    book: Codebook,
    departures: TimeSequence,
    key: int,
    model: ServiceModel,
) -> DecodeResult:
    """Exhaustive ML decoding over the key-k sub-codebook.

    Scores every (message, dummy) candidate by the conditional log density of
    the departures given the candidate's arrivals, and returns the argmax with
    first-index (lexicographic) tie-breaking.
    """
    if not (0 <= key < book.num_keys):
        raise StructuralError(f"key index {key} out of range [0, {book.num_keys})")
    if len(departures) != book.n:
        raise StructuralError(
            f"length mismatch: {len(departures)} departures vs n={book.n}"
        )
    pairs = book.num_pairs
    block = book.arrival_epochs[:, key * pairs:(key + 1) * pairs]
    best, top, feasible = 0, -math.inf, 0
    for start, scores in scan_tiles(block, departures, model):
        j = int(np.argmax(scores))  # first occurrence == smallest (w, wt)
        if scores[j] > top:  # strict: an earlier tile keeps its ties
            best, top = start + j, float(scores[j])
        feasible += int(np.count_nonzero(scores > -np.inf))
    return DecodeResult(
        message=best >> book.bits_dummy,
        dummy=best & (book.num_dummies - 1),
        log_likelihood=top,
        feasible_count=feasible,
    )


def mm1_log_output_ratio_bound(arrival_rate: float, mu1: float) -> float:
    """log of sup_D p_out(D)/q(D) for the exponential-service queue.

    Under no message the stationary output is Poisson(arrival_rate) = q.  The
    codeword-averaged output of the empty-started queue differs from q only
    through the initial state; conditioning the stationary process on an empty
    system at time 0 (probability 1 - lam/mu1) gives

        p_out(D) <= q(D) / (1 - lam/mu1)   for every block D,

    so the log-ratio is bounded by -log(1 - lam/mu1).
    """
    if not (0.0 < arrival_rate < mu1):
        raise ParameterError(
            f"need 0 < arrival_rate < mu1, got {arrival_rate} vs {mu1}"
        )
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
    log_output_ratio_bound : scalar
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
    if samples.ndim != 1 or samples.size == 0:
        raise StructuralError("need a non-empty 1-d array of information densities")
    if message_bits < 0:
        raise ParameterError(f"message_bits must be >= 0, got {message_bits}")
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
