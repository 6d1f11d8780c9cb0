"""Channel transition law and information density.

For a FIFO queue fed with inter-arrival gaps A and observed inter-departure
gaps D, the service times are recovered deterministically:

    U_k = max(0, t_k - d_{k-1}),    s_k = D_k - U_k,

with t, d the cumulative arrival/departure epochs.  The conditional density of
D given A is then the product of the service density at the s_k, and it is
-inf exactly when some reconstructed s_k leaves the service law's support
(e.g. a departure before the corresponding arrival).

The reference measure for information densities is the stationary no-message
output: a Poisson process of the arrival rate (Burke's theorem for the
exponential-service queue), i.e. i.i.d. Exp(rate) gaps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, StructuralError
from .queueing import (
    ServiceKind,
    ServiceModel,
    TimeSequence,
    simulate_block,
    trial_blocks,
)

__all__ = [
    "SCAN_TILE",
    "conditional_log_density",
    "conditional_log_density_batch",
    "scan_tiles",
    "poisson_log_density",
    "info_density_sample",
    "sample_info_densities",
]

# Columns per tile of a codebook scan.  At n=4 a tile's epochs (1 MiB) and its
# three work arrays (256 KiB each) stay in a 4 MiB L2 cache across the scan.
SCAN_TILE = 1 << 15


def _reconstruct_services(arrival_gaps: np.ndarray, departure_gaps: np.ndarray) -> np.ndarray:
    """s_k = D_k - max(0, t_k - d_{k-1}) down axis 0, for (n,) or (n, T) gaps."""
    t = np.cumsum(arrival_gaps, axis=0)
    d = np.cumsum(departure_gaps, axis=0)
    dprev = np.empty_like(d)
    dprev[0] = 0.0
    dprev[1:] = d[:-1]
    u = np.maximum(t - dprev, 0.0)
    return departure_gaps - u


def conditional_log_density(
    arrivals: TimeSequence, departures: TimeSequence, model: ServiceModel
) -> float:
    """log p(D | A) under the given service law; -inf for infeasible D."""
    if len(arrivals) != len(departures):
        raise StructuralError(
            f"length mismatch: {len(arrivals)} arrivals vs {len(departures)} departures"
        )
    s = _reconstruct_services(arrivals.values, departures.values)
    return float(model.log_density(s).sum())


def conditional_log_density_batch(
    arrival_epochs: np.ndarray,
    departures: TimeSequence | np.ndarray,
    model: ServiceModel,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """log p(D | A_c) for many candidate arrival sequences at once.

    Parameters
    ----------
    arrival_epochs : (n, C) float array
        Column c holds candidate c's cumulative arrival epochs.  Packet-major
        layout so each per-packet slice is contiguous.
    departures : TimeSequence, or (n,) float array, of inter-departure gaps
    model : ServiceModel with a density
    work : optional (3, W) float array with W >= C
        Scratch space, so that a caller scanning tile after tile allocates
        once.  The scores are then written into ``work[0, :C]``.

    Returns
    -------
    (C,) array of log densities, -inf where infeasible.

    Candidate c needs the service time s_k = d_k - max(t_k, d_{k-1}) for
    packet k, which is negative exactly when t_k > d_k.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    if ta.ndim != 2:
        raise StructuralError(f"arrival epochs must be 2-d, got shape {ta.shape}")
    gaps = np.asarray(departures, dtype=np.float64)
    n = len(gaps)
    if ta.shape[0] != n:
        raise StructuralError(
            f"length mismatch: {ta.shape[0]} packet rows vs {n} departures"
        )
    d = np.cumsum(gaps).tolist()
    count = ta.shape[1]
    if work is None:
        work = np.empty((3, count))
    scores, s, low = work[0, :count], work[1, :count], work[2, :count]
    if model.kind is ServiceKind.EXPONENTIAL:
        # hot path (codebook-sized scans): two accumulators, the sum of the
        # s_k and their minimum, which is negative iff the candidate is infeasible
        rate = model.rate
        np.maximum(ta[0], 0.0, out=scores)
        np.subtract(d[0], scores, out=scores)
        np.copyto(low, scores)
        for k in range(1, n):
            np.maximum(ta[k], d[k - 1], out=s)
            np.subtract(d[k], s, out=s)
            np.add(scores, s, out=scores)
            np.minimum(low, s, out=low)
        np.multiply(scores, -rate, out=scores)
        np.add(scores, n * math.log(rate), out=scores)
        np.copyto(scores, -np.inf, where=low < 0.0)
        return scores
    scores.fill(0.0)
    prev = 0.0
    for k in range(n):
        np.maximum(ta[k], prev, out=s)
        np.subtract(d[k], s, out=s)
        scores += model.log_density(s)
        prev = d[k]
    return scores


def scan_tiles(arrival_epochs: np.ndarray, departures: TimeSequence | np.ndarray,
               model: ServiceModel):
    """Score the candidates in column tiles of ``SCAN_TILE``.

    Yields ``(start, scores)`` where ``scores`` is
    ``conditional_log_density_batch`` of columns ``start:start + len(scores)``.
    A tile's epochs and work arrays stay in cache while its n packets are
    scanned.  All tiles share one work array, so each yielded array is
    overwritten by the next tile: reduce it (in place if useful) first.
    """
    count = arrival_epochs.shape[1]
    work = np.empty((3, min(count, SCAN_TILE)))
    for start in range(0, count, SCAN_TILE):
        tile = arrival_epochs[:, start:start + SCAN_TILE]
        yield start, conditional_log_density_batch(tile, departures, model, work)


def poisson_log_density(gaps: TimeSequence, rate: float) -> float:
    """log of the i.i.d. Exp(rate) product density of the given gaps."""
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ParameterError(f"rate must be positive and finite, got {rate}")
    x = gaps.values
    return float(x.size * math.log(rate) - rate * x.sum())


def info_density_sample(
    arrivals: TimeSequence,
    departures: TimeSequence,
    model: ServiceModel,
    reference_rate: float,
) -> float:
    """Per-packet information density of one block, in nats/packet.

    (1/n) * [log p(D|A; model) - log q(D; Exp(reference_rate) gaps)], or
    -inf when D cannot have been produced from A under the model.
    """
    cond = conditional_log_density(arrivals, departures, model)
    if not math.isfinite(cond):
        return -math.inf
    return (cond - poisson_log_density(departures, reference_rate)) / len(departures)


def sample_info_densities(
    n: int,
    arrival_rate: float,
    model: ServiceModel,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo draws of the per-packet information density.

    Each trial sends a fresh Poisson(arrival_rate) block through the queue and
    scores it against the Exp(arrival_rate) reference.  Returns the
    (trials,)-array of per-packet values, -inf for infeasible trials.

    Trials run in the blocks of ``queueing.trial_blocks``.  Each block draws
    its packet-major (n, T) arrival gaps, then its (n, T) service times, and
    scores trial j exactly as ``info_density_sample`` scores column j, up to
    the order of the two per-trial sums.
    """
    if n < 1:
        raise StructuralError(f"need n >= 1 packets, got {n}")
    if not (arrival_rate > 0.0 and math.isfinite(arrival_rate)):
        raise ParameterError(f"arrival rate must be positive and finite, got {arrival_rate}")
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    log_rate = n * math.log(arrival_rate)
    out = np.empty(trials)
    for block in trial_blocks(n, trials):
        arrivals = rng.exponential(1.0 / arrival_rate, size=(n, block.stop - block.start))
        departures = simulate_block(arrivals, model, rng)
        cond = model.log_density(_reconstruct_services(arrivals, departures)).sum(axis=0)
        ref = log_rate - arrival_rate * departures.sum(axis=0)
        out[block] = (cond - ref) / n  # -inf where cond is
    return out
