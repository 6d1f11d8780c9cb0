"""Channel transition law and information density.

A FIFO queue fed with arrival epochs t and seen at departure epochs d (the
running sums of the gaps A and D) had the service times s_k = d_k -
max(t_k, d_{k-1}), with d_0 = 0.  The conditional density of D given A is the
product of the service density at the s_k: -inf exactly when some s_k leaves
the law's support (e.g. a departure before its arrival).  One kernel,
``conditional_log_density_batch``, scores many candidates at once, against
departures shared by all of them (a codebook scan, for the decoder and the
warden) or against one column of departures each (a block of simulated
trials, for the information density).

The reference measure for information densities is the stationary no-message
output: a Poisson process of the arrival rate (Burke's theorem for the
exponential-service queue), i.e. i.i.d. Exp(rate) gaps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, StructuralError
from .queueing import ServiceKind, ServiceModel, simulate_block, trial_blocks

__all__ = ["SCAN_TILE", "conditional_log_density_batch", "scan_tiles", "poisson_log_density",
           "info_density_sample", "sample_info_densities"]

# Columns per tile of a codebook scan.  At n=4 a tile's epochs (1 MiB) and its
# three work arrays (256 KiB each) stay in a 4 MiB L2 cache across the scan.
SCAN_TILE = 1 << 15


def conditional_log_density_batch(arrival_epochs: np.ndarray, departures, model: ServiceModel,
                                  work: np.ndarray | None = None) -> np.ndarray:
    """log p(D | A_c) for many candidate arrival sequences at once.

    Parameters
    ----------
    arrival_epochs : (n, C) float array
        Column c holds candidate c's cumulative arrival epochs.  Packet-major
        layout so each per-packet slice is contiguous.
    departures : inter-departure gaps: an (n,) float array shared by every
        candidate, or an (n, C) float array whose column c belongs to
        candidate c
    model : ServiceModel with a density
    work : optional (3, W) float array with W >= C
        Scratch space for shared departures, so that a caller scanning tile
        after tile allocates once.  The scores are then written into
        ``work[0, :C]``.

    Returns
    -------
    (C,) array of log densities, -inf where infeasible.

    Candidate c needs the service time s_k = d_k - max(t_k, d_{k-1}) for
    packet k, which is negative exactly when t_k > d_k.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    gaps = np.asarray(departures, dtype=np.float64)
    if ta.ndim != 2 or gaps.shape not in (ta.shape[:1], ta.shape):
        raise StructuralError(f"need (n, C) arrival epochs with (n,) or (n, C) departures, "
                              f"got {ta.shape} and {gaps.shape}")
    n, count = ta.shape
    if gaps.ndim == 2:
        # one pass over the whole block: every s_k, then the density's sum
        d = np.cumsum(gaps, axis=0)
        prev = np.zeros_like(d)
        prev[1:] = d[:-1]
        return model.log_density(d - np.maximum(ta, prev)).sum(axis=0)
    # shared departures (codebook-sized scans): one (C,) row of s_k per packet
    d = np.cumsum(gaps).tolist()
    if work is None:
        work = np.empty((3, count))
    scores, s, low = work[0, :count], work[1, :count], work[2, :count]
    if model.kind is not ServiceKind.EXPONENTIAL:
        # the rows' log densities, added in the order of the block formula's sum
        np.copyto(scores, model.log_density(d[0] - np.maximum(ta[0], 0.0)))
        for k in range(1, n):
            np.maximum(ta[k], d[k - 1], out=s)
            np.subtract(d[k], s, out=s)
            np.add(scores, model.log_density(s), out=scores)
        return scores
    # exponential: two accumulators, the sum of the s_k and their minimum,
    # which is negative iff the candidate is infeasible
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


def scan_tiles(arrival_epochs: np.ndarray, departures: np.ndarray, model: ServiceModel):
    """Score the candidates in column tiles of ``SCAN_TILE``.

    Yields ``(start, scores)`` where ``scores`` is
    ``conditional_log_density_batch`` of columns ``start:start + len(scores)``
    against the shared ``departures``.  A tile's epochs and work arrays stay
    in cache while its n packets are scanned.  All tiles share one work
    array, so each yielded array may be overwritten by the next tile: reduce
    it (in place if useful) first.
    """
    count = arrival_epochs.shape[1]
    work = np.empty((3, min(count, SCAN_TILE)))
    for start in range(0, count, SCAN_TILE):
        tile = arrival_epochs[:, start:start + SCAN_TILE]
        yield start, conditional_log_density_batch(tile, departures, model, work)


def poisson_log_density(gaps, rate: float):
    """log of the i.i.d. Exp(rate) product density of the gaps down axis 0.

    A float for (n,) gaps, a (T,) array for packet-major (n, T) gaps.
    """
    if not (rate > 0.0 and math.isfinite(rate)):
        raise ParameterError(f"rate must be positive and finite, got {rate}")
    x = np.asarray(gaps, dtype=np.float64)
    return x.shape[0] * math.log(rate) - rate * x.sum(axis=0)


def info_density_sample(arrivals, departures, model: ServiceModel, reference_rate: float):
    """Per-packet information density, in nats/packet, of blocks of gaps.

    (1/n) * [log p(D|A; model) - log q(D; Exp(reference_rate) gaps)], or
    -inf when D cannot have been produced from A under the model.  The
    arrival and departure gaps share one shape: (n,) for one block, which
    gives a float, or packet-major (n, T) for T blocks, which gives a (T,)
    array.  Each block is one column of the kernel.
    """
    a = np.asarray(arrivals, dtype=np.float64)
    gaps = np.asarray(departures, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape != gaps.shape or a.size == 0:
        raise StructuralError(f"need non-empty (n,) or (n, T) gaps of one shape, "
                              f"got {a.shape} and {gaps.shape}")
    n = a.shape[0]
    cond = conditional_log_density_batch(
        np.cumsum(a, axis=0).reshape(n, -1), gaps.reshape(n, -1), model
    )
    density = (cond - poisson_log_density(gaps, reference_rate)) / n  # -inf where cond is
    return float(density[0]) if a.ndim == 1 else density


def sample_info_densities(n: int, arrival_rate: float, model: ServiceModel, trials: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the per-packet information density.

    Each trial sends a fresh Poisson(arrival_rate) block through the queue and
    scores it against the Exp(arrival_rate) reference.  Returns the
    (trials,)-array of per-packet values, -inf for infeasible trials.

    Trials run in the blocks of ``queueing.trial_blocks``.  Each block draws
    its packet-major (n, T) arrival gaps, then its (n, T) service times, and
    is scored by one ``info_density_sample`` call, one column per trial.
    """
    if n < 1:
        raise StructuralError(f"need n >= 1 packets, got {n}")
    if not (arrival_rate > 0.0 and math.isfinite(arrival_rate)):
        raise ParameterError(f"arrival rate must be positive and finite, got {arrival_rate}")
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    out = np.empty(trials)
    for block in trial_blocks(n, trials):
        arrivals = rng.exponential(1.0 / arrival_rate, size=(n, block.stop - block.start))
        departures = simulate_block(arrivals, model, rng)
        out[block] = info_density_sample(arrivals, departures, model, arrival_rate)
    return out
