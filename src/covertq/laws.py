"""Channel transition law and information density.

A FIFO queue fed with arrival epochs t and seen at departure epochs d (the
running sums of the gaps A and D) had the service times s_k = d_k -
max(t_k, d_{k-1}), with d_0 = 0.  The conditional density of D given A is the
product of the service density at the s_k: -inf exactly when some s_k leaves
the law's support (e.g. a departure before its arrival).  One kernel,
``conditional_log_density_batch``, scores many candidates at once, against
observed departures shared by all of them (a codebook scan, for the decoder
and the warden) or against one column of departures each (a block of
simulated trials, for the information density).

A codebook scan (``reduce_tiles``) works in units of g observations x one
column tile of the book, with g = max(1, SCAN_TILE // tile width): every unit
holds at most ``SCAN_TILE`` scores, so it stays in cache, and a narrow book
scores thousands of observations per ufunc call where a wide one keeps one.
The units are shared out to one thread per CPU, in waves of a bounded number
of partials.  A score's bits depend on neither g nor the thread count.

The reference measure for information densities is the stationary no-message
output: a Poisson process of the arrival rate (Burke's theorem for the
exponential-service queue), i.e. i.i.d. Exp(rate) gaps.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator

import numpy as np

from .errors import ParameterError, StructuralError
from .queueing import ServiceKind, ServiceModel, simulate_block, trial_blocks

__all__ = ["SCAN_TILE", "conditional_log_density_batch", "scan_threads", "reduce_tiles",
           "poisson_log_density", "info_density_sample", "sample_info_densities"]

# Columns per tile of a codebook scan, and scores per unit of work.  At n=4 a
# unit's three work arrays (512 KiB each) stay in a 2 MiB L2 cache while its
# epochs stream past.  Each ufunc call of a threaded scan reacquires the GIL,
# so a unit half this size scaled worse on two threads.
SCAN_TILE = 1 << 16

# (observation, tile) partials that a scan holds at once, about 1 MB of them
_WAVE_PARTIALS = 1 << 12


def conditional_log_density_batch(arrival_epochs: np.ndarray, departures, model: ServiceModel,
                                  work: np.ndarray | None = None) -> np.ndarray:
    """log p(D | A_c) for many candidate arrival sequences at once.

    Parameters
    ----------
    arrival_epochs : (n, C) float array
        Column c holds candidate c's cumulative arrival epochs.  Packet-major
        layout so each per-packet slice is contiguous.
    departures : inter-departure gaps, one of
        - (n,): one observation, shared by every candidate;
        - (n, g, 1): g observations, each shared by every candidate (the
          trailing axis broadcasts against the candidates);
        - (n, C): column c belongs to candidate c alone.
    model : ServiceModel with a density
    work : optional (3, W) float array with W >= g * C
        Scratch space for shared departures, so that a caller scanning unit
        after unit allocates once.  The scores are then written into
        ``work[0, :g * C]``.

    Returns
    -------
    Log densities, -inf where infeasible: (C,) for one observation or per
    candidate departures, (g, C) for g observations.

    Candidate c needs the service time s_k = d_k - max(t_k, d_{k-1}) for
    packet k, which is negative exactly when t_k > d_k.  Each (observation,
    candidate) score takes the same operations in the same order for any g.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    gaps = np.asarray(departures, dtype=np.float64)
    if ta.ndim != 2 or not (gaps.shape in (ta.shape[:1], ta.shape)
                            or (gaps.ndim == 3 and gaps.shape[::2] == (ta.shape[0], 1))):
        raise StructuralError(f"need (n, C) arrival epochs with (n,), (n, g, 1) or (n, C) "
                              f"departures, got {ta.shape} and {gaps.shape}")
    n, count = ta.shape
    if gaps.ndim == 2:
        # one pass over the whole block: every s_k, then the density's sum
        d = np.cumsum(gaps, axis=0)
        prev = np.zeros_like(d)
        prev[1:] = d[:-1]
        return model.log_density(d - np.maximum(ta, prev)).sum(axis=0)
    # shared departures (codebook-sized scans): one (g, C) block of s_k per
    # packet, from the (C,) row of epochs and a (g, 1) column of departures
    d = np.cumsum(gaps.reshape(n, -1, 1), axis=0)
    rows = d.shape[1]
    # one observation: (C,) rows and Python floats, the ufunc operands with
    # the least per-call overhead
    shape, d = ((count,), d.ravel().tolist()) if rows == 1 else ((rows, count), d)
    if work is None:
        work = np.empty((3, rows * count))
    scores, s, low = (w[:rows * count].reshape(shape) for w in work)
    if model.kind is not ServiceKind.EXPONENTIAL:
        # the rows' log densities, added in the order of the block formula's sum
        np.copyto(scores, model.log_density(d[0] - np.maximum(ta[0], 0.0)))
        for k in range(1, n):
            np.maximum(ta[k], d[k - 1], out=s)
            np.subtract(d[k], s, out=s)
            np.add(scores, model.log_density(s), out=scores)
    else:
        # exponential: two accumulators, the sum of the s_k and their
        # minimum, which is negative iff the candidate is infeasible
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
    return scores.reshape(rows, count) if gaps.ndim == 3 else scores


def scan_threads() -> int:
    """Threads for a codebook scan: one per CPU this process may run on.

    A module rule, not an option; ``taskset`` limits it.  The results of
    ``reduce_tiles`` do not depend on it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def reduce_tiles(arrival_epochs: np.ndarray, departures: np.ndarray, model: ServiceModel,
                 reduce) -> Iterator[list]:
    """Per observation group, in order, ``[reduce(start, scores) for each column tile]``.

    ``departures`` holds T observations, packet-major ``(n, T)``.  They are
    scored in groups of g = max(1, SCAN_TILE // tile width) consecutive
    columns, and the ``SCAN_TILE``-column tiles of the book one at a time:
    ``scores`` is the ``(g, width)`` block of ``conditional_log_density_batch``
    for the group's observations against columns ``start:start + width``
    (the last group may hold fewer).  It lives in a work array that the next
    unit overwrites, so ``reduce`` returns small partials, one per row (and
    may reduce in place).  A unit's epochs and work arrays stay in cache while
    its n packets are scanned.  The result is an iterator over the groups, in
    observation order, each a list of its partials in tile order.  The shapes
    are checked at the call.

    The groups are scanned in waves of about ``_WAVE_PARTIALS`` partials (at
    least one group per thread), so the memory a scan holds does not grow
    with T or the width of the book.
    A wave's (group, tile) units are handed out one at a time to
    ``scan_threads()`` threads, each with its own work array of at most
    3 x ``SCAN_TILE`` floats; numpy releases the GIL inside the kernel's
    ufuncs.  The calling thread is one of them, so a scan of one unit starts
    no thread.  The other threads start and end within the wave: a pool kept
    between calls would be inherited without its threads by the forked
    workers of ``harness.run``.  An exception in a thread is raised on the
    calling thread: the one from the earliest unit when several units fail.
    """
    ta = arrival_epochs
    if ta.ndim != 2 or ta.shape[1] == 0 or np.ndim(departures) != 2 \
            or departures.shape[0] != ta.shape[0]:
        raise StructuralError(f"need (n, C) arrival epochs, C >= 1, with (n, T) departures, "
                              f"got {ta.shape} and {np.shape(departures)}")
    width = min(ta.shape[1], SCAN_TILE)
    group = max(1, SCAN_TILE // width)
    tiles = -(-ta.shape[1] // SCAN_TILE)
    threads = max(1, min(scan_threads(), -(-departures.shape[1] // group) * tiles))
    # at least one group per thread, whatever the book's width
    wave = group * max(threads, _WAVE_PARTIALS // (group * tiles))
    works = np.empty((threads, 3, min(departures.shape[1], group) * width))

    def scan_wave(wave_departures):
        units = -(-wave_departures.shape[1] // group) * tiles
        partials, errors = [None] * units, {}
        order = iter(range(units))  # shared: a stalled thread holds up one unit
        lock = threading.Lock()

        def scan(work):
            while True:
                with lock:
                    i = None if errors else next(order, None)
                if i is None:
                    return
                try:
                    first, start = i // tiles * group, i % tiles * SCAN_TILE
                    scores = conditional_log_density_batch(
                        ta[:, start:start + SCAN_TILE],
                        wave_departures[:, first:first + group, None], model, work)
                    partials[i] = reduce(start, scores)
                except BaseException as exc:  # raised on the calling thread below
                    errors[i] = exc
                    return

        pool = [threading.Thread(target=scan, args=(work,)) for work in works[1:units]]
        for thread in pool:
            thread.start()
        scan(works[0])  # the calling thread is one of the scan's threads
        for thread in pool:
            thread.join()
        if errors:
            raise errors[min(errors)]
        return [partials[i:i + tiles] for i in range(0, units, tiles)]

    def waves():
        for first in range(0, departures.shape[1], wave):
            yield from scan_wave(departures[:, first:first + wave])

    return waves()


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
