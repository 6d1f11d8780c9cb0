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
The units are shared out to one thread per CPU, and each unit's partials land
in ``(T, tiles)`` arrays, 8 bytes per field per (observation, tile).  A
score's bits depend on neither g nor the thread count.

The reference measure for information densities is the stationary no-message
output: a Poisson process of the arrival rate (Burke's theorem for the
exponential-service queue), i.e. i.i.d. Exp(rate) gaps.

Rates, counts and gaps follow ``queueing``'s three rules, checked once per
call of ``poisson_log_density``, ``info_density_sample`` and
``sample_info_densities``.  The kernel and ``reduce_tiles`` run once per unit
of a scan and check shapes only.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import StructuralError
from .queueing import (ServiceKind, ServiceModel, _as_times, _check_count, _check_rate,
                       simulate_block, trial_blocks)

__all__ = ["SCAN_TILE", "conditional_log_density_batch", "scan_threads", "reduce_tiles",
           "poisson_log_density", "info_density_sample", "sample_info_densities"]

# Columns per tile of a codebook scan, and scores per unit of work.  At n=4 a
# unit's three work arrays (512 KiB each) stay in a 2 MiB L2 cache while its
# epochs stream past.  Each ufunc call of a threaded scan reacquires the GIL,
# so a unit half this size scaled worse on two threads.
SCAN_TILE = 1 << 16


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
                 reduce, dtypes) -> tuple[np.ndarray, ...]:
    """``reduce``'s partials of every (observation, column tile) pair, as one
    ``(T, tiles)`` array per field, of the given ``dtypes``.

    ``departures`` holds T observations, packet-major ``(n, T)``.  They are
    scored in groups of g = max(1, SCAN_TILE // tile width) consecutive
    columns, and the ``SCAN_TILE``-column tiles of the book one at a time:
    ``scores`` is the ``(g, width)`` block of ``conditional_log_density_batch``
    for the group's observations against columns ``start:start + width``
    (the last group may hold fewer).  It lives in a work array that the next
    unit overwrites, so ``reduce(start, scores)`` returns one ``(g,)`` array
    per field (and may reduce in place), which lands at the unit's rows of
    column ``start // SCAN_TILE``.  A unit's epochs and work arrays stay in
    cache while its n packets are scanned.  The shapes are checked at the
    call.  The result holds 8 bytes per field per (observation, tile), and a
    book within the codebook cap has at most 16 tiles.

    The (group, tile) units are handed out one at a time to ``scan_threads()``
    threads, each with its own work array of at most 3 x ``SCAN_TILE``
    floats; numpy releases the GIL inside the kernel's ufuncs.  The calling
    thread is one of them, so a scan of one unit starts no thread.  The other
    threads start and end within the call: a pool kept between calls would be
    inherited without its threads by the forked workers of ``harness.run``.
    An exception in a thread is raised on the calling thread: the one from
    the earliest unit when several units fail.  Every thread handles
    floating-point errors as the calling thread does.
    """
    ta = arrival_epochs
    if ta.ndim != 2 or ta.shape[1] == 0 or np.ndim(departures) != 2 \
            or departures.shape[0] != ta.shape[0]:
        raise StructuralError(f"need (n, C) arrival epochs, C >= 1, with (n, T) departures, "
                              f"got {ta.shape} and {np.shape(departures)}")
    observations = departures.shape[1]
    width = min(ta.shape[1], SCAN_TILE)
    group = max(1, SCAN_TILE // width)
    tiles = -(-ta.shape[1] // SCAN_TILE)
    units = -(-observations // group) * tiles
    partials = tuple(np.empty((observations, tiles), dtype=dtype) for dtype in dtypes)
    works = np.empty((max(1, min(scan_threads(), units)), 3,
                      min(observations, group) * width))
    caller_errstate = np.geterr()  # a new thread would start with numpy's default
    errors = {}
    order = iter(range(units))  # shared: a stalled thread holds up one unit
    lock = threading.Lock()

    def scan(work):
        with np.errstate(**caller_errstate):
            while True:
                with lock:
                    i = None if errors else next(order, None)
                if i is None:
                    return
                try:
                    first, tile = i // tiles * group, i % tiles
                    start = tile * SCAN_TILE
                    scores = conditional_log_density_batch(
                        ta[:, start:start + SCAN_TILE],
                        departures[:, first:first + group, None], model, work)
                    for out, field in zip(partials, reduce(start, scores)):
                        out[first:first + group, tile] = field
                except BaseException as exc:  # raised on the calling thread below
                    errors[i] = exc
                    return

    pool = [threading.Thread(target=scan, args=(work,)) for work in works[1:]]
    for thread in pool:
        thread.start()
    scan(works[0])  # the calling thread is one of the scan's threads
    for thread in pool:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return partials


def poisson_log_density(gaps, rate: float):
    """log of the i.i.d. Exp(rate) product density of the gaps down axis 0.

    A float for (n,) gaps, a (T,) array for packet-major (n, T) gaps.
    """
    _check_rate("rate", rate)
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
    a = _as_times(arrivals, "arrival gaps", ndims=(1, 2))
    gaps = _as_times(departures, "departures", ndims=(1, 2))
    if a.shape != gaps.shape:
        raise StructuralError(f"need (n,) or (n, T) gaps of one shape, "
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
    n = _check_count("n", n, 1)
    _check_rate("arrival_rate", arrival_rate)
    trials = _check_count("trials", trials, 1)
    out = np.empty(trials)
    for block in trial_blocks(n, trials):
        arrivals = rng.exponential(1.0 / arrival_rate, size=(n, block.stop - block.start))
        departures = simulate_block(arrivals, model, rng)
        out[block] = info_density_sample(arrivals, departures, model, arrival_rate)
    return out
