"""Channel transition law and information density.

A FIFO queue fed with arrival epochs t and seen at departure epochs d had
the service times s_k = d_k - max(t_k, d_{k-1}), with d_0 = 0.  The
conditional density of D given A is the product of the service density at
the s_k: -inf exactly when some s_k leaves the law's support (e.g. a
departure before its arrival).  Candidates are scored in one of two ways.
A codebook scan, for the decoder and the warden, scores every codeword
against observed departures that all of them share: ``reduce_tiles`` is its
one entry.  A block of simulated trials, for the information density,
scores each candidate against its own column of departures:
``conditional_log_density_batch``.

A codebook scan works in units of g observations x one column tile of the
book, with g = max(1, SCAN_TILE // tile width): every unit holds at most
``SCAN_TILE`` scores, so it stays in cache, and a narrow book scores
thousands of observations per ufunc call where a wide one keeps one.  The
units are shared out to one thread per CPU, and each unit's partials land in
``(T, tiles)`` arrays, 8 bytes per field per (observation, tile).  A score's
bits depend on neither g nor the thread count.

A scan takes the departure epochs of its T observations and pays its Python
prologue once per call, not once per unit: it checks shapes and slices each
group's operand (n Python floats for one observation) and each tile's
epochs once; every unit then runs one private core,
``_scan_unit``, which nothing else calls.  The exponential core writes the
-inf of an infeasible candidate without a masked move: min(min_k s_k, 0) *
inf is NaN where the candidate is feasible and -inf where it is not, and
``fmin`` keeps the score beside a NaN, which is ``where(min_k s_k < 0, -inf,
score)`` for every float.  Grouped units (g > 1) whose rows are at least 256
columns wide run, on every scan thread, with a ufunc buffer of one row
(rounded up to a multiple of 16), so that a (g, C) operation with a (g, 1)
operand is not split across rows; each thread gives its old buffer size back
when the scan ends.

The reference measure for information densities is the stationary no-message
output: a Poisson process of the arrival rate (Burke's theorem for the
exponential-service queue), i.e. i.i.d. Exp(rate) gaps, whose density at
departure epochs d is n ln(rate) - rate * d_n.

Rates, counts and epochs follow ``queueing``'s rules, checked once per call
of ``poisson_log_density``, ``info_density_sample`` and
``sample_info_densities``.  ``conditional_log_density_batch`` and
``reduce_tiles`` check shapes only, once per call.

``sample_info_densities`` checks no gap it draws, and scores the services it
drew.  Given the arrivals, the map from services to departures, d_k =
max(d_{k-1}, t_k) + S_k, is one-to-one with unit Jacobian (Anantharam and
Verdu, "Bits through queues", 1996), so log p(D | A) is the sum of the log
density at the drawn S_k.  The sampler walks each block of trials down its
packets in row pieces and runs ``queueing``'s departure recursion only for
d_n, in q(D).  So a trial it draws never scores -inf for the rounding of
its epochs, at any service rate; services formed again from epochs, as
``info_density_sample`` and the codebook scans form them, can leave the
law's support at fast service rates, long before a service is a few ulps of
the epochs: README's paragraph "Services far below the epochs" gives the
measured rates.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import StructuralError
from .queueing import (BLOCK_CELLS, ServiceKind, ServiceModel, _as_epochs, _check_count,
                       _check_rate, _departures, _exponential_gaps)

__all__ = ["SCAN_TILE", "conditional_log_density_batch", "scan_threads", "reduce_tiles",
           "poisson_log_density", "info_density_sample", "sample_info_densities"]

# Columns per tile of a codebook scan, and scores per unit of work.  At n=4 a
# unit's three work arrays (512 KiB each) stay in a 2 MiB L2 cache while its
# epochs stream past.  Each ufunc call of a threaded scan reacquires the GIL,
# so a unit half this size scaled worse on two threads.
SCAN_TILE = 1 << 16
# The narrowest rows of a grouped unit that run with a one-row ufunc buffer:
# 64-column units ran 20% slower with it on one thread.
_ROW_BUFFER_MIN = 256
# Most cells in one row piece of the sampler's draws and scoring, and most
# trials in one of its blocks, which keeps a piece's temporaries in cache and
# out of peak memory: at n=2000 (300 trials), n=1000 (2000) and n=16
# (100000) the sampler ran within 5% of its best at 2^14 cells, up to 27%
# slower at 2^13 and 22-39% slower at 2^16 (best of 5, one shared 2-CPU host).
_PIECE_CELLS = BLOCK_CELLS // 4


def conditional_log_density_batch(arrival_epochs: np.ndarray, departure_epochs: np.ndarray,
                                  model: ServiceModel) -> np.ndarray:
    """log p(D_c | A_c) of many candidates at once, each against its own
    column of departures.

    Parameters
    ----------
    arrival_epochs : (n, C) float array
        Column c holds candidate c's cumulative arrival epochs.
    departure_epochs : (n, C) float array
        Column c holds the departure epochs that candidate c is scored
        against.
    model : ServiceModel

    Returns
    -------
    (C,) log densities, -inf where infeasible.

    Candidate c needs the service time s_k = d_k - max(t_k, d_{k-1}) for
    packet k, which is negative exactly when t_k > d_k.  The block takes one
    pass: every s_k, then the density's sum down the packets.  Candidates
    that share their departures are scored by ``reduce_tiles``.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.asarray(departure_epochs, dtype=np.float64)
    if ta.ndim != 2 or d.shape != ta.shape:
        raise StructuralError(f"need (n, C) arrival epochs with (n, C) departure epochs, "
                              f"got {ta.shape} and {d.shape}")
    s = np.empty_like(d)
    np.maximum(ta[0], 0.0, out=s[0])
    np.maximum(ta[1:], d[:-1], out=s[1:])
    np.subtract(d, s, out=s)
    return model.log_density(s).sum(axis=0)


def _scan_unit(ta: np.ndarray, d, model: ServiceModel, work: np.ndarray) -> np.ndarray:
    """The scores of one unit of ``reduce_tiles``: log p(D | A_c) of every
    column c of the ``(n, C)`` epochs ``ta`` against the cumulative
    departures ``d`` of g observations, an ``(n, g, 1)`` array, or of one,
    as n Python floats.  They are written into ``work[0]`` and returned as
    a (g, C) view, (1, C) for one observation.  Nothing is checked:
    ``reduce_tiles`` checks its shapes once per call.

    Each (observation, candidate) score takes the same operations in the same
    order for any g: one (g, C) block of s_k per packet, from the (C,) row of
    epochs and a (g, 1) column of departures, or a float, which numpy
    broadcasts to the (g, C) output.
    """
    n, count = ta.shape
    rows = 1 if isinstance(d, list) else d.shape[1]
    scores, s, low = (w[:rows * count].reshape(rows, count) for w in work)
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
    least = scores  # s_1 until the loop starts the minimum in ``low``
    for k in range(1, n):
        np.maximum(ta[k], d[k - 1], out=s)
        np.subtract(d[k], s, out=s)
        np.minimum(least, s, out=low)
        least = low
        np.add(scores, s, out=scores)
    # -inf where the minimum is negative, in three SIMD passes where a masked
    # move cannot vectorise: min(least, 0) * inf is NaN where the candidate is
    # feasible and -inf where it is not, and fmin keeps a score beside a NaN
    np.minimum(least, 0.0, out=low)
    np.multiply(scores, -rate, out=scores)
    np.add(scores, n * math.log(rate), out=scores)
    with np.errstate(invalid="ignore"):  # 0 * inf, and fmin beside a NaN
        np.multiply(low, np.inf, out=low)
        return np.fmin(scores, low, out=scores)


def scan_threads() -> int:
    """Threads for a codebook scan: one per CPU this process may run on.

    A module rule, not an option; ``taskset`` limits it.  The results of
    ``reduce_tiles`` do not depend on it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def reduce_tiles(arrival_epochs: np.ndarray, departure_epochs: np.ndarray,
                 model: ServiceModel, reduce, dtypes) -> tuple[np.ndarray, ...]:
    """``reduce``'s partials of every (observation, column tile) pair, as one
    ``(T, tiles)`` array per field, of the given ``dtypes``: the one scan of
    a codebook against observed departures, which all its candidates share.

    ``departure_epochs`` holds the epochs of T observations, packet-major
    ``(n, T)``.  They are scored in groups of g = max(1, SCAN_TILE // tile
    width) consecutive columns, and the ``SCAN_TILE``-column tiles of the
    book one at a time: ``scores`` is the ``(g, width)`` block of
    log p(D_j | A_c) for the group's observations j against columns c in
    ``start:start + width`` (the last group may hold fewer, and a group of
    one observation is a ``(1, width)`` block), -inf where infeasible.  It
    lives in a work array that the next unit overwrites, so
    ``reduce(start, scores)`` returns one ``(g,)`` array per field and may
    reduce in place; it lands at the unit's rows of column
    ``start // SCAN_TILE``.  A unit's epochs and work arrays stay in cache
    while its n packets are scanned.  The shapes are checked once per call.
    Grouped units at least 256 columns wide run with a one-row ufunc buffer
    (module docstring).  The result holds 8 bytes per field per
    (observation, tile), and a book within the codebook cap has at most 16
    tiles.

    The (group, tile) units are handed out one at a time to ``scan_threads()``
    threads, each with its own work array of at most 3 x ``SCAN_TILE``
    floats; numpy releases the GIL inside the unit core's ufuncs.  The calling
    thread is one of them, so a scan of one unit starts no thread.  The other
    threads start and end within the call: a pool kept between calls would be
    inherited without its threads by the forked workers of ``harness.run``.
    An exception in a thread is raised on the calling thread: the one from
    the earliest unit when several units fail.  Every thread handles
    floating-point errors as the calling thread does.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)  # no copy of a float64 book
    if ta.ndim != 2 or ta.shape[1] == 0 or np.ndim(departure_epochs) != 2 \
            or departure_epochs.shape[0] != ta.shape[0]:
        raise StructuralError(f"need (n, C) arrival epochs, C >= 1, with (n, T) departure "
                              f"epochs, got {ta.shape} and {np.shape(departure_epochs)}")
    observations = departure_epochs.shape[1]
    width = min(ta.shape[1], SCAN_TILE)
    group = max(1, SCAN_TILE // width)
    tiles = -(-ta.shape[1] // SCAN_TILE)
    units = -(-observations // group) * tiles
    partials = tuple(np.empty((observations, tiles), dtype=dtype) for dtype in dtypes)
    rows = min(observations, group)
    works = np.empty((max(1, min(scan_threads(), units)), 3, rows * width))
    # the unit core's operands, once per call: a group of one observation
    # passes n Python floats, the ufunc operands with the least per-call
    # overhead; a larger one its (n, g, 1) array.  Both score into (g, C)
    d = np.asarray(departure_epochs, dtype=np.float64)
    groups = [(first, d[:, first].tolist() if min(group, observations - first) == 1
               else d[:, first:first + group, None]) for first in range(0, observations, group)]
    views = [ta[:, start:start + SCAN_TILE] for start in range(0, ta.shape[1], SCAN_TILE)]
    # a (g, C) operation with a (g, 1) operand goes through the ufunc buffer
    # whenever it spans two rows: a one-row buffer keeps it one row per call
    # (a multiple of 16, which numpy 1.x requires); narrower rows ran slower
    bufsize = -(-width // 16) * 16 if rows > 1 and width >= _ROW_BUFFER_MIN else None
    caller_errstate = np.geterr()  # a new thread would start with numpy's default
    errors = {}
    order = iter(range(units))  # shared: a stalled thread holds up one unit
    lock = threading.Lock()

    def scan(work):
        with np.errstate(**caller_errstate):
            caller_bufsize = np.getbufsize()
            if bufsize:
                np.setbufsize(bufsize)
            try:
                while True:
                    with lock:
                        i = None if errors else next(order, None)
                    if i is None:
                        return
                    try:
                        first, operand = groups[i // tiles]
                        tile = i % tiles
                        scores = _scan_unit(views[tile], operand, model, work)
                        fields = reduce(tile * SCAN_TILE, scores)
                        for out, field in zip(partials, fields):
                            out[first:first + group, tile] = field
                    except BaseException as exc:  # raised on the calling thread below
                        errors[i] = exc
                        return
            finally:
                np.setbufsize(caller_bufsize)

    pool = [threading.Thread(target=scan, args=(work,)) for work in works[1:]]
    for thread in pool:
        thread.start()
    scan(works[0])  # the calling thread is one of the scan's threads
    for thread in pool:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return partials


def poisson_log_density(epochs, rate: float):
    """log of the i.i.d. Exp(rate) product density of the gaps between the
    epochs down axis 0: n ln(rate) - rate * d_n.

    A float for (n,) epochs, a (T,) array for packet-major (n, T) epochs.
    """
    _check_rate("rate", rate)
    d = _as_epochs(epochs, "epochs")
    return _poisson_log_density(d.shape[0], d[-1], rate)


def _poisson_log_density(n: int, last, rate: float):
    """``poisson_log_density`` of n epochs whose last is ``last``, unchecked."""
    return n * math.log(rate) - rate * last


def info_density_sample(arrivals, departures, model: ServiceModel, reference_rate: float):
    """Per-packet information density, in nats/packet, of blocks of epochs.

    (1/n) * [log p(D|A; model) - log q(D; Exp(reference_rate) gaps)], or
    -inf when D cannot have been produced from A under the model.  The
    arrival and departure epochs share one shape: (n,) for one block, which
    gives a float, or packet-major (n, T) for T blocks, which gives a (T,)
    array.  Each block is one column of the kernel.

    The scores form each service from the epochs, d_k - max(t_k, d_{k-1}),
    which is the drawn service only up to the rounding of the epochs.  A
    service so formed never reads below 0, but at fast service rates it can
    read 0, outside an Erlang law's support, or past an edge of a uniform
    law's, and a block the queue did produce then scores -inf: README's
    paragraph "Services far below the epochs" gives the measured rates (at
    lam = 0.5 and n = 2000, a uniform law of half-width 0.2/mu already at
    mu = 1e6).
    ``sample_info_densities`` scores the services it drew and never does
    this.
    """
    t = _as_epochs(arrivals, "arrival epochs")
    d = _as_epochs(departures, "departure epochs")
    if t.shape != d.shape:
        raise StructuralError(f"need (n,) or (n, T) epochs of one shape, "
                              f"got {t.shape} and {d.shape}")
    _check_rate("reference_rate", reference_rate)
    n = t.shape[0]
    cond = conditional_log_density_batch(t.reshape(n, -1), d.reshape(n, -1), model)
    q = _poisson_log_density(n, d[-1], reference_rate)
    density = (cond - q) / n  # -inf where cond is
    return float(density[0]) if t.ndim == 1 else density


def sample_info_densities(n: int, arrival_rate: float, model: ServiceModel, trials: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the per-packet information density.

    Each trial sends a fresh Poisson(arrival_rate) block through the queue and
    scores it against the Exp(arrival_rate) reference.  Returns the
    (trials,)-array of per-packet values.  log p(D | A) is the sum of the log
    density at the drawn services (module docstring), so a trial reads -inf
    only where a draw itself rounds outside the law's support.

    Trials run in blocks of min(trials, ``_PIECE_CELLS``) columns, and each
    block walks down its packets in row pieces of ``_PIECE_CELLS // cols``
    rows, for a block ``cols`` wide.  A piece draws its packet-major arrival
    gaps, then its services, both in C order, into the two halves of the
    block's one ``(2, rows, cols)`` buffer; adds the log density of those
    services to the block's sums; and, in one pass down its rows, sums the
    gaps into epochs on from the block's last arrival row and runs the
    departure recursion on from its last departure row, in place, for d_n.
    So the sampler holds one piece buffer and its log density, whatever n
    is, and carries two rows from piece to piece.
    """
    n = _check_count("n", n, 1)
    _check_rate("arrival_rate", arrival_rate)
    trials = _check_count("trials", trials, 1)
    out = np.empty(trials)
    for first in range(0, trials, _PIECE_CELLS):
        cols = min(trials - first, _PIECE_CELLS)
        rows = _PIECE_CELLS // cols
        # one buffer for every piece of the block: its arrivals in [0], its
        # services in [1], one row of each in cache together in the recursion
        pieces = np.empty((2, min(rows, n), cols))
        # the rows before the first piece: d_0 = 0, and t_0 = 0, whose carry
        # adds nothing
        t_last, d_last = np.zeros(cols), np.zeros(cols)
        scores = np.zeros(cols)
        with np.errstate(over="ignore"):  # an overflow is refused by _departures
            for k in range(0, n, rows):
                t, s = pieces[:, :min(rows, n - k)]
                _exponential_gaps(rng, arrival_rate, t)
                model._fill(rng, s)
                scores += model.log_density(s).sum(axis=0)  # before the recursion overwrites s
                _departures(t, s, prev=d_last, packets=n, carry=t_last)
                # the next piece overwrites the buffer
                np.copyto(t_last, t[-1])
                np.copyto(d_last, s[-1])
        out[first:first + cols] = (scores - _poisson_log_density(n, d_last, arrival_rate)) / n
    return out
