"""Channel transition law and information density.

A FIFO queue fed with arrival epochs t and seen at departure epochs d (the
running sums of the gaps A and D) had the service times s_k = d_k -
max(t_k, d_{k-1}), with d_0 = 0.  The conditional density of D given A is the
product of the service density at the s_k: -inf exactly when some s_k leaves
the law's support (e.g. a departure before its arrival).  Candidates are
scored in one of two ways.  A codebook scan, for the decoder and the warden,
scores every codeword against observed departures that all of them share:
``reduce_tiles`` is its one entry.  A block of simulated trials, for the
information density, scores each candidate against its own column of
departures: ``conditional_log_density_batch``.

A codebook scan works in units of g observations x one column tile of the
book, with g = max(1, SCAN_TILE // tile width): every unit holds at most
``SCAN_TILE`` scores, so it stays in cache, and a narrow book scores
thousands of observations per ufunc call where a wide one keeps one.  The
units are shared out to one thread per CPU, and each unit's partials land in
``(T, tiles)`` arrays, 8 bytes per field per (observation, tile).  A score's
bits depend on neither g nor the thread count.

A scan pays its Python prologue once per call, not once per unit: it checks
shapes, takes the cumulative departures of all T observations in one running
sum and slices each group's operand (n Python floats for one observation) and
each tile's epochs once; every unit then runs one private core,
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
exponential-service queue), i.e. i.i.d. Exp(rate) gaps.

Rates, counts and gaps follow ``queueing``'s three rules, checked once per
call of ``poisson_log_density``, ``info_density_sample`` and
``sample_info_densities``.  ``conditional_log_density_batch`` and
``reduce_tiles`` check shapes only, once per call.  Their running sums of
departure gaps go through ``queueing._running_sum``, like every other.

``sample_info_densities`` checks no gap it draws.  It runs the blocks of trials
of ``queueing.trial_blocks`` through ``queueing``'s departure recursion and
``_column_scores``, which scores the recursion's own epochs, with q(D) =
n ln(rate) - rate * d_n.  Blocks narrower than ``_STACK_WIDTH`` columns (only
n > 1024 has them) are set side by side in stacks of at most ``STACK_CELLS``
cells, so that one departure recursion, whose numpy calls cost about as much
per packet row at 160 columns as at 32, serves several blocks; the stack is
then scored in row pieces.  Its values differ from ``simulate_block`` followed
by ``info_density_sample`` on the same draws only where that path's gaps,
summed back into epochs, round differently.  A service never reads below 0:
with m = max(t_k, d_{k-1}), s_k = (m + S_k) - m in floats.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import StructuralError
from .queueing import (BLOCK_CELLS, ServiceKind, ServiceModel, _as_times, _check_count,
                       _check_rate, _checked_departures, _running_sum, trial_blocks)

__all__ = ["SCAN_TILE", "STACK_CELLS", "conditional_log_density_batch", "scan_threads",
           "reduce_tiles", "poisson_log_density", "info_density_sample", "sample_info_densities"]

# Columns per tile of a codebook scan, and scores per unit of work.  At n=4 a
# unit's three work arrays (512 KiB each) stay in a 2 MiB L2 cache while its
# epochs stream past.  Each ufunc call of a threaded scan reacquires the GIL,
# so a unit half this size scaled worse on two threads.
SCAN_TILE = 1 << 16
# The narrowest rows of a grouped unit that run with a one-row ufunc buffer:
# 64-column units ran 20% slower with it on one thread.
_ROW_BUFFER_MIN = 256
# Most cells in one stack of narrow trial blocks: five blocks.  A departure
# recursion row cost 1.3 us at 32 columns and 1.5 us at 160, so at n=2000 one
# stack of five 32-column blocks does the work of five recursions.  300 trials
# there took 46 ms one block at a time, 30 ms in stacks of four blocks, 27 ms
# in stacks of five and 25 ms in one stack.  But a stack holds two (n, W)
# arrays: the process peak of 300-trial runs at n=2000 rose 4%, 7% and 17%,
# against a 10% bound on the benchmark's peak memory.
STACK_CELLS = 5 * BLOCK_CELLS
# Blocks narrower than this many columns join stacks: only n > 1024 has
# them.  Wider blocks already spread the recursion's per-row calls over many
# columns; stacked, 327-column blocks (n=200) ran level and 4096-column blocks
# (n=16) at 0.72x.
_STACK_WIDTH = 64
# Most cells in one row piece of a stack's draws or of its scoring, which
# keeps a piece's temporaries in cache and out of peak memory: at n=2000 the
# sampler's time was level from 2^13 to 2^16 cells.
_PIECE_CELLS = BLOCK_CELLS // 4


def conditional_log_density_batch(arrival_epochs: np.ndarray, departures: np.ndarray,
                                  model: ServiceModel) -> np.ndarray:
    """log p(D_c | A_c) of many candidates at once, each against its own
    column of departures.

    Parameters
    ----------
    arrival_epochs : (n, C) float array
        Column c holds candidate c's cumulative arrival epochs.
    departures : (n, C) float array
        Column c holds the inter-departure gaps that candidate c is scored
        against.
    model : ServiceModel with a density

    Returns
    -------
    (C,) log densities, -inf where infeasible.

    Candidate c needs the service time s_k = d_k - max(t_k, d_{k-1}) for
    packet k, which is negative exactly when t_k > d_k.  The block takes one
    pass: every s_k, then the density's sum down the packets.  Candidates
    that share their departures are scored by ``reduce_tiles``.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    gaps = np.asarray(departures, dtype=np.float64)
    if ta.ndim != 2 or gaps.shape != ta.shape:
        raise StructuralError(f"need (n, C) arrival epochs with (n, C) departures, "
                              f"got {ta.shape} and {gaps.shape}")
    d = _running_sum(gaps)
    return _column_scores(ta, d, model, np.empty_like(d))


def _column_scores(ta: np.ndarray, d: np.ndarray, model: ServiceModel, work: np.ndarray,
                   before=0.0) -> np.ndarray:
    """The core of ``conditional_log_density_batch``: log p(D_c | A_c) of every
    column c of the ``(n, C)`` epochs ``ta`` against its own column of the
    cumulative departures ``d``.  The s_k are formed in ``work``, which may
    be ``ta`` itself.  Nothing is checked.

    A block may be scored in row pieces, whose sums the caller adds:
    ``before`` is the departure epoch before the piece.
    """
    np.maximum(ta[0], before, out=work[0])
    np.maximum(ta[1:], d[:-1], out=work[1:])
    np.subtract(d, work, out=work)
    return model.log_density(work).sum(axis=0)


def _scan_unit(ta: np.ndarray, d, model: ServiceModel, work: np.ndarray) -> np.ndarray:
    """The scores of one unit of ``reduce_tiles``: log p(D | A_c) of every
    column c of the ``(n, C)`` epochs ``ta`` against the cumulative
    departures ``d`` of one observation, as n Python floats, or of g, as an
    ``(n, g, 1)`` array.  They are written into ``work[0]`` and returned as
    a (C,) view for one observation, (g, C) for g.  Nothing is checked:
    ``reduce_tiles`` checks its shapes once per call.

    Each (observation, candidate) score takes the same operations in the same
    order for any g: one (g, C) block of s_k per packet, from the (C,) row of
    epochs and a (g, 1) column of departures.
    """
    n, count = ta.shape
    rows = 1 if isinstance(d, list) else d.shape[1]
    shape = (count,) if rows == 1 else (rows, count)
    scores, s, low = (w[:rows * count].reshape(shape) for w in work)
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


def reduce_tiles(arrival_epochs: np.ndarray, departures: np.ndarray, model: ServiceModel,
                 reduce, dtypes) -> tuple[np.ndarray, ...]:
    """``reduce``'s partials of every (observation, column tile) pair, as one
    ``(T, tiles)`` array per field, of the given ``dtypes``: the one scan of
    a codebook against observed departures, which all its candidates share.

    ``departures`` holds T observations, packet-major ``(n, T)``.  They are
    scored in groups of g = max(1, SCAN_TILE // tile width) consecutive
    columns, and the ``SCAN_TILE``-column tiles of the book one at a time:
    ``scores`` is the ``(g, width)`` block of log p(D_j | A_c) for the
    group's observations j against columns c in ``start:start + width``
    (the last group may hold fewer), -inf where infeasible.  It lives in a
    work array that the next unit overwrites, so ``reduce(start, scores)``
    returns one ``(g,)`` array per field and may reduce in place; it lands at
    the unit's rows of column ``start // SCAN_TILE``.  A unit's epochs and
    work arrays stay in cache while its n packets are scanned.  The shapes are
    checked, and the departures' running sums taken, once per call.  Grouped
    units at least 256 columns wide run with a one-row ufunc buffer (module
    docstring).  The result holds 8 bytes per field per (observation, tile),
    and a book within the codebook cap has at most 16 tiles.

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
    rows = min(observations, group)
    works = np.empty((max(1, min(scan_threads(), units)), 3, rows * width))
    # the unit core's operands, once per call: the same sequential adds as a
    # running sum of each group's departures alone.  A group of one observation
    # passes n Python floats, the ufunc operands with the least per-call
    # overhead; a larger one its (n, g, 1) array
    d = _running_sum(np.asarray(departures, dtype=np.float64))
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
                        fields = reduce(tile * SCAN_TILE, scores.reshape(-1, scores.shape[-1]))
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


def poisson_log_density(gaps, rate: float):
    """log of the i.i.d. Exp(rate) product density of the gaps down axis 0.

    A float for (n,) gaps, a (T,) array for packet-major (n, T) gaps.
    """
    _check_rate("rate", rate)
    x = _as_times(gaps, "gaps", ndims=(1, 2))
    return _poisson_log_density(x.shape[0], x.sum(axis=0), rate)


def _poisson_log_density(n: int, total, rate: float):
    """``poisson_log_density`` of n gaps that sum to ``total``, unchecked."""
    return n * math.log(rate) - rate * total


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
    _check_rate("reference_rate", reference_rate)
    n = a.shape[0]
    cond = conditional_log_density_batch(_running_sum(a.reshape(n, -1)), gaps.reshape(n, -1),
                                         model)
    q = _poisson_log_density(n, gaps.sum(axis=0), reference_rate)
    density = (cond - q) / n  # -inf where cond is
    return float(density[0]) if a.ndim == 1 else density


def _trial_stacks(n: int, trials: int):
    """Runs of consecutive ``trial_blocks`` that ``sample_info_densities``
    sets side by side as one ``(n, W)`` stack, as lists of block slices.

    Blocks from 2 to ``_STACK_WIDTH - 1`` columns wide join a stack while it
    holds at most ``STACK_CELLS`` cells; any other block is a stack of its
    own.  Only n > 1024 gives such blocks.  One-column blocks run the
    recursion's scalar loop alone, which is faster than the vector loop over
    the eight of them a stack holds at n=40000: 10 trials there took 148-156
    ms of CPU time stacked against 84-127 ms alone (best of 20, on a shared
    2-CPU host).
    """
    stack = []
    for block in trial_blocks(n, trials):
        alone = not 1 < block.stop - block.start < _STACK_WIDTH
        if stack and (alone or n * (block.stop - stack[0].start) > STACK_CELLS):
            yield stack
            stack = []
        stack.append(block)
        if alone:
            yield stack
            stack = []
    if stack:
        yield stack


def _stack_densities(t: np.ndarray, d: np.ndarray, model: ServiceModel,
                     rate: float) -> np.ndarray:
    """The per-packet information densities of the columns of a stack, from
    its arrival epochs t, which become work space, and the departure epochs
    d that the recursion wrote.

    The stack is scored in row pieces of at most ``_PIECE_CELLS`` cells, each
    against the epoch before it, and the pieces' sums are added.  q(D) comes
    from the last departure epochs, d_n, the sum of all the gaps.
    """
    n, width = t.shape
    rows = max(1, _PIECE_CELLS // width)
    scores = np.zeros(width)
    for k in range(0, n, rows):
        piece = slice(k, k + rows)
        scores += _column_scores(t[piece], d[piece], model, t[piece],
                                 before=d[k - 1] if k else 0.0)
    return (scores - _poisson_log_density(n, d[-1], rate)) / n


def sample_info_densities(n: int, arrival_rate: float, model: ServiceModel, trials: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of the per-packet information density.

    Each trial sends a fresh Poisson(arrival_rate) block through the queue and
    scores it against the Exp(arrival_rate) reference.  Returns the
    (trials,)-array of per-packet values, -inf for infeasible trials.

    Trials run in the blocks of ``queueing.trial_blocks``.  Each block draws
    its packet-major (n, T) arrival gaps, then its (n, T) service times, as
    ``simulate_block`` does, and its values score the departure epochs of
    the recursion (module docstring).  Blocks run in the stacks of
    ``_trial_stacks``: narrow blocks side by side, any other block alone.
    Each block draws into its own columns of the stack's two (n, W) arrays,
    in row pieces of at most ``_PIECE_CELLS`` cells, which consume the
    stream as one (n, T) draw does; the arrival pieces are summed into
    epochs as they land.  One departure recursion runs over the whole stack,
    in place over the services, and ``_stack_densities`` scores the stack in
    row pieces.  So a stack holds two (n, W) arrays of at most
    ``STACK_CELLS`` cells (a block's, if it is alone) and the log density's
    temporaries of a piece.
    """
    n = _check_count("n", n, 1)
    _check_rate("arrival_rate", arrival_rate)
    trials = _check_count("trials", trials, 1)
    scale = 1.0 / arrival_rate
    stacks = list(_trial_stacks(n, trials))
    cells = n * max(stack[-1].stop - stack[0].start for stack in stacks)
    # every stack reuses the same two arrays: the arrival epochs, and the
    # services that the recursion turns into departure epochs
    t_cells, d_cells = np.empty(cells), np.empty(cells)
    out = np.empty(trials)
    for stack in stacks:
        first = stack[0].start
        t = t_cells[:n * (stack[-1].stop - first)].reshape(n, -1)
        d = d_cells[:t.size].reshape(t.shape)
        with np.errstate(over="ignore"):  # an overflow is refused by _checked_departures
            for block in stack:
                cols = slice(block.start - first, block.stop - first)
                rows = max(1, _PIECE_CELLS // (block.stop - block.start))
                for k in range(0, n, rows):
                    piece = t[k:k + rows, cols]
                    _running_sum(rng.exponential(scale, size=piece.shape), out=piece,
                                 carry=t[k - 1, cols] if k else None)
                for k in range(0, n, rows):
                    piece = d[k:k + rows, cols]
                    piece[...] = model.sample(rng, piece.shape)
            _checked_departures(t, d)
        out[first:stack[-1].stop] = _stack_densities(t, d, model, arrival_rate)
    return out
