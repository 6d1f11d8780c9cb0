"""Whole score arrays of a codebook scan, copied out of ``laws.reduce_tiles``.

``reduce_tiles`` is the one scan of candidates against departures they all
share, and it hands each unit's scores to its ``reduce`` in a work array that
the next unit overwrites.  The tests that compare whole score arrays take
them from ``shared_scores``, which copies every unit's rows out as they come,
and compare them with ``assert_scores_match``.
"""

import threading

import numpy as np

from covertq.laws import reduce_tiles


def shared_scores(arrival_epochs, departures, model):
    """log p(D_j | A_c) of every column c of the ``(n, C)`` epochs against
    every observation j of departure gaps: ``(C,)`` for ``(n,)`` departures,
    ``(T, C)`` for packet-major ``(n, T)`` ones.  The scan is given the
    gaps' running sums, the departure epochs.

    Each unit copies its rows into a list and returns their ``(g,)`` ids;
    the ``(T, tiles)`` id array puts the rows back in order for any grouping
    and thread count.
    """
    departures = np.asarray(departures, dtype=np.float64)
    rows, lock = [], threading.Lock()

    def copy_out(start, scores):
        with lock:  # units end on several threads
            first = len(rows)
            rows.extend(scores.copy())
        return (np.arange(first, first + len(scores)),)

    epochs = np.cumsum(departures, axis=0)
    [ids] = reduce_tiles(arrival_epochs, epochs[:, None] if departures.ndim == 1 else epochs,
                         model, copy_out, (np.int64,))
    scores = np.array([np.concatenate([rows[i] for i in row]) for row in ids])
    return scores[0] if departures.ndim == 1 else scores


def assert_scores_match(got, want, size):
    """Identical -inf sets; elsewhere agreement to 1e-12 of each score's size."""
    infeasible = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), infeasible)
    got, want, size = got[~infeasible], want[~infeasible], size[~infeasible]
    ok = np.abs(got - want) <= 1e-12 * size
    assert ok.all(), (got[~ok], want[~ok])


def llr_size(llr, observations, model, rate):
    """The size of each warden llr of the packet-major ``(n, T)`` observed
    gaps: its magnitude, and n (|ln mu| + mu d_n) + n |ln rate| + rate d_n,
    which bound the codeword scores' and log q(D)'s terms for the service
    rate mu and the last departure epoch d_n."""
    n, d = len(observations), np.sum(observations, axis=0)
    return (np.abs(llr) + n * (abs(np.log(model.rate)) + model.rate * d)
            + n * abs(np.log(rate)) + rate * d)
