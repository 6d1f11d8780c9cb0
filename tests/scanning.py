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


def shared_scores(arrival_epochs, departure_epochs, model):
    """log p(D_j | A_c) of every column c of the ``(n, C)`` epochs against
    every observation j of departure epochs: ``(C,)`` for ``(n,)``
    departures, ``(T, C)`` for packet-major ``(n, T)`` ones.

    Each unit copies its rows into a list and returns their ``(g,)`` ids;
    the ``(T, tiles)`` id array puts the rows back in order for any grouping
    and thread count.
    """
    d = np.asarray(departure_epochs, dtype=np.float64)
    rows, lock = [], threading.Lock()

    def copy_out(start, scores):
        with lock:  # units end on several threads
            first = len(rows)
            rows.extend(scores.copy())
        return (np.arange(first, first + len(scores)),)

    [ids] = reduce_tiles(arrival_epochs, d[:, None] if d.ndim == 1 else d, model, copy_out,
                         (np.int64,))
    scores = np.array([np.concatenate([rows[i] for i in row]) for row in ids])
    return scores[0] if d.ndim == 1 else scores


def assert_scores_match(got, want, size):
    """Identical -inf sets; elsewhere agreement to 1e-12 of each score's size."""
    infeasible = np.isneginf(want)
    assert np.array_equal(np.isneginf(got), infeasible)
    got, want, size = got[~infeasible], want[~infeasible], size[~infeasible]
    ok = np.abs(got - want) <= 1e-12 * size
    assert ok.all(), (got[~ok], want[~ok])
