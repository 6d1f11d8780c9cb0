"""Whole score arrays of a codebook scan, copied out of ``laws.reduce_tiles``.

``reduce_tiles`` is the one scan of candidates against departures they all
share, and it hands each unit's scores to its ``reduce`` in a work array that
the next unit overwrites.  The tests that compare whole score arrays take
them from ``shared_scores``, which copies every unit's rows out as they come.
"""

import threading

import numpy as np

from covertq.laws import reduce_tiles


def shared_scores(arrival_epochs, departures, model):
    """log p(D_j | A_c) of every column c of the ``(n, C)`` epochs against
    every observation j: ``(C,)`` for ``(n,)`` departures, ``(T, C)`` for
    packet-major ``(n, T)`` ones.

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

    [ids] = reduce_tiles(arrival_epochs, departures[:, None] if departures.ndim == 1
                         else departures, model, copy_out, (np.int64,))
    scores = np.array([np.concatenate([rows[i] for i in row]) for row in ids])
    return scores[0] if departures.ndim == 1 else scores
