"""Adversarial observer: likelihood-ratio detection of codebook use.

The observer taps the departure process of its own queue (service law
``model``) and must decide whether the arrivals were a stationary Poisson
process (no message) or a uniformly chosen codeword from a codebook it knows
in full — but without the key, so the alternative hypothesis is the uniform
mixture over the *entire* codebook:

    llr(D) = log[ (1/|B|) sum_c p(D | codeword c) ] - log q(D),

with q the product-Exp(lam) stationary law at the rate lam =
``book.arrival_rate`` the codebook was drawn at, so that a codeword looks
like the innocent traffic: the book carries the null's rate, and no call
takes it again.  Detection quality is summarized by the rank AUC of the llr
scores and a plug-in estimate of the total-variation distance (the best
achievable advantage of any threshold test on the llr).
``summarize_detection`` is the one public summary: it checks for at least 2
scores per hypothesis, none of them NaN and no message score -inf, and the
private statistics it is built from check nothing.

``willie_llr`` scores one observation or many in one codebook scan, in the
(observation group x column tile) units of ``laws.reduce_tiles``, and folds
each observation's row of per-tile log-sum-exp partials.  It checks the
observations' departure epochs once per call and scores them with its
unchecked core ``_llr``.  ``run_detection_trials`` checks the trial count
once per call, then sends its trials block by block through
``queueing._queue`` and scores each block's departure epochs, as the
recursion wrote them, with one ``_llr`` call.

No operation here takes a key argument; the observer never has one.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import Codebook
from .errors import ParameterError, StructuralError
from .laws import _poisson_log_density, reduce_tiles
from .queueing import (ServiceModel, _as_epochs, _check_count, _exponential_gaps, _queue,
                       _running_sum, trial_blocks)

__all__ = [
    "willie_llr",
    "run_detection_trials",
    "summarize_detection",
]

_EXP_FLOOR = -700.0


def _exp_partial(start: int, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a unit, its log-sum-exp partial: the maximum m and the sum
    of exp(score - m); (-inf, 0) for a row with no feasible codeword."""
    top = scores.max(axis=1)
    live = top > -np.inf
    np.subtract(scores, np.where(live, top, 0.0)[:, None], out=scores)
    # exp() takes a slow path for -inf and for results below the normal
    # range; a floor of -700 adds under C * 1e-304 to a sum of at least 1
    np.maximum(scores, _EXP_FLOOR, out=scores)
    np.exp(scores, out=scores)
    return top, np.where(live, scores.sum(axis=1), 0.0)


def willie_llr(book: Codebook, observations, model: ServiceModel):
    """Mixture-vs-stationary log likelihood ratio of observed departure
    epochs, against the null of Exp(``book.arrival_rate``) arrival gaps: a
    float for ``(n,)`` epochs of one block, a (T,) array for packet-major
    ``(n, T)`` epochs of T, all scored in one scan of the codebook.

    The log-sum-exp over the codebook is reduced per (observation group,
    column tile) unit to (maximum, sum of exp(score - maximum)) per
    observation.  Each observation's row of partials is folded on its own,
    whatever the grouping and thread count, so its llr's bits depend on
    neither: column j of a 2-d call is the 1-d call on column j.
    """
    d = _as_epochs(observations, "observations")
    if d.shape[0] != book.n:
        raise StructuralError(f"need (n={book.n},) or (n={book.n}, T) observations, "
                              f"got {d.shape}")
    llr = _llr(book, d.reshape(book.n, -1), model)
    return float(llr[0]) if d.ndim == 1 else llr


def _llr(book: Codebook, d: np.ndarray, model: ServiceModel) -> np.ndarray:
    """``willie_llr`` of the packet-major ``(n, T)`` departure epochs d, as a
    (T,) array, with q(D) = n ln(lam) - lam * d_n at lam =
    ``book.arrival_rate``.  Nothing is checked."""
    tops, totals = reduce_tiles(book.arrival_epochs, d, model, _exp_partial,
                                (np.float64, np.float64))
    # each row's partials rescaled to its largest maximum and summed over the
    # tiles; a row with no feasible codeword keeps -inf
    top = tops.max(axis=1)
    live = top > -np.inf
    mixture = np.full(top.shape, -np.inf)
    scaled = totals[live] * np.exp(tops[live] - top[live, None])
    mixture[live] = top[live] + np.log(scaled.sum(axis=1)) - math.log(book.total)
    return mixture - _poisson_log_density(book.n, d[-1], book.arrival_rate)


def run_detection_trials(
    book: Codebook,
    model: ServiceModel,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Score ``trials`` blocks per hypothesis through the observer's queue.

    Returns the ``(null, alt)`` llr arrays.  The trials run in the blocks of
    ``queueing.trial_blocks``, which bound the observations held at once.
    For a block of T trials it draws, in this order: ``Codebook.send``'s T
    transmissions and their ``(n, T)`` services (``alt``), then an ``(n, T)``
    block of Exp(``book.arrival_rate``) gaps and its ``(n, T)`` services
    (``null``).  The block's 2T departure epochs are scored by one call of
    ``_llr``, the core of ``willie_llr``.
    """
    trials = _check_count("trials", trials, 1)
    null, alt = np.empty(trials), np.empty(trials)
    for block in trial_blocks(book.n, trials):
        count = block.stop - block.start
        *_, epochs = book.send(rng, count)  # the warden never sees the indices
        sent = _queue(epochs, model, rng)
        gaps = _exponential_gaps(rng, book.arrival_rate, np.empty((book.n, count)))
        with np.errstate(over="ignore"):  # an overflow is refused by _queue
            unsent = _queue(_running_sum(gaps), model, rng)
        llr = _llr(book, np.hstack([sent, unsent]), model)
        alt[block], null[block] = llr[:count], llr[count:]
    return null, alt


def _wins(order, x):
    """For each x, how many of the sorted scores ``order`` lie below it, ties counting 1/2."""
    below = np.searchsorted(order, x, side="left")
    return below + 0.5 * (np.searchsorted(order, x, side="right") - below)


def _tv_distance_estimate(null_sorted, alt_sorted) -> float:
    """Plug-in total-variation estimate from the two sorted score arrays:
    sup_t [F_null(t) - F_alt(t)].

    Equals the best advantage max_t (TPR - FPR) of thresholding the scores,
    which converges to the total variation between the two llr laws.
    """
    grid = np.concatenate([null_sorted, alt_sorted])
    f0 = np.searchsorted(null_sorted, grid, side="right") / null_sorted.size
    f1 = np.searchsorted(alt_sorted, grid, side="right") / alt_sorted.size
    return float(max(0.0, np.max(f0 - f1)))


def summarize_detection(null_scores, alt_scores) -> dict[str, tuple[float, float]]:
    """Every statistic of a detection run, as ``{metric: (value, stderr)}``.

    The metrics, in the order the detection sweep emits them:

    - ``auc``: the rank AUC of the message llr scores against the no-message
      ones; stderr: the DeLong placement-value SE.
    - ``tv_estimate``: the plug-in total-variation estimate; stderr: the
      plug-in scale sqrt(0.5/n0 + 0.5/n1)/2, which is not a derived standard
      error.
    - ``llr_infeasible_fraction``: the share of no-message blocks that no
      codeword could have produced (llr = -inf); stderr: 0.
    - ``mean_llr_null`` and ``mean_llr_message``: the llr means, the
      no-message one over its finite scores only; stderr: the sample SE.
      Each is present only when it has more than one score.

    Each hypothesis needs at least 2 trials (scores), and a NaN score, which
    no llr is, raises ``StructuralError``.  A message score of -inf, which a
    sent block reads only where its services are too fast for the epochs to
    resolve (README, "Services far below the epochs"), leaves
    ``mean_llr_message`` without a value: ``ParameterError``, counting them.
    """
    null = np.asarray(null_scores, dtype=np.float64)
    alt = np.asarray(alt_scores, dtype=np.float64)
    if null.size < 2 or alt.size < 2:
        raise ParameterError(
            f"need at least 2 trials per hypothesis, got {null.size} no-message "
            f"and {alt.size} message scores"
        )
    if np.isnan(null).any() or np.isnan(alt).any():
        raise StructuralError("detection scores must not be NaN")
    lost = np.count_nonzero(alt == -np.inf)
    if lost:
        raise ParameterError(
            f"{lost} of {alt.size} message scores are -inf: the services are too fast for the "
            f"epochs to resolve (README, \"Services far below the epochs\")")
    # keep the means finite and report the -inf null mass separately
    finite_null = null[np.isfinite(null)]
    null_sorted, alt_sorted = np.sort(null), np.sort(alt)
    # DeLong placement values: each message score's quantile among the null
    # scores, and each null score's among the message ones
    wins = _wins(null_sorted, alt)
    v10 = wins / null.size
    v01 = 1.0 - _wins(alt_sorted, null) / alt.size
    var = v10.var(ddof=1) / alt.size + v01.var(ddof=1) / null.size
    out = {
        "auc": (float(wins.sum() / (null.size * alt.size)), float(math.sqrt(max(var, 0.0)))),
        "tv_estimate": (
            _tv_distance_estimate(null_sorted, alt_sorted),
            math.sqrt(0.5 / null.size + 0.5 / alt.size) / 2.0,
        ),
        "llr_infeasible_fraction": (1.0 - finite_null.size / null.size, 0.0),
    }
    for name, scores in (("mean_llr_null", finite_null), ("mean_llr_message", alt)):
        if scores.size > 1:
            out[name] = (float(scores.mean()), float(scores.std(ddof=1) / math.sqrt(scores.size)))
    return out
