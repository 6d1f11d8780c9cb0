"""Adversarial observer: likelihood-ratio detection of codebook use.

The observer taps the departure process of its own queue (service law
``model``) and must decide whether the arrivals were a stationary Poisson
process (no message) or a uniformly chosen codeword from a codebook it knows
in full — but without the key, so the alternative hypothesis is the uniform
mixture over the *entire* codebook:

    llr(D) = log[ (1/|B|) sum_c p(D | codeword c) ] - log q(D),

with q the product-Exp(arrival_rate) stationary law.  Detection quality is
summarized by the rank AUC of the llr scores and a plug-in estimate of the
total-variation distance (the best achievable advantage of any threshold test
on the llr).  ``summarize_detection`` is the one public summary: it checks
for at least 2 scores per hypothesis, and the private statistics it is built
from check nothing.

``willie_llr_block`` scores many observations in one codebook scan, in the
(observation group x column tile) units of ``laws.reduce_tiles``, and folds
each observation's row of per-tile log-sum-exp partials;
``willie_llr`` is its one-observation call, and ``run_detection_trials``
sends and simulates its trials block by block and scores each with one call.
The observations' gaps and the rate are checked once per ``willie_llr_block``
call, and the rate and trial count once per ``run_detection_trials`` call.

No operation here takes a key argument; the observer never has one.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import Codebook
from .errors import ParameterError, StructuralError
from .laws import _poisson_log_density, reduce_tiles
from .queueing import (ServiceModel, _as_times, _check_count, _check_rate, simulate_block,
                       trial_blocks)

__all__ = [
    "willie_llr",
    "willie_llr_block",
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


def _log_mixture(partials, count: int) -> float:
    """log of the mean of exp(score) over ``count`` codewords, from one
    observation's (m, sum) partials in tile order."""
    top, total = -math.inf, 0.0
    for tile_top, tile_total in partials:
        if tile_top == -math.inf:
            continue
        if tile_top > top:
            total, top = total * math.exp(top - tile_top) + tile_total, tile_top
        else:
            total += tile_total * math.exp(tile_top - top)
    if top == -math.inf:
        return -math.inf  # no codeword could have produced this block
    return top + math.log(total) - math.log(count)


def willie_llr_block(
    book: Codebook,
    observations: np.ndarray,
    model: ServiceModel,
    arrival_rate: float,
) -> np.ndarray:
    """``willie_llr`` of every column of the packet-major ``(n, T)``
    observations, as a (T,) array, in one scan of the codebook.

    The log-sum-exp over the codebook is reduced per (observation group,
    column tile) unit to (maximum, sum of exp(score - maximum)) per
    observation.  Each observation's partials are combined in tile order for
    any grouping and thread count, so its llr's bits depend on neither.
    """
    obs = _as_times(observations, "observations", ndims=(2,))
    if obs.shape[0] != book.n:
        raise StructuralError(f"need (n={book.n}, T) observations, got {obs.shape}")
    _check_rate("arrival_rate", arrival_rate)
    count = book.arrival_epochs.shape[1]
    tops, totals = reduce_tiles(book.arrival_epochs, obs, model, _exp_partial,
                                (np.float64, np.float64))
    # the scalar fold takes Python floats; converting row by row keeps few alive
    mixtures = [_log_mixture(zip(top.tolist(), total.tolist()), count)
                for top, total in zip(tops, totals)]
    # q(D) summed down the columns of an observation-major copy: the same
    # additions, in the same order, as the (n,) sum of each column alone
    return np.array(mixtures) - _poisson_log_density(
        book.n, np.ascontiguousarray(obs.T).T.sum(axis=0), arrival_rate)


def willie_llr(
    book: Codebook,
    observation: np.ndarray,
    model: ServiceModel,
    arrival_rate: float,
) -> float:
    """Mixture-vs-stationary log likelihood ratio of one observed block: the
    one-column call of ``willie_llr_block``."""
    obs = np.asarray(observation, dtype=np.float64)
    if obs.shape != (book.n,):
        raise StructuralError(f"need (n={book.n},) observed gaps, got {obs.shape}")
    return float(willie_llr_block(book, obs[:, None], model, arrival_rate)[0])


def run_detection_trials(
    book: Codebook,
    model: ServiceModel,
    arrival_rate: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Score ``trials`` blocks per hypothesis through the observer's queue.

    Returns the ``(null, alt)`` llr arrays.  The trials run in the blocks of
    ``queueing.trial_blocks``, which bound the observations held at once.
    For a block of T trials it draws, in this order: ``Codebook.send``'s T
    transmissions and their ``(n, T)`` services (``alt``), then an ``(n, T)``
    block of Exp(arrival_rate) gaps and its ``(n, T)`` services (``null``).
    The block's 2T observations are scored by one ``willie_llr_block`` call.
    """
    trials = _check_count("trials", trials, 1)
    _check_rate("arrival_rate", arrival_rate)
    null, alt = np.empty(trials), np.empty(trials)
    for block in trial_blocks(book.n, trials):
        count = block.stop - block.start
        *_, codewords = book.send(rng, count)  # the warden never sees the indices
        sent = simulate_block(codewords, model, rng)
        poisson = rng.exponential(1.0 / arrival_rate, size=(book.n, count))
        llr = willie_llr_block(book, np.hstack([sent, simulate_block(poisson, model, rng)]),
                               model, arrival_rate)
        alt[block], null[block] = llr[:count], llr[count:]
    return null, alt


def _wins(order, x):
    """For each x, how many of the sorted scores ``order`` lie below it, ties counting 1/2."""
    below = np.searchsorted(order, x, side="left")
    return below + 0.5 * (np.searchsorted(order, x, side="right") - below)


def _rank_auc(null_scores, alt_scores) -> float:
    """P[alt score > null score] with tie-halving (Mann-Whitney statistic)."""
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    return float(_wins(np.sort(x0), x1).sum() / (x0.size * x1.size))


def _auc_stderr(null_scores, alt_scores) -> float:
    """DeLong-style standard error of the rank AUC."""
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    # placement values: each alt score's quantile among nulls and vice versa
    v10 = _wins(np.sort(x0), x1) / x0.size
    v01 = 1.0 - _wins(np.sort(x1), x0) / x1.size
    var = v10.var(ddof=1) / x1.size + v01.var(ddof=1) / x0.size
    return float(math.sqrt(max(var, 0.0)))


def _tv_distance_estimate(null_scores, alt_scores) -> float:
    """Plug-in total-variation estimate: sup_t [F_null(t) - F_alt(t)].

    Equals the best advantage max_t (TPR - FPR) of thresholding the scores,
    which converges to the total variation between the two llr laws.
    """
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    o0, o1 = np.sort(x0), np.sort(x1)
    grid = np.concatenate([o0, o1])
    f0 = np.searchsorted(o0, grid, side="right") / x0.size
    f1 = np.searchsorted(o1, grid, side="right") / x1.size
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

    Each hypothesis needs at least 2 trials (scores).
    """
    null = np.asarray(null_scores, dtype=np.float64)
    alt = np.asarray(alt_scores, dtype=np.float64)
    if null.size < 2 or alt.size < 2:
        raise ParameterError(
            f"need at least 2 trials per hypothesis, got {null.size} no-message "
            f"and {alt.size} message scores"
        )
    # keep the means finite and report the -inf null mass separately
    finite_null = null[np.isfinite(null)]
    out = {
        "auc": (_rank_auc(null, alt), _auc_stderr(null, alt)),
        "tv_estimate": (
            _tv_distance_estimate(null, alt), math.sqrt(0.5 / null.size + 0.5 / alt.size) / 2.0
        ),
        "llr_infeasible_fraction": (1.0 - finite_null.size / null.size, 0.0),
    }
    for name, scores in (("mean_llr_null", finite_null), ("mean_llr_message", alt)):
        if scores.size > 1:
            out[name] = (float(scores.mean()), float(scores.std(ddof=1) / math.sqrt(scores.size)))
    return out
