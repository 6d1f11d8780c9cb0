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
on the llr).

No operation here takes a key argument; the observer never has one.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import Codebook, encode
from .errors import ParameterError
from .laws import poisson_log_density, scan_tiles
from .queueing import ServiceModel, poisson_arrivals, simulate_channel

__all__ = [
    "willie_llr",
    "run_detection_trials",
    "summarize_detection",
    "rank_auc",
    "auc_stderr",
    "tv_distance_estimate",
]

_EXP_FLOOR = -700.0


def willie_llr(
    book: Codebook,
    observation: np.ndarray,
    model: ServiceModel,
    arrival_rate: float,
) -> float:
    """Mixture-vs-stationary log likelihood ratio of one observed block.

    The log-sum-exp over the codebook streams over the scan's column tiles:
    a running maximum and a sum of exp(score - maximum), rescaled whenever a
    tile raises the maximum.
    """
    top, total = -math.inf, 0.0
    for _, scores in scan_tiles(book.arrival_epochs, observation, model):
        tile_top = float(scores.max())
        if tile_top == -math.inf:
            continue  # no feasible codeword in this tile
        if tile_top > top:
            total *= math.exp(top - tile_top)
            top = tile_top
        np.subtract(scores, top, out=scores)
        # exp() takes a slow path for -inf and for results below the normal
        # range; a floor of -700 adds under C * 1e-304 to a sum of at least 1
        np.maximum(scores, _EXP_FLOOR, out=scores)
        np.exp(scores, out=scores)
        total += float(scores.sum())
    if top == -math.inf:
        mixture = -math.inf  # no codeword could have produced this block
    else:
        mixture = top + math.log(total) - math.log(book.arrival_epochs.shape[1])
    return mixture - poisson_log_density(observation, arrival_rate)


def run_detection_trials(
    book: Codebook,
    model: ServiceModel,
    arrival_rate: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Score ``trials`` blocks per hypothesis through the observer's queue.

    Returns the ``(null, alt)`` llr arrays.  Trial i draws a message, a key,
    ``encode``'s dummy and the services of that codeword (``alt[i]``), then
    a Poisson block and its services (``null[i]``).
    """
    if trials < 1:
        raise ParameterError(f"need trials >= 1, got {trials}")
    null, alt = np.empty(trials), np.empty(trials)
    for i in range(trials):
        message = int(rng.integers(book.num_messages))
        key = int(rng.integers(book.num_keys))
        departures = simulate_channel(encode(book, message, key, rng).codeword, model, rng)
        alt[i] = willie_llr(book, departures, model, arrival_rate)
        departures = simulate_channel(poisson_arrivals(arrival_rate, book.n, rng), model, rng)
        null[i] = willie_llr(book, departures, model, arrival_rate)
    return null, alt


def _wins(order, x):
    """For each x, how many of the sorted scores ``order`` lie below it, ties counting 1/2."""
    below = np.searchsorted(order, x, side="left")
    return below + 0.5 * (np.searchsorted(order, x, side="right") - below)


def rank_auc(null_scores, alt_scores) -> float:
    """P[alt score > null score] with tie-halving (Mann-Whitney statistic)."""
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    return float(_wins(np.sort(x0), x1).sum() / (x0.size * x1.size))


def auc_stderr(null_scores, alt_scores) -> float:
    """DeLong-style standard error of the rank AUC."""
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    # placement values: each alt score's quantile among nulls and vice versa
    v10 = _wins(np.sort(x0), x1) / x0.size
    v01 = 1.0 - _wins(np.sort(x1), x0) / x1.size
    var = v10.var(ddof=1) / x1.size + v01.var(ddof=1) / x0.size
    return float(math.sqrt(max(var, 0.0)))


def tv_distance_estimate(null_scores, alt_scores) -> float:
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
        "auc": (rank_auc(null, alt), auc_stderr(null, alt)),
        "tv_estimate": (
            tv_distance_estimate(null, alt), math.sqrt(0.5 / null.size + 0.5 / alt.size) / 2.0
        ),
        "llr_infeasible_fraction": (1.0 - finite_null.size / null.size, 0.0),
    }
    for name, scores in (("mean_llr_null", finite_null), ("mean_llr_message", alt)):
        if scores.size > 1:
            out[name] = (float(scores.mean()), float(scores.std(ddof=1) / math.sqrt(scores.size)))
    return out
