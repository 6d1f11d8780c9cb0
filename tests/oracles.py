"""Independent reference implementations used only by the tests.

Nothing here imports the library: the point is to check the package against
separately written logic.
"""

import collections
import math

import numpy as np
from scipy.integrate import quad


def des_departures(arrival_gaps, service_times):
    """Event-calendar FIFO single-server simulation.

    Walks an explicit event list (arrivals and service completions), keeping a
    FIFO buffer and the server's busy state, instead of the one-line waiting
    recursion.  Elementary float operations (running-sum arrival epochs,
    max of two floats, one add per service) match IEEE-754 evaluation order,
    so results are comparable bit-for-bit with the library.

    Returns (departure_epochs, start_times) as float64 arrays.
    """
    n = len(arrival_gaps)
    arrival_epochs = []
    clock = 0.0
    for g in arrival_gaps:
        clock += g
        arrival_epochs.append(clock)
    buffer = collections.deque()
    departures = [0.0] * n
    starts = [0.0] * n
    in_service = None  # packet id currently on the server
    completion_time = math.inf
    last_completion = 0.0
    next_arrival = 0

    def begin_service(pid):
        nonlocal in_service, completion_time
        arrived = arrival_epochs[pid]
        start = last_completion if last_completion > arrived else arrived
        starts[pid] = start
        in_service = pid
        completion_time = start + service_times[pid]

    while next_arrival < n or in_service is not None or buffer:
        next_arrival_time = arrival_epochs[next_arrival] if next_arrival < n else math.inf
        if next_arrival_time <= completion_time:
            buffer.append(next_arrival)
            next_arrival += 1
        else:
            departures[in_service] = completion_time
            last_completion = completion_time
            in_service = None
            completion_time = math.inf
        if in_service is None and buffer:
            begin_service(buffer.popleft())
    return np.array(departures), np.array(starts)


def kl_by_quadrature(log_f, log_g, lo, hi):
    """Integral of f * (log f - log g) over [lo, hi] by adaptive quadrature."""

    def integrand(x):
        lf = log_f(x)
        if lf == -math.inf:
            return 0.0
        return math.exp(lf) * (lf - log_g(x))

    value, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def kl_by_monte_carlo(sampler, log_f, log_g, trials, rng):
    """Sample-average estimate of D(f || g) with its standard error."""
    x = sampler(rng, trials)
    values = log_f(x) - log_g(x)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(trials))


def uniform_kl_closed_form(mean, halfwidth, rate):
    """D(Uniform(mean-h, mean+h) || Exp(rate)) in closed form."""
    return -math.log(2.0 * halfwidth) - math.log(rate) + rate * mean


def erlang_kl_closed_form(shape, rate_mean_inverse, rate):
    """D(Erlang(shape, mean 1/a) || Exp(rate)): entropy + cross-entropy terms."""
    from scipy.special import digamma

    k = shape
    a = rate_mean_inverse
    return (
        math.log(k * a)
        - math.lgamma(k)
        + (k - 1) * float(digamma(k))
        - k
        - math.log(rate)
        + rate / a
    )


def conditional_log_density(arrival_epochs, departure_epochs, log_density):
    """log p(D | A) of one block of epochs: the sum of ``log_density`` (an
    elementwise array function) at the services s_k = D_k - max(0, t_k -
    d_{k-1}), with D_k = d_k - d_{k-1} the departure gaps.

    The per-trial scorer the library had before its kernel took one column of
    departures per candidate: it rebuilds the idle time before each service
    from the gaps instead of forming d_k - max(t_k, d_{k-1}) from the epochs.
    """
    t = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.asarray(departure_epochs, dtype=np.float64)
    gaps = np.diff(d, prepend=0.0)
    dprev = np.concatenate([[0.0], d[:-1]])
    services = gaps - np.maximum(t - dprev, 0.0)
    return float(log_density(services).sum())


def drawn_log_density(arrival_gaps, service_times, log_density, rate):
    """log p(D | A) and log q(D) of the block the queue makes of the given
    arrival gaps and service times.

    Given the arrivals, the map from services to departures is one-to-one
    with unit Jacobian, so p is the sum of ``log_density`` (an elementwise
    array function) at the service times themselves.  q is the Exp(rate)
    product density of the departure gaps, n ln(rate) - rate * d_n, with d_n
    from the event-calendar simulation ``des_departures``.
    """
    departures, _ = des_departures(arrival_gaps, service_times)
    cond = float(log_density(np.asarray(service_times, dtype=np.float64)).sum())
    return cond, len(departures) * math.log(rate) - rate * float(departures[-1])


def numpy_services(rng, model, size):
    """i.i.d. service times of ``model`` (a law with ``kind``, ``rate``,
    ``shape`` and ``halfwidth``, as the library's ``ServiceModel``) drawn by
    numpy's own samplers, ``size`` of them in C order."""
    kind, rate = model.kind.value, model.rate
    if kind == "exponential":
        return rng.exponential(1.0 / rate, size)
    if kind == "erlang":
        return rng.gamma(model.shape, 1.0 / (model.shape * rate), size)
    assert kind == "uniform", kind
    mean = 1.0 / rate
    return rng.uniform(mean - model.halfwidth, mean + model.halfwidth, size)


def service_log_density(model, x):
    """The log density of ``model`` (as in ``numpy_services``) at x, -inf
    outside its support, each cell by one ``np.where``."""
    kind, rate = model.kind.value, model.rate
    x = np.asarray(x, dtype=np.float64)
    if kind == "exponential":
        return np.where(x >= 0.0, math.log(rate) - rate * x, -np.inf)
    if kind == "erlang":
        k = model.shape
        theta = k * rate
        out = k * math.log(theta) - math.lgamma(k) + (k - 1) * np.log(np.where(x > 0.0, x, 1.0)) \
            - theta * x
        return np.where(x > 0.0, out, -np.inf)
    mean = 1.0 / rate
    inside = (x >= mean - model.halfwidth) & (x <= mean + model.halfwidth)
    return np.where(inside, -math.log(2.0 * model.halfwidth), -np.inf)


def piecewise_info_densities(n, rate, model, trials, rng, piece_cells):
    """The information density sampler the library ran before its draws went
    into one piece buffer: per-packet values of ``trials`` Poisson(rate)
    blocks through the queue of ``model``, against the Exp(rate) reference.

    Trials run in blocks of min(trials, piece_cells) columns, and each block
    walks down its packets in row pieces of piece_cells // cols rows.  A piece
    draws its (rows, cols) arrival gaps, then its services, both in C order
    and by numpy's own samplers; adds the log density of the services to the
    block's sums; sums the gaps into epochs on from the block's last arrival
    row; and runs d_k = max(d_{k-1}, t_k) + s_k on from its last departure
    row.  Every addition is the library's, in its order, so the two agree bit
    for bit.
    """
    out = np.empty(trials)
    with np.errstate(over="ignore"):
        for first in range(0, trials, piece_cells):
            cols = min(trials - first, piece_cells)
            rows = piece_cells // cols
            t_last, d_last = np.zeros(cols), np.zeros(cols)
            scores = np.zeros(cols)
            for k in range(0, n, rows):
                shape = (min(rows, n - k), cols)
                t = rng.exponential(1.0 / rate, shape)
                s = numpy_services(rng, model, shape)
                scores += service_log_density(model, s).sum(axis=0)
                t[0] += t_last
                t = np.cumsum(t, axis=0)
                for tk, sk in zip(t, s):
                    d_last = np.maximum(d_last, tk) + sk
                t_last = t[-1]
            out[first:first + cols] = (scores - (n * math.log(rate) - rate * d_last)) / n
    return out


def scan_scores_exponential(arrival_epochs, departure_epochs, rate):
    """Exp(rate) log p(D | A_c) for every column c of (n, C) arrival epochs,
    against (n,) departure epochs d.

    The six-pass per-packet loop the library scanned codebooks with before
    its two-accumulator kernel: s_k = D_k - max(0, t_k - d_{k-1}), with D_k =
    d_k - d_{k-1} the departure gaps, a mask s_k >= 0 folded into a
    feasibility flag, and a running sum of the s_k.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.asarray(departure_epochs, dtype=np.float64)
    gaps = np.diff(d, prepend=0.0)
    n, count = ta.shape
    buf = np.empty(count)
    ssum = np.zeros(count)
    feasible = np.ones(count, dtype=bool)
    mask = np.empty(count, dtype=bool)
    prev = 0.0
    for k in range(n):
        np.subtract(ta[k], prev, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.subtract(gaps[k], buf, out=buf)
        np.greater_equal(buf, 0.0, out=mask)
        np.logical_and(feasible, mask, out=feasible)
        np.add(ssum, buf, out=ssum)
        prev = d[k]
    scores = n * math.log(rate) - rate * ssum
    scores[~feasible] = -np.inf
    return scores


def masked_exponential_scores(arrival_epochs, departure_epochs, rate):
    """Exp(rate) log p(D | A_c) for every column c of (n, C) arrival epochs,
    against (n,) departure epochs d, with the -inf of an infeasible candidate
    written by a mask.

    The library's kernel before its infeasibility rule went branch-free: the
    sum and the minimum of s_k = d_k - max(t_k, d_{k-1}), then -inf wherever
    that minimum is below 0.  Its additions are the library's, in the
    library's order, so the two agree bit for bit on any input, NaN, signed
    zeros and infinities included.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.asarray(departure_epochs, dtype=np.float64)
    n = ta.shape[0]
    total = least = None
    prev = 0.0
    for k in range(n):
        s = d[k] - np.maximum(ta[k], prev)
        total = s if k == 0 else total + s
        least = s if k == 0 else np.minimum(least, s)
        prev = d[k]
    scores = total * -rate + n * math.log(rate)
    return np.where(least < 0.0, -np.inf, scores)


def scan_scores(arrival_epochs, departure_epochs, log_density):
    """Sum over packets of ``log_density`` (an elementwise array function) of
    s_k = D_k - max(0, t_k - d_{k-1}), with D_k = d_k - d_{k-1}, for every
    column of (n, C) arrival epochs against (n,) departure epochs d."""
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.asarray(departure_epochs, dtype=np.float64)
    gaps = np.diff(d, prepend=0.0)
    n, count = ta.shape
    buf = np.empty(count)
    scores = np.zeros(count)
    prev = 0.0
    for k in range(n):
        np.subtract(ta[k], prev, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.subtract(gaps[k], buf, out=buf)
        scores += log_density(buf)
        prev = d[k]
    return scores


def flat_codewords(book):
    """A codebook's (total, n) gaps, one codeword per row in column order,
    redrawn in one shot from its seed."""
    rng = np.random.default_rng(book.seed)
    return rng.exponential(1.0 / book.arrival_rate, size=(book.total, book.n))


def sent_codewords(book, rng, count):
    """``Codebook.send``'s draws replayed: ``count`` uniform messages, then
    as many keys, then as many dummies, each codeword's epochs taken from
    its key-major column one trial at a time.

    Returns ``(messages, dummies, keys, codewords)``, the codewords a list of
    (n,) epoch arrays.
    """
    messages, keys, dummies = (rng.integers(high, size=count).tolist() for high in
                               (book.num_messages, book.num_keys, book.num_dummies))
    codewords = [book.arrival_epochs[:, (k * book.num_messages + w) * book.num_dummies + wt]
                 for w, wt, k in zip(messages, dummies, keys)]
    return messages, dummies, keys, codewords


def _wins(order, x):
    """For each x, how many of the sorted scores ``order`` lie below it, ties counting 1/2."""
    below = np.searchsorted(order, x, side="left")
    return below + 0.5 * (np.searchsorted(order, x, side="right") - below)


def detection_summary(null_scores, alt_scores):
    """``warden.summarize_detection``'s dict, each statistic sorting its own
    copies of the scores: the rank AUC and its DeLong SE, the plug-in TV
    estimate and its scale, the -inf null share and the two llr means."""
    x0 = np.asarray(null_scores, dtype=np.float64)
    x1 = np.asarray(alt_scores, dtype=np.float64)
    auc = float(_wins(np.sort(x0), x1).sum() / (x0.size * x1.size))
    v10 = _wins(np.sort(x0), x1) / x0.size
    v01 = 1.0 - _wins(np.sort(x1), x0) / x1.size
    var = v10.var(ddof=1) / x1.size + v01.var(ddof=1) / x0.size
    o0, o1 = np.sort(x0), np.sort(x1)
    grid = np.concatenate([o0, o1])
    f0 = np.searchsorted(o0, grid, side="right") / x0.size
    f1 = np.searchsorted(o1, grid, side="right") / x1.size
    finite = x0[np.isfinite(x0)]
    out = {
        "auc": (auc, float(math.sqrt(max(var, 0.0)))),
        "tv_estimate": (float(max(0.0, np.max(f0 - f1))),
                        math.sqrt(0.5 / x0.size + 0.5 / x1.size) / 2.0),
        "llr_infeasible_fraction": (1.0 - finite.size / x0.size, 0.0),
    }
    for name, scores in (("mean_llr_null", finite), ("mean_llr_message", x1)):
        if scores.size > 1:
            out[name] = (float(scores.mean()), float(scores.std(ddof=1) / math.sqrt(scores.size)))
    return out
