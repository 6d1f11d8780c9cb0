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


def conditional_log_density(arrival_gaps, departure_gaps, log_density):
    """log p(D | A) of one block: the sum of ``log_density`` (an elementwise
    array function) at the services s_k = D_k - max(0, t_k - d_{k-1}).

    The per-trial scorer the library had before its kernel took one column of
    departures per candidate: it rebuilds the idle time before each service
    from the gaps instead of forming d_k - max(t_k, d_{k-1}) from the epochs.
    """
    a = np.asarray(arrival_gaps, dtype=np.float64)
    gaps = np.asarray(departure_gaps, dtype=np.float64)
    t = np.cumsum(a)
    d = np.cumsum(gaps)
    dprev = np.concatenate([[0.0], d[:-1]])
    services = gaps - np.maximum(t - dprev, 0.0)
    return float(log_density(services).sum())


def epoch_log_density(arrival_gaps, departure_epochs, log_density, rate):
    """log p(D | A) and log q(D) of one block, scored on its departure epochs.

    p is the sum of ``log_density`` (an elementwise array function) at the
    services s_k = d_k - max(t_k, d_{k-1}), with d_0 = 0, formed from the
    epochs themselves rather than from sums of their gaps; q is the Exp(rate)
    product density of the gaps, n ln(rate) - rate * d_n.
    """
    t = np.cumsum(np.asarray(arrival_gaps, dtype=np.float64))
    d = np.asarray(departure_epochs, dtype=np.float64)
    dprev = np.concatenate([[0.0], d[:-1]])
    cond = float(log_density(d - np.maximum(t, dprev)).sum())
    return cond, len(d) * math.log(rate) - rate * float(d[-1])


def scan_scores_exponential(arrival_epochs, departure_gaps, rate):
    """Exp(rate) log p(D | A_c) for every column c of (n, C) arrival epochs.

    The six-pass per-packet loop the library scanned codebooks with before
    its two-accumulator kernel: s_k = D_k - max(0, t_k - d_{k-1}), a mask
    s_k >= 0 folded into a feasibility flag, and a running sum of the s_k.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    gaps = np.asarray(departure_gaps, dtype=np.float64)
    d = np.cumsum(gaps)
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


def masked_exponential_scores(arrival_epochs, departure_gaps, rate):
    """Exp(rate) log p(D | A_c) for every column c of (n, C) arrival epochs,
    with the -inf of an infeasible candidate written by a mask.

    The library's kernel before its infeasibility rule went branch-free: the
    sum and the minimum of s_k = d_k - max(t_k, d_{k-1}), with d the running
    sum of the gaps, then -inf wherever that minimum is below 0.  Its
    additions are the library's, in the library's order, so the two agree bit
    for bit on any input, NaN, signed zeros and infinities included.
    """
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    d = np.cumsum(np.asarray(departure_gaps, dtype=np.float64))
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


def scan_scores(arrival_epochs, departure_gaps, log_density):
    """Sum over packets of ``log_density`` (an elementwise array function) of
    s_k = D_k - max(0, t_k - d_{k-1}), for every column of (n, C) epochs."""
    ta = np.asarray(arrival_epochs, dtype=np.float64)
    gaps = np.asarray(departure_gaps, dtype=np.float64)
    d = np.cumsum(gaps)
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
    """A codebook's (total, n) gaps in flat index order, (w * dummies + wt) *
    keys + k, redrawn in one shot from its seed."""
    rng = np.random.default_rng(book.seed)
    return rng.exponential(1.0 / book.arrival_rate, size=(book.total, book.n))


def key_major_epochs(codewords, num_keys):
    """(n, total) running sums of flat (total, n) codewords, in key-major
    columns: column key * pairs + pair holds flat codeword pair * num_keys + key."""
    total, n = codewords.shape
    by_pair = np.cumsum(codewords, axis=1).reshape(total // num_keys, num_keys, n)
    return np.ascontiguousarray(by_pair.transpose(2, 1, 0).reshape(n, total))


def key_sub_book(codewords, key, num_keys):
    """Key ``key``'s (n, pairs) arrival epochs, gathered with a stride from the
    flat (total, n) codewords, whose index is pair * num_keys + key."""
    return np.ascontiguousarray(np.cumsum(codewords[key::num_keys], axis=1).T)
