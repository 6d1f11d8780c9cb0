"""Single-server FIFO queue primitives.

The channel is a work-conserving single-server queue started empty: packet k
arrives ``A_k`` after packet k-1, waits if the server is busy, then occupies
the server for ``S_k``.  Departure epochs obey the Lindley-type recursion

    d_k = max(d_{k-1}, t_k) + S_k,      t_k = A_1 + ... + A_k,

with d_0 = 0.  The idle gap seen by packet k is U_k = max(0, t_k - d_{k-1}),
so the inter-departure time decomposes as D_k = U_k + S_k.

All sequences are in seconds; rates are per second.  A block is held by its
epochs: arrival epochs t_k and departure epochs d_k, plain float64 arrays,
(n,) for one block or packet-major (n, T) for T blocks.  Gaps enter in one
place, ``departure_epochs``, which sums them.

This module holds the package's input rules, applied once per call at each
public entry and never per trial or per observation: ``_check_rate`` (a
finite number > 0 whose reciprocal, the mean gap, is finite; not a bool),
``_check_count`` (an integer >= a least value, not a bool), ``_check_stable``
(an arrival rate below a service rate, else ``InstabilityError``), ``_as_times``
(non-empty, finite, non-negative gaps, for ``departure_epochs``) and
``_as_epochs`` (its image under the running sum: non-empty, finite,
non-negative and non-decreasing down axis 0).  The simulator
(``simulate_channel``) and the scorers (``codec.decode``,
``warden.willie_llr``, ``laws.info_density_sample``,
``laws.poisson_log_density``), each one call for ``(n,)`` or ``(n, T)``
epochs, check their epochs with ``_as_epochs``.  The sweeps draw their own
gaps or send a codebook's epochs, so they run their arrival epochs unchecked
through ``_queue`` and score its departure epochs with the scorers'
unchecked cores.

Every running sum down axis 0 in the package, of gaps into epochs, goes
through ``_running_sum``: ``np.cumsum``'s additions in its order, so its
bits, taken one row at a time when a block has at least as many columns as
rows.  The one exception has the same additions: the sampler's, which
``_departures`` takes in its own pass down the rows.

Every exponential gap or service is drawn by ``_exponential_gaps``, and
every service by ``ServiceModel._fill``: numpy's standard variate written
in place, then scaled (and shifted, for the uniform law).  Those are the
bits of ``rng.exponential``, ``rng.gamma`` and ``rng.uniform``, which draw
the same standard variate and scale it one element at a time through a
slower generic path.

The recursion is kept in its sequential form on purpose: reassociating the
arithmetic (e.g. a prefix-max formulation) changes last-ulp rounding, and
downstream consumers rely on the exact float semantics of this evaluation
order.

The one recursion, ``_departures``, runs in place over the service times,
each overwritten by its packet's departure epoch, and checks its last row
of epochs for an overflow.  It has two loops, both on the arrival epochs
t_k (a sequential running sum, the same floats as adding the gaps one at a
time):

- a scalar loop over packets, for a 1-d input (one block);
- for a packet-major ``(n, T)`` input, a loop over the packet index k that
  applies each step to all T columns at once; given arrival gaps and the
  row of epochs before them, as the sampler gives them, it also sums each
  row of gaps into epochs, so that one pass down a piece buffer holding its
  gaps and services does the work.

Each element sees the same max-then-add on the same operands in both, so
every column of a 2-d call is bit-identical to the scalar loop on that column.
The scalar loop stays for single blocks, and for blocks narrower than
``_MIN_VECTOR_WIDTH`` columns: a vectorised step pays numpy's per-call
overhead on every packet, about ten times the cost of a scalar step when the
block is one column wide.  Batched callers cover their trials in blocks of at
most ``BLOCK_CELLS`` packets (``trial_blocks``), which bounds their memory;
``laws.sample_info_densities`` runs the recursion down each block in row
pieces, each started from the last row of epochs of the piece before, so
that its memory is one piece's whatever the block length.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, ParameterError, StructuralError

__all__ = [
    "ServiceKind",
    "ServiceModel",
    "BLOCK_CELLS",
    "trial_blocks",
    "poisson_arrivals",
    "departure_epochs",
    "simulate_channel",
]

# Most packets (block length x trials) one batched block holds: a block of
# ``trial_blocks`` in the decode and detection sweeps, or a chunk of
# ``codec.generate_codebook``'s draws.  2^16 cells keep a block's few (n, T)
# float arrays near 0.5 MB each, so peak memory does not grow with the trial
# count, while T stays wide enough to amortise the per-packet numpy calls for
# every n up to a few thousand.
BLOCK_CELLS = 1 << 16


def trial_blocks(n: int, trials: int):
    """Slices of ``range(trials)`` that batch n-packet trials into blocks.

    Every block holds at most ``BLOCK_CELLS`` packets, and at least one trial.
    """
    width = max(1, BLOCK_CELLS // n)
    for start in range(0, trials, width):
        yield slice(start, min(start + width, trials))


def _is_number(value, kind=numbers.Real) -> bool:
    """True for a finite number of ``kind``; a bool is not a number."""
    try:
        return (isinstance(value, kind) and not isinstance(value, (bool, np.bool_))
                and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        return False


def _check_rate(name: str, value):
    """Refuse a rate that is not a finite number > 0 whose reciprocal, the
    mean gap, is finite: a subnormal rate would draw infinite gaps."""
    if not (_is_number(value) and float(value) > 0 and math.isfinite(1.0 / float(value))):
        raise ParameterError(f"{name} must be a finite number above 0 whose reciprocal is "
                             f"finite, got {value!r}")


def _check_count(name: str, value, least: int) -> int:
    """An integer >= ``least`` (numpy's too, never a bool), as a Python int."""
    if not (_is_number(value, numbers.Integral) and value >= least):
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_stable(arrival_rate: float, service_rate: float):
    """Refuse an arrival rate at or above the service rate, both passed by ``_check_rate``."""
    if arrival_rate >= service_rate:
        raise InstabilityError(f"arrival rate {arrival_rate} >= service rate {service_rate}: "
                               f"the queue has no stationary regime")


def _as_times(values, what: str, ndims=(1,)) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in ndims:
        dims = " or ".join(f"{d}-d" for d in ndims)
        raise StructuralError(f"{what} must be {dims}, got shape {arr.shape}")
    if arr.size == 0:
        raise StructuralError(f"{what} must contain at least one element")
    if not np.all(np.isfinite(arr)):
        raise StructuralError(f"{what} must be finite")
    if np.any(arr < 0.0):
        raise StructuralError(f"{what} must be non-negative")
    return arr


def _as_epochs(values, what: str, ndims=(1,)) -> np.ndarray:
    """``_as_times``, and non-decreasing down axis 0: the running sums of gaps
    that ``_as_times`` passes."""
    arr = _as_times(values, what, ndims)
    if np.any(arr[1:] < arr[:-1]):
        raise StructuralError(f"{what} must be non-decreasing")
    return arr


class ServiceKind(enum.Enum):
    EXPONENTIAL = "exponential"
    ERLANG = "erlang"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class ServiceModel:
    """Service-time law with unit-mean-free parameterization by rate.

    ``rate`` is always the reciprocal mean service time (packets/second):

    - exponential: Exp(rate)
    - erlang: sum of ``shape`` Exp(shape*rate) stages, mean 1/rate
    - uniform: Uniform(1/rate - halfwidth, 1/rate + halfwidth)
    """

    kind: ServiceKind
    rate: float
    shape: int | None = None
    halfwidth: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ServiceKind):
            raise ParameterError(f"service kind must be a ServiceKind, got {self.kind!r}")
        _check_rate("service rate", self.rate)
        if self.kind is ServiceKind.ERLANG:
            _check_count("erlang shape", self.shape, 1)
        elif self.shape is not None:
            raise ParameterError(f"shape only applies to erlang, got kind={self.kind.value}")
        if self.kind is ServiceKind.UNIFORM:
            if not (_is_number(self.halfwidth) and 0.0 < self.halfwidth <= 1.0 / self.rate):
                # support must stay inside [0, inf)
                raise ParameterError(
                    f"uniform halfwidth must lie in (0, 1/rate], got {self.halfwidth!r}"
                )
        elif self.halfwidth is not None:
            raise ParameterError(f"halfwidth only applies to uniform, got kind={self.kind.value}")

    @classmethod
    def exponential(cls, rate: float) -> "ServiceModel":
        return cls(ServiceKind.EXPONENTIAL, rate)

    @classmethod
    def erlang(cls, rate: float, shape: int) -> "ServiceModel":
        return cls(ServiceKind.ERLANG, rate, shape=shape)

    @classmethod
    def uniform(cls, rate: float, halfwidth: float) -> "ServiceModel":
        return cls(ServiceKind.UNIFORM, rate, halfwidth=halfwidth)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """i.i.d. service times filling ``size`` (an int or a shape), in C order."""
        return self._fill(rng, np.empty(size))

    def _fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """``sample``'s draws written into the contiguous float64 array ``out``,
        which is returned: the bits of ``rng.exponential(1 / rate)``,
        ``rng.gamma(k, 1 / (k rate))`` or ``rng.uniform(lo, hi)`` of its
        shape (module docstring)."""
        if self.kind is ServiceKind.EXPONENTIAL:
            return _exponential_gaps(rng, self.rate, out)
        if self.kind is ServiceKind.ERLANG:
            k = int(self.shape)
            rng.standard_gamma(k, out=out)
            with np.errstate(over="ignore"):  # as rng.gamma, which never warns
                return np.multiply(out, 1.0 / (k * self.rate), out=out)
        # uniform
        m = 1.0 / self.rate
        lo, hi = m - self.halfwidth, m + self.halfwidth
        rng.random(out=out)
        np.multiply(out, hi - lo, out=out)
        return np.add(out, lo, out=out)

    def log_density(self, x) -> np.ndarray:
        """Elementwise log density; -inf outside the support."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind is ServiceKind.EXPONENTIAL:
            # log r - r x in one array, then -inf where x is not >= 0 (a NaN
            # too): a drawn service never is, so the mask is rarely formed
            out = np.multiply(x, self.rate, out=np.empty_like(x))
            np.subtract(math.log(self.rate), out, out=out)
            if x.size and not x.min() >= 0.0:
                out[~(x >= 0.0)] = -np.inf
            return out
        if self.kind is ServiceKind.ERLANG:
            k = int(self.shape)
            theta = k * self.rate  # stage rate
            try:  # lgamma(k) overflows from k near 2.6e305
                norm = k * math.log(theta) - math.lgamma(k)
            except OverflowError as exc:
                raise ParameterError(f"erlang shape {k} is past the float range") from exc
            safe = np.where(x > 0.0, x, 1.0)  # keep log() off the invalid domain
            out = norm + (k - 1) * np.log(safe) - theta * x
            return np.where(x > 0.0, out, -np.inf)
        # uniform
        m = 1.0 / self.rate
        lo, hi = m - self.halfwidth, m + self.halfwidth
        level = -math.log(2.0 * self.halfwidth)
        return np.where((x >= lo) & (x <= hi), level, -np.inf)


def _exponential_gaps(rng: np.random.Generator, rate: float, out: np.ndarray) -> np.ndarray:
    """Exp(rate) gaps written into the contiguous float64 array ``out``, which
    is returned: the bits of ``rng.exponential(1 / rate, out.shape)``.  A
    product past the float range is inf without a warning, as
    ``rng.exponential`` gives it; callers refuse it where they check their
    epochs."""
    rng.standard_exponential(out=out)
    with np.errstate(over="ignore"):
        return np.multiply(out, 1.0 / rate, out=out)


def poisson_arrivals(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Arrival epochs of a Poisson process: the running sum of n i.i.d.
    Exp(rate) gaps.

    A draw, or their sum, can overflow to inf when the mean gap is near the
    top of the float range; such draws are refused.
    """
    _check_rate("rate", rate)
    gaps = _exponential_gaps(rng, rate, np.empty(_check_count("n", n, 1)))
    with np.errstate(over="ignore"):  # an overflow is refused below
        epochs = _running_sum(gaps, out=gaps)
    if not math.isfinite(epochs[-1]):
        raise ParameterError(f"arrival epochs overflow the float range: the mean gap 1/rate = "
                             f"{1.0 / rate!r} is too large")
    return epochs


def _running_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.cumsum(x, axis=0, out=out)``: the same additions in the same order,
    so the same bits.  ``out`` may be ``x`` itself.

    Every running sum down axis 0 in the package goes through here.
    ``np.cumsum`` walks a 2-d array one column at a time.  When it has at
    least as many columns as rows it is faster to add one row at a time: n
    ufunc calls over all the columns (57 us against 166 us at (16, 2000)).
    """
    if x.ndim == 1 or len(x) > x[0].size:
        return np.cumsum(x, axis=0, out=out)
    if out is None:
        out = np.empty_like(x)
    np.copyto(out[0], x[0])
    for k in range(1, len(x)):
        np.add(out[k - 1], x[k], out=out[k])
    return out


# Narrowest block the vectorised loop takes; narrower blocks run the scalar
# loop column by column.  Below it numpy's per-call overhead outweighs the
# width: at n = 2000 the vectorised loop took 1385, 239, 119, 62 and 32 ns per
# packet at T = 1, 4, 8, 16 and 32, the scalar loop 107-117 ns at any T.
_MIN_VECTOR_WIDTH = 8


def _scalar_departures(t: np.ndarray, s: np.ndarray, prev: float) -> list:
    """Departure epochs of one block from its arrival epochs t and services s,
    after the epoch ``prev``."""
    d = []
    for tk, sk in zip(t.tolist(), s.tolist()):
        prev = (prev if prev > tk else tk) + sk
        d.append(prev)
    return d


def _departures(t: np.ndarray, s: np.ndarray, prev: np.ndarray | None = None,
                packets: int | None = None, carry: np.ndarray | None = None) -> np.ndarray:
    """Departure epochs d_k = max(d_{k-1}, t_k) + s_k down axis 0, from
    arrival epochs t and fresh service times s, written in place over s.
    ``prev`` is the row of epochs before the first, d_0 = 0 by default: a
    block's rows, run in pieces each from the last row of the piece before,
    give the bits of one call over all of them.  With ``carry``, the row of
    arrival epochs before the first, t holds arrival gaps instead, and is
    overwritten with their epochs, the running sum on from ``carry``: in the
    vectorised loop one row at a time, as ``_running_sum`` takes a block at
    least as wide as it is long, beside the max and the add.

    A drawn gap or service time, or a running sum of them, can overflow to
    inf when its mean is near the top of the float range, and every later
    epoch of its block with it: the last row of epochs, the largest, is
    checked, so that no inf - inf makes a NaN gap.  The error names the
    block's ``packets``, len(t) by default.  Callers run the sums under
    ``np.errstate(over="ignore")``, so that an overflow is reported once, by
    this check.
    """
    if prev is None:
        prev = np.zeros(t.shape[1:])
    vector = t.ndim == 2 and t.shape[1] >= _MIN_VECTOR_WIDTH
    if carry is not None and not (vector and len(t) <= t.shape[1]):
        np.add(carry, t[0], out=t[0])
        _running_sum(t, out=t)  # the scalar loop's, or cumsum's column walk
        carry = None
    if t.ndim == 1:
        s[:] = _scalar_departures(t, s, float(prev))
    elif not vector:
        for j in range(t.shape[1]):
            s[:, j] = _scalar_departures(t[:, j], s[:, j], float(prev[j]))
    else:  # loop over k, vectorised over the T columns
        top = np.empty(t.shape[1])  # max(d_{k-1}, t_k): s_k sits in the row written
        if carry is None:
            for tk, row in zip(t, s):
                np.maximum(prev, tk, out=top)
                np.add(top, row, out=row)
                prev = row
        else:  # the running sum of the gaps too, its row k overwriting gap k
            for tk, row in zip(t, s):
                carry = np.add(carry, tk, out=tk)
                np.maximum(prev, tk, out=top)
                np.add(top, row, out=row)
                prev = row
    if not np.isfinite(s[-1:]).all():  # a piece may hold no rows
        raise ParameterError(f"departure epochs overflow the float range within "
                             f"{packets or len(s)} packets: a mean gap or service time is "
                             f"too large")
    return s


def departure_epochs(arrival_gaps, service_times):
    """Departure epochs d_k and idle gaps U_k for given arrivals and services:
    the one public entry that takes gaps.

    Parameters
    ----------
    arrival_gaps, service_times : array-like, same shape (n,) or (n, T)
        Inter-arrival gaps A_k and service times S_k.  A 2-d input holds T
        independent blocks, one per column (packet-major).

    Returns
    -------
    (d, u) : pair of float64 arrays of the input's shape
        d[k] is the k-th departure epoch, u[k] = max(0, t_k - d_{k-1}).

    Each step is one add, one max and one add, so the result is
    bit-reproducible across runs and platforms that share IEEE-754 double
    semantics, and a column of a 2-d call equals the 1-d call on that column.
    Epochs that overflow the float range are refused.
    """
    a = _as_times(arrival_gaps, "arrival gaps", ndims=(1, 2))
    s = _as_times(service_times, "service times", ndims=(1, 2))
    if a.shape != s.shape:
        raise StructuralError(f"shape mismatch: {a.shape} arrivals vs {s.shape} services")
    with np.errstate(over="ignore"):  # an overflow is refused by _departures
        t = _running_sum(a)
        d = _departures(t, s.copy())  # the caller's services are not written to
    dprev = np.zeros_like(d)
    dprev[1:] = d[:-1]
    return d, np.maximum(t - dprev, 0.0)


def _queue(t: np.ndarray, model: ServiceModel, rng: np.random.Generator) -> np.ndarray:
    """Departure epochs of the arrival epochs t, (n,) or (n, T), through fresh
    queues, their services drawn in one call in C order: unchecked, but an
    overflow is refused.  Callers that sum gaps into t do so under
    ``np.errstate(over="ignore")``, as ``_departures`` asks."""
    with np.errstate(over="ignore"):  # an overflow is refused by _departures
        return _departures(t, model.sample(rng, t.shape))


def simulate_channel(arrivals, model: ServiceModel, rng: np.random.Generator) -> np.ndarray:
    """Departure epochs of blocks of arrival epochs pushed through fresh queues.

    ``arrivals`` is ``(n,)`` for one block or packet-major ``(n, T)`` for T
    blocks, through T independent queues; the result has its shape.  The
    service times are drawn in one call, in C order.  Column j of a 2-d call
    equals the 1-d call on column j given the same service times.
    """
    return _queue(_as_epochs(arrivals, "arrival epochs", ndims=(1, 2)), model, rng)
