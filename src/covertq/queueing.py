"""Single-server FIFO queue primitives.

The channel is a work-conserving single-server queue started empty: packet k
arrives ``A_k`` after packet k-1, waits if the server is busy, then occupies
the server for ``S_k``.  Departure epochs obey the Lindley-type recursion

    d_k = max(d_{k-1}, t_k) + S_k,      t_k = A_1 + ... + A_k,

with d_0 = 0.  The idle gap seen by packet k is U_k = max(0, t_k - d_{k-1}),
so the inter-departure time decomposes as D_k = U_k + S_k.

All sequences are in seconds; rates are per second.  Gap sequences are plain
float64 arrays, (n,) for one block or packet-major (n, T) for T blocks.

This module holds the package's three input rules, applied once per call at
each public entry and never per trial or per observation: ``_check_rate``
(a finite number > 0 whose reciprocal, the mean gap, is finite; not a bool),
``_check_count`` (an integer >= a least value, not a bool) and ``_as_times``
(non-empty, finite, non-negative gaps).  The simulator
(``departure_epochs``, ``simulate_channel``, ``simulate_block``) and the
scorers (``codec.decode_block``, ``warden.willie_llr_block``,
``laws.info_density_sample``) check their gaps with ``_as_times``; gaps a
caller draws itself, as ``laws.sample_info_densities`` does, need no check.

Every running sum down axis 0 in the package, of gaps into epochs, goes
through ``_running_sum``: ``np.cumsum``'s additions in its order, so its
bits, taken one row at a time when a block has at least as many columns as
rows.  The running sum of the differenced departure epochs is not the
epochs: an epoch that ends an idle period is an arrival epoch plus a service
time, not the epoch before it plus a float, so re-adding its gap can round
differently, and the running sum carries the difference on (332 of 32,000
cells in one draw at n=16, T=2000).  So a scorer that has the recursion's
epochs, as ``laws.sample_info_densities`` does, scores them, not the sums of
their gaps.

The recursion is kept in its sequential form on purpose: reassociating the
arithmetic (e.g. a prefix-max formulation) changes last-ulp rounding, and
downstream consumers rely on the exact float semantics of this evaluation
order.

The one recursion, ``_departures``, writes into a new array or in place
over the service times, and has two loops, both on the arrival epochs t_k
(a sequential running sum, the same floats as adding the gaps one at a
time):

- a scalar loop over packets, for a 1-d input (one block);
- for a packet-major ``(n, T)`` input, a loop over the packet index k that
  applies each step to all T columns at once.

Each element sees the same max-then-add on the same operands in both, so
every column of a 2-d call is bit-identical to the scalar loop on that column.
The scalar loop stays for single blocks, and for blocks narrower than
``_MIN_VECTOR_WIDTH`` columns: a vectorised step pays numpy's per-call
overhead on every packet, about ten times the cost of a scalar step when the
block is one column wide.  Batched callers cover their trials in blocks of at
most ``BLOCK_CELLS`` packets (``trial_blocks``), which bounds their memory;
``laws.sample_info_densities`` sets blocks narrower than 64 columns side by
side in stacks of at most ``laws.STACK_CELLS`` packets, so that one call of
the recursion serves several of them, and its memory is bounded by that.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError, UnsupportedLawError

__all__ = [
    "ServiceKind",
    "ServiceModel",
    "BLOCK_CELLS",
    "trial_blocks",
    "poisson_arrivals",
    "departure_epochs",
    "simulate_channel",
    "simulate_block",
]

# Most packets (block length x trials) one batched block holds.  2^16 cells
# keep a block's few (n, T) float arrays near 0.5 MB each, so peak memory does
# not grow with the trial count, while T stays wide enough to amortise the
# per-packet numpy calls for every n up to a few thousand.
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


class ServiceKind(enum.Enum):
    EXPONENTIAL = "exponential"
    ERLANG = "erlang"
    UNIFORM = "uniform"
    DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class ServiceModel:
    """Service-time law with unit-mean-free parameterization by rate.

    ``rate`` is always the reciprocal mean service time (packets/second):

    - exponential: Exp(rate)
    - erlang: sum of ``shape`` Exp(shape*rate) stages, mean 1/rate
    - uniform: Uniform(1/rate - halfwidth, 1/rate + halfwidth)
    - deterministic: point mass at 1/rate (no density)
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

    @classmethod
    def deterministic(cls, rate: float) -> "ServiceModel":
        return cls(ServiceKind.DETERMINISTIC, rate)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def has_density(self) -> bool:
        return self.kind is not ServiceKind.DETERMINISTIC

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """i.i.d. service times filling ``size`` (an int or a shape), in C order."""
        if self.kind is ServiceKind.EXPONENTIAL:
            return rng.exponential(1.0 / self.rate, size=size)
        if self.kind is ServiceKind.ERLANG:
            k = int(self.shape)
            return rng.gamma(k, 1.0 / (k * self.rate), size=size)
        if self.kind is ServiceKind.UNIFORM:
            m = 1.0 / self.rate
            return rng.uniform(m - self.halfwidth, m + self.halfwidth, size=size)
        return np.full(size, 1.0 / self.rate)

    def log_density(self, x) -> np.ndarray:
        """Elementwise log density; -inf outside the support.

        Raises for the deterministic law, which has no density with respect to
        Lebesgue measure.
        """
        if self.kind is ServiceKind.DETERMINISTIC:
            raise UnsupportedLawError("deterministic service law has no density")
        x = np.asarray(x, dtype=np.float64)
        if self.kind is ServiceKind.EXPONENTIAL:
            out = math.log(self.rate) - self.rate * x
            return np.where(x >= 0.0, out, -np.inf)
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


def poisson_arrivals(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inter-arrival gaps of a Poisson process: n i.i.d. Exp(rate) draws.

    A draw can overflow to inf when the mean gap is near the top of the float
    range; such draws are refused.
    """
    _check_rate("rate", rate)
    gaps = rng.exponential(1.0 / rate, size=_check_count("n", n, 1))
    if not np.isfinite(gaps).all():
        raise ParameterError(f"arrival gaps overflow the float range: the mean gap 1/rate = "
                             f"{1.0 / rate!r} is too large")
    return gaps


def _running_sum(x: np.ndarray, out: np.ndarray | None = None,
                 carry: np.ndarray | None = None) -> np.ndarray:
    """``np.cumsum(x, axis=0, out=out)``: the same additions in the same order,
    so the same bits.  ``out`` may be ``x`` itself.  With ``carry``, the
    running sum's row before ``x``, the sum goes on from it: ``x[0]`` is
    overwritten with carry + x[0], the sum's next step.

    Every running sum down axis 0 in the package goes through here.
    ``np.cumsum`` walks a 2-d array one column at a time.  When it has at
    least as many columns as rows it is faster to add one row at a time: n
    ufunc calls over all the columns (57 us against 166 us at (16, 2000)).
    """
    if carry is not None:
        np.add(carry, x[0], out=x[0])
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


def _scalar_departures(t: np.ndarray, s: np.ndarray) -> list:
    """Departure epochs of one block from its arrival epochs t and services s."""
    d = []
    prev = 0.0
    for tk, sk in zip(t.tolist(), s.tolist()):
        prev = (prev if prev > tk else tk) + sk
        d.append(prev)
    return d


def _departures(t: np.ndarray, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Departure epochs d_k = max(d_{k-1}, t_k) + s_k down axis 0, into
    ``out``: a new array by default, or ``s`` itself for the in-place form.

    The one departure recursion.  Both loops take the same max-then-add on
    the same operands, so a column of a 2-d call is bit-identical to the 1-d
    call on that column.
    """
    if out is None:
        out = np.empty_like(t)
    if t.ndim == 1:
        out[:] = _scalar_departures(t, s)
    elif t.shape[1] < _MIN_VECTOR_WIDTH:
        for j in range(t.shape[1]):
            out[:, j] = _scalar_departures(t[:, j], s[:, j])
    else:  # loop over k, vectorised over the T columns
        top = np.empty(t.shape[1])  # max(d_{k-1}, t_k): s_k may sit in the row written
        prev = np.zeros(t.shape[1])
        for tk, sk, row in zip(t, s, out):
            np.maximum(prev, tk, out=top)
            np.add(top, sk, out=row)
            prev = row
    return out


def _checked_departures(t: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Departure epochs from arrival epochs t and fresh service times, which
    are overwritten with them.

    A drawn gap or service time, or a running sum of them, can overflow to
    inf when its mean is near the top of the float range, and every later
    epoch of its block with it: the last row of epochs, the largest, is
    checked, so that no inf - inf makes a NaN gap.  Callers run the sums
    under ``np.errstate(over="ignore")``, so that an overflow is reported
    once, by this check.
    """
    d = _departures(t, services, out=services)
    if not np.isfinite(d[-1]).all():
        raise ParameterError(f"departure epochs overflow the float range within {len(d)} "
                             f"packets: a mean gap or service time is too large")
    return d


def _departure_gaps(d: np.ndarray) -> np.ndarray:
    """Inter-departure gaps of the departure epochs d, the first from d_0 = 0:
    ``np.diff(d, axis=0, prepend=0.0)`` without its concatenated copy.
    """
    out = np.empty_like(d)
    out[:1] = d[:1]
    np.subtract(d[1:], d[:-1], out=out[1:])
    return out


def departure_epochs(arrival_gaps, service_times):
    """Departure epochs d_k and idle gaps U_k for given arrivals and services.

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
    """
    a = _as_times(arrival_gaps, "arrival gaps", ndims=(1, 2))
    s = _as_times(service_times, "service times", ndims=(1, 2))
    if a.shape != s.shape:
        raise StructuralError(f"shape mismatch: {a.shape} arrivals vs {s.shape} services")
    t = _running_sum(a)
    d = _departures(t, s)
    dprev = np.zeros_like(d)
    dprev[1:] = d[:-1]
    return d, np.maximum(t - dprev, 0.0)


def _simulate(arrival_gaps, model: ServiceModel, rng: np.random.Generator, ndim: int):
    a = _as_times(arrival_gaps, "arrival gaps", ndims=(ndim,))
    with np.errstate(over="ignore"):  # an overflow is refused by _checked_departures
        return _departure_gaps(_checked_departures(_running_sum(a), model.sample(rng, a.shape)))


def simulate_channel(arrivals, model: ServiceModel, rng: np.random.Generator) -> np.ndarray:
    """Inter-departure gaps of one block of (n,) arrival gaps, with n services drawn."""
    return _simulate(arrivals, model, rng, 1)


def simulate_block(arrival_gaps, model: ServiceModel, rng: np.random.Generator) -> np.ndarray:
    """Inter-departure gaps of T blocks pushed through T independent queues.

    ``arrival_gaps`` is packet-major ``(n, T)``: column j is one block.  The
    ``(n, T)`` service times are drawn in one call, in C order.  Column j of
    the result equals ``simulate_channel`` on column j given the same service
    times.
    """
    return _simulate(arrival_gaps, model, rng, 2)
