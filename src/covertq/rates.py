"""Achievable-rate region for the covert queueing channel.

All rates are in nats/second; a block of n packets at arrival rate lam spans
n/lam seconds on average, so nats/packet values convert by multiplying by lam.

The receiver's queue serves Exp(mu1); the adversary's serves a law P_W of mean
1/mu2, with D = D(P_W || Exp(mu2)) (0 for Exp(mu2)).  A codebook at message,
dummy and key rates R, R_0, R_K must be decodable, R + R_0 <= lam ln(mu1/lam),
and resolvable (soft covering), R + R_0 + R_K >= lam (ln(mu2/lam) + D).  With
R_0 >= 0 eliminated, both hold for some R_0 iff

    0 <= R < lam * ln(mu1/lam)
    R_K  >  max(0, lam * (ln(mu2/mu1) + D)),

one key threshold for every law, which does not depend on R.  For an Erlang
or uniform warden the threshold is a key rate sufficient for this scheme, and
no one has shown that it is the least: ln(mu2/lam) + D = h(Exp(lam)) - h(P_W)
bounds the per-packet I(A;D) of the warden's queue under Poisson input from
above, with equality only when its output is Poisson, as for an exponential
server.

Strictness convention: the strict ">" applies to positive thresholds; a zero
threshold admits equality (R_K = 0 is allowed when no key is needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleRateError, ParameterError
from .queueing import ServiceKind, ServiceModel, _check_rate, _check_stable, _is_number

__all__ = [
    "RatePoint",
    "RegionSpec",
    "covert_capacity",
    "min_key_rate",
    "kl_to_exponential",
    "in_region",
    "choose_dummy_rate",
    "no_key_needed",
    "log_ratio",
]


def log_ratio(a: float, b: float) -> float:
    """ln(a/b) of two positive finite floats, also where a/b leaves the float range."""
    ratio = a / b
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(a) - math.log(b)


@dataclass(frozen=True)
class RatePoint:
    """Operating point: arrival rate lam (packets/s), message rate R and key
    rate R_K (nats/s).  The dummy rate R_0 is not a field: ``choose_dummy_rate``
    derives it from the point and the region."""

    arrival_rate: float
    message_rate: float
    key_rate: float

    def __post_init__(self):
        _check_rate("arrival_rate", self.arrival_rate)
        for name in ("message_rate", "key_rate"):
            v = getattr(self, name)
            if not _is_number(v):
                raise ParameterError(f"{name} must be a finite number, got {v!r}")
        if self.key_rate < 0.0:
            raise ParameterError("key_rate must be non-negative")


@dataclass(frozen=True)
class RegionSpec:
    """Channel pair: receiver rate mu1, adversary rate mu2 and law (default Exp(mu2))."""

    mu1: float
    mu2: float
    willie_service: ServiceModel | None = None

    def __post_init__(self):
        _check_rate("mu1", self.mu1)
        _check_rate("mu2", self.mu2)
        if self.willie_service is None:
            object.__setattr__(self, "willie_service", ServiceModel.exponential(self.mu2))
        if not isinstance(self.willie_service, ServiceModel):
            raise ParameterError(f"willie_service must be a service law, "
                                 f"got {self.willie_service!r}")
        if not math.isclose(self.willie_service.rate, self.mu2, rel_tol=1e-12):
            raise ParameterError(
                f"adversary service law rate {self.willie_service.rate} "
                f"must equal mu2={self.mu2}"
            )

    def willie_divergence(self) -> float:
        """KL of the adversary's service law from Exp(mu2); exactly 0 for Exp(mu2)."""
        return kl_to_exponential(self.willie_service, self.mu2)


def covert_capacity(arrival_rate: float, mu1: float) -> float:
    """Largest achievable message rate, lam * ln(mu1/lam), in nats/second."""
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("mu1", mu1)
    _check_stable(arrival_rate, mu1)
    return arrival_rate * log_ratio(mu1, arrival_rate)


def min_key_rate(arrival_rate: float, spec: RegionSpec) -> float:
    """Key rate above which this scheme is covert at any message rate:
    max(0, lam * (ln(mu2/mu1) + D)).  For an Erlang or uniform warden it is
    sufficient, not shown to be the least (module docstring)."""
    _check_rate("arrival_rate", arrival_rate)
    _check_stable(arrival_rate, min(spec.mu1, spec.mu2))
    return _key_threshold(arrival_rate, spec)


def _key_threshold(arrival_rate: float, spec: RegionSpec) -> float:
    """The key threshold of ``min_key_rate``, without its stability check."""
    return max(0.0, arrival_rate * (log_ratio(spec.mu2, spec.mu1) + spec.willie_divergence()))


def _erlang_shape_term(k: int) -> float:
    """log k - lgamma(k) + (k - 1) psi(k) - k, from its Stirling series.

    The closed form cancels lgamma(k) against (k - 1) psi(k), two terms of
    size k log k, and loses all its digits by k = 10^16.  The series is
    (1/2) log(k / 2 pi) - 1/2 + 1/(2k) + sum_j B_2j (k^-2j / (2j) - k^(1-2j) / (2j - 1))
    with B_2j the Bernoulli numbers.  From k = 100 on, its terms to k^-6 are
    within 1e-16 of the sum.
    """
    x = 1 / k  # k may be past the float range
    tail = x * (1 / 3 + x * (1 / 12 + x * (1 / 90 + x * (-1 / 120 + x * (-1 / 210 + x / 252)))))
    return 0.5 * (math.log(k) - math.log(2.0 * math.pi) - 1.0) + tail


def kl_to_exponential(model: ServiceModel, rate: float) -> float:
    """KL divergence D(model || Exp(rate)) in nats.

    Closed forms for the exponential, Erlang and uniform laws (a Stirling
    series for Erlang shapes from 100 on).
    """
    _check_rate("rate", rate)
    if model.kind is ServiceKind.EXPONENTIAL:
        # D(Exp(a) || Exp(b)) = ln(a/b) + b/a - 1
        a = model.rate
        return log_ratio(a, rate) + rate / a - 1.0
    if model.kind is ServiceKind.ERLANG:
        # Erlang with k stages, mean 1/a: entropy and cross-entropy in closed form
        k = int(model.shape)
        a = model.rate
        if k >= 100:
            return _erlang_shape_term(k) + log_ratio(a, rate) + rate / a
        from scipy.special import digamma  # scipy costs most of a cold import

        theta = k * a
        return (
            math.log(theta)
            - math.lgamma(k)
            + (k - 1) * float(digamma(float(k)))
            - k
            - math.log(rate)
            + rate / a
        )
    # uniform on m -/+ h, m = 1 / model.rate: D = -ln(2h) - ln(rate) + rate * m,
    # with ln 2h split so that 2h cannot overflow
    return (-(math.log(2.0) + math.log(model.halfwidth)) - math.log(rate)
            + rate / model.rate)


def in_region(point: RatePoint, spec: RegionSpec) -> bool:
    """Membership in the achievable (R, R_K) region."""
    lam = point.arrival_rate
    # no positive capacity without a stable receiver queue
    if point.message_rate < 0.0 or lam >= spec.mu1:
        return False
    if point.message_rate >= covert_capacity(lam, spec.mu1):
        return False
    threshold = _key_threshold(lam, spec)
    return threshold == 0.0 or point.key_rate > threshold


def choose_dummy_rate(point: RatePoint, spec: RegionSpec) -> float:
    """Midpoint of the feasible dummy-rate interval for an in-region point.

    The dummy rate R_0 pads the codebook so the total transmitted randomness
    masks the message: it must satisfy

        R + R_0 <= lam * ln(mu1/lam)                       (decodable)
        R + R_0 + R_K >= lam * (ln(mu2/lam) + divergence)  (resolvable)

    The two bind R_K alone, so the interval is non-empty exactly in the
    region.  Raises the infeasible-rate error when the point is outside it, or
    when rounding at the key threshold leaves the interval empty.
    """
    if not in_region(point, spec):
        raise InfeasibleRateError(
            f"rate point (R={point.message_rate}, R_K={point.key_rate}) "
            f"outside the achievable region"
        )
    lam = point.arrival_rate
    upper = covert_capacity(lam, spec.mu1) - point.message_rate
    resolvability = lam * (log_ratio(spec.mu2, lam) + spec.willie_divergence())
    lower = max(0.0, resolvability - point.message_rate - point.key_rate)
    if lower > upper:
        raise InfeasibleRateError(
            f"empty dummy-rate interval: need R_0 >= {lower:.6g} for masking "
            f"but R_0 <= {upper:.6g} for decodability"
        )
    return 0.5 * (lower + upper)


def no_key_needed(spec: RegionSpec) -> bool:
    """True when every message rate below capacity is achievable with zero key rate.

    The test is ln(mu1/mu2) > D(P_W || Exp(mu2)), the key threshold's sign; it
    does not depend on the arrival rate or the message rate.  Its margin is
    strict: at equality the threshold is 0 and every such rate is achievable
    too.  Past equality every message rate needs a positive key rate.
    """
    gap = log_ratio(spec.mu1, spec.mu2) - spec.willie_divergence()
    return gap > 0.0
