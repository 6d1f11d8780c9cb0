"""Achievable-rate region for the covert queueing channel.

All rates are in nats/second; a block of n packets at arrival rate lam spans
n/lam seconds on average, so nats/packet values convert by multiplying by lam.

For exponential cross traffic everywhere (M/M/1 at both observers, legitimate
receiver service rate mu1, adversary service rate mu2), a message rate R is
achievable with key rate R_K iff

    0 <= R < lam * ln(mu1/lam)          (decodability)
    R_K  >  max(0, lam * ln(mu2/mu1))   (undetectability; >= 0 when the max is 0)

For a general adversary service law P_W with mean 1/mu2, the shared-randomness
constraint stiffens by the divergence of P_W from the exponential of the same
mean and binds the sum of the two rates:

    R + R_K > max(0, lam * (ln(mu2/mu1) + D(P_W || Exp(mu2)))).

Strictness convention: the strict ">" applies to positive thresholds; a zero
threshold admits equality (R_K = 0 is allowed when no key is needed).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    InfeasibleRateError,
    InstabilityError,
    ParameterError,
    UnsupportedLawError,
)
from .queueing import ServiceKind, ServiceModel

__all__ = [
    "RatePoint",
    "RegionKind",
    "RegionSpec",
    "covert_capacity",
    "min_key_rate_mm1",
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


def _check_rate(name: str, value: float):
    if not (value > 0.0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class RatePoint:
    """Operating point: message rate R, key rate R_K, dummy rate R_0 (nats/s)."""

    arrival_rate: float
    message_rate: float
    key_rate: float
    dummy_rate: float = 0.0

    def __post_init__(self):
        _check_rate("arrival_rate", self.arrival_rate)
        for name in ("message_rate", "key_rate", "dummy_rate"):
            v = getattr(self, name)
            if not (math.isfinite(v)):
                raise ParameterError(f"{name} must be finite, got {v}")
        if self.key_rate < 0.0 or self.dummy_rate < 0.0:
            raise ParameterError("key_rate and dummy_rate must be non-negative")


class RegionKind(enum.Enum):
    MM1 = "mm1"
    MG1 = "mg1"


@dataclass(frozen=True)
class RegionSpec:
    """Channel pair: receiver rate mu1, adversary rate mu2 (+ law for MG1)."""

    mu1: float
    mu2: float
    kind: RegionKind = RegionKind.MM1
    willie_service: ServiceModel | None = None

    def __post_init__(self):
        _check_rate("mu1", self.mu1)
        _check_rate("mu2", self.mu2)
        if self.kind is RegionKind.MG1:
            if self.willie_service is None:
                raise ParameterError("MG1 region needs an adversary service law")
            if not self.willie_service.has_density:
                raise UnsupportedLawError(
                    "MG1 region needs a service law with a density"
                )
            if not math.isclose(self.willie_service.rate, self.mu2, rel_tol=1e-12):
                raise ParameterError(
                    f"adversary service law rate {self.willie_service.rate} "
                    f"must equal mu2={self.mu2}"
                )
        elif self.willie_service is not None:
            raise ParameterError("willie_service only applies to the MG1 region")

    def willie_divergence(self) -> float:
        """KL of the adversary's service law from Exp(mu2); 0 for MM1."""
        if self.kind is RegionKind.MM1:
            return 0.0
        return kl_to_exponential(self.willie_service, self.mu2)


def covert_capacity(arrival_rate: float, mu1: float) -> float:
    """Largest achievable message rate, lam * ln(mu1/lam), in nats/second."""
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("mu1", mu1)
    if arrival_rate >= mu1:
        raise InstabilityError(
            f"arrival rate {arrival_rate} >= service rate {mu1}: queue unstable"
        )
    return arrival_rate * log_ratio(mu1, arrival_rate)


def min_key_rate_mm1(arrival_rate: float, mu1: float, mu2: float) -> float:
    """Least key rate supporting covertness: max(0, lam * ln(mu2/mu1)) nats/s."""
    _check_rate("arrival_rate", arrival_rate)
    _check_rate("mu1", mu1)
    _check_rate("mu2", mu2)
    if arrival_rate >= min(mu1, mu2):
        raise InstabilityError(
            f"arrival rate {arrival_rate} >= min service rate {min(mu1, mu2)}"
        )
    return max(0.0, arrival_rate * log_ratio(mu2, mu1))


def kl_to_exponential(model: ServiceModel, rate: float) -> float:
    """KL divergence D(model || Exp(rate)) in nats.

    Closed forms for exponential and Erlang laws; adaptive quadrature for the
    uniform law.  The deterministic law has infinite divergence.
    """
    _check_rate("rate", rate)
    if model.kind is ServiceKind.DETERMINISTIC:
        raise UnsupportedLawError(
            "point-mass service law has infinite divergence from any density"
        )
    if model.kind is ServiceKind.EXPONENTIAL:
        # D(Exp(a) || Exp(b)) = ln(a/b) + b/a - 1
        a = model.rate
        return log_ratio(a, rate) + rate / a - 1.0
    if model.kind is ServiceKind.ERLANG:
        # Erlang with k stages, mean 1/a: entropy and cross-entropy in closed form
        from scipy.special import digamma  # scipy costs most of a cold import

        k = int(model.shape)
        a = model.rate
        theta = k * a
        return (
            math.log(theta)
            - math.lgamma(k)
            + (k - 1) * float(digamma(float(k)))  # an int beyond int64 has no psi loop
            - k
            - math.log(rate)
            + rate / a
        )
    # uniform: integrate f * log(f/g) over the (compact) support
    from scipy.integrate import quad

    m = model.mean
    lo, hi = m - model.halfwidth, m + model.halfwidth
    level = 1.0 / (2.0 * model.halfwidth)
    log_level = math.log(level)

    def integrand(x):
        return level * (log_level - (math.log(rate) - rate * x))

    value, err = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12)
    return value


def _key_threshold(point: RatePoint, spec: RegionSpec) -> float:
    lam = point.arrival_rate
    base = lam * log_ratio(spec.mu2, spec.mu1)
    if spec.kind is RegionKind.MG1:
        base += lam * spec.willie_divergence()
    return max(0.0, base)


def in_region(point: RatePoint, spec: RegionSpec) -> bool:
    """Membership in the achievable (R, R_K) region."""
    lam = point.arrival_rate
    if point.message_rate < 0.0:
        return False
    if lam >= spec.mu1:
        return False  # no positive capacity without a stable receiver queue
    if point.message_rate >= covert_capacity(lam, spec.mu1):
        return False
    threshold = _key_threshold(point, spec)
    if spec.kind is RegionKind.MM1:
        budget = point.key_rate
    else:
        budget = point.message_rate + point.key_rate
    if threshold > 0.0:
        return budget > threshold
    return budget >= 0.0


def choose_dummy_rate(point: RatePoint, spec: RegionSpec) -> float:
    """Midpoint of the feasible dummy-rate interval for an in-region point.

    The dummy rate R_0 pads the codebook so the total transmitted randomness
    masks the message: it must satisfy

        R + R_0 <= lam * ln(mu1/lam)                       (decodable)
        R + R_0 + R_K >= lam * (ln(mu2/lam) + divergence)  (resolvable)

    Raises the infeasible-rate error when the point is outside the region or
    the interval is empty.
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

    The test is ln(mu1/mu2) > D(P_W || Exp(mu2)), with D = 0 for MM1, and its
    margin is strict: at equality every such rate is achievable too.  An MG1
    spec that fails it may still reach some message rates with zero key rate.
    """
    gap = log_ratio(spec.mu1, spec.mu2) - spec.willie_divergence()
    return gap > 0.0
