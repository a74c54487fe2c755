"""Physical parameters, the continuum threshold, and regime classification.

The two-band dispersion puts the bottom of the continuous spectrum at -Sigma
with Sigma = beta for beta > alpha^2/2 and (beta/alpha)^2 + (alpha/2)^2
otherwise.  The coupling strength relative to sqrt(2*beta) decides which of
the three analysis regimes applies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError

# relative half-width of the rejected band around the artanh pole at z = -Sigma
_POLE_GUARD = 1e-10


class Regime(enum.Enum):
    CASE_A = "CaseA"          # no spin-orbit coupling (alpha = 0)
    CASE_B = "CaseB"          # small coupling, 0 < alpha < sqrt(2*beta)
    CASE_C = "CaseC"          # large coupling, sqrt(2*beta) <= alpha, beta > 0
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class SystemParams:
    """Spin-orbit-coupling strength alpha and Zeeman field strength beta.

    The threshold Sigma and the half-width of the pole guard around -Sigma
    (zero where artanh(alpha*xi) has no pole there) are computed once, at
    construction, and kept as private attributes outside the dataclass fields.
    So is the Q scale ``_q_scale``, (N_+^2, N_-^2, Lambda_+, Lambda_-): None
    until its owner, ``extension.krein_q``, fills it at its first evaluation.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        alpha = float(self.alpha)
        beta = float(self.beta)
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise DomainError(f"{name} must be nonnegative, got {value!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        try:
            sigma = _threshold(alpha, beta)
        except OverflowError:
            sigma = math.inf
        if sigma == math.inf:
            raise DomainError(f"Sigma overflows at alpha = {alpha!r}, beta = {beta!r}")
        # artanh(alpha*xi) diverges at -Sigma: alpha*xi(-Sigma) = 1 exactly
        # when alpha > 0 and alpha^2 >= 2*beta
        pole = alpha > 0.0 and alpha * alpha >= 2.0 * beta
        object.__setattr__(self, "_sigma", sigma)
        object.__setattr__(self, "_pole_guard",
                           _POLE_GUARD * max(1.0, sigma) if pole else 0.0)
        object.__setattr__(self, "_q_scale", None)


@dataclass(frozen=True)
class RegimeInfo:
    """Threshold, regime tag, and (in the large-coupling case) nu = alpha/sqrt(2*beta)."""

    sigma: float
    regime: Regime
    nu: float | None = None


@dataclass(frozen=True)
class ValidityReport:
    """Which of the series-validity conditions (a)-(c) hold at an energy z."""

    cond_a: bool
    cond_b: bool
    cond_c: bool
    any: bool


def _threshold(a: float, b: float) -> float:
    """Both branches of the definition equal alpha^2/2 on the seam
    beta = alpha^2/2, so Sigma is continuous there.  alpha = 0 gives beta."""
    if a == 0.0 or b > a * a / 2.0:
        return b
    return (b / a) ** 2 + (a / 2.0) ** 2


def threshold_sigma(params: SystemParams) -> float:
    """Sigma such that the continuous band is [-Sigma, inf)."""
    return params._sigma


def classify_regime(params: SystemParams) -> RegimeInfo:
    """Tag the parameter point as CaseA/CaseB/CaseC.

    CaseC keeps its tag even when Sigma > 1; the closed forms remain
    evaluable pointwise there, and ``series_validity`` says at which
    energies the series representation holds.
    alpha > 0 with beta = 0 is Unsupported: nu = alpha/sqrt(2*beta) is
    undefined and the dedicated beta = 0 code paths apply instead.
    """
    regime, nu = _regime(params.alpha, params.beta)
    return RegimeInfo(sigma=threshold_sigma(params), regime=regime, nu=nu)


def _regime(a: float, b: float) -> tuple[Regime, float | None]:
    """The regime rule of ``classify_regime`` on bare floats: the tag and, in
    CaseC, nu = alpha/sqrt(2*beta), else None.  Callers that need no record
    (the large-coupling context and the band scan) read it from here."""
    if a == 0.0:
        return Regime.CASE_A, None
    if b == 0.0:
        return Regime.UNSUPPORTED, None
    root = math.sqrt(2.0 * b)
    if a < root:
        return Regime.CASE_B, None
    return Regime.CASE_C, a / root


def series_validity(params: SystemParams, z: complex) -> ValidityReport:
    """Report which of the representation-validity conditions hold at z.

    (a) 2*beta > alpha^2 and beta <= |z| < 2*(beta/alpha)^2;
    (b) |z| >= Sigma, the equality admitted only when 0 <= 2*beta < alpha^2;
    (c) |z| > max(beta/(2*sqrt(R)), alpha^2/(4*S)) for some R, S > 0 with
        R + (S - 1/2)^2 = 1/4.

    The bound in (c) is Sigma.  With R = S (1 - S) the first term is U-shaped
    with minimum beta at S = 1/2 and the second falls in S.  If alpha^2 <=
    2*beta the second term is at most beta at S = 1/2, so the bound is beta;
    otherwise the terms cross at S = alpha^4/(alpha^4 + 4*beta^2), where both
    equal alpha^2/4 + beta^2/alpha^2.  So (c) is |z| > Sigma: condition (b)
    without its equality case.
    """
    a, b = params.alpha, params.beta
    r = abs(complex(z))
    sigma = threshold_sigma(params)

    upper_a = math.inf if a == 0.0 else 2.0 * (b / a) ** 2
    cond_a = (2.0 * b > a * a) and (b <= r < upper_a)

    cond_b = r > sigma or (r == sigma and 2.0 * b < a * a)
    cond_c = r > sigma

    return ValidityReport(cond_a=cond_a, cond_b=cond_b, cond_c=cond_c,
                          any=cond_a or cond_b or cond_c)
