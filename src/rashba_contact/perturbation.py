"""Small-coupling expansion ladder.

Closed-form series coefficients of the normalization constants and shifts,
the effective couplings they induce, the second-order eigenvalue shift, the
threshold-persistence condition, and the assembled asymptotic spectrum
E(alpha) = E(0) + alpha^2 E2 + O(alpha^4).  Odd orders vanish.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import DomainError, RegimeError, SingularMatrixError
from .extension import Hermitian2
from .greens import FOUR_PI, _check_spin, _xi_real
from .model import Regime, SystemParams, classify_regime
from . import spectrum as _spectrum

# zeroth-order roots closer than this to -beta get no second-order shift
_THRESHOLD_GAP = 1e-8


@dataclass(frozen=True)
class PerturbationCoefficients:
    """Series data at fixed beta; all pairs ordered (plus, minus)."""

    n0: tuple[float, float]
    n1: tuple[float, float]
    l0: tuple[float, float]
    l1: tuple[float, float]
    eta: tuple[float, float, float]     # (eta_pp, eta_mm, eta_pm)
    omega0: tuple[float, float]
    omega1: tuple[float, float]
    gamma0: float


class Branch(enum.Enum):
    GENERIC_GAMMA = "GenericGamma"
    DIAGONAL_PLUS = "DiagonalPlus"
    DIAGONAL_MINUS = "DiagonalMinus"
    TWOFOLD = "Twofold"


@dataclass(frozen=True)
class AsymptoticEigenvalue:
    """Zeroth-order root and its second-order shift (a pair when twofold).

    e2 is None for a root within _THRESHOLD_GAP of -beta, where the shift's
    quotient degenerates; the prediction is then e0 itself.
    """

    e0: float
    e2: float | tuple[float, float] | None
    branch: Branch

    def predicted_energy(self, alpha: float):
        a2 = alpha * alpha
        if self.e2 is None:
            return self.e0
        if isinstance(self.e2, tuple):
            return tuple(self.e0 + a2 * v for v in self.e2)
        return self.e0 + a2 * self.e2


@dataclass(frozen=True)
class AsymptoticSpectrum:
    entries: tuple[AsymptoticEigenvalue, ...]
    alpha: float
    gamma_circle_residual: float
    threshold_persists: bool


def _series_scalars(beta: float):
    # stable forms: (2 + b^2 - 2u)^{1/4} = sqrt(u-1) = beta/sqrt(1+u), u = sqrt(1+b^2)
    # from hypot, which does not overflow; the minus channel's u - beta and
    # rt - beta/rt cancel at large beta, so they are taken as 1/(u + beta)
    # and (1 + 1/(u + beta))/rt, with rt = sqrt(1 + u).  eta_s = 2 N_1,s/N_0,s
    # has its own closed form, which stays a normal float where N_1,- underflows
    # (beta beyond ~1e250)
    u = math.hypot(1.0, beta)
    rt = math.sqrt(1.0 + u)
    upb = u + beta
    ups = {1: upb, -1: 1.0 / upb}           # u + s*beta
    n0 = {s: 2.0 * 2.0 ** 0.25 * math.sqrt(math.pi) * ups[s] ** 0.25 for s in (1, -1)}
    n1 = {s: math.sqrt(math.pi) / (6.0 * 2.0 ** 0.25)
          * (3.0 - s * beta / (1.0 + u)) * ups[s] ** 0.75 / rt
          for s in (1, -1)}
    l0 = {1: -(rt + beta / rt) / (8.0 * math.pi),
          -1: -((1.0 + ups[-1]) / rt) / (8.0 * math.pi)}
    l1 = {s: (3.0 + s * beta / (1.0 + u)) / (48.0 * math.pi * rt) for s in (1, -1)}
    eta = {s: (3.0 - s * beta / (1.0 + u)) * math.sqrt(ups[s]) / (6.0 * math.sqrt(2.0) * rt)
           for s in (1, -1)}
    return n0, n1, l0, l1, eta


def expansion_coefficients(beta: float, gamma_matrix: Hermitian2) -> PerturbationCoefficients:
    """All closed-form series coefficients for the given beta and coupling."""
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise DomainError(f"series coefficients require finite beta > 0, got {beta}")
    n0, n1, l0, l1, eta = _series_scalars(beta)
    eta_pm = 0.5 * (eta[1] + eta[-1])
    gt0 = {1: gamma_matrix.pp / n0[1] ** 2, -1: gamma_matrix.mm / n0[-1] ** 2}
    omega0 = {s: FOUR_PI * (gt0[s] + l0[s]) for s in (1, -1)}
    omega1 = {s: FOUR_PI * (eta[s] * gt0[s] + l1[s]) for s in (1, -1)}
    gamma0 = (FOUR_PI * abs(gamma_matrix.pm) / (n0[1] * n0[-1])) ** 2
    return PerturbationCoefficients(
        n0=(n0[1], n0[-1]), n1=(n1[1], n1[-1]),
        l0=(l0[1], l0[-1]), l1=(l1[1], l1[-1]),
        eta=(eta[1], eta[-1], eta_pm),
        omega0=(omega0[1], omega0[-1]), omega1=(omega1[1], omega1[-1]),
        gamma0=gamma0)


def q0(beta: float, omega1_s: float, s: int, e0: float) -> float:
    """q_s at zeroth order: omega1_s - xi(E0)*(1/2 - s*beta*xi(E0)^2/3).

    Defined for E0 <= -beta; at the endpoint the value is
    omega1_s - (1 - s/3)/(2*sqrt(2*beta)).
    """
    beta = float(beta)
    if beta <= 0.0:
        raise DomainError("q0 requires beta > 0")
    _check_spin(s)
    e0 = float(e0)
    if not e0 <= -beta:
        raise DomainError(f"q0 requires E0 <= -beta so that xi is real, got {e0}")
    x = _xi_real(beta, e0)
    return omega1_s - x * (0.5 - s * beta * x * x / 3.0)


def _zeroth_order_branch(co: PerturbationCoefficients, rp: float, rm: float) -> Branch:
    """The branch of the shift formula at a zeroth-order root, where
    r_+/- = sqrt(beta - E0), sqrt(-beta - E0): with gamma0 = 0, the channels
    whose factor omega0_s + r_s vanishes there."""
    (w0p, w0m), g0 = co.omega0, co.gamma0
    if g0 > 1e-12 * (1.0 + abs(g0)):
        return Branch.GENERIC_GAMMA
    plus_match = abs(w0p + rp) <= 1e-7 * (1.0 + abs(w0p) + rp)
    minus_match = abs(w0m + rm) <= 1e-7 * (1.0 + abs(w0m) + rm)
    if plus_match and minus_match:
        return Branch.TWOFOLD
    if minus_match:
        return Branch.DIAGONAL_MINUS
    if plus_match:
        return Branch.DIAGONAL_PLUS
    return Branch.GENERIC_GAMMA


def e2(beta: float, gamma_matrix: Hermitian2, e0: float) -> AsymptoticEigenvalue:
    """Second-order eigenvalue shift for a zeroth-order root e0 < -beta.

    Branches: generic quotient for gamma0 != 0; the single-channel forms
    -2*omega0_s*q0_s when gamma0 = 0; both values when the two channels share
    the root (twofold).
    """
    beta = float(beta)
    e0 = float(e0)
    co = expansion_coefficients(beta, gamma_matrix)
    if not e0 < -beta:
        raise DomainError(f"e2 requires E0 < -beta, got {e0}")
    if abs(e0 + beta) < _THRESHOLD_GAP:
        raise DomainError("E0 at the threshold -beta: the quotient degenerates; "
                          "use the persistence condition instead")
    w0p, w0m = co.omega0
    w1p, w1m = co.omega1
    g0 = co.gamma0
    rp = math.sqrt(beta - e0)
    rm = math.sqrt(-beta - e0)

    res = abs(g0 - (w0p + rp) * (w0m + rm))
    if res > 1e-8 * (1.0 + abs(g0)):
        raise DomainError(
            f"E0 = {e0} does not solve the zeroth-order condition (residual {res:.3e})")

    qp = q0(beta, w1p, 1, e0)
    qm = q0(beta, w1m, -1, e0)
    branch = _zeroth_order_branch(co, rp, rm)
    if branch is Branch.TWOFOLD:
        return AsymptoticEigenvalue(e0, (-2.0 * w0p * qp, -2.0 * w0m * qm), branch)
    if branch is Branch.DIAGONAL_MINUS:
        return AsymptoticEigenvalue(e0, -2.0 * w0m * qm, branch)
    if branch is Branch.DIAGONAL_PLUS:
        return AsymptoticEigenvalue(e0, -2.0 * w0p * qp, branch)

    w = math.sqrt(e0 * e0 - beta * beta)
    big = -e0 + w
    small = beta * beta / big       # -e0 - w, cancellation-free
    num = qm * (w0p + rp) + qp * (w0m + rm) - 2.0 * co.eta[2] * g0
    den = (rp + rm) * (rp * (w0p + rp) + rm * (w0m + rm))
    den_scale = (rp + rm) * (rp * (abs(w0p) + rp) + rm * (abs(w0m) + rm)) + 1e-300
    if abs(den) < 1e-12 * den_scale:
        raise SingularMatrixError(
            "degenerate quotient denominator: the configuration sits at the "
            "twofold coincidence")
    pref = 2.0 * math.sqrt(2.0) / beta * big * w * math.sqrt(small)
    return AsymptoticEigenvalue(e0, pref * num / den, Branch.GENERIC_GAMMA)


def _circle_coefficients(beta: float) -> tuple[float, float, float]:
    n0, n1, l0, l1, eta = _series_scalars(beta)
    eta_pp, eta_mm = eta[1], eta[-1]
    lp_shift = l0[1] + math.sqrt(2.0 * beta) / FOUR_PI
    a = n0[-1] ** 2 * (l1[-1] - eta_mm * l0[-1])
    b = n0[1] ** 2 * (l1[1] - eta_pp * lp_shift)
    c = (n0[1] * n0[-1]) ** 2 * (
        l0[-1] * l1[1] + lp_shift * (l1[-1] - (eta_pp + eta_mm) * l0[-1]))
    return a, b, c


def cnd0(beta: float) -> float:
    """The threshold-obstruction function of beta; strictly negative.

    4*pi*(Lambda1_+ - eta_pp*Lambda0_+) - 1/(3*sqrt(2*beta)) - eta_pp*sqrt(2*beta).
    Its negativity is what rules out eigenvalues just off -beta.
    """
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise DomainError(f"cnd0 requires finite beta > 0, got {beta}")
    _, _, l0, l1, eta = _series_scalars(beta)
    eta_pp = eta[1]
    root2b = math.sqrt(2.0 * beta)
    return FOUR_PI * (l1[1] - eta_pp * l0[1]) - 1.0 / (3.0 * root2b) - eta_pp * root2b


@functools.cache
def _cnd0_peak() -> tuple[float, float]:
    """(cnd0 at its argmax, the argmax) on (0, inf), by one golden-section
    search of [1e-4, 1e4]."""
    peak = _spectrum._golden_min(lambda b: -cnd0(b), 1e-4, 1e4)
    return cnd0(peak), peak


def cnd0_max(lo: float = 0.05, hi: float = 10.0) -> tuple[float, float]:
    """(max value, argmax) of cnd0 over [lo, hi]: cnd0 at its peak clamped to
    [lo, hi].

    cnd0 depends on beta alone and is unimodal: its slope changes sign once on
    (0, inf), at beta ~ 1.00553 (a 4e5-point log scan of [1e-4, 1e4] finds no
    other change).  So one search for the peak serves every window, and the
    process keeps the peak and cnd0's value there.  The clamp is exact: a
    window that holds the peak returns that pair, and on any other window
    cnd0 is monotone, so the maximum is cnd0 at the end nearer the peak.

    The argmax is determined only to about sqrt(eps) relative, some 1e-8:
    cnd0 is flat to rounding at its peak, so the search may stop anywhere on
    the flat, and a change of a few ulps in cnd0 moves the reported argmax by
    millions of ulps.  Only the maximum's bits are stable; compare an argmax
    to no more than about 1e-8.
    """
    if not 0.0 < lo <= hi:
        raise DomainError(f"cnd0_max requires 0 < lo <= hi, got [{lo}, {hi}]")
    val, peak = _cnd0_peak()
    if lo <= peak <= hi:
        return val, peak
    bm = min(max(peak, float(lo)), float(hi))
    return cnd0(bm), bm


def threshold_persistence(beta: float, gamma_matrix: Hermitian2) -> tuple[bool, float]:
    """(verdict, circle residual) of the threshold-persistence criterion.

    -beta survives at small nonzero coupling iff it lies in the zeroth-order
    spectrum and Gamma satisfies the linear circle condition. Neither part
    needs the zeroth-order roots below -beta.
    """
    co = expansion_coefficients(beta, gamma_matrix)
    w0p, w0m = co.omega0
    member = abs(co.gamma0 - (w0p + math.sqrt(2.0 * beta)) * w0m) <= 1e-9 * (1.0 + co.gamma0)
    a, b, c = _circle_coefficients(beta)
    residual = a * gamma_matrix.pp + b * gamma_matrix.mm + c
    lin_scale = abs(a * gamma_matrix.pp) + abs(b * gamma_matrix.mm) + abs(c) + 1e-300
    return member and abs(residual) <= 1e-9 * lin_scale, residual


def asymptotic_eigenvalues(params: SystemParams, gamma_matrix: Hermitian2) -> AsymptoticSpectrum:
    """Below-threshold asymptotic spectrum plus the threshold-persistence verdict.

    Enumerates the zeroth-order roots below -beta, attaches the second-order
    shift to each, and evaluates the persistence criterion
    (``threshold_persistence``).  A root within _THRESHOLD_GAP of -beta,
    where the shift's quotient degenerates, is reported with e2 = None.
    """
    info = classify_regime(params)
    if params.beta <= 0.0 or info.regime not in (Regime.CASE_A, Regime.CASE_B):
        raise RegimeError(
            "asymptotic expansion requires 0 <= alpha < sqrt(2*beta) with beta > 0")
    beta = params.beta
    base = SystemParams(0.0, beta)
    roots0 = _spectrum.discrete_eigenvalues(base, gamma_matrix)
    co = expansion_coefficients(beta, gamma_matrix)
    entries = []
    for r in roots0:
        e0 = r.energy
        if abs(e0 + beta) < _THRESHOLD_GAP:
            branch = _zeroth_order_branch(co, math.sqrt(beta - e0), math.sqrt(-beta - e0))
            entries.append(AsymptoticEigenvalue(e0, None, branch))
        else:
            entries.append(e2(beta, gamma_matrix, e0))
    persists, residual = threshold_persistence(beta, gamma_matrix)
    return AsymptoticSpectrum(entries=tuple(entries), alpha=params.alpha,
                              gamma_circle_residual=residual,
                              threshold_persists=persists)
