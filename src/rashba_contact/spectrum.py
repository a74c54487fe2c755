"""Root finding on the secular equation and eigenvalue classification.

Discrete eigenvalues are located as real zeros of det(Gamma - Q(E)) below the
band edge; embedded eigenvalues come from the closed classification of the
no-coupling case (theorem tag "T1") and of the large-coupling case ("T3").
"""

from __future__ import annotations

import enum
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .errors import DomainError, RegimeError
from .extension import (EffectiveCouplings, ExtensionKind, Hermitian2,
                        effective_couplings, krein_q, secular_det)
from .greens import _check_real_z, _xi_real, artanh_branch, xi
from .model import (Regime, RegimeInfo, SystemParams, classify_regime, series_validity,
                    threshold_sigma)

_GRID_NODES = 2048
_SCAN_NODES = 1000
# the scan grid is linspace built by hand from this: same nodes, no per-call setup
_SCAN_STEPS = np.arange(_SCAN_NODES, dtype=float)
_NU_WARN = 1e8
# golden-section steps: 100 shrink any window by 0.618^100 ~ 1e-21
_GOLDEN_ITERS = 100
_EPS = np.finfo(float).eps
# relative slack within which a level counts as met at a bracket end
_LEVEL_ROUNDING = 4.0 * _EPS
# relative distance within which the two branch roots are one even-order root
_EVEN_ORDER_RESOLUTION = 1e-9
# acceptance of the Theorem-1 conditions, scaled by 1 + |gamma| where gamma enters
_T1_ACCEPT = 1e-10
# acceptance of the Theorem-3 gamma condition, relative to 1 + |gamma|
_T3_ACCEPT = 1e-8
_PACKAGE_DIR = os.path.dirname(__file__)


class RootMethod(enum.Enum):
    SIGN_CHANGE = "sign-change"
    EVEN_ORDER = "even-order"


@dataclass(frozen=True)
class DiscreteRoot:
    energy: float
    residual: float
    method: RootMethod


@dataclass(frozen=True)
class EmbeddedRoot:
    energy: float
    condition_residual: float
    theorem: str                  # "T1" or "T3"
    series_valid: bool = True


@dataclass(frozen=True)
class LargeCouplingContext:
    """nu and the distinguished zeros of U_nu and V_nu with their energies."""

    nu: float
    x_nu_1: float
    e_nu_1: float
    x_nu_2: float | None = None
    e_nu_2: float | None = None


@dataclass(frozen=True)
class ForbiddenBandReport:
    """Largest gamma the band (-Sigma, beta) would require; negative means empty."""

    max_gamma_required: float
    band: tuple[float, float]
    grid_size: int


@dataclass(frozen=True)
class SpectrumReport:
    regime: RegimeInfo
    continuous_edge: float
    discrete: tuple[DiscreteRoot, ...]
    embedded: tuple[EmbeddedRoot, ...]

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime.regime.value,
            "sigma": self.regime.sigma,
            "discrete": [{"E": r.energy, "residual": r.residual} for r in self.discrete],
            "embedded": [{"E": r.energy, "residual": r.condition_residual,
                          "theorem": r.theorem} for r in self.embedded],
        }


def _channel_factors(params: SystemParams, x: complex, omega_plus: float,
                     omega_minus: float) -> tuple[complex, complex]:
    """The channel factors (c_+, c_-) at xi = x.

    c_s = omega_s + 1/(2 x) - (alpha/2 - s*beta/alpha) artanh(alpha*x), and
    at alpha = 0 the artanh term is replaced by its limit -s*beta*x.
    """
    a, b = params.alpha, params.beta
    inv = 1.0 / (2.0 * x)
    if a == 0.0:
        tail_p, tail_m = -b * x, b * x
    else:
        ar = artanh_branch(a * x)
        tail_p, tail_m = (a / 2.0 - b / a) * ar, (a / 2.0 + b / a) * ar
    return omega_plus + inv - tail_p, omega_minus + inv - tail_m


def secular_function(params: SystemParams, eff: EffectiveCouplings, e: float) -> complex:
    """gamma minus the product of the two channel factors at real energy E.

    Zeros coincide with those of det(Gamma - Q(E)).  E must lie below the
    band, as for every real-axis Green value: PoleError inside the pole
    guard around -Sigma, DomainError elsewhere on [-Sigma, inf).
    """
    z = complex(float(e))
    _check_real_z(params, z)
    cp, cm = _channel_factors(params, xi(params, z), eff.omega_plus, eff.omega_minus)
    return eff.gamma - cp * cm


def _warn(message: str) -> None:
    """UserWarning attributed to the first caller outside this package, so that
    it points at the caller's code however deep in the package it was raised."""
    frame, level = sys._getframe(1), 2
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _bisect(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisection on a sign-change bracket, then one guarded secant polish.

    Bisects to a width of 1e-15*max(1, |E|), so that the residual stays at
    the noise floor even where the derivative is large, e.g. next to the
    band-edge pole.  Only the sign of f_lo is read.  f is evaluated once
    per point: the final f(a) and the secant's point can repeat a midpoint.
    """
    fv = cache(f)
    neg = f_lo < 0.0
    a, b = lo, hi
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= 1e-15 * max(1.0, abs(m)):
            break
        if (fv(m) < 0.0) == neg:
            a = m
        else:
            b = m
    m = 0.5 * (a + b)
    fm = fv(m)
    fa = fv(a)
    if fm != fa and math.isfinite(fm) and math.isfinite(fa):
        sec = m - fm * (m - a) / (fm - fa)
        if lo <= sec <= hi and abs(fv(sec)) < abs(fm):
            return sec
    return m


def _golden_min(g, lo: float, hi: float) -> float:
    """Fixed-iteration golden-section minimizer of g on [lo, hi].

    An end where g is no worse than at the final interior point is returned
    itself: where g is flat to rounding the search can stop short of it.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(_GOLDEN_ITERS):
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
        if b - a <= abs(0.5 * (a + b)) * 1e-16:
            break
    return min((lo, hi, 0.5 * (a + b)), key=g)


def discrete_eigenvalues(params: SystemParams,
                         gamma_matrix: Hermitian2) -> tuple[DiscreteRoot, ...]:
    """All real zeros of det(Gamma - Q(E)) below -Sigma.

    Q is Herglotz and real below -Sigma, so Gamma - Q(E) strictly decreases
    there, and so does each of its eigenvalue branches
    lambda_-/+ = h -/+ sqrt(d^2 + |Gamma_pm|^2) (h, d the half sum and half
    difference of the diagonal).  Each branch has at most one root, and det is
    their product.  Each branch is bracketed at its sign change on a grid
    log-spaced in the distance to the band edge (roots accumulate there) and
    bisected to a width of 1e-15*max(1,|E|).  Only the nodes that decide a
    bracket are evaluated: both ends of the grid first, and then, from the
    lower end up, the nodes up to the first one where each branch that is
    <= 0 at the upper end is <= 0.  As the branches decrease, a branch
    positive at the upper end has no sign change on the grid, and no later
    node can move a bracket already found.  Branch roots closer than the
    fixed resolution 1e-9*max(1,|E|) are reported once, as an EVEN_ORDER
    root at their midpoint.

    The grid ends twice the pole guard, 2e-10*max(1, Sigma), below -Sigma
    where artanh has its pole at -Sigma (alpha > 0, alpha^2 >= 2 beta), and
    1e-14*max(1, Sigma) below it elsewhere.  Next to the pole lambda_- (and
    lambda_+, off the seam alpha^2 = 2 beta) tends to -inf, so a branch still
    positive at the last node has a root inside the pole guard; that root is
    not reported, and one UserWarning, naming every such branch, says so.

    The grid starts at e_min = -max(100, 10 (1 + Sigma + w^2)), with
    w = max(|omega_+|, |omega_-|, sqrt(gamma)), and no root lies below it:
    - Below -Sigma, x = xi(E) is real and lies in (0, x_edge] with
      x_edge <= 1/sqrt(2 beta); with u = 1/(2x), -E = u^2 + beta^2 x^2 <=
      u^2 + beta/2.
    - Gamma - Q(E) is congruent to [[c_+, sqrt(gamma)], [sqrt(gamma), c_-]]
      (``_channel_factors``), so at a root c_+ c_- = gamma and
      min(c_+, c_-) <= sqrt(gamma).  Hence u <= W + |k_s| artanh(alpha x)
      with W = sqrt(gamma) + max|omega_s| <= 2w and
      |k_s| = |alpha/2 - s beta/alpha| <= (alpha^2/2 + beta)/alpha.
    - u >= alpha: alpha x <= 1/2, where the convex artanh(t) <= ln(3) t <
      1.1 t, so u^2 < W u + 0.55 (alpha^2/2 + beta) <= W u + 1.65 Sigma
      (alpha^2 <= 4 Sigma, beta <= Sigma).  With W u <= (u^2 + W^2)/2 this
      gives u^2 < W^2 + 3.3 Sigma and -E < 4 w^2 + 3.8 Sigma.
    - u < alpha: -E < alpha^2 + beta/2 <= 4.5 Sigma.
    - alpha = 0: the tail is -/+ beta x = -/+ beta/(2u), so u^2 <= W u +
      beta/2 and the same steps give -E <= 4 w^2 + 1.5 Sigma.
    So every root has -E < 10 (1 + Sigma + w^2) <= -e_min.  Gamma - Q(E) is
    positive definite as E -> -inf and decreases, so both branches are
    positive at e_min; a branch that is not is an error, never a dropped root.
    An e_min whose square overflows (Gamma ~ 1e77 at Sigma ~ 1) raises DomainError.
    """
    sigma = threshold_sigma(params)
    eff = effective_couplings(params, gamma_matrix)
    wscale = max(abs(eff.omega_plus), abs(eff.omega_minus), math.sqrt(eff.gamma))
    e_min = -max(100.0, 10.0 * (1.0 + sigma + wscale * wscale))
    # xi(e_min) squares e_min and comes out 0 where that overflows
    if not math.isfinite(e_min * e_min):
        raise DomainError(f"the window's lower end {e_min} overflows when squared; "
                          "Gamma is too large")

    pole = params._pole_guard > 0.0
    seam = params.alpha * params.alpha == 2.0 * params.beta
    pm = abs(gamma_matrix.pm)

    def branches(e: float) -> tuple[float, float]:
        q = krein_q(params, complex(e))
        m11, m22 = gamma_matrix.pp - q.q_pp.real, gamma_matrix.mm - q.q_mm.real
        h, r = 0.5 * (m11 + m22), math.hypot(0.5 * (m11 - m22), pm)
        return h - r, h + r

    edge = 2.0 * params._pole_guard if pole else 1e-14 * max(1.0, sigma)
    grid = (-sigma - np.geomspace(edge, -e_min - sigma, _GRID_NODES))[::-1].tolist()
    names = ("lambda_-", "lambda_+")
    first, last = branches(grid[0]), branches(grid[-1])
    for k in (0, 1):
        if first[k] <= 0.0:
            raise AssertionError(f"{names[k]} <= 0 at e_min = {e_min}, against the bound")
    unreported = [names[k] for k in (0, 1)
                  if not last[k] <= 0.0 and pole and (k == 0 or not seam)]
    # walk up to the first node where each branch with a sign change is <= 0
    found, pending = [], [k for k in (0, 1) if last[k] <= 0.0]
    prev, i = first, 0
    while pending:
        i += 1
        cur = last if i == len(grid) - 1 else branches(grid[i])
        for k in [k for k in pending if cur[k] <= 0.0]:
            pending.remove(k)
            found.append(grid[i] if cur[k] == 0.0 else _bisect(
                lambda e, k=k: branches(e)[k], grid[i - 1], grid[i], prev[k]))
        prev = cur
    if unreported:
        _warn(f"the root of {' and '.join(unreported)} within {edge:.3g} of the band "
              f"edge {-sigma} lies inside the pole guard; it is not reported")

    method = RootMethod.SIGN_CHANGE
    if (len(found) == 2 and abs(found[0] - found[1])
            <= _EVEN_ORDER_RESOLUTION * max(1.0, abs(found[0]))):
        found, method = [0.5 * (found[0] + found[1])], RootMethod.EVEN_ORDER
    roots = tuple(DiscreteRoot(e, abs(secular_det(params, gamma_matrix, complex(e)).real),
                               method) for e in sorted(found))

    for r in roots:
        sf = abs(secular_function(params, eff, r.energy))
        if sf > 1e-5 * (1.0 + abs(eff.gamma)):
            _warn(f"root {r.energy} has secular residual {sf:.3e}; "
                  "formulations disagree")
    return roots


def embedded_alpha0(beta: float, eff: EffectiveCouplings) -> tuple[EmbeddedRoot, ...]:
    """Embedded singletons of the alpha = 0 classification (tag "T1").

    {-beta} iff gamma = (omega_+ + sqrt(2*beta))*omega_-;
    {beta - omega_+^2} iff gamma = 0 and -sqrt(2*beta) < omega_+ < 0;
    {beta} iff gamma = omega_- = 0.  No embedded points for beta = 0.
    Each equality is accepted to within the fixed level 1e-10, relative to
    1 + |gamma| for the first.
    """
    beta = float(beta)
    if beta < 0.0:
        raise DomainError("beta must be nonnegative")
    if beta == 0.0:
        return ()
    wp, wm, g = eff.omega_plus, eff.omega_minus, eff.gamma
    out = []
    r1 = abs(g - (wp + math.sqrt(2.0 * beta)) * wm)
    if r1 <= _T1_ACCEPT * (1.0 + abs(g)):
        out.append(EmbeddedRoot(-beta, r1, "T1"))
    if g <= _T1_ACCEPT and -math.sqrt(2.0 * beta) < wp < 0.0:
        out.append(EmbeddedRoot(beta - wp * wp, g, "T1"))
    if g <= _T1_ACCEPT and abs(wm) <= _T1_ACCEPT:
        out.append(EmbeddedRoot(beta, max(g, abs(wm)), "T1"))
    return tuple(sorted(out, key=lambda r: r.energy))


def _check_uvx(nu: float, x: float) -> None:
    if not nu >= 1.0:
        raise DomainError(f"nu must satisfy nu >= 1, got {nu}")
    if not 0.0 < x <= nu:
        raise DomainError(f"x must lie in (0, nu], got x = {x} with nu = {nu}")


def u_nu(nu: float, x: float) -> float:
    """U_nu(x) = (((nu^2+1)/nu^2) arctan(x) - 1/x)/x on (0, nu]."""
    _check_uvx(nu, x)
    n2 = nu * nu
    return ((n2 + 1.0) / n2 * math.atan(x) - 1.0 / x) / x


def v_nu(nu: float, x: float) -> float:
    """V_nu(x) = (nu^2/(nu^2+1)) U_nu(x) (2 - (nu^2-1) x^2 U_nu(x))."""
    _check_uvx(nu, x)
    n2 = nu * nu
    u = u_nu(nu, x)
    return n2 / (n2 + 1.0) * u * (2.0 - (n2 - 1.0) * x * x * u)


def e_nu(beta: float, nu: float, x: float) -> float:
    """E_nu(x) = beta (nu^4 + x^4)/(2 (nu x)^2); equals beta at x = nu.

    Taken as (c nu/x)^2 + (c x/nu)^2 with c = sqrt(beta/2), which does not
    overflow where nu^4 would (nu > 1e77).
    """
    if beta <= 0.0:
        raise DomainError("E_nu requires beta > 0")
    _check_uvx(nu, x)
    c = math.sqrt(0.5 * beta)
    return (c * nu / x) ** 2 + (c * x / nu) ** 2


def _xatan_inverse(level: float, lo: float, hi: float) -> float | None:
    """The x in [lo, hi] with x*arctan(x) = level, or None when there is none.

    x*arctan(x) strictly increases on x > 0, so the root is unique.  A level
    within rounding of the value at an end returns that end.  The function
    is also convex, so Newton's method started at or above the root falls
    monotonically to it and stays above it; an iterate that would not
    decrease means rounding has been reached.  It starts at
    min(hi, max(1, 4 level/pi)), which is at or above the root: arctan(x) >=
    pi/4 for x >= 1 gives x arctan(x) >= pi x/4 there.  (Started at a huge
    hi, the first step would round to <= lo.)  An iterate at or below lo can
    only come from rounding too (f(lo) < level puts the root above lo), so
    the root lies within rounding of lo and lo is returned, as a level met
    at lo would be.
    """
    f_lo, f_hi = lo * math.atan(lo), hi * math.atan(hi)
    if not f_lo * (1.0 - _LEVEL_ROUNDING) <= level <= f_hi * (1.0 + _LEVEL_ROUNDING):
        return None
    if level <= f_lo:
        return lo
    if level >= f_hi:
        return hi
    x = min(hi, max(1.0, 4.0 * level / math.pi))
    while True:
        t = math.atan(x)
        nxt = x - (x * t - level) / (t + x / (1.0 + x * x))
        if nxt <= lo:
            return lo
        if nxt >= x:
            return x
        x = nxt


def large_coupling_context(params: SystemParams) -> LargeCouplingContext:
    """x_{nu,1} (zero of U_nu), x_{nu,2} (second zero of V_nu, when <= nu),
    and their energies.

    x^2 U_nu(x) = ((nu^2+1)/nu^2) x arctan(x) - 1 and x arctan(x) strictly
    increases, so x_{nu,1} is the level nu^2/(nu^2+1) of x arctan(x) on
    (0, nu] and x_{nu,2}, the zero of U_nu - 2/((nu^2-1) x^2), is the level
    nu^2/(nu^2-1).  x_{nu,2} is reported when nu reaches its level and it
    differs from x_{nu,1} in floating point; near nu = 1e8 the two levels
    round to the same float and x_{nu,2} becomes None.

    Results are memoized per (alpha, beta); the warning for an extreme nu is
    raised on every call.
    """
    ctx = _large_coupling_cached(params.alpha, params.beta)
    if ctx.nu > _NU_WARN:
        _warn(f"nu = {ctx.nu:.3g} is extreme; V_nu approaches its singular "
              "nu -> inf limit")
    return ctx


@lru_cache(maxsize=512)
def _large_coupling_cached(alpha: float, beta: float) -> LargeCouplingContext:
    info = classify_regime(SystemParams(alpha, beta))
    if info.regime is not Regime.CASE_C:
        raise RegimeError(
            "large-coupling context requires sqrt(2*beta) <= alpha with beta > 0")
    nu = info.nu
    n2 = nu * nu
    if not math.isfinite(n2):
        raise DomainError(f"nu^2 overflows at nu = {nu}: beta is too small for alpha")
    x1 = _xatan_inverse(n2 / (n2 + 1.0), 0.0, nu)
    x2 = _xatan_inverse(n2 / (n2 - 1.0), x1, nu) if n2 > 1.0 else None
    if x2 == x1:
        x2 = None
    return LargeCouplingContext(nu=nu, x_nu_1=x1, e_nu_1=e_nu(beta, nu, x1),
                                x_nu_2=x2,
                                e_nu_2=e_nu(beta, nu, x2) if x2 is not None else None)


def embedded_large_alpha(params: SystemParams,
                         eff: EffectiveCouplings) -> tuple[EmbeddedRoot, ...]:
    """Embedded eigenvalues of the large-coupling case (tag "T3").

    Solves the linear constraint 2*omega_- = x^2 U_nu(x) A,
    A = (nu^2+1) omega_+ + (nu^2-1) omega_-, for x in [x_{nu,1}, nu], then
    accepts x iff the remaining condition gamma = omega_+ omega_- +
    (beta/2) V_nu(x) holds within the fixed level 1e-8*(1+|gamma|).  The
    constraint is the level (2 omega_-/A + 1) nu^2/(nu^2+1) of the increasing
    x arctan(x), so it has at most one root, and none for A = 0.

    When both omegas vanish the constraint always holds and the gamma
    condition is solved directly.  V_nu vanishes at x_{nu,1} and x_{nu,2},
    has a single peak between them and is negative beyond x_{nu,2}, so the
    condition has one root on each side of the peak or none.  (dV_nu/dx has
    the sign of phi = (1 - m s) x s' - s (2 - m s) with s = x^2 U_nu and
    m = nu^2 - 1; phi falls while s < 1/m, since x s'' < s' follows from
    arctan(x) > x (1 - x^2)/(1 + x^2)^2, and is negative for s in [1/m, 2/m].)
    """
    ctx = large_coupling_context(params)
    nu, b, x1 = ctx.nu, params.beta, ctx.x_nu_1
    wp, wm, g = eff.omega_plus, eff.omega_minus, eff.gamma
    n2 = nu * nu
    acoef = (n2 + 1.0) * wp + (n2 - 1.0) * wm
    wscale = abs(wp) + abs(wm) + math.sqrt(g) + 1.0

    def gamma_gap(x: float) -> float:
        return g - wp * wm - 0.5 * b * v_nu(nu, x)

    xs = []
    if abs(wm) <= 1e-14 * wscale and abs(acoef) <= 1e-14 * wscale * n2:
        hi = nu if ctx.x_nu_2 is None else ctx.x_nu_2
        xp = _golden_min(gamma_gap, x1, hi)     # hi when V_nu still rises at nu
        slack = _LEVEL_ROUNDING * g
        if gamma_gap(xp) <= slack:
            # the gap falls from g - wp*wm >= 0 at x_{nu,1} to the peak and
            # rises back to that value at x_{nu,2}; at nu it may stay negative
            xs.append(_bisect(gamma_gap, x1, xp, 1.0))
            if xp < hi and (ctx.x_nu_2 is not None or gamma_gap(nu) >= -slack):
                xs.append(_bisect(gamma_gap, xp, hi, -1.0))
    elif acoef != 0.0:
        x = _xatan_inverse((2.0 * wm / acoef + 1.0) * n2 / (n2 + 1.0), x1, nu)
        if x is not None:
            xs.append(x)

    out = []
    for x in xs:
        res = abs(gamma_gap(x))
        if res <= _T3_ACCEPT * (1.0 + abs(g)):
            e = e_nu(b, nu, x)
            out.append(EmbeddedRoot(e, res, "T3",
                                    series_valid=series_validity(params, complex(e)).any))
    return tuple(sorted(out, key=lambda r: r.energy))


def _re_c_plus_below(a: float, b: float, kp: float, wp: float, e: float) -> float:
    """Re c_+ at one energy E of (-Sigma, -beta], for CaseC params with
    k_+ = alpha/2 - beta/alpha.

    xi is real there (``_xi_real``) and alpha*xi > 1 lies on the artanh cut,
    continued as r - i*pi/2 with r = log1p(2/(alpha xi - 1))/2, so
    Re c_+ = omega_+ + 1/(2 xi) - (k_+/2) log1p(2/(alpha xi - 1)).  It does
    not decrease in E (``_max_gamma_below``).
    """
    x = _xi_real(b, e).real
    return (wp + 0.5 / x) - (0.5 * kp) * math.log1p(2.0 / (a * x - 1.0))


def _max_gamma_below(a: float, b: float, wp: float, e: np.ndarray) -> float:
    """The largest gamma the phase constraint requires over the ascending
    nodes ``e`` in (-Sigma, -beta], for CaseC params with nu > 1.

    There alpha*xi lies on the artanh cut, so Im c_s = k_s pi/2 is constant,
    k_s = alpha/2 - s*beta/alpha, and the gamma is
    -(k_-/k_+)(Re c_+^2 + (pi k_-/2)^2), largest where |Re c_+| is least.
    Re c_+ does not decrease along the nodes: x = xi(E) rises from 1/alpha
    at -Sigma to 1/sqrt(2 beta) at -beta, and
    d Re c_+/dx = -1/(2x^2) + k_+ alpha/(alpha^2 x^2 - 1)
                = (1 - 2 beta x^2)/(2 x^2 (alpha^2 x^2 - 1)) >= 0
    there.  So the largest gamma is at one of the two nodes around the sign
    change of Re c_+, or at the end nearer it when it keeps one sign.  Both
    ends are evaluated first (``_re_c_plus_below``), and a bisection over the
    node indices finds the change: at most ceil(log2 n) + 2 evaluations.
    """
    # k_+ = 0 on the seam nu = 1, where this sub-band holds no node
    kp, km = a / 2.0 - b / a, a / 2.0 + b / a
    im_m = 0.5 * math.pi * km

    def gamma(re_p: float) -> float:
        return -km * (re_p * re_p + im_m * im_m) / kp

    lo, hi = 0, len(e) - 1
    re_lo = _re_c_plus_below(a, b, kp, wp, float(e[lo]))
    if re_lo >= 0.0:
        return gamma(re_lo)
    re_hi = _re_c_plus_below(a, b, kp, wp, float(e[hi]))
    if re_hi <= 0.0:
        return gamma(re_hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        re_mid = _re_c_plus_below(a, b, kp, wp, float(e[mid]))
        if re_mid < 0.0:
            lo, re_lo = mid, re_mid
        else:
            hi, re_hi = mid, re_mid
    return max(gamma(re_lo), gamma(re_hi))


def _gamma_required_mid(a: float, b: float, wp: float, e: np.ndarray) -> np.ndarray:
    """The gamma the phase constraint requires at each energy of ``e`` in
    (-beta, beta), for CaseC params.

    With c_+ at omega_+ and c_- at omega_- = 0 it is
    -(Im c_-/Im c_+)(Re c_+^2 + Im c_-^2): both Im c_s share a sign on the
    band, so it is strictly negative, and omega_- drops out, as the
    constraint fixes Re c_-.  Here xi = (r + iq)/(2 beta) with
    r = sqrt(beta - E) and q = sqrt(beta + E), so 1/(2 xi) = (r - iq)/2; the
    result is even in q, as flipping q flips both Im c_s.  artanh at
    alpha*xi = u + iv takes the cancellation-free
    log1p(4u/((1-u)^2 + v^2))/4 + i arctan2(2v, (1-u)(1+u) - v^2)/2.
    alpha*xi lies on the circle u^2 + v^2 = nu^2 (r^2 + q^2 = 2 beta), so
    (1-u)^2 + v^2 = 1 + nu^2 - 2u = (nu - 1)^2 + 2(nu - u) > 0, as u < nu
    on this sub-band, and (1-u)(1+u) - v^2 = 1 - nu^2 <= 0: the log1p
    argument stays finite and the angle lies in [pi/2, pi).  Both are still
    formed per node: the constant 1 - nu^2 is as accurate, but rounds
    differently and moves the scan's maximum by up to 1.3e-15 relative.
    """
    kp, km = a / 2.0 - b / a, a / 2.0 + b / a
    r = np.sqrt(b - e)
    q = np.sqrt(b + e)
    scale = a / (2.0 * b)
    u, v = scale * r, scale * q
    d, vv = 1.0 - u, v * v
    log_arg = np.log1p(4.0 * u / (d * d + vv))          # 4 Re artanh(u + iv)
    angle = np.arctan2(2.0 * v, d * (1.0 + u) - vv)    # 2 Im artanh(u + iv)
    re_p = (wp + 0.5 * r) - (0.25 * kp) * log_arg
    half_q = 0.5 * q
    im_p = (-0.5 * kp) * angle - half_q
    neg_im_m = half_q + (0.5 * km) * angle
    return neg_im_m / im_p * (re_p * re_p + neg_im_m * neg_im_m)


def forbidden_band_scan(params: SystemParams, eff: EffectiveCouplings) -> ForbiddenBandReport:
    """Scan (-Sigma, beta) and report the largest gamma the constraints would
    require; a negative maximum certifies the band holds no eigenvalue for
    any admissible gamma >= 0.

    The one place where the channel factors
    c_s = omega_s + 1/(2 xi) - k_s artanh(alpha*xi), k_s = alpha/2 - s*beta/alpha,
    are continued onto the band.  The grid is
    linspace(-Sigma + delta, beta - delta, 1000), delta = 1e-6*max(1, Sigma + beta),
    built from a fixed arange.  Only the nodes that decide the maximum are
    evaluated, one sub-band at a time:
    - (-Sigma, -beta]: Im c_s = k_s pi/2 is constant and Re c_+ does not
      decrease in E, since d Re c_+/dx = (1 - 2 beta x^2)/(2 x^2 (alpha^2 x^2 - 1))
      >= 0 for x = xi(E) in (1/alpha, 1/sqrt(2 beta)].  So a bisection over
      the node indices finds the nodes around the sign change of Re c_+,
      where the gamma peaks (``_max_gamma_below``, ``_re_c_plus_below``).
    - (-beta, beta): every node, in one array pass (``_gamma_required_mid``),
      with artanh at alpha*xi = u + iv on the circle u^2 + v^2 = nu^2, where
      (1-u)^2 + v^2 = 1 + nu^2 - 2u > 0 and (1-u)(1+u) - v^2 = 1 - nu^2.
    A band narrower than 2 delta leaves no grid inside it: DomainError.
    """
    info = classify_regime(params)
    if info.regime is not Regime.CASE_C:
        raise RegimeError("the forbidden-band argument applies to the "
                          "large-coupling regime only")
    sigma, b = info.sigma, params.beta
    delta = 1e-6 * max(1.0, sigma + b)
    start, stop = -sigma + delta, b - delta
    if not start < stop:
        raise DomainError(f"the band (-Sigma, beta) = ({-sigma}, {b}) is narrower "
                          f"than the scan's margins 2*{delta}")
    grid = _SCAN_STEPS * ((stop - start) / (_SCAN_NODES - 1))
    grid += start
    grid[-1] = stop
    n = int(np.searchsorted(grid, -b, side="right"))
    a, wp = params.alpha, eff.omega_plus
    worst = _max_gamma_below(a, b, wp, grid[:n]) if n else -math.inf
    if n < _SCAN_NODES:
        worst = max(worst, float(_gamma_required_mid(a, b, wp, grid[n:]).max()))
    return ForbiddenBandReport(max_gamma_required=worst, band=(-sigma, b),
                               grid_size=_SCAN_NODES)


def solve_spectrum(params: SystemParams,
                   coupling: Hermitian2 | ExtensionKind) -> SpectrumReport:
    """Full classified point spectrum for one coupling.

    The discrete roots are every root below -Sigma outside the pole guard
    (``discrete_eigenvalues`` proves its window holds them all), bisected to
    1e-15 relative and resolved as two roots when more than 1e-9 relative
    apart; the embedded roots are accepted at the fixed levels of
    ``embedded_alpha0`` (1e-10) and ``embedded_large_alpha`` (1e-8).  The
    trivial and Friedrichs extensions bypass the secular machinery: their
    spectrum is purely continuous, so the report carries only the band edge.
    """
    info = classify_regime(params)
    if isinstance(coupling, ExtensionKind):
        return SpectrumReport(regime=info, continuous_edge=-info.sigma,
                              discrete=(), embedded=())
    discrete = discrete_eigenvalues(params, coupling)
    eff = effective_couplings(params, coupling)
    embedded: tuple[EmbeddedRoot, ...] = ()
    if info.regime is Regime.CASE_A:
        embedded = embedded_alpha0(params.beta, eff)
    elif info.regime is Regime.CASE_B:
        from . import perturbation
        persists, residual = perturbation.threshold_persistence(params.beta, coupling)
        if persists:
            embedded = (EmbeddedRoot(-params.beta, abs(residual), "T1"),)
    elif info.regime is Regime.CASE_C:
        embedded = embedded_large_alpha(params, eff)
    return SpectrumReport(regime=info, continuous_edge=-info.sigma,
                          discrete=discrete, embedded=embedded)
