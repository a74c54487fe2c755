"""Root finding on the secular equation and eigenvalue classification.

Discrete eigenvalues are located as real zeros of det(Gamma - Q(E)) below the
band edge; embedded eigenvalues come from the closed classification of the
no-coupling case (theorem tag "T1") and of the large-coupling case ("T3").
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, RegimeError
from .extension import (EffectiveCouplings, ExtensionKind, Hermitian2,
                        effective_couplings, krein_q, secular_det)
from .greens import _artanh_real, _check_real_z, _xi_real
from .model import (Regime, RegimeInfo, SystemParams, _regime, classify_regime,
                    series_validity, threshold_sigma)

_GRID_NODES = 2048
_SCAN_NODES = 1000
# the linspace grid built by hand: same nodes, no per-call setup
_SCAN_STEPS = np.arange(_SCAN_NODES, dtype=float)
_NU_WARN = 1e8
# golden-section steps: 100 shrink any window by 0.618^100 ~ 1e-21
_GOLDEN_ITERS = 100
_EPS = np.finfo(float).eps
# relative rounding slack: a level within it of a bracket end's value is met
# there, and a channel factor within it of zero at the band edge is zero
_ROUNDING = 4.0 * _EPS
# relative half-width of the window where secular_function must change sign
# at a root it does not put within its noise floor
_AGREEMENT_WINDOW = 1e-9
# acceptance of the Theorem-1 conditions, scaled by 1 + |gamma| where gamma enters
_T1_ACCEPT = 1e-10
# acceptance of the Theorem-3 gamma condition, relative to 1 + |gamma|
_T3_ACCEPT = 1e-8
_PACKAGE_DIR = os.path.dirname(__file__)


@dataclass(frozen=True)
class DiscreteRoot:
    energy: float
    residual: float


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
    """Grid maximum of the gamma the band (-Sigma, beta) would require over
    the scan's nodes; negative means empty there.  It is not the supremum,
    which can lie between nodes, above the grid maximum."""

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


def _channel_slopes(a: float, b: float) -> tuple[float, float]:
    """(k_+, k_-), k_s = alpha/2 - s*beta/alpha, the weights of artanh(alpha*xi)
    in the channel factors (alpha > 0)."""
    return a / 2.0 - b / a, a / 2.0 + b / a


def _channel_factors(a: float, b: float, x: float, omega_plus: float, omega_minus: float,
                     art: float | None = None) -> tuple[float, float]:
    """The channel factors (c_+, c_-) at real xi = x, in float arithmetic.

    c_s = omega_s + 1/(2 x) - k_s A (``_channel_slopes``); at alpha = 0 the
    tail k_s A is its limit -s*beta*x.  A = Re artanh(alpha*x) is ``art``
    where the caller holds it more accurately (``_edge_factors``), else
    artanh itself for alpha*x < 1, below the band (``_artanh_real``:
    PoleError at 1), and on the cut alpha*x > 1 of (-Sigma, -beta] the real
    part log1p(2/(alpha x - 1))/2 of its continuation r - i*pi/2, where
    c_s stands for Re c_s.
    """
    inv = 1.0 / (2.0 * x)
    if a == 0.0:
        tail_p, tail_m = -b * x, b * x
    else:
        if art is None:
            w = a * x
            art = 0.5 * math.log1p(2.0 / (w - 1.0)) if w > 1.0 else _artanh_real(w)
        kp, km = _channel_slopes(a, b)
        tail_p, tail_m = kp * art, km * art
    return omega_plus + inv - tail_p, omega_minus + inv - tail_m


def _edge_factors(a: float, b: float, omega_plus: float,
                  omega_minus: float) -> tuple[float, float]:
    """The channel factors (c_+, c_-) at the band edge -Sigma = -beta without
    the pole (alpha^2 < 2 beta), where xi = 1/sqrt(2 beta).

    artanh(alpha/sqrt(2 beta)) is taken as the cancellation-free
    log1p(2 alpha (sqrt(2 beta) + alpha)/(2 beta - alpha^2))/2, with
    2 beta - alpha^2 exact up to one rounding: Dekker's product splits
    alpha^2 into its float and its exact error (T. J. Dekker, Numer. Math.
    18, 1971).  artanh of the rounded alpha*xi would lose the digits of
    1 - alpha*xi, and a few ulps below the seam that product rounds to 1.
    At alpha = beta = 0 the edge is u = 0 and c_s = omega_s.
    """
    if b == 0.0:
        return omega_plus, omega_minus
    r = math.sqrt(2.0 * b)
    sq = a * a
    c = 134217729.0 * a                 # 2^27 + 1 splits a into two 26-bit halves
    hi = c - (c - a)
    lo = a - hi
    err = (((hi * hi - sq) + hi * lo) + lo * hi) + lo * lo
    art = 0.5 * math.log1p(2.0 * a * (r + a) / ((2.0 * b - sq) - err))
    return _channel_factors(a, b, 1.0 / r, omega_plus, omega_minus, art)


def secular_function(params: SystemParams, eff: EffectiveCouplings, e: float) -> float:
    """gamma minus the product of the two channel factors at real energy E.

    Zeros coincide with those of det(Gamma - Q(E)).  E must lie below the
    band, as for every real-axis Green value: PoleError inside the pole
    guard around -Sigma, DomainError elsewhere on [-Sigma, inf).
    """
    e = float(e)
    _check_real_z(params, e)
    cp, cm = _channel_factors(params.alpha, params.beta, _xi_real(params.beta, e),
                              eff.omega_plus, eff.omega_minus)
    return eff.gamma - cp * cm


def _warn(message: str) -> None:
    """UserWarning attributed to the first caller outside this package, so that
    it points at the caller's code however deep in the package it was raised."""
    frame, level = sys._getframe(1), 2
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """The root of f on the bracket [a, b] by Brent's method.

    fa and fb are f at the ends, of opposite signs or one of them zero; the
    ends are not evaluated again.  Each step takes an inverse-quadratic or
    secant point, or bisects where that point would leave the bracket's
    inner three quarters or shrink the steps too slowly (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), so the
    bracket is kept and it never needs many more steps than bisection.
    Every point lies strictly inside the bracket, at least one
    ulp(max(1, |x|)) from its ends, so f is evaluated once per point.  It
    stops once the bracket is at most one ulp(max(1, |x|)) wide, adjacent
    floats for |x| >= 1, so the sign change of f is resolved to rounding
    also where its derivative is large, e.g. next to the band-edge pole,
    and returns the end with the smaller |f|.  Ends of one sign, a touching
    zero within rounding, give the end with the smaller |f| at once.
    """
    if (fa > 0.0) == (fb > 0.0) and fa != 0.0 and fb != 0.0:
        return a if abs(fa) < abs(fb) else b
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = math.ulp(max(1.0, abs(b)))
        xm = 0.5 * (c - b)
        if abs(xm) <= 0.5 * tol or fb == 0.0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * xm * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, xm)
        fb = f(b)
    return b


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


def _edge_count(params: SystemParams, eff: EffectiveCouplings) -> tuple[int, str]:
    """The number of discrete eigenvalues, and its reason.

    Gamma - Q(E) is congruent to C = [[c_+, sqrt(gamma)], [sqrt(gamma), c_-]]
    (``_channel_factors``), which rises in u = 1/(2 xi) as E falls, so the
    count is the number of negative eigenvalues of C at the band edge:
    - with the pole (alpha > 0, alpha^2 >= 2 beta), u_edge = alpha/2 and
      k_- = alpha/2 + beta/alpha > 0 sends c_- to -inf.  Off the seam
      alpha^2 = 2 beta, k_+ > 0 sends c_+ there too: 2.  On the seam k_+ = 0
      and c_+ = omega_+ + alpha/2 at the edge: 2 if that is negative, else 1.
    - without the pole, u_edge = sqrt(beta/2) and C(u_edge) is finite: its
      inertia.  C(u_edge) comes from ``_edge_factors``, which takes
      A = artanh(alpha xi) as the cancellation-free
      log1p(2 alpha (sqrt(2 beta) + alpha)/(2 beta - alpha^2))/2 with
      2 beta - alpha^2 exact up to one rounding, so A keeps a few eps of
      relative accuracy up to the seam, where artanh of the rounded
      alpha*xi(-Sigma) would lose every digit or hit its pole.
    An eigenvalue that is zero, to within the rounding of the terms of
    c_s = omega_s + u - (alpha/2) A + s (beta/alpha) A (4 eps each), is a
    root at -Sigma itself, not below it: uncounted.  The two parts of the
    tail are counted apart because k_+ = alpha/2 - beta/alpha cancels near
    the seam.
    """
    a, b = params.alpha, params.beta
    wp, wm, g = eff.omega_plus, eff.omega_minus, eff.gamma
    if params._pole_guard > 0.0:
        if a * a != 2.0 * b:
            return 2, "c_+ and c_- tend to -inf at the band edge"
        cp = wp + 0.5 * a
        neg = cp < -_ROUNDING * (abs(wp) + 0.5 * a)
        return (2 if neg else 1), (f"on the seam c_- tends to -inf at the band edge, and "
                                   f"c_+ = {cp:.6g} is {'' if neg else 'not '}negative there")
    u = math.sqrt(0.5 * b)
    cp, cm = _edge_factors(a, b, wp, wm)
    # the rounding of each factor's terms omega_s, u and the two parts
    # alpha A/2 and beta A/alpha of its tail k_s A: their magnitudes sum to
    # the tail of c_- (k_- A, or beta x at alpha = 0), also where k_+ cancels
    tail = abs(wm + u - cm)
    tp = _ROUNDING * (abs(wp) + u + tail)
    tm = _ROUNDING * (abs(wm) + u + tail)
    det, trace = cp * cm - g, cp + cm
    ddet = abs(cm) * tp + abs(cp) * tm + _ROUNDING * (abs(cp * cm) + g)
    if det < -ddet:
        count = 1
    elif trace < -(tp + tm):
        count = 2 if det > ddet else 1
    else:
        count = 0
    return count, (f"C at the band edge has {count} negative eigenvalues "
                   f"(c_+ = {cp:.6g}, c_- = {cm:.6g}, gamma = {g:.6g})")


def discrete_eigenvalues(params: SystemParams,
                         gamma_matrix: Hermitian2) -> tuple[DiscreteRoot, ...]:
    """All real zeros of det(Gamma - Q(E)) below -Sigma.

    Q is Herglotz and real below -Sigma, so Gamma - Q(E) strictly decreases
    there, and so does each of its eigenvalue branches
    lambda_-/+ = h -/+ sqrt(d^2 + |Gamma_pm|^2) (h, d the half sum and half
    difference of the diagonal).  Each branch has at most one root, and det is
    their product.  Each branch is bracketed at its sign change on a grid
    log-spaced in the distance to the band edge (roots accumulate there), and
    its root is found in that cell by Brent's method (``_brent``) from the
    two node values, to a width of one ulp(max(1,|E|)).  Only the nodes that
    decide a bracket are evaluated: both ends of the grid first, then, from
    the lower end up, the nodes up to the first one where lambda_- is <= 0,
    and on from there to the first where lambda_+ is, for each branch that
    is <= 0 at the upper end.  As the branches decrease, a branch positive
    at the upper end has no sign change on the grid, and lambda_- <=
    lambda_+ is <= 0 first.  Each branch's root is reported as found, so a
    double eigenvalue, where both branches vanish, is listed twice.

    The grid ends twice the pole guard, 2e-10*max(1, Sigma), below -Sigma
    where artanh has its pole at -Sigma (alpha > 0, alpha^2 >= 2 beta), and
    1e-14*max(1, Sigma) below it elsewhere; it starts span = -e_min - Sigma
    below -Sigma.  Node j of its n = ``_GRID_NODES`` lies 10^(j step + lo)
    below -Sigma, with lo = log10(edge) and step = (log10(span) - lo)/(n - 1),
    and the ends are edge and span exactly: numpy's geomspace arithmetic,
    done in libm where the walk reads the node.  So the roots do not depend
    on the CPU, as they would with numpy's AVX-512 power kernel.  The number
    of roots is known without evaluating Q: the inertia of the channel
    matrix at the band edge (``_edge_count``).  Roots that the count holds
    and the grid does not lie between its last node and -Sigma (inside the
    pole guard, where there is one); they are not reported, and one
    UserWarning, naming every such branch and giving the count's reason,
    says so.  A walk that finds more roots than the count is an error.

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
    pp, mm, pm = gamma_matrix.pp, gamma_matrix.mm, abs(gamma_matrix.pm)

    def branches(e: float) -> tuple[float, float]:
        q_pp, q_mm = krein_q(params, e)
        m11, m22 = pp - q_pp, mm - q_mm
        h, r = 0.5 * (m11 + m22), math.hypot(0.5 * (m11 - m22), pm)
        return h - r, h + r

    edge = 2.0 * params._pole_guard if pole else 1e-14 * max(1.0, sigma)
    span = -e_min - sigma
    lo = math.log10(edge)
    step = (math.log10(span) - lo) / (_GRID_NODES - 1)
    e_first, e_last = -sigma - span, -sigma - edge
    names = ("lambda_-", "lambda_+")
    first, last = branches(e_first), branches(e_last)
    for k in (0, 1):
        if first[k] <= 0.0:
            raise AssertionError(f"{names[k]} <= 0 at e_min = {e_min}, against the bound")
    # lambda_- <= lambda_+, so lambda_- is <= 0 first: walk it up to its first
    # node <= 0, then lambda_+ on from there, node j down from the lowest energy
    found, j, e, prev, cur = [], _GRID_NODES - 1, e_first, first, first
    for k in (0, 1):
        if not last[k] <= 0.0:
            break
        while not cur[k] <= 0.0:
            j -= 1
            e_prev, prev = e, cur
            if j == 0:
                e, cur = e_last, last
            else:
                e = -sigma - 10.0 ** (j * step + lo)
                cur = branches(e)
        found.append(e if cur[k] == 0.0 else _brent(
            lambda x, k=k: branches(x)[k], e_prev, e, prev[k], cur[k]))
    count, reason = _edge_count(params, eff)
    if len(found) > count:
        raise AssertionError(f"{len(found)} roots found against the edge count {count}: "
                             f"{reason}")
    if len(found) < count:
        where = "inside the pole guard" if pole else "above the grid's last node"
        _warn(f"the root of {' and '.join(names[len(found):count])} within {edge:.3g} "
              f"of the band edge {-sigma} lies {where}; it is not reported "
              f"(edge count {count}: {reason})")

    roots = tuple(DiscreteRoot(e, abs(secular_det(params, gamma_matrix, e)))
                  for e in sorted(found))

    # secular_function agrees at a root that it puts within its noise floor,
    # or where it changes sign within the agreement window; next to the
    # edge gamma - c_+ c_- can be so steep that a root exact to rounding reads
    # far from zero.  The window ends at the grid's last node, below -Sigma
    # and outside the pole guard
    for r in roots:
        e = r.energy
        sf = abs(secular_function(params, eff, e))
        if not sf > 1e-5 * (1.0 + abs(eff.gamma)):
            continue
        w = _AGREEMENT_WINDOW * max(1.0, abs(e))
        lo, hi = (secular_function(params, eff, x) for x in (e - w, min(e + w, e_last)))
        if not min(lo, hi) <= 0.0 <= max(lo, hi):
            _warn(f"root {e} has secular residual {sf:.3e}; formulations disagree")
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
    if not 0.0 <= beta < math.inf:
        raise DomainError(f"beta must be finite and nonnegative, got {beta}")
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
    if not beta > 0.0:
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
    if not f_lo * (1.0 - _ROUNDING) <= level <= f_hi * (1.0 + _ROUNDING):
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
    raised on every call.  A miss reads the CaseC tag and nu from the regime
    rule of ``classify_regime`` on the bare floats (``model._regime``), so it
    builds neither a ``SystemParams`` nor a ``RegimeInfo``.
    """
    ctx = _large_coupling_cached(params.alpha, params.beta)
    if ctx.nu > _NU_WARN:
        _warn(f"nu = {ctx.nu:.3g} is extreme; V_nu approaches its singular "
              "nu -> inf limit")
    return ctx


@lru_cache(maxsize=512)
def _large_coupling_cached(alpha: float, beta: float) -> LargeCouplingContext:
    regime, nu = _regime(alpha, beta)
    if regime is not Regime.CASE_C:
        raise RegimeError(
            "large-coupling context requires sqrt(2*beta) <= alpha with beta > 0")
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
    condition is solved directly, by Brent's method (``_brent``) on each
    side of the peak.  V_nu vanishes at x_{nu,1} and x_{nu,2},
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
        slack = _ROUNDING * g
        gap_p = gamma_gap(xp)
        if gap_p <= slack:
            # the gap falls from g - wp*wm >= 0 at x_{nu,1} to the peak and
            # rises back to that value at x_{nu,2}; at nu it may stay negative
            xs.append(_brent(gamma_gap, x1, xp, gamma_gap(x1), gap_p))
            gap_hi = gamma_gap(hi)
            if xp < hi and (ctx.x_nu_2 is not None or gap_hi >= -slack):
                xs.append(_brent(gamma_gap, xp, hi, gap_p, gap_hi))
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
                                    series_valid=series_validity(params, e).any))
    return tuple(sorted(out, key=lambda r: r.energy))


def _max_gamma_below(a: float, b: float, wp: float, e: np.ndarray) -> float:
    """The largest gamma the phase constraint requires at the ascending
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
    ends are evaluated first (``_channel_factors`` on the cut), and a
    bisection over the node indices finds the change: at most
    ceil(log2 n) + 2 evaluations.
    """
    # k_+ = 0 on the seam nu = 1, where this sub-band holds no node
    kp, km = _channel_slopes(a, b)
    im_m = 0.5 * math.pi * km

    def gamma(re_p: float) -> float:
        return -km * (re_p * re_p + im_m * im_m) / kp

    def re_c_plus(i: int) -> float:
        return _channel_factors(a, b, _xi_real(b, float(e[i])), wp, 0.0)[0]

    lo, hi = 0, len(e) - 1
    re_lo = re_c_plus(lo)
    if re_lo >= 0.0:
        return gamma(re_lo)
    re_hi = re_c_plus(hi)
    if re_hi <= 0.0:
        return gamma(re_hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        re_mid = re_c_plus(mid)
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
    kp, km = _channel_slopes(a, b)
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
    """Scan (-Sigma, beta) and report the grid maximum of the gamma the
    constraints would require; a negative maximum says that no node of the
    band holds an eigenvalue for any admissible gamma >= 0.  It is the
    maximum over the nodes, not the supremum between them, which can be
    larger.

    The channel factors
    c_s = omega_s + 1/(2 xi) - k_s artanh(alpha*xi), k_s = alpha/2 - s*beta/alpha,
    continued onto the band.  The grid is
    linspace(-Sigma + delta, beta - delta, 1000), delta = 1e-6*max(1, Sigma + beta),
    built from a fixed arange.  Only the nodes that decide the maximum are
    evaluated, one sub-band at a time:
    - (-Sigma, -beta]: Im c_s = k_s pi/2 is constant and Re c_+ does not
      decrease in E, since d Re c_+/dx = (1 - 2 beta x^2)/(2 x^2 (alpha^2 x^2 - 1))
      >= 0 for x = xi(E) in (1/alpha, 1/sqrt(2 beta)].  So a bisection over
      the node indices finds the nodes around the sign change of Re c_+,
      where the gamma peaks (``_max_gamma_below``); Re c_+ comes from the
      real-axis kernel ``_channel_factors`` on the artanh cut.
    - (-beta, beta): every node, in one array pass (``_gamma_required_mid``,
      the one continuation kept apart from that kernel), with artanh at
      alpha*xi = u + iv on the circle u^2 + v^2 = nu^2, where
      (1-u)^2 + v^2 = 1 + nu^2 - 2u > 0 and (1-u)(1+u) - v^2 = 1 - nu^2.
    A band narrower than 2 delta leaves no grid inside it: DomainError.  The
    CaseC test is the regime rule of ``classify_regime`` (``model._regime``),
    and Sigma is the one kept on ``params``: no ``RegimeInfo`` is built.
    """
    a, b = params.alpha, params.beta
    if _regime(a, b)[0] is not Regime.CASE_C:
        raise RegimeError("the forbidden-band argument applies to the "
                          "large-coupling regime only")
    sigma = threshold_sigma(params)
    delta = 1e-6 * max(1.0, sigma + b)
    start, stop = -sigma + delta, b - delta
    if not start < stop:
        raise DomainError(f"the band (-Sigma, beta) = ({-sigma}, {b}) is narrower "
                          f"than the scan's margins 2*{delta}")
    grid = _SCAN_STEPS * ((stop - start) / (_SCAN_NODES - 1))
    grid += start
    grid[-1] = stop
    n = int(np.searchsorted(grid, -b, side="right"))
    wp = eff.omega_plus
    worst = _max_gamma_below(a, b, wp, grid[:n]) if n else -math.inf
    if n < _SCAN_NODES:
        worst = max(worst, float(_gamma_required_mid(a, b, wp, grid[n:]).max()))
    return ForbiddenBandReport(max_gamma_required=worst, band=(-sigma, b),
                               grid_size=_SCAN_NODES)


def solve_spectrum(params: SystemParams,
                   coupling: Hermitian2 | ExtensionKind) -> SpectrumReport:
    """Full classified point spectrum for one coupling.

    The discrete roots are every root below -Sigma outside the pole guard
    (``discrete_eigenvalues`` proves its window holds them all and counts
    them at the band edge), found by Brent's method to one ulp(max(1, |E|)),
    one root per branch, so a double eigenvalue is listed twice; the embedded
    roots are accepted at the fixed levels of ``embedded_alpha0`` (1e-10)
    and ``embedded_large_alpha`` (1e-8).  The
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
