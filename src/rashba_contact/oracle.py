"""Momentum-space quadrature oracle.

Works directly with the dispersion denominator
D(p) = (p^2 - z)^2 - alpha^2 p_perp^2 - beta^2 in spherical momentum
coordinates; no closed-form Green value is reused anywhere, so agreement with
the analytic module is a genuine two-route check.

The azimuthal angle integrates out exactly (the integrands depend only on
p_perp^2 and p_z^2).  For the Green values so does the polar angle: in
c = cos(theta), D = K + B c^2 with B = alpha^2 rho^2, and the integral of 1/D
over c in [0, 1] is elementary (``_atan_h``), which leaves one radial
integral per spin.  The deficiency norms keep the iterated 2D integral: the
closed polar form of |1/D|^2 is -Im(1/D)/Im(D), the integrand-level form of
the identity ||phi||^2 = Im Q/Im z that the norm check exists to test.  The
radial half-line is mapped onto (0,1) by rho = t/(1-t); the mapped integrands
tend to finite limits at t = 1 because the renormalized combinations decay
like rho^-4.

The two spin channels share the denominator, so both spins of one
(params, z, tol) are integrated as one batch, each on its own mesh and with its
own error estimate.  The latest point is kept in a single slot: the second
spin's call at the same point costs nothing, and a return to an earlier point
recomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .extension import normalization
from .greens import _check_real_z, _check_spin
from .model import SystemParams
from .spectrum import _golden_min

_THETA_MAX = math.pi / 2.0
# (2 pi)^-3 * (azimuthal 2 pi) * (p_z reflection symmetry factor 2)
_PREFACTOR = 1.0 / (2.0 * math.pi ** 2)
_QUAD_LIMIT = 200
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_SPINS = np.array((1, -1))     # integral k of a two-spin batch has spin _SPINS[k]
# Twice the Taylor coefficients of _atan_h about 0, 2 (-1)^(j+1)/(2j+3), in
# rows of eight (row i holds j = 8i..8i+7); the first term left out is below
# 1e-16 at |t1| < 1/2
_H_BLOCKS = np.array([2.0 * (-1.0) ** (j + 1) / (2 * j + 3) for j in range(48)]).reshape(6, 8)

# The 21-point Gauss-Kronrod rule on [-1, 1] of QUADPACK's qk21 (Piessens et
# al., 1983).  qk21 lists the abscissae x >= 0 in descending order; the rule
# below is that half negated, then mirrored.  The 10-point Gauss rule uses the
# second, fourth, ..., tenth of them.
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
                 0.0])
_WGK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                 0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1:10:2] = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_X21 = np.concatenate((-_XGK, _XGK[-2::-1]))
_WK21 = np.concatenate((_WGK, _WGK[-2::-1]))
_WG21 = np.concatenate((_WG, _WG[-2::-1]))
_W21 = np.stack((_WK21, _WG21), axis=1)     # K21 and G10 sums in one matmul


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value with its error estimate.

    ``evaluations`` counts integrand values; a complex value counts once.
    """
    value: complex
    abs_error_estimate: float
    evaluations: int


def _atan_h(t):
    """h(t) = (g(t) - 1)/t with g(t) = atan(sqrt t)/sqrt t, elementwise.

    g is the polar integral: the integral of 1/(1 + t c^2) over c in [0, 1].
    It is even in sqrt t, so single-valued on C \\ (-inf, -1]; no branch is
    chosen.  The literal formula cancels in g - 1 = t h and loses up to
    9e-15 at 0.1 <= |t| <= 1.  So one step of the half-angle identity
    atan(u) = 2 atan(u/q), q = 1 + sqrt(1 + u^2), comes first:
    h(t) = (2 h(t1)/q - 1)/q^2 with t1 = t/q^2, and |t1| <= 1.  For
    |t1| < 1/2, h(t1) is its Taylor series -1/3 + t1/5 - t1^2/7 + ...,
    48 terms.  The rest has |t| >= 8/9, where g - 1 does not cancel, and
    there g is taken in closed form: g = log((1 + v)/r)/v with v = sqrt(-t)
    and r = sqrt(1 + t), which stays accurate next to the branch point t = -1.
    """
    shape = np.shape(t)
    t = np.ravel(np.asarray(t, dtype=complex))
    r = np.sqrt(1.0 + t)
    q = 1.0 + r
    qq = q * q
    # 2 h(t1) from the series in rows of eight terms: t1^0..t1^7 go through
    # one real matmul (complex viewed as pairs of floats), then Horner in t1^8
    powers = np.empty((8, t.size), dtype=complex)
    powers[0] = 1.0
    np.divide(t, qq, out=powers[1])
    for j in range(2, 8):
        np.multiply(powers[j // 2], powers[j - j // 2], out=powers[j])
    t1, t8 = powers[1], powers[4] * powers[4]
    rows = (_H_BLOCKS @ powers.view(float)).view(complex)
    h = rows[-1] * t8
    for row in rows[-2:0:-1]:
        h += row
        h *= t8
    h += rows[0]
    h /= q
    h -= 1.0
    h /= qq
    far = np.flatnonzero(np.abs(t1) >= 0.5)
    if far.size:
        tf = t[far]
        v = np.sqrt(-tf)
        h[far] = (np.log((1.0 + v) / r[far]) / v - 1.0) / tf
    return h.reshape(shape)


def _gs_radial(params: SystemParams, s, z: complex, rho):
    """Renormalized channel integrand, integrated over the polar angle.

    (p^2-z-s*b)/D - 1/(p^2-z) = (a^2 p_perp^2 + b^2 - s*b*w) / (D w), w = p^2-z.
    With c = cos(theta), D = K + B c^2, B = a^2 rho^2, K = w^2 - b^2 - B, and
    the integral over c in [0, 1] is
    (b^2 + B - s*b*w + (w - s*b) w t h(t)) / (w K), t = B/K; below, s^2 = 1
    turns b^2 - s*b*w into -s*b (w - s*b) and w^2 - b^2 into
    (w - s*b)(w + s*b).  It is exactly 0 at alpha = beta = 0, the integrand
    itself at alpha = 0, and decays like (2 a^2/3 - s*b)/rho^4.  D has no
    zero off the band [-Sigma, inf), so t stays off the cut of h there.
    """
    a, b = params.alpha, params.beta
    rho2 = rho * rho
    w = rho2 - z
    bb = (a * a) * rho2
    sb = s * b
    ws = w - sb
    k = ws * (w + sb) - bb
    t = bb / k
    return (bb + ws * (w * t * _atan_h(t) - sb)) / (w * k)


def _phi_integrand(params: SystemParams, s: int, z: complex,
                   rho: float, sin2: float) -> float:
    """|(p^2-z-s*b)/D|^2 + alpha^2 p_perp^2 |1/D|^2, the channel density."""
    a, b = params.alpha, params.beta
    p2 = rho * rho
    pperp2 = p2 * sin2
    w = p2 - z
    dd = w * w - a * a * pperp2 - b * b
    dd2 = abs(dd) ** 2
    return (abs(w - s * b) ** 2 + a * a * pperp2) / dd2


def _sum_by(owner, x, n: int):
    """Sum x over the intervals of each of n integrals."""
    total = np.bincount(owner, x.real, n)
    return total + 1j * np.bincount(owner, x.imag, n) if np.iscomplexobj(x) else total


def _qk21(f, owner, a, b):
    """K21 value and error estimate on each interval (a[k], b[k]) of owner[k].

    The error of a complex integrand is the sum of the estimates of its real
    and imaginary parts; the two parts are stacked and go through QUADPACK's
    qk21 estimate in one pass.
    """
    half = 0.5 * (b - a)
    fx = f(owner[:, None], (0.5 * (a + b))[:, None] + half[:, None] * _X21)
    parts = np.stack((fx.real, fx.imag)) if fx.dtype.kind == "c" else fx[None]
    kg = parts @ _W21
    resk, resg = kg[..., 0], kg[..., 1]
    resabs = np.abs(parts) @ _WK21 * half
    resasc = np.abs(parts - 0.5 * resk[..., None]) @ _WK21 * half
    err = np.abs(resk - resg) * half
    both = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=both)
    err = np.where(both, resasc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(resabs > _TINY / (50.0 * _EPS), np.maximum(50.0 * _EPS * resabs, err), err)
    if len(parts) == 2:
        return (resk[0] + 1j * resk[1]) * half, err[0] + err[1]
    return resk[0] * half, err[0]


def _gk21_batch(f, owner, a, b, n: int, epsabs: float, epsrel: float):
    """Adaptive G10/K21 quadrature of n integrals at once.

    Interval k, (a[k], b[k]), of the numpy arrays owner, a and b belongs to
    integral owner[k].  f(owner, x) takes an (m, 1) array of owners and an
    (m, 21) array of nodes and returns the integrand there, real or complex.
    Each round evaluates all new intervals in one call of f and estimates
    their errors in one pass.  Then, in each integral whose summed error is
    above max(epsabs, epsrel |I|), it bisects every interval whose error per
    unit length is above that target over the integral's length (by
    pigeonhole at least one is), worst first, up to _QUAD_LIMIT intervals per
    integral.  A bisected interval keeps its slot for its left half; the
    right halves are appended.  Returns the values and the error estimates.
    """
    b = np.array(b, dtype=float)              # bisection writes into it
    length = np.bincount(owner, b - a, n)
    val, err = _qk21(f, owner, a, b)
    while True:
        total = _sum_by(owner, val, n)
        errsum = np.bincount(owner, err, n)
        target = np.maximum(epsabs, epsrel * np.abs(total))
        density = err / (b - a)
        cand = np.flatnonzero((errsum > target)[owner]
                              & (density > (target / length)[owner]))
        if cand.size == 0:
            return total, errsum
        cand = cand[np.lexsort((-density[cand], owner[cand]))]
        group = owner[cand]
        rank = np.arange(group.size) - np.searchsorted(group, group)
        split = cand[rank < _QUAD_LIMIT - np.bincount(owner, minlength=n)[group]]
        if split.size == 0:
            return total, errsum
        k = split.size
        mid = 0.5 * (a[split] + b[split])
        kid_owner = np.concatenate((owner[split], owner[split]))
        kid_a = np.concatenate((a[split], mid))
        kid_b = np.concatenate((mid, b[split]))
        kid_val, kid_err = _qk21(f, kid_owner, kid_a, kid_b)
        b[split] = mid
        val[split] = kid_val[:k]
        err[split] = kid_err[:k]
        owner = np.concatenate((owner, kid_owner[k:]))
        a = np.concatenate((a, mid))
        b = np.concatenate((b, kid_b[k:]))
        val = np.concatenate((val, kid_val[k:]))
        err = np.concatenate((err, kid_err[k:]))


def _half_line(f, m: int, epsabs, epsrel: float):
    """Adaptive quadrature of f(k, rho) over rho in [0, inf) for k = 0..m-1,
    with absolute target epsabs[k] and relative target epsrel.

    rho = t/(1-t) maps the half-line onto (0, 1).  Each integral starts on
    the quarters of t, (0, 1/4), ..., (3/4, 1), that is rho = 0, 1/3, 1, 3,
    inf: started on (0, 1) alone, it would bisect down to them in about two
    rounds anyway.  Returns the values and the error estimates.
    """
    j = np.arange(4 * m)
    a = 0.25 * (j % 4)

    def mapped(k, t):
        return f(k, t / (1.0 - t)) / (1.0 - t) ** 2

    return _gk21_batch(mapped, j // 4, a, a + 0.25, m, epsabs, epsrel)


def _radial_quad(f, spins, tol):
    """Adaptive quadrature of f(s, rho) * rho^2 over rho in [0, inf), without
    the overall prefactor, for each spin s of the array spins, with tolerance
    tol[k] for spin spins[k].  All spins are one batch, each on its own mesh.
    The target is absolute only: a relative one would end the bisection
    before a tol far below 1e-10 (1 + |value|) is met.  Returns arrays of
    values, error estimates and evaluations, one entry per spin.
    """
    n = spins.size
    evals = np.zeros(n, dtype=int)

    def integrand(k, rho):
        evals[:] += _X21.size * np.bincount(k.ravel(), minlength=n)
        return f(spins[k], rho) * rho * rho

    val, err = _half_line(integrand, n, np.maximum(tol / 4.0, 1e-13), 0.0)
    return val, err, evals


def _iterated_quad(f2, spins, tol):
    """Iterated adaptive quadrature of f2(s, rho, sin^2 theta) * rho^2 * sin(theta)
    over theta in [0, pi/2], rho in [0, inf), without the overall prefactor,
    for each spin s of the array spins, with tolerance tol[k] for spin spins[k].

    The theta integrals of all spins are one adaptive batch; each of its
    rounds integrates over rho (``_half_line``) at all of its new theta
    nodes, of every spin, as one batch.  Each integral keeps its own mesh, so
    each spin gets the values and counts it would get alone.  Returns arrays
    of values, error estimates and evaluations, one entry per spin.
    """
    n = spins.size
    inner_eps = np.maximum(tol / 8.0, 1e-13)
    outer_eps = np.maximum(tol / 4.0, 1e-13)
    evals = np.zeros(n, dtype=int)
    worst_inner = np.zeros(n)

    def inner(owner, theta):
        node_owner = np.repeat(owner.ravel(), theta.shape[1])
        s = spins[node_owner]
        sin_t = np.sin(theta).ravel()
        sin2 = sin_t * sin_t

        def integrand(k, rho):
            evals[:] += _X21.size * np.bincount(node_owner[k.ravel()], minlength=n)
            return f2(s[k], rho, sin2[k]) * rho * rho * sin_t[k]

        val, err = _half_line(integrand, sin_t.size, inner_eps[node_owner], 1e-10)
        np.maximum.at(worst_inner, node_owner, err)
        return val.reshape(theta.shape)

    val, err = _gk21_batch(inner, np.arange(n), np.zeros(n), np.full(n, _THETA_MAX),
                           n, outer_eps, 1e-10)
    return val, err + _THETA_MAX * worst_inner, evals


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol = {tol} must be finite and positive")


def _both_spins(quad, f, raw_tol: np.ndarray, scale: np.ndarray, tol: float):
    """QuadratureResult and convergence flag of s = +1 and of s = -1.

    quad(f, spins, raw_tol) is ``_radial_quad`` or ``_iterated_quad``.
    Spin k's value and error are scale[k] times those of its raw integral,
    integrated at raw tolerance raw_tol[k].  A spin whose error is above
    tol * (1 + |value|) is integrated once more, alone, at raw_tol[k] / 20;
    its result is then the second attempt's, with the evaluations of both.
    """
    out = [None, None]
    evals = [0, 0]
    todo = [0, 1]
    for shrink in (1.0, 20.0):
        val, err, n = quad(f, _SPINS[todo], raw_tol[todo] / shrink)
        for k, v, e, nk in zip(todo, (scale[todo] * val).tolist(),
                               (scale[todo] * err).tolist(), n.tolist()):
            evals[k] += nk
            out[k] = (QuadratureResult(complex(v), e, evals[k]), e <= tol * (1.0 + abs(v)))
        todo = [k for k in todo if not out[k][1]]
        if not todo:
            break
    return tuple(out)


def _unpack(pair, s: int, what: str) -> QuadratureResult:
    res, converged = pair[0 if s == 1 else 1]
    if not converged:
        raise ConvergenceError(
            f"{what} error estimate {res.abs_error_estimate:.3e} exceeds "
            f"tol*(1+|value|); best estimate {res.value}",
            value=res.value, abs_error=res.abs_error_estimate)
    return res


# One slot: the second spin's call at the same point is served from it, and
# a call at any other point recomputes.  A larger memo would serve repeated
# inputs from memory, so a timing of repeated calls would measure the cache.
@lru_cache(maxsize=1)
def _gs_pair(params: SystemParams, z: complex, tol: float):
    def f(s, rho):
        return _gs_radial(params, s, z, rho)

    return _both_spins(_radial_quad, f, np.full(2, tol), np.full(2, _PREFACTOR), tol)


@lru_cache(maxsize=1)
def _phi_pair(params: SystemParams, z: complex, tol: float):
    def f2(s, rho, sin2):
        return _phi_integrand(params, s, z, rho, sin2)

    nd = normalization(params)
    # the N^2 prefactor scales the raw tolerance target
    scale = np.array([nd.n(s) ** 2 * _PREFACTOR for s in (1, -1)])
    return _both_spins(_iterated_quad, f2, tol / scale, scale, tol)


def gs_ren_quadrature(params: SystemParams, s: int, z: complex,
                      tol: float = 1e-8) -> QuadratureResult:
    """Quadrature estimate of the renormalized channel Green value at the origin."""
    _check_spin(s)
    _check_tol(tol)
    z = complex(z)
    _check_real_z(params, z)
    if params.alpha == 0.0 and params.beta == 0.0:
        return QuadratureResult(0j, 0.0, 0)
    return _unpack(_gs_pair(params, z, tol), s, "quadrature")


def phi_norm_quadrature(params: SystemParams, s: int, z: complex,
                        tol: float = 1e-6) -> QuadratureResult:
    """Quadrature estimate of the squared deficiency-element norm at energy z."""
    _check_spin(s)
    _check_tol(tol)
    z = complex(z)
    _check_real_z(params, z)
    return _unpack(_phi_pair(params, z, tol), s, "norm quadrature")


def sigma_numeric(params: SystemParams) -> float:
    """Band-edge Sigma from the dispersion itself.

    Minimizes the lower branch q^2 - sqrt(alpha^2 q^2 + beta^2) over the
    in-plane momentum q >= 0 by the golden-section search of ``spectrum`` and
    returns the negated minimum.  The branch is unimodal in q, so the search
    is exact up to the bracket tolerance.
    """
    a, b = params.alpha, params.beta

    def f(q: float) -> float:
        return q * q - math.sqrt(a * a * q * q + b * b)

    return -f(_golden_min(f, 0.0, max(1.0, a) + math.sqrt(b) + 1.0))
