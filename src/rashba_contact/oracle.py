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

Each radial integral takes the adaptive G10/K21 rule and starts on five
intervals of t, split at 1/4, 1/2, 5/8 and 3/4 (rho = 1/3, 1, 5/3, 3), so
one that ends on N intervals has evaluated 21 (2 N - 5) nodes; evaluations
are counted so.  The norms' outer theta integral takes the G7/K15 rule,
15 radial integrals per spin and interval.  Each round makes one kernel call
on its new nodes, the map, its Jacobian and the rho^2 (sin theta) weight
included.  Both pairs take the absolute raw target tol/scale, scale being
the factor from the raw integral to the result.

The two spin channels share the denominator, so both spins of one
(params, z, tol) are integrated once, as one batch, each on its own mesh and
with its own error estimate.  A spin misses the acceptance test only where an
integral stopped at the _QUAD_LIMIT interval cap or at the 1e-13 floor of its
raw target, and then raises with the estimate of that one attempt.  The
latest point is kept in a single slot: the second spin's call at the same
point costs nothing, and a return to an earlier point recomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .extension import normalization
from .greens import _E_MAX, _check_real_z, _check_spin, _real_or_complex
from .model import SystemParams
from .spectrum import _golden_min

_THETA_MAX = math.pi / 2.0
# (2 pi)^-3 * (azimuthal 2 pi) * (p_z reflection symmetry factor 2)
_PREFACTOR = 1.0 / (2.0 * math.pi ** 2)
_QUAD_LIMIT = 200
# the radial breakpoints in t = rho/(1 + rho); every radial integral starts
# on the intervals between them
_T_BREAKS = np.array((0.0, 0.25, 0.5, 0.625, 0.75, 1.0))
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

# The 15-point Gauss-Kronrod rule of QUADPACK's qk15, laid out as qk21 above;
# the 7-point Gauss rule uses the second, fourth, sixth and eighth abscissae,
# the last of which is the midpoint.
_XGK15 = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                   0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                   0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                   0.207784955007898467600689403773245, 0.0])
_WGK15 = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG7 = np.zeros(8)
_WG7[1::2] = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
              0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_X15 = np.concatenate((-_XGK15, _XGK15[-2::-1]))
_WK15 = np.concatenate((_WGK15, _WGK15[-2::-1]))
_WG15 = np.concatenate((_WG7, _WG7[-2::-1]))


class _Rule(NamedTuple):
    """A Gauss-Kronrod pair on [-1, 1]: nodes, Kronrod weights, and the
    Kronrod and Gauss weights stacked, so both sums take one matmul."""
    x: np.ndarray
    wk: np.ndarray
    w: np.ndarray


_K21 = _Rule(_X21, _WK21, np.stack((_WK21, _WG21), axis=1))
_K15 = _Rule(_X15, _WK15, np.stack((_WK15, _WG15), axis=1))


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
    t = np.asarray(t, dtype=complex)
    shape = t.shape
    t = t.ravel()
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
    far = (np.abs(t1) >= 0.5).nonzero()[0]
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


def _phi_integrand(params: SystemParams, s, z: complex, rho, sin2):
    """|(p^2-z-s*b)/D|^2 + alpha^2 p_perp^2 |1/D|^2, the channel density, in
    real arithmetic: with z = x + iy and u = p^2 - x, p^2 - z = u - iy and
    D = (u^2 - y^2 - a^2 p_perp^2 - b^2) - 2iuy."""
    a, b = params.alpha, params.beta
    p2 = rho * rho
    q = p2 * (a * a * sin2) + z.imag * z.imag        # a^2 p_perp^2 + y^2
    u = p2 - z.real
    uu = u * u
    re = uu - q - b * b
    return ((u - s * b) ** 2 + q) / (re * re + uu * (4.0 * z.imag * z.imag))


def _sum_by(owner, x, n: int):
    """Sum x over the intervals of each of n integrals."""
    total = np.bincount(owner, x.real, n)
    return total + 1j * np.bincount(owner, x.imag, n) if np.iscomplexobj(x) else total


def _qk21(f, owner, a, b, rule: _Rule = _K21):
    """Kronrod value and error estimate of the rule (K21 by default) on each
    interval (a[k], b[k]) of owner[k].

    The error of a complex integrand is the sum of the estimates of its real
    and imaginary parts, which go through QUADPACK's qk21 (or qk15) estimate
    stacked.
    """
    half = 0.5 * (b - a)
    fx = f(owner[:, None], (0.5 * (a + b))[:, None] + half[:, None] * rule.x)
    parts = np.array((fx.real, fx.imag)) if fx.dtype.kind == "c" else fx[None]
    kg = parts @ rule.w
    resk = kg[..., 0]
    resabs = np.abs(parts) @ rule.wk * half
    resasc = np.abs(parts - 0.5 * resk[..., None]) @ rule.wk * half
    err = np.abs(resk - kg[..., 1]) * half
    # where resasc is 0 the estimate stays; where only err is, the scaling keeps it 0
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where(resasc != 0.0, scaled, err)
    np.maximum(err, 50.0 * _EPS * resabs, out=err, where=resabs > _TINY / (50.0 * _EPS))
    if len(parts) == 2:
        return (resk[0] + 1j * resk[1]) * half, err[0] + err[1]
    return resk[0] * half, err[0]


def _gk21_batch(f, owner, a, b, n: int, epsabs, rule: _Rule = _K21):
    """Adaptive Gauss-Kronrod quadrature of n integrals at once, by the rule
    (G10/K21 by default, or G7/K15).

    Interval k, (a[k], b[k]), of the numpy arrays owner, a and b belongs to
    integral owner[k]; each integral starts on at most _QUAD_LIMIT of them.
    f(owner, x) takes (m, 1) owners and (m, 21) nodes, or (m, 15) under K15,
    and returns the integrand there, real or complex; each round evaluates
    all of its new intervals in one call.  Then, in each integral whose
    summed error is
    above its absolute target epsabs (a scalar, or one per integral), it
    bisects every interval whose error per unit length is above that target
    over the integral's length (by pigeonhole at least one is), worst first,
    up to _QUAD_LIMIT intervals per integral.  So an integral stops either
    with its target met or on _QUAD_LIMIT intervals.  The intervals fill a
    flat buffer of n * _QUAD_LIMIT slots in place: a bisected interval keeps
    its slot for its left half, and the right halves are appended in that
    order.  Returns the values, the error estimates and each integral's final
    number of intervals.
    """
    m = owner.size
    val0, err0 = _qk21(f, owner, a, b, rule)
    length = np.bincount(owner, b - a, n)
    own, lo, hi, val, err = (np.empty(max(n * _QUAD_LIMIT, m), dtype) for dtype in
                             (owner.dtype, float, float, val0.dtype, float))
    own[:m], lo[:m], hi[:m], val[:m], err[:m] = owner, a, b, val0, err0
    while True:
        o, e = own[:m], err[:m]
        errsum = np.bincount(o, e, n)
        density = e / (hi[:m] - lo[:m])
        split = ((errsum > epsabs)[o] & (density > (epsabs / length)[o])).nonzero()[0]
        if split.size:
            split = split[np.lexsort((-density[split], o[split]))]
            if m + split.size > _QUAD_LIMIT:      # the cap may bind
                count = np.bincount(o, minlength=n)
                group = o[split]
                rank = np.arange(group.size) - group.searchsorted(group)
                split = split[rank < _QUAD_LIMIT - count[group]]
        if split.size == 0:
            return _sum_by(o, val[:m], n), errsum, np.bincount(o, minlength=n)
        k = split.size
        kid_owner, left, right = o[split], lo[split], hi[split]
        mid = 0.5 * (left + right)
        kid_val, kid_err = _qk21(f, np.concatenate((kid_owner, kid_owner)),
                                 np.concatenate((left, mid)), np.concatenate((mid, right)), rule)
        hi[split], val[split], err[split] = mid, kid_val[:k], kid_err[:k]
        new = slice(m, m + k)
        own[new], lo[new], hi[new] = kid_owner, mid, right
        val[new], err[new] = kid_val[k:], kid_err[k:]
        m += k


def _half_line(f, m: int, epsabs):
    """Adaptive quadrature over rho in [0, inf) of integrals k = 0..m-1, with
    absolute target epsabs[k].

    The kernel f(k, t) is integral k's integrand at rho = t/(1-t) times
    d rho/dt = 1/(1-t)^2.  Each integral starts on the five intervals of
    _T_BREAKS, t = 0, 1/4, 1/2, 5/8, 3/4, 1, that is rho = 0, 1/3, 1, 5/3,
    3, inf: from (0, 1) alone it would bisect down to the quarters in about
    two rounds anyway, and (1/2, 3/4) is where a second round splits most
    often, at a median t of 0.61 on a pool of complex z.  A bisection adds one
    interval and evaluates two, so an integral that ends on N intervals
    evaluated 21 (2 N - 5) nodes.  Returns the values, the error estimates
    and those evaluations.
    """
    k = _T_BREAKS.size - 1
    a = np.tile(_T_BREAKS[:-1], m)
    b = np.tile(_T_BREAKS[1:], m)
    val, err, count = _gk21_batch(f, np.arange(m).repeat(k), a, b, m, epsabs)
    return val, err, _X21.size * (2 * count - k)


def _radial_quad(f, tol):
    """Radial quadrature of the ``_half_line`` kernel f(s, t) for each spin
    s of ``_SPINS``, at tolerance tol[k] for spin _SPINS[k], as one batch
    with a mesh per spin.  The target is absolute only: a relative one would
    end the bisection before a tol far below 1e-10 (1 + |value|) is met.
    Returns arrays of values, error estimates and evaluations, one per spin.
    """
    return _half_line(lambda k, t: f(_SPINS[k], t), _SPINS.size, np.maximum(tol / 4.0, 1e-13))


def _iterated_quad(f2, tol):
    """Iterated quadrature over theta in [0, pi/2], rho in [0, inf) for
    each spin s of ``_SPINS``, at tolerance tol[k] for spin _SPINS[k].
    f2(s, sin_t, t) is the ``_half_line`` kernel at spin s and
    sin(theta) = sin_t, the sin(theta) weight included.

    The theta integrals of both spins are one adaptive G7/K15 batch, started
    on the whole of [0, pi/2]: the theta integrand is smooth, and its first
    round already meets the target nearly always, so the 15-point rule asks
    for 15 radial integrals per spin there, not 21.  Each of its rounds
    integrates over rho at all of its new theta nodes, of both spins,
    as one batch, each integral on its own mesh, so each spin gets the values
    and counts it would get alone.  Both levels take absolute targets only,
    tol/8 inside and tol/4 outside, so an error estimate that meets both is
    at most tol (1/4 + pi/16) < tol.  Returns values, error estimates and
    evaluations, one per spin.
    """
    n = _SPINS.size
    inner_eps, outer_eps = np.maximum(tol / 8.0, 1e-13), np.maximum(tol / 4.0, 1e-13)
    evals = np.zeros(n, dtype=int)
    worst_inner = np.zeros(n)

    def inner(owner, theta):
        node_owner = owner.repeat(theta.shape[1])
        s, sin_t = _SPINS[node_owner], np.sin(theta).ravel()
        val, err, ev = _half_line(lambda k, t: f2(s[k], sin_t[k], t), sin_t.size,
                                  inner_eps[node_owner])
        np.add.at(evals, node_owner, ev)
        np.maximum.at(worst_inner, node_owner, err)
        return val.reshape(theta.shape)

    val, err, _ = _gk21_batch(inner, np.arange(n), np.zeros(n), np.full(n, _THETA_MAX),
                              n, outer_eps, _K15)
    return val, err + _THETA_MAX * worst_inner, evals


def _checked_z(params: SystemParams, s: int, z: complex, tol: float) -> complex:
    """z as a complex number, once s, tol, the real-axis rule and the range
    rule are checked.

    The real/complex decision is ``greens._real_or_complex``'s, so every form
    of one real E is checked, and integrated, as complex(E).  The range rule
    is the closed forms' float range: a z with a non-finite part, or with
    |z| beyond ``greens._E_MAX``, raises DomainError before any integrand is
    evaluated, as the closed forms raise there."""
    _check_spin(s)
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol = {tol} must be finite and positive")
    z = _real_or_complex(z)
    _check_real_z(params, z)
    z = complex(z)
    # hypot is nan at a nan part and inf at an infinite one, so both fail here
    r = math.hypot(z.real, z.imag)
    if not r <= _E_MAX:
        raise DomainError(f"|z| = {r} is beyond the float range of the quadratures")
    return z


def _both_spins(quad, f, scale: np.ndarray, tol: float):
    """QuadratureResult and convergence flag of s = +1 and of s = -1.

    quad(f, raw_tol) is ``_radial_quad`` or ``_iterated_quad``, called once.
    Spin k's value and error are scale[k] times those of its raw integral,
    integrated at raw tolerance tol/scale[k], the target that the acceptance
    test error <= tol (1 + |value|) sets.  An integral that meets its target
    passes that test, so a spin fails it only where an integral stopped on
    _QUAD_LIMIT intervals (or at the 1e-13 floor of the raw target); a tighter
    target under the same cap and floor would not rescue it.
    """
    val, err, evals = quad(f, tol / scale)
    return tuple((QuadratureResult(complex(v), e, n), e <= tol * (1.0 + abs(v)))
                 for v, e, n in zip((scale * val).tolist(), (scale * err).tolist(),
                                    evals.tolist()))


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
    def f(s, t):
        u = 1.0 - t
        rho = t / u
        return _gs_radial(params, s, z, rho) * rho * rho / (u * u)

    return _both_spins(_radial_quad, f, np.full(2, _PREFACTOR), tol)


@lru_cache(maxsize=1)
def _phi_pair(params: SystemParams, z: complex, tol: float):
    def f2(s, sin_t, t):
        u = 1.0 - t
        rho = t / u
        return _phi_integrand(params, s, z, rho, sin_t * sin_t) * rho * rho * sin_t / (u * u)

    nd = normalization(params)
    return _both_spins(_iterated_quad, f2, np.array([nd.n(1), nd.n(-1)]) ** 2 * _PREFACTOR, tol)


def gs_ren_quadrature(params: SystemParams, s: int, z: complex,
                      tol: float = 1e-8) -> QuadratureResult:
    """Quadrature estimate of the renormalized channel Green value at the origin."""
    z = _checked_z(params, s, z, tol)
    if params.alpha == 0.0 and params.beta == 0.0:
        return QuadratureResult(0j, 0.0, 0)
    return _unpack(_gs_pair(params, z, tol), s, "quadrature")


def phi_norm_quadrature(params: SystemParams, s: int, z: complex,
                        tol: float = 1e-6) -> QuadratureResult:
    """Quadrature estimate of the squared deficiency-element norm at energy z.

    Close to the real axis the iterated quadrature needs many intervals: at
    tol <= 1e-9 and |Im z| up to about 5e-4, an integral of the pair can stop
    on the ``_QUAD_LIMIT`` of 200 intervals and the spin then raises
    ConvergenceError, although the rule itself is accurate enough there.  Of
    150 seeded points with |Im z| log-uniform in [1e-4, 1e-3] (alpha in
    [0, 3), beta in [0.05, 1.5), Re z in [-Sigma, 3)), 40 miss at tol 1e-9.
    """
    z = _checked_z(params, s, z, tol)
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
