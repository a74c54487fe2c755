"""Branch-resolved elementary functions and the contact Green values.

Off the real axis every quantity below is a principal-branch composition,
which keeps conjugation symmetry and the Herglotz property of the Q-function.
On the real axis the per-band closed forms are used instead, pinned to the
sign pattern the spectral analysis relies on:

    E < -beta        xi real positive
    -beta < E < 0    xi = R + iT with R > 0, T < 0
    0 <= E < beta    xi = R + iT with R > 0, T > 0
    E >= beta        xi = i*T(E) with T(E) in (0, 1/sqrt(2*beta)]

and artanh on its real cut w > 1 continued from below, r - i*pi/2.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleError
from .model import SystemParams, threshold_sigma

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
INV_4SQRT2PI = 1.0 / (4.0 * math.sqrt(2.0) * math.pi)

# relative half-width of the rejected band around the artanh pole at z = -Sigma
_POLE_GUARD = 1e-10
# below this |alpha*xi| the artanh(alpha*xi)/alpha form switches to its series
_SMALL_ARG = 1e-4


def _check_spin(s: int) -> None:
    if s not in (1, -1):
        raise DomainError(f"spin index must be +1 or -1, got {s!r}")


def artanh_branch(w: complex) -> complex:
    """Inverse hyperbolic tangent on C minus {-1, 1}.

    Principal value off the real cuts; on w > 1 the continuation from below,
    log((w+1)/(w-1))/2 - i*pi/2, and the odd image of that on w < -1.
    """
    w = complex(w)
    if w.imag == 0.0:
        x = w.real
        if x == 1.0 or x == -1.0:
            raise PoleError("artanh is defined on C \\ {-1, 1}")
        if x > 1.0:
            return complex(0.5 * math.log((x + 1.0) / (x - 1.0)), -0.5 * math.pi)
        if x < -1.0:
            return complex(-0.5 * math.log((1.0 - x) / (-x - 1.0)), 0.5 * math.pi)
        return complex(math.atanh(x))
    return 0.5 * (cmath.log(1.0 + w) - cmath.log(1.0 - w))


def _artanh_branch_array(w: np.ndarray) -> np.ndarray:
    """``artanh_branch`` over a complex array, in real arithmetic.

    With w = u + iv, Re = log1p(4|u|/((1-|u|)^2 + v^2))/4 with the sign of u
    (artanh is odd, and |u| keeps the log1p argument nonnegative, so w near
    -1 loses no accuracy) and Im = arctan2(2v, (1-|u|)(1+|u|) - v^2)/2.
    Real entries (v == 0) take the scalar's imaginary parts: 0 on |u| < 1,
    -pi/2 on the cut u > 1 and +pi/2 on u < -1, where arctan2 alone would
    follow the sign of the zero.
    """
    u, v = w.real, w.imag
    au = np.abs(u)
    d = 1.0 - au
    vv = v * v
    out = np.empty(w.shape, dtype=complex)
    out.real = np.copysign(0.25 * np.log1p(4.0 * au / (d * d + vv)), u)
    out.imag = 0.5 * np.arctan2(2.0 * v, d * (1.0 + au) - vv)
    cut = (v == 0.0) & (au > 1.0)
    if cut.any():
        out.imag[cut] = -0.5 * np.pi * np.sign(u[cut])
    return out


def _xi_real(beta: float, e: float) -> complex:
    if beta == 0.0:
        if e >= 0.0:
            raise DomainError("xi with beta = 0 requires E < 0")
        return complex(1.0 / (2.0 * math.sqrt(-e)))
    if e <= -beta:
        big = -e + math.sqrt(e * e - beta * beta)
        return complex(1.0 / math.sqrt(2.0 * big))
    if e < beta:
        # |xi| = 1/sqrt(2*beta) throughout the band; only the phase moves
        theta = math.acos(max(-1.0, min(1.0, -e / beta)))
        if e < 0.0:
            theta = -theta
        return cmath.exp(0.5j * theta) / math.sqrt(2.0 * beta)
    big = e + math.sqrt(e * e - beta * beta)
    return complex(0.0, 1.0 / math.sqrt(2.0 * big))


def _xi_real_array(beta: float, e: np.ndarray) -> np.ndarray:
    """``_xi_real`` over an array of energies E < beta, for beta > 0: real on
    E <= -beta, exp(i*theta/2)/sqrt(2*beta) on (-beta, beta).

    With cos(theta) = -E/beta the half-angle forms give
    Re xi = sqrt((1 - E/beta)/2)/sqrt(2*beta) and
    |Im xi| = sqrt((1 + E/beta)/2)/sqrt(2*beta), negative for E < 0.
    """
    below = e <= -beta
    eb = e[below]
    r = e / beta
    scale = 1.0 / math.sqrt(2.0 * beta)
    out = np.empty(e.shape, dtype=complex)
    out.real = np.sqrt(0.5 * (1.0 - r)) * scale
    # -0.0 + 0.0 is +0.0, so E = -0.0 takes the E >= 0 sign, as in _xi_real
    out.imag = np.copysign(np.sqrt(np.maximum(0.5 * (1.0 + r), 0.0)) * scale, e + 0.0)
    out[below] = 1.0 / np.sqrt(2.0 * (-eb + np.sqrt(eb * eb - beta * beta)))
    return out


def xi(params: SystemParams, z: complex) -> complex:
    """xi(z) = sqrt((-z/2)(1 - sqrt(1 - (beta/z)^2)))/beta, branch-corrected.

    Evaluated through the exact rearrangement
    xi = sqrt(-1/(2 z (1 + sqrt(1 - (beta/z)^2)))), which avoids the
    subtractive cancellation of the literal form when |beta/z| is small.
    """
    z = complex(z)
    if z.imag == 0.0:
        return _xi_real(params.beta, z.real)
    b = params.beta
    if b == 0.0:
        return 1.0 / (2.0 * cmath.sqrt(-z))
    if z == 0.0:
        raise DomainError("xi is undefined at z = 0 for beta > 0")
    u = cmath.sqrt(1.0 - (b / z) ** 2)
    return cmath.sqrt(-1.0 / (2.0 * z * (1.0 + u)))


def t_of_e(params: SystemParams, e: float) -> float:
    """T(E) with xi(E) = i*T(E) on E >= beta; decreasing from 1/sqrt(2*beta)."""
    b = params.beta
    if b <= 0.0:
        raise DomainError("T(E) requires beta > 0")
    e = float(e)
    if e < b:
        raise DomainError(f"T(E) requires E >= beta, got E = {e}")
    return xi(params, e).imag


def _sqrt_minus(z: complex) -> complex:
    """Principal sqrt(-z); the real cut z > 0 takes its z + i0 value -i*sqrt(z)."""
    if z.imag == 0.0 and z.real > 0.0:
        return complex(0.0, -math.sqrt(z.real))
    return cmath.sqrt(-z)


def _has_pole(params: SystemParams) -> bool:
    """artanh(alpha*xi) diverges at -Sigma: alpha*xi(-Sigma) = 1 exactly when
    alpha > 0 and alpha^2 >= 2*beta."""
    a = params.alpha
    return a > 0.0 and a * a >= 2.0 * params.beta


def _reject_near_pole(params: SystemParams, z: complex) -> None:
    if z.imag != 0.0 or not _has_pole(params):
        return
    sigma = threshold_sigma(params)
    if abs(z.real + sigma) < _POLE_GUARD * max(1.0, sigma):
        raise PoleError(f"artanh(alpha*xi) diverges at z = -Sigma = {-sigma}")


def g1_origin(params: SystemParams, z: complex) -> complex:
    """artanh(alpha*xi(z))/(4*pi*alpha); alpha -> 0 limit xi(z)/(4*pi).

    The small-argument branch uses artanh(w)/w = 1 + w^2/3 + w^4/5 + O(w^6),
    so the alpha -> 0 limit is reached without cancellation.
    """
    z = complex(z)
    _reject_near_pole(params, z)
    x = xi(params, z)
    a = params.alpha
    w = a * x
    if abs(w) < _SMALL_ARG:
        return x * (1.0 + w * w / 3.0 + w ** 4 / 5.0) / FOUR_PI
    return artanh_branch(w) / (FOUR_PI * a)


def g2ren_origin(params: SystemParams, z: complex) -> complex:
    """Renormalized second Green value at the origin.

    sqrt(-z)/(4 pi) - B(z)/(4 pi) + (alpha/(8 pi)) artanh(alpha xi(z)),
    with B = sgn/(2 xi(z)) the partner square root of xi, sgn = -1 on real
    E >= beta and +1 elsewhere.  At beta = 0, B = sqrt(-z), so the value is
    identically zero for alpha = beta = 0.
    """
    z = complex(z)
    _reject_near_pole(params, z)
    a, b = params.alpha, params.beta
    if a == 0.0 and b == 0.0:
        return 0j
    x = xi(params, z)
    out = 0j
    if b != 0.0:
        sgn = -1.0 if z.imag == 0.0 and z.real >= b else 1.0
        out = (_sqrt_minus(z) - sgn / (2.0 * x)) / FOUR_PI
    if a != 0.0:
        out += a * artanh_branch(a * x) / EIGHT_PI
    return out


def gs_ren_origin(params: SystemParams, s: int, z: complex) -> complex:
    """Spin-channel combination G_2^ren(0;z) - s*beta*G_1(0;z), s = +-1."""
    _check_spin(s)
    g2 = g2ren_origin(params, z)
    if params.beta == 0.0:
        return g2
    return g2 - s * params.beta * g1_origin(params, z)


def grad_g1_limit(direction) -> tuple[float, float]:
    """Directional limit of the in-plane gradient of the first Green value.

    Constant magnitude 1/(8*pi) opposing the unit direction; odd under
    direction reversal, which is what cancels the off-diagonal norm terms.
    """
    x1, x2 = float(direction[0]), float(direction[1])
    norm = math.hypot(x1, x2)
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"direction must be a unit 2-vector, |d| = {norm}")
    return (-x1 / EIGHT_PI, -x2 / EIGHT_PI)
