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

These real-axis forms feed the channel factors of the secular function, and
the forbidden-band scan takes them in real arithmetic. On the band they are
not one boundary value of the resolvent: on (-Sigma, 0) they give the E - i0
limit, on (0, beta) the E + i0 limit, and on E >= beta neither, so
``extension.krein_q`` rejects real z on [-Sigma, inf).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError
from .model import SystemParams

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
INV_4SQRT2PI = 1.0 / (4.0 * math.sqrt(2.0) * math.pi)

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
    return cmath.atanh(w)


def _xi_real(beta: float, e: float) -> complex:
    if beta == 0.0:
        if e >= 0.0:
            raise DomainError("xi with beta = 0 requires E < 0")
        return complex(1.0 / (2.0 * math.sqrt(-e)))
    if e <= -beta:
        big = -e + math.sqrt(e * e - beta * beta)
        return complex(1.0 / math.sqrt(2.0 * big))
    if e < beta:
        # half-angle forms of exp(i*theta/2)/sqrt(2*beta), cos(theta) = -E/beta;
        # beta -+ E lose no digits next to either band end
        two_b = 2.0 * beta
        return complex(math.sqrt(beta - e) / two_b,
                       math.copysign(math.sqrt(beta + e) / two_b, e + 0.0))
    big = e + math.sqrt(e * e - beta * beta)
    return complex(0.0, 1.0 / math.sqrt(2.0 * big))


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


def _sqrt_minus(z: complex) -> complex:
    """Principal sqrt(-z); the real cut z > 0 takes its z + i0 value -i*sqrt(z)."""
    if z.imag == 0.0 and z.real > 0.0:
        return complex(0.0, -math.sqrt(z.real))
    return cmath.sqrt(-z)


def _has_pole(params: SystemParams) -> bool:
    """artanh(alpha*xi) diverges at -Sigma (alpha > 0, alpha^2 >= 2*beta),
    exactly where the stored pole guard is nonzero."""
    return params._pole_guard > 0.0


def _reject_near_pole(params: SystemParams, z: complex) -> None:
    if z.imag == 0.0 and abs(z.real + params._sigma) < params._pole_guard:
        raise PoleError(f"artanh(alpha*xi) diverges at z = -Sigma = {-params._sigma}")


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
