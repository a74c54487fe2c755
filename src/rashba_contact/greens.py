"""Branch-resolved elementary functions and the contact Green values.

Off the real axis every quantity below is a principal-branch composition,
which keeps conjugation symmetry and the Herglotz property of the Q-function.
On the real axis they are taken only below the band [-Sigma, inf), where the
discrete eigenvalues lie and xi is real and positive.  Real z has one rule
(``_check_real_z``): PoleError inside the pole guard around -Sigma, where
artanh(alpha*xi) diverges, and DomainError elsewhere on the band, where Q
has no single real-axis value.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import DomainError, PoleError
from .model import SystemParams

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
INV_4SQRT2PI = 1.0 / (4.0 * math.sqrt(2.0) * math.pi)

# below this |alpha*xi| the artanh(alpha*xi)/alpha form switches to its series
_SMALL_ARG = 1e-4
# a complex number of smaller modulus squares without overflow
_SQUARE_MAX = 1e154
# a real E^2 below the smallest normal float has lost digits
_TINY = sys.float_info.min
# beyond this |E| the real-axis forms overflow: 1/xi^2 ~ 4|E|, and
# 16 pi sqrt(E^2 - beta^2) in the squared deficiency norm
_E_MAX = sys.float_info.max / 64.0


def _check_spin(s: int) -> None:
    if s not in (1, -1):
        raise DomainError(f"spin index must be +1 or -1, got {s!r}")


def artanh_branch(w: complex) -> complex:
    """Inverse hyperbolic tangent: the principal value off the real axis and
    the real artanh on (-1, 1).  Real w = +-1 raises PoleError; real |w| > 1
    lies on the cuts and raises DomainError."""
    w = complex(w)
    if w.imag == 0.0:
        x = w.real
        if x == 1.0 or x == -1.0:
            raise PoleError("artanh is defined on C \\ {-1, 1}")
        if not -1.0 < x < 1.0:
            raise DomainError(f"artanh is not taken on its real cuts |w| > 1, got w = {x}")
        return complex(math.atanh(x))
    return cmath.atanh(w)


def _sqrt_e2_minus_b2(e: float, b: float) -> float:
    """sqrt(E^2 - beta^2) at real E <= -beta.

    Where E^2 is not a normal float, the factored form
    sqrt(-E - beta) sqrt(-E + beta), which neither overflows nor underflows;
    DomainError where |E| is too large for the real-axis forms (``_E_MAX``).
    """
    ee = e * e
    if _TINY <= ee < math.inf:
        return math.sqrt(ee - b * b)
    if -e > _E_MAX:
        raise DomainError(f"|E| = {-e} is beyond the float range of xi")
    return math.sqrt(-e - b) * math.sqrt(-e + b)


def _xi_real(beta: float, e: float) -> complex:
    """Real positive xi at E <= -beta (E < 0 at beta = 0)."""
    if beta == 0.0:
        if e >= 0.0:
            raise DomainError("xi with beta = 0 requires E < 0")
        return complex(1.0 / (2.0 * math.sqrt(-e)))
    if e > -beta:
        raise DomainError(f"real xi requires E <= -beta = {-beta}, got {e}")
    big = -e + _sqrt_e2_minus_b2(e, beta)
    return complex(1.0 / math.sqrt(2.0 * big))


def xi(params: SystemParams, z: complex) -> complex:
    """xi(z) = sqrt((-z/2)(1 - sqrt(1 - (beta/z)^2)))/beta, principal branches.

    Evaluated through the exact rearrangement
    xi = sqrt(-1/(2 z (1 + sqrt(1 - (beta/z)^2)))), which avoids the
    subtractive cancellation of the literal form when |beta/z| is small.
    Where |beta/z| is too large to square, sqrt(1 - w^2) is taken as
    sqrt(1 - w) sqrt(1 + w), the same branch off the real axis.  Real z must
    lie at or below -beta (below 0 at beta = 0).
    """
    z = complex(z)
    if z.imag == 0.0:
        return _xi_real(params.beta, z.real)
    b = params.beta
    if b == 0.0:
        return 1.0 / (2.0 * cmath.sqrt(-z))
    if z == 0.0:
        raise DomainError("xi is undefined at z = 0 for beta > 0")
    w = b / z
    if abs(w) < _SQUARE_MAX:
        u = cmath.sqrt(1.0 - w ** 2)
    else:
        u = cmath.sqrt(1.0 - w) * cmath.sqrt(1.0 + w)
    x = cmath.sqrt(-1.0 / (2.0 * z * (1.0 + u)))
    if x == 0.0 or x != x:
        # 2 z (1 + u) overflowed
        raise DomainError(f"|z| = {abs(z)} is beyond the float range of xi")
    return x


def _check_real_z(params: SystemParams, z: complex) -> None:
    """The one rule for real z: it must lie below the band [-Sigma, inf).

    Inside the pole guard around -Sigma PoleError, elsewhere on the band
    DomainError.  Complex z passes.
    """
    if z.imag == 0.0:
        e, sigma = z.real, params._sigma
        if abs(e + sigma) < params._pole_guard:
            raise PoleError(f"artanh(alpha*xi) diverges at z = -Sigma = {-sigma}")
        if not e < -sigma:
            raise DomainError(
                f"z = {e} lies on the continuous band [-Sigma, inf) with Sigma = {sigma}")


def g1_origin(params: SystemParams, z: complex) -> complex:
    """artanh(alpha*xi(z))/(4*pi*alpha); alpha -> 0 limit xi(z)/(4*pi).

    The small-argument branch uses artanh(w)/w = 1 + w^2/3 + w^4/5 + O(w^6),
    so the alpha -> 0 limit is reached without cancellation.
    """
    z = complex(z)
    _check_real_z(params, z)
    x = xi(params, z)
    a = params.alpha
    w = a * x
    if abs(w) < _SMALL_ARG:
        return x * (1.0 + w * w / 3.0 + w ** 4 / 5.0) / FOUR_PI
    return artanh_branch(w) / (FOUR_PI * a)


def g2ren_origin(params: SystemParams, z: complex) -> complex:
    """Renormalized second Green value at the origin.

    sqrt(-z)/(4 pi) - B(z)/(4 pi) + (alpha/(8 pi)) artanh(alpha xi(z)),
    with B = 1/(2 xi(z)) the partner square root of xi.  At beta = 0,
    B = sqrt(-z), so the value is identically zero for alpha = beta = 0.
    """
    z = complex(z)
    _check_real_z(params, z)
    a, b = params.alpha, params.beta
    if a == 0.0 and b == 0.0:
        return 0j
    x = xi(params, z)
    out = 0j
    if b != 0.0:
        out = (cmath.sqrt(-z) - 1.0 / (2.0 * x)) / FOUR_PI
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
