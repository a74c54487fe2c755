"""Branch-resolved elementary functions and the contact Green values.

Off the real axis every quantity below is a principal-branch composition,
which keeps conjugation symmetry and the Herglotz property of the Q-function.
On the real axis they are taken only below the band [-Sigma, inf), where the
discrete eigenvalues lie and xi is real and positive.  Real z has one rule
(``_check_real_z``): PoleError inside the pole guard around -Sigma, where
artanh(alpha*xi) diverges, and DomainError elsewhere on the band, where Q
has no single real-axis value.  Each public entry point applies it once
(``gs_ren_origin`` through the two values it composes);
the private kernels (``_g1``, ``_g2ren``, ``_gs_ren``) hold the one body of
each Green value and take a z that has passed it.

Every entry that takes z decides once whether it is real, by
``_real_or_complex``: a ``float`` z is a real energy and passes unchanged;
any other type (int, bool, np.float64, complex, np.complex128) goes through
``complex(z)``, and on the real axis (imaginary part +-0.0) it continues as
its float real part.  Past the entry, z is a float on the real axis and a
complex off it, and the kernels branch on ``type(z) is float`` and use z
itself, so E, complex(E), complex(E, -0.0) and np.float64(E) give the same
bits.  The normalization (``extension.normalization``) reads G_2^ren(0; i)
and G_1(0; i) from ``_g2ren`` and ``_g1`` too.  Below the band the
kernels compute in float arithmetic, by the same formulas with the real
sqrt and artanh, and every value there is a float; off the axis it is
complex.
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


def _artanh_real(x: float) -> float:
    """The real artanh on (-1, 1): x = +-1 raises PoleError, and real |x| > 1
    lies on the cuts and raises DomainError."""
    if -1.0 < x < 1.0:
        return math.atanh(x)
    if x == 1.0 or x == -1.0:
        raise PoleError("artanh is defined on C \\ {-1, 1}")
    raise DomainError(f"artanh is not taken on its real cuts |w| > 1, got w = {x}")


def artanh_branch(w: complex) -> complex:
    """Inverse hyperbolic tangent: the principal value off the real axis and
    the real artanh on (-1, 1).  Real w = +-1 raises PoleError; real |w| > 1
    lies on the cuts and raises DomainError."""
    w = complex(w)
    if w.imag == 0.0:
        return complex(_artanh_real(w.real))
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


def _xi_real(beta: float, e: float) -> float:
    """Real positive xi at E <= -beta (E < 0 at beta = 0), |E| <= _E_MAX; a float."""
    if beta == 0.0:
        if not e < 0.0:
            raise DomainError("xi with beta = 0 requires E < 0")
        if -e > _E_MAX:
            raise DomainError(f"|E| = {-e} is beyond the float range of xi")
        return 1.0 / (2.0 * math.sqrt(-e))
    if not e <= -beta:
        raise DomainError(f"real xi requires E <= -beta = {-beta}, got {e}")
    ee = e * e
    w = math.sqrt(ee - beta * beta) if _TINY <= ee < math.inf else _sqrt_e2_minus_b2(e, beta)
    return 1.0 / math.sqrt(2.0 * (-e + w))


def _real_or_complex(z: complex) -> complex | float:
    """z as the kernels take it: a float unchanged; any other type through
    complex(z), continuing as its float real part where the imaginary part
    is zero (+-0.0).  Entries skip the call for a float z."""
    if type(z) is float:
        return z
    z = complex(z)
    return z.real if z.imag == 0.0 else z


def xi(params: SystemParams, z: complex) -> complex | float:
    """xi(z) = sqrt((-z/2)(1 - sqrt(1 - (beta/z)^2)))/beta, principal branches.

    Evaluated through the exact rearrangement
    xi = sqrt(-1/(2 z (1 + sqrt(1 - (beta/z)^2)))), which avoids the
    subtractive cancellation of the literal form when |beta/z| is small.
    Where |beta/z| is too large to square, sqrt(1 - w^2) is taken as
    sqrt(1 - w) sqrt(1 + w), the same branch off the real axis.  Real z must
    lie at or below -beta (below 0 at beta = 0), and there xi is a float.
    A float z is taken as it is; any other type goes through complex(z) and,
    on the real axis, continues as its float real part (``_real_or_complex``).
    """
    if type(z) is not float:
        z = _real_or_complex(z)
    if type(z) is float:
        return _xi_real(params.beta, z)
    return _xi_complex(params.beta, z)


def _xi_complex(b: float, z: complex) -> complex:
    """xi at a complex z off the real axis, by the rearranged form of ``xi``."""
    if b == 0.0:
        return 1.0 / (2.0 * cmath.sqrt(-z))
    w = b / z
    if abs(w) < _SQUARE_MAX:
        u = cmath.sqrt(1.0 - w ** 2)
    else:
        u = cmath.sqrt(1.0 - w) * cmath.sqrt(1.0 + w)
    x = cmath.sqrt(-1.0 / (2.0 * z * (1.0 + u)))
    if x == 0.0 or x != x:
        # 2 z (1 + u) overflowed; so may abs(z), which the message leaves out
        raise DomainError(f"z = {z} is beyond the float range of xi")
    return x


def _check_real_z(params: SystemParams, z: complex) -> None:
    """The one rule for real z: it must lie below the band [-Sigma, inf).

    Inside the pole guard around -Sigma PoleError, elsewhere on the band
    DomainError.  z has passed ``_real_or_complex``: a float is a real
    energy and is checked; a complex lies off the real axis and passes.
    """
    if type(z) is float:
        sigma = params._sigma
        if abs(z + sigma) < params._pole_guard:
            raise PoleError(f"artanh(alpha*xi) diverges at z = -Sigma = {-sigma}")
        if not z < -sigma:
            raise DomainError(
                f"z = {z} lies on the continuous band [-Sigma, inf) with Sigma = {sigma}")


def _g1(params: SystemParams, z: complex) -> complex | float:
    """G_1(0;z) at a z that has passed ``_check_real_z``: a float E below the
    band, where the value is a float, or a complex z off the real axis.

    On the real axis the check has put E below -Sigma, so 0 <= alpha*xi < 1
    and math.atanh cannot fail there: xi grows with E up to the band edge,
    alpha*xi reaches 1 only at -Sigma and only when alpha^2 >= 2*beta, and
    the pole guard keeps E at least 1e-10 relative below that pole, far more
    than rounding can make up.
    """
    x = xi(params, z)
    atanh = math.atanh if type(z) is float else artanh_branch
    a = params.alpha
    w = a * x
    if abs(w) < _SMALL_ARG:
        # w2 * w2 is the complex w ** 4 (repeated squaring) also for a float w
        w2 = w * w
        return x * (1.0 + w2 / 3.0 + w2 * w2 / 5.0) / FOUR_PI
    return atanh(w) / (FOUR_PI * a)


def _g2ren(params: SystemParams, z: complex) -> complex | float:
    """G_2^ren(0;z) at a z that has passed ``_check_real_z``; a float at a
    float z, where -z > Sigma >= 0 and math.atanh is safe (``_g1``).
    At alpha = beta = 0 a zero of z's type, once xi has checked z's range."""
    a, b = params.alpha, params.beta
    real = type(z) is float
    x = xi(params, z)
    if a == 0.0 and b == 0.0:
        return 0.0 if real else 0j
    out = 0.0
    if b != 0.0:
        out = ((math.sqrt(-z) if real else cmath.sqrt(-z)) - 1.0 / (2.0 * x)) / FOUR_PI
    if a != 0.0:
        out += a * (math.atanh(a * x) if real else artanh_branch(a * x)) / EIGHT_PI
    return out


def _gs_ren(params: SystemParams, s: int, z: complex) -> complex | float:
    """G_s^ren(0;z) at a spin s = +-1 and a z that have passed their checks;
    a float at a float z."""
    g2 = _g2ren(params, z)
    b = params.beta
    if b == 0.0:
        return g2
    return g2 - s * b * _g1(params, z)


def g1_origin(params: SystemParams, z: complex) -> complex | float:
    """artanh(alpha*xi(z))/(4*pi*alpha); alpha -> 0 limit xi(z)/(4*pi).

    The small-argument branch uses artanh(w)/w = 1 + w^2/3 + w^4/5 + O(w^6),
    so the alpha -> 0 limit is reached without cancellation.
    """
    if type(z) is not float:
        z = _real_or_complex(z)
    _check_real_z(params, z)
    return _g1(params, z)


def g2ren_origin(params: SystemParams, z: complex) -> complex | float:
    """Renormalized second Green value at the origin.

    sqrt(-z)/(4 pi) - B(z)/(4 pi) + (alpha/(8 pi)) artanh(alpha xi(z)),
    with B = 1/(2 xi(z)) the partner square root of xi.  At beta = 0,
    B = sqrt(-z), so the value is identically zero for alpha = beta = 0.
    """
    if type(z) is not float:
        z = _real_or_complex(z)
    _check_real_z(params, z)
    return _g2ren(params, z)


def gs_ren_origin(params: SystemParams, s: int, z: complex) -> complex | float:
    """Spin-channel combination G_2^ren(0;z) - s*beta*G_1(0;z), s = +-1.

    The composition of the public ``g2ren_origin`` and ``g1_origin``, by the
    operations of ``_gs_ren``: G_2^ren alone at beta = 0.
    """
    _check_spin(s)
    g2 = g2ren_origin(params, z)
    b = params.beta
    if b == 0.0:
        return g2
    return g2 - s * b * g1_origin(params, z)
