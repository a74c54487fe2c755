"""Extension data: normalization constants, coupling algebra, the Krein
Q-matrix, the secular determinant, and the deficiency-element norms."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, SingularMatrixError
from .greens import (FOUR_PI, INV_4SQRT2PI, _check_real_z, _check_spin, _g1, _g2ren,
                     _gs_ren, _real_or_complex, _sqrt_e2_minus_b2, _xi_real)
from .model import SystemParams


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian matrix [[pp, pm], [conj(pm), mm]]; diagonal real by construction."""

    pp: float
    mm: float
    pm: complex = 0j

    def __post_init__(self):
        pp, mm, pm = float(self.pp), float(self.mm), complex(self.pm)
        if not (math.isfinite(pp) and math.isfinite(mm)
                and math.isfinite(pm.real) and math.isfinite(pm.imag)):
            raise DomainError("Hermitian2 entries must be finite")
        object.__setattr__(self, "pp", pp)
        object.__setattr__(self, "mm", mm)
        object.__setattr__(self, "pm", pm)

    @property
    def det(self) -> float:
        try:
            return self.pp * self.mm - abs(self.pm) ** 2
        except OverflowError:
            raise DomainError(f"the matrix is too large: |pm|^2 overflows at "
                              f"|pm| = {abs(self.pm)!r}") from None

    @classmethod
    def scalar(cls, v: float) -> "Hermitian2":
        """v times the identity."""
        return cls(pp=v, mm=v, pm=0j)

    def to_json_dict(self) -> dict:
        return {"pp": self.pp, "mm": self.mm,
                "pm_re": self.pm.real, "pm_im": self.pm.imag}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Hermitian2":
        try:
            return cls(pp=float(data["pp"]), mm=float(data["mm"]),
                       pm=complex(float(data["pm_re"]), float(data["pm_im"])))
        except KeyError as exc:
            raise DomainError(f"matrix JSON must carry keys pp, mm, pm_re, pm_im; missing {exc}")


class ExtensionKind(enum.Enum):
    """The two couplings that bypass the Gamma parametrization entirely.

    TRIVIAL is C = 0 (the unperturbed operator); FRIEDRICHS is C^{-1} = 0.
    Both have purely continuous spectrum [-Sigma, inf).
    """

    TRIVIAL = "trivial"
    FRIEDRICHS = "friedrichs"


@dataclass(frozen=True)
class NormalizationData:
    """Channel normalizations N_s and shifts Lambda_s, fixed by Q_ss(+-i) = +-i."""

    n_plus: float
    n_minus: float
    lambda_plus: float
    lambda_minus: float

    def n(self, s: int) -> float:
        return self.n_plus if s == 1 else self.n_minus


@dataclass(frozen=True)
class EffectiveCouplings:
    """The three scalars (omega_+, omega_-, gamma) entering the secular equation."""

    omega_plus: float
    omega_minus: float
    gamma: float


class KreinQ(NamedTuple):
    """Diagonal Q-matrix entries at one energy as an immutable named pair:
    floats below the band, where Q is real, and complex off the real axis."""

    q_pp: complex | float
    q_mm: complex | float

    def entry(self, s: int) -> complex | float:
        return self.q_pp if s == 1 else self.q_mm


@lru_cache(maxsize=512)
def _normalization_cached(params: SystemParams) -> NormalizationData:
    b = params.beta
    g2, g1 = _g2ren(params, 1j), _g1(params, 1j)
    # sqrt(-i)/(4 pi) = (1 - i)/(4 sqrt2 pi), so Q_ss(i) = i fixes both
    g_p, g_m = g2 - b * g1, g2 + b * g1
    inv_sq_p, inv_sq_m = g_p.imag + INV_4SQRT2PI, g_m.imag + INV_4SQRT2PI
    for s, inv_sq in ((1, inv_sq_p), (-1, inv_sq_m)):
        if inv_sq <= 0.0:
            raise DomainError(
                f"normalization failed: N^-2 = {inv_sq} <= 0 for s={s:+d} at "
                f"alpha={params.alpha}, beta={b} (outside proven admissibility)")
    return NormalizationData(
        n_plus=1.0 / math.sqrt(inv_sq_p), n_minus=1.0 / math.sqrt(inv_sq_m),
        lambda_plus=g_p.real - INV_4SQRT2PI, lambda_minus=g_m.real - INV_4SQRT2PI)


def normalization(params: SystemParams) -> NormalizationData:
    """N_s and Lambda_s from Q_ss(i) = i, with g = (G_2^ren - s*beta*G_1)(0; i):

    N_s^-2 = Im g + 1/(4 sqrt(2) pi) and Lambda_s = Re g - 1/(4 sqrt(2) pi),
    both spins from one evaluation of G_2^ren(0; i) and G_1(0; i) by the
    Green kernels that Q uses (``greens._g2ren`` and ``greens._g1``), so the
    values equal ``g2ren_origin(params, 1j)`` and ``g1_origin(params, 1j)``
    bit for bit.

    Results are memoized per parameter point (equal points share an entry);
    the record is immutable, so the cache is safe for concurrent readers.
    """
    return _normalization_cached(params)


def gamma_from_cr(c_matrix: Hermitian2, r_matrix: Hermitian2) -> Hermitian2:
    """Coupling matrix Gamma = -C^{-1} - R by exact 2x2 inversion."""
    if c_matrix.pp == 0.0 and c_matrix.mm == 0.0 and c_matrix.pm == 0:
        raise SingularMatrixError(
            "C = 0 selects the trivial extension; pass ExtensionKind.TRIVIAL instead")
    d = c_matrix.det
    if d == 0.0:
        raise SingularMatrixError(
            "det C = 0: no inverse exists (C^{-1} = 0 would be the Friedrichs "
            "extension, passed as ExtensionKind.FRIEDRICHS)")
    return Hermitian2(pp=-c_matrix.mm / d - r_matrix.pp,
                      mm=-c_matrix.pp / d - r_matrix.mm,
                      pm=c_matrix.pm / d - r_matrix.pm)


def effective_couplings(params: SystemParams, gamma_matrix: Hermitian2) -> EffectiveCouplings:
    """omega_s = 4*pi*(Gamma_ss/N_s^2 + Lambda_s), gamma = (4*pi*|Gamma_+-|/(N_+ N_-))^2."""
    nd = normalization(params)
    wp = FOUR_PI * (gamma_matrix.pp / nd.n_plus ** 2 + nd.lambda_plus)
    wm = FOUR_PI * (gamma_matrix.mm / nd.n_minus ** 2 + nd.lambda_minus)
    try:
        g = (FOUR_PI * abs(gamma_matrix.pm) / (nd.n_plus * nd.n_minus)) ** 2
    except OverflowError:
        raise DomainError(f"Gamma is too large: gamma overflows at "
                          f"|Gamma_+-| = {abs(gamma_matrix.pm)!r}") from None
    return EffectiveCouplings(omega_plus=wp, omega_minus=wm, gamma=g)


def gamma_for_couplings(params: SystemParams, omega_plus: float, omega_minus: float,
                        gamma: float) -> Hermitian2:
    """Inverse of effective_couplings: a Gamma realizing the given scalars.

    The off-diagonal phase is immaterial (only |Gamma_+-| enters), so the
    entry is taken real nonnegative.
    """
    if gamma < 0.0:
        raise DomainError("gamma must be nonnegative")
    nd = normalization(params)
    return Hermitian2(
        pp=nd.n_plus ** 2 * (omega_plus / FOUR_PI - nd.lambda_plus),
        mm=nd.n_minus ** 2 * (omega_minus / FOUR_PI - nd.lambda_minus),
        pm=nd.n_plus * nd.n_minus * math.sqrt(gamma) / FOUR_PI)


def krein_q(params: SystemParams, z: complex) -> KreinQ:
    """Diagonal Q entries N_s^2 (G_s^ren(0;z) - sqrt(-z)/(4 pi) - Lambda_s).

    Returns the immutable named pair ``KreinQ``, of floats below the band
    (computed in float arithmetic).  Real z on the band [-Sigma, inf) raises,
    as in every Green value: there Q has no single real-axis value.  Inside
    the pole guard around -Sigma the error is PoleError, elsewhere DomainError.
    A float z, as the root finder passes it, is a real energy and is never
    boxed; any other type goes through complex(z) and, on the real axis,
    continues as its float real part (``greens._real_or_complex``), so every
    form of one real E gives the same float bits.

    N_s and Lambda_s stay memoized per parameter point (``normalization``); the
    first evaluation at a parameter point keeps (N_+^2, N_-^2, Lambda_+,
    Lambda_-) on it as ``params._q_scale``, and later ones read it from there.
    """
    if type(z) is not float:
        z = _real_or_complex(z)
    scale = params._q_scale
    if scale is None:
        nd = _normalization_cached(params)
        scale = (nd.n_plus ** 2, nd.n_minus ** 2, nd.lambda_plus, nd.lambda_minus)
        # equal tuples from concurrent first calls: the write is idempotent
        object.__setattr__(params, "_q_scale", scale)
    n2_p, n2_m, lam_p, lam_m = scale
    _check_real_z(params, z)
    g_p, g_m = _gs_ren(params, 1, z), _gs_ren(params, -1, z)
    sq = (math.sqrt(-z) if type(z) is float else cmath.sqrt(-z)) / FOUR_PI
    # the call NamedTuple's generated __new__ makes, without its Python frame
    return tuple.__new__(KreinQ, (n2_p * (g_p - sq - lam_p), n2_m * (g_m - sq - lam_m)))


def secular_det(params: SystemParams, gamma_matrix: Hermitian2,
                z: complex) -> complex | float:
    """det(Gamma - Q(z)) with diagonal Q; a float on real z below -Sigma."""
    q = krein_q(params, z)
    try:
        return ((gamma_matrix.pp - q.q_pp) * (gamma_matrix.mm - q.q_mm)
                - abs(gamma_matrix.pm) ** 2)
    except OverflowError:
        raise DomainError(f"Gamma is too large: |Gamma_+-|^2 overflows at "
                          f"|Gamma_+-| = {abs(gamma_matrix.pm)!r}") from None


def phi_norm_sq(params: SystemParams, s: int, z: complex) -> float:
    """Squared norm of the deficiency element of channel s at energy z.

    Im z != 0: N_s^2 Im(G_s^ren(0;z) - sqrt(-z)/(4 pi)) / Im z, which equals
    Im Q_ss(z)/Im z.  Real E < -Sigma: its limit dQ_ss/dE, the derivative of
    the channel factor -1/(8 pi x) + (alpha^2 - 2 s beta) artanh(alpha x)/(8 pi alpha)
    at x = xi(E) with dx/dE = x/(2 w), w = sqrt(E^2 - beta^2).  A float z is
    a real energy; any other type goes through complex(z) and, on the real
    axis, continues as its float real part (``greens._real_or_complex``).
    """
    _check_spin(s)
    if type(z) is not float:
        z = _real_or_complex(z)
    nd = normalization(params)
    n2 = nd.n(s) ** 2
    if type(z) is not float:
        g = _gs_ren(params, s, z)
        norm_sq = n2 * (g - cmath.sqrt(-z) / FOUR_PI).imag / z.imag
        if not math.isfinite(norm_sq):
            # Im Q/Im z grows like 1/Im z next to the band
            raise DomainError(f"the squared norm overflows at z = {z}")
        return norm_sq

    _check_real_z(params, z)
    a, b = params.alpha, params.beta
    x = _xi_real(b, z)
    w = _sqrt_e2_minus_b2(z, b)
    return n2 / (16.0 * math.pi * w) * (
        1.0 / x + (a * a - 2.0 * s * b) * x / (1.0 - a * a * x * x))
