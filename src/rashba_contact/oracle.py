"""Momentum-space quadrature oracle.

Works directly with the dispersion denominator
D(p) = (p^2 - z)^2 - alpha^2 p_perp^2 - beta^2 in spherical momentum
coordinates; no closed-form Green value is reused anywhere, so agreement with
the analytic module is a genuine two-route check.

The azimuthal angle integrates out exactly (the integrands depend only on
p_perp^2 and p_z^2), leaving an iterated 2D integral.  The radial half-line is
mapped onto (0,1) by rho = t/(1-t); the mapped integrands tend to finite
limits at t = 1 because the renormalized combinations decay like rho^-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .extension import normalization
from .greens import _check_spin
from .model import SystemParams, threshold_sigma
from .spectrum import _golden_min

_THETA_MAX = math.pi / 2.0
# (2 pi)^-3 * (azimuthal 2 pi) * (p_z reflection symmetry factor 2)
_PREFACTOR = 1.0 / (2.0 * math.pi ** 2)
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


def _reject_on_continuum(params: SystemParams, z: complex) -> None:
    sigma = threshold_sigma(params)
    if z.imag == 0.0 and z.real >= -sigma:
        raise DomainError(
            f"z = {z.real} lies on the continuous band [-Sigma, inf) with "
            f"Sigma = {sigma}; the momentum integral is singular there")


def _gs_integrand(params: SystemParams, s: int, z: complex,
                  rho: float, sin2: float) -> complex:
    """Renormalized channel integrand over a common denominator.

    (p^2-z-s*b)/D - 1/(p^2-z) = (a^2 p_perp^2 + b^2 - s*b*(p^2-z)) / (D (p^2-z));
    the combined form cancels exactly at alpha = beta = 0 and decays like rho^-4.
    """
    a, b = params.alpha, params.beta
    p2 = rho * rho
    pperp2 = p2 * sin2
    w = p2 - z
    dd = w * w - a * a * pperp2 - b * b
    return (a * a * pperp2 + b * b - s * b * w) / (dd * w)


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


def _iterated_quad(f2, tol: float, *, complex_valued: bool):
    """Iterated adaptive quadrature of f2(rho, theta) * rho^2 * sin(theta)
    over theta in [0, pi/2], rho in [0, inf), without the overall prefactor.

    Returns (value, error_estimate, evaluations).  Inner results are cached by
    theta so the two outer passes (real and imaginary) share work.
    """
    from scipy import integrate        # imported here: it dominates import time

    evals = [0]
    inner_eps = max(tol / 8.0, 1e-13)
    cache: dict[float, tuple[complex, float]] = {}
    worst_inner = [0.0]

    def inner(theta: float) -> complex:
        got = cache.get(theta)
        if got is not None:
            return got[0]
        sin_t = math.sin(theta)
        sin2 = sin_t * sin_t

        def mapped(t: float, part: int) -> float:
            evals[0] += 1
            rho = t / (1.0 - t)
            v = f2(rho, sin2) * rho * rho * sin_t / (1.0 - t) ** 2
            return v.real if part == 0 else v.imag

        re, er = integrate.quad(mapped, 0.0, 1.0, args=(0,), epsabs=inner_eps,
                                epsrel=1e-10, limit=_QUAD_LIMIT)
        if complex_valued:
            im, ei = integrate.quad(mapped, 0.0, 1.0, args=(1,), epsabs=inner_eps,
                                    epsrel=1e-10, limit=_QUAD_LIMIT)
        else:
            im, ei = 0.0, 0.0
        val = complex(re, im)
        err = er + ei
        worst_inner[0] = max(worst_inner[0], err)
        cache[theta] = (val, err)
        return val

    outer_eps = max(tol / 4.0, 1e-13)
    vr, er = integrate.quad(lambda th: inner(th).real, 0.0, _THETA_MAX,
                            epsabs=outer_eps, epsrel=1e-10, limit=_QUAD_LIMIT)
    if complex_valued:
        vi, ei = integrate.quad(lambda th: inner(th).imag, 0.0, _THETA_MAX,
                                epsabs=outer_eps, epsrel=1e-10, limit=_QUAD_LIMIT)
    else:
        vi, ei = 0.0, 0.0
    err = er + ei + _THETA_MAX * worst_inner[0]
    return complex(vr, vi), err, evals[0]


def gs_ren_quadrature(params: SystemParams, s: int, z: complex,
                      tol: float = 1e-8) -> QuadratureResult:
    """Quadrature estimate of the renormalized channel Green value at the origin."""
    _check_spin(s)
    z = complex(z)
    _reject_on_continuum(params, z)
    if params.alpha == 0.0 and params.beta == 0.0:
        return QuadratureResult(0j, 0.0, 0)

    def f2(rho: float, sin2: float) -> complex:
        return _gs_integrand(params, s, z, rho, sin2)

    total_evals = 0
    for attempt_tol in (tol, tol / 20.0):
        val, err, n = _iterated_quad(f2, attempt_tol, complex_valued=True)
        total_evals += n
        val = _PREFACTOR * val
        err = _PREFACTOR * err
        if err <= tol * (1.0 + abs(val)):
            return QuadratureResult(val, err, total_evals)
    raise ConvergenceError(
        f"quadrature error estimate {err:.3e} exceeds tol*(1+|value|); "
        f"best estimate {val}", value=val, abs_error=err)


def phi_norm_quadrature(params: SystemParams, s: int, z: complex,
                        tol: float = 1e-6) -> QuadratureResult:
    """Quadrature estimate of the squared deficiency-element norm at energy z."""
    _check_spin(s)
    z = complex(z)
    _reject_on_continuum(params, z)
    n2 = normalization(params).n(s) ** 2

    def f2(rho: float, sin2: float) -> complex:
        return complex(_phi_integrand(params, s, z, rho, sin2))

    total_evals = 0
    # the N^2 prefactor scales the raw tolerance target
    raw_tol_base = tol / (n2 * _PREFACTOR)
    for attempt_tol in (raw_tol_base, raw_tol_base / 20.0):
        val, err, n = _iterated_quad(f2, attempt_tol, complex_valued=False)
        total_evals += n
        value = n2 * _PREFACTOR * val.real
        error = n2 * _PREFACTOR * err
        if error <= tol * (1.0 + abs(value)):
            return QuadratureResult(complex(value), error, total_evals)
    raise ConvergenceError(
        f"norm quadrature error estimate {error:.3e} exceeds tol*(1+|value|)",
        value=complex(value), abs_error=error)


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
