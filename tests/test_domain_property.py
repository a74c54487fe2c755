"""Property test of the real-axis rule and of Q off the axis.

Every Green-layer entry point returns finite values or raises DomainError
(PoleError is one) for any parameters, any real E (+-inf included) and any
complex z with |z| in [1e-300, 1e300]: floats at real E, and complex
numbers off the axis except the squared norms, which are real.  Off the
axis Q is conjugation-symmetric and has Im Q > 0 in the upper half-plane,
to the rounding of the terms of Q.  Wherever the normalization is defined,
Q_ss(+-i) = +-i to 1e-12.  The same rule holds for U_nu, V_nu and E_nu down
to x = 1e-300, and for the forbidden-band scan of CaseC points with
|omega_+| up to 1e300, on bands with and without nodes above -beta.
"""

import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rashba_contact import (DomainError, EffectiveCouplings, SystemParams,  # noqa: E402
                            e_nu, forbidden_band_scan, g1_origin, g2ren_origin,
                            gs_ren_origin, krein_q, normalization, phi_norm_sq,
                            secular_function, u_nu, v_nu)
from rashba_contact.greens import FOUR_PI  # noqa: E402

EFF = EffectiveCouplings(0.5, -0.25, 0.1)


def _power(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda k: 10.0 ** k)


@st.composite
def params(draw):
    alpha = draw(st.one_of(st.just(0.0), _power(-6.0, 3.0)))
    if alpha > 0.0 and draw(st.booleans()):
        beta = alpha * alpha / 2.0             # the seam
    else:
        beta = draw(st.one_of(st.just(0.0), _power(-6.0, 3.0)))
    return SystemParams(alpha, beta)


@st.composite
def real_energies(draw, p: SystemParams):
    if draw(st.booleans()):
        # near the band edge, on either side, down to inside the pole guard
        scale = max(1.0, p._sigma)
        return -p._sigma + draw(st.sampled_from((-1.0, 1.0))) * scale * draw(_power(-13.0, 3.0))
    return draw(st.sampled_from((-1.0, 1.0))) * draw(st.one_of(_power(-300.0, 300.0),
                                                               st.just(math.inf)))


def _finite(v) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag)


def _entries(p: SystemParams, z: complex):
    """Each entry point at z, with the type of the values it returns there."""
    value = float if z.imag == 0.0 else complex
    return ((lambda: tuple(krein_q(p, z)), value),
            (lambda: (g1_origin(p, z),), value),
            (lambda: (g2ren_origin(p, z),), value),
            (lambda: (gs_ren_origin(p, 1, z),), value),
            (lambda: (gs_ren_origin(p, -1, z),), value),
            (lambda: (phi_norm_sq(p, 1, z),), float),
            (lambda: (phi_norm_sq(p, -1, z),), float),
            (lambda: (secular_function(p, EFF, z.real),) if z.imag == 0.0 else (), float))


def _check(p: SystemParams, z: complex) -> None:
    for call, kind in _entries(p, z):
        try:
            values = call()
        except DomainError:
            continue
        assert all(type(v) is kind and _finite(v) for v in values), (p, z, values)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.data())
def test_entry_points_are_finite_or_raise_domain_error(data):
    p = data.draw(params())
    _check(p, complex(data.draw(real_energies(p))))
    z = cmath.rect(data.draw(_power(-300.0, 300.0)), data.draw(st.floats(-math.pi, math.pi)))
    _check(p, z)
    if z.imag == 0.0:
        return
    z = complex(z.real, abs(z.imag))
    try:
        q, qc, nd = krein_q(p, z), krein_q(p, z.conjugate()), normalization(p)
    except DomainError:
        return
    for s, lam in ((1, nd.lambda_plus), (-1, nd.lambda_minus)):
        v, vc = q.entry(s), qc.entry(s)
        assert abs(vc - v.conjugate()) <= 1e-12 * abs(v), (p, z, s)
        # Q = N_s^2 (G_s^ren - sqrt(-z)/(4 pi) - Lambda_s) is known to eps
        # times the size of its terms; where the true Im Q is smaller (next to
        # a channel threshold, or as z -> 0 at alpha = 0) that is its sign's
        # only resolution
        terms = nd.n(s) ** 2 * (abs(gs_ren_origin(p, s, z)) + abs(cmath.sqrt(-z)) / FOUR_PI
                                + abs(lam))
        assert v.imag > -1e-15 * terms, (p, z, s, v)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.one_of(st.just(0.0), _power(-8.0, 2.0)), st.one_of(st.just(0.0), _power(-8.0, 2.0)))
def test_q_is_plus_minus_i_at_plus_minus_i(alpha, beta):
    # the normalization's defining property Q_ss(+-i) = +-i, wherever it is defined
    p = SystemParams(alpha, beta)
    try:
        normalization(p)
    except DomainError:
        return
    for z in (1j, -1j):
        q = krein_q(p, z)
        for s in (1, -1):
            assert abs(q.entry(s) - z) <= 1e-12, (alpha, beta, z, s, q)


def _finite_or_domain_error(call) -> None:
    try:
        value = call()
    except DomainError:
        return
    assert type(value) is float and math.isfinite(value), value


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_power(0.0, 8.0), _power(-300.0, 0.0), _power(-6.0, 3.0))
def test_large_coupling_functions_are_finite_or_raise_domain_error(nu, x_frac, beta):
    # x = x_frac nu in (0, nu]; U_nu ~ -1/x^2 leaves the float range below
    # x ~ 1e-154 and E_nu ~ beta nu^2/(2 x^2) near it
    x = x_frac * nu
    _finite_or_domain_error(lambda: u_nu(nu, x))
    _finite_or_domain_error(lambda: v_nu(nu, x))
    _finite_or_domain_error(lambda: e_nu(beta, nu, x))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_power(0.0, 3.0), st.booleans(), _power(-8.0, 2.0),
       st.sampled_from((-1.0, 1.0)), _power(-3.0, 300.0), st.floats(-3.0, 3.0))
def test_forbidden_band_scan_is_finite_or_raises_domain_error(nu, mid, beta, sign, size, wm):
    # beta below 5e-7 leaves no node above -beta (the margin 1e-6 exceeds
    # 2 beta), so the maximum comes from the search below it alone
    beta = beta if mid else min(beta, 4e-7)
    p = SystemParams(nu * math.sqrt(2.0 * beta), beta)
    _finite_or_domain_error(lambda: forbidden_band_scan(
        p, EffectiveCouplings(sign * size, wm, 0.1)).max_gamma_required)
