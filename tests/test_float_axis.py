"""A float energy is the real axis itself: the Green values, Q, the secular
determinant and the deficiency norm take a Python ``float`` E unboxed, and
``complex(E)`` and ``np.float64(E)`` through ``complex(z)``.  The three
routes must give the same float bits below the band, and the same error, type
and message, where E is not a real energy below it.
"""

import math

import numpy as np
import pytest

from rashba_contact import (DomainError, Hermitian2, PoleError, SystemParams, g1_origin,
                            g2ren_origin, gs_ren_origin, krein_q, phi_norm_sq,
                            secular_det, xi)
from rashba_contact.greens import _SMALL_ARG


def _kinds(e: float):
    """E as a float, as complex(E) and as np.float64(E)."""
    return (e, complex(e), np.float64(e))


def _evaluations(p: SystemParams, gm: Hermitian2):
    """Every public real-axis evaluation at E, as (name, callable) pairs."""
    return (
        ("krein_q", lambda z: tuple(krein_q(p, z))),
        ("xi", lambda z: (xi(p, z),)),
        ("g1_origin", lambda z: (g1_origin(p, z),)),
        ("g2ren_origin", lambda z: (g2ren_origin(p, z),)),
        ("gs_ren_origin", lambda z: (gs_ren_origin(p, 1, z), gs_ren_origin(p, -1, z))),
        ("secular_det", lambda z: (secular_det(p, gm, z),)),
        ("phi_norm_sq", lambda z: (phi_norm_sq(p, 1, z), phi_norm_sq(p, -1, z))),
    )


def _outcome(f, z):
    """The float.hex of every value f returns at z, or its error's type and
    message; a value that is not exactly a float fails."""
    try:
        values = f(z)
    except ValueError as exc:
        return ("raises", type(exc), str(exc))
    for v in values:
        assert type(v) is float, (f, z, type(v))
    return ("value", tuple(v.hex() for v in values))


def _gamma(rng) -> Hermitian2:
    return Hermitian2(float(rng.normal()), float(rng.normal()),
                      complex(rng.normal(), rng.normal()))


def _drawn_points(n: int):
    """n seeded (alpha, beta, E) below -Sigma: alpha and beta log-uniform
    with a share exactly zero, E from 3e-10 to 1e4 relative below -Sigma."""
    rng = np.random.default_rng(3300)
    out = []
    for _ in range(n):
        alpha = 0.0 if rng.uniform() < 0.1 else float(10.0 ** rng.uniform(-3, 1))
        beta = 0.0 if rng.uniform() < 0.1 else float(10.0 ** rng.uniform(-4, 1))
        p = SystemParams(alpha, beta)
        scale = max(1.0, p._sigma)
        e = -p._sigma - scale * float(10.0 ** rng.uniform(math.log10(3e-10), 4))
        out.append((p, e, _gamma(rng)))
    return out


def _edge_points():
    """The edges of the real-axis forms, each with a fixed Gamma."""
    rng = np.random.default_rng(3301)
    points = []

    def add(alpha, beta, *energies):
        p = SystemParams(alpha, beta)
        for e in energies:
            points.append((p, e, _gamma(rng)))

    # alpha = 0, beta = 0 and both: CaseA, G_2^ren alone, and G = 0
    add(0.0, 0.5, -0.5 - 3e-10, -0.6, -7.0, -1e300)
    add(1.5, 0.0, -0.5625 - 3e-10, -1.0, -0.5625 - 1e-3, -1e300)  # Sigma = alpha^2/4
    add(0.0, 0.0, -1e-300, -5e-324, -1.0, -1e300)
    # |alpha*xi| on either side of the series switch of G_1 (Sigma = beta there)
    x = xi(SystemParams(0.0, 0.3), -1.0)
    for f in (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0):
        add(f * _SMALL_ARG / x, 0.3, -1.0)
    add(1e-7, 0.3, -0.3 - 1e-9, -2.0, -1e300)
    # the seam alpha^2 = 2 beta, where the pole sits at -Sigma = -alpha^2/2
    for alpha in (0.1, 1.0, 2.0, 30.0):
        p = SystemParams(alpha, alpha * alpha / 2.0)
        add(p.alpha, p.beta, -p._sigma - 3e-10 * max(1.0, p._sigma),
            -p._sigma * 1.5, -1e300)
    # just outside the pole guard, 3e-10 max(1, Sigma) below -Sigma
    for alpha, beta in ((2.0, 0.5), (5.0, 0.01), (1e3, 1.0), (1e-2, 1e-3)):
        p = SystemParams(alpha, beta)
        add(alpha, beta, -p._sigma - 3e-10 * max(1.0, p._sigma))
    # |E| to 1e300, where E^2 overflows and sqrt(E^2 - beta^2) is factored
    add(2.0, 0.5, -1e154, -1e155, -1e200, -1e300)
    return points


POINTS = _drawn_points(2000) + _edge_points()


def test_float_complex_and_float64_give_the_same_bits_below_the_band():
    assert len(POINTS) >= 2000
    for p, e, gm in POINTS:
        assert e < -p._sigma and abs(e + p._sigma) >= p._pole_guard, (p, e)
        for name, f in _evaluations(p, gm):
            got = [_outcome(f, z) for z in _kinds(e)]
            # below the band every evaluation succeeds
            assert got[0][0] == "value", (name, p, e, got[0])
            assert got[1] == got[0] and got[2] == got[0], (name, p, e, got)


def _off_axis_energies(p: SystemParams):
    """E where no real value exists: nan, +-inf, on the band and inside the
    pole guard (where there is one)."""
    sigma, guard = p._sigma, p._pole_guard
    out = [math.nan, math.inf, -math.inf, -sigma, 0.0, 3.0, -sigma + 0.5 * (1.0 + sigma)]
    if guard:
        out += [-sigma - 0.5 * guard, -sigma + 0.5 * guard]
    return out


@pytest.mark.parametrize("alpha,beta", [(2.0, 0.5), (0.0, 0.5), (1.5, 0.0), (0.0, 0.0),
                                        (1.0, 0.5), (1e-5, 0.3), (30.0, 450.0)])
def test_the_three_types_raise_alike_where_no_real_value_exists(alpha, beta):
    p = SystemParams(alpha, beta)
    gm = Hermitian2(0.3, -0.2, 0.1 + 0.4j)
    for e in _off_axis_energies(p):
        in_guard = abs(e + p._sigma) < p._pole_guard
        for name, f in _evaluations(p, gm):
            got = [_outcome(f, z) for z in _kinds(e)]
            assert got[1] == got[0] and got[2] == got[0], (name, e, got)
            # xi is real on [-Sigma, -beta] too; every other evaluation raises
            if name != "xi" or math.isnan(e) or math.isinf(e):
                assert got[0][0] == "raises", (name, e, got[0])
                want = PoleError if in_guard and name != "xi" else DomainError
                assert issubclass(got[0][1], want), (name, e, got[0])
