import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rashba_contact import (ConvergenceError, DomainError, SystemParams, gs_ren_origin,
                            gs_ren_quadrature, krein_q, normalization,
                            phi_norm_quadrature, phi_norm_sq, sigma_numeric,
                            threshold_sigma)
from rashba_contact import oracle
from rashba_contact.greens import FOUR_PI, INV_4SQRT2PI, _sqrt_minus
from rashba_contact.oracle import _WG21, _WK21, _X21, _gk21_batch, _gs_integrand


class TestIntegrand:
    def test_decay_is_quartic(self):
        # s = -1 keeps the leading coefficient alpha^2 sin^2 + beta away from 0
        p = SystemParams(1.0, 0.5)
        z = complex(-2.0)
        for sin2 in (0.1, 0.5, 1.0):
            f2 = abs(_gs_integrand(p, -1, z, 1e2, sin2))
            f3 = abs(_gs_integrand(p, -1, z, 1e3, sin2))
            assert 0.5e4 <= f2 / f3 <= 2e4   # rho^-4 within a factor 2

    def test_free_case_exactly_zero(self):
        p = SystemParams(0.0, 0.0)
        for rho in (0.3, 2.0, 50.0):
            assert _gs_integrand(p, 1, complex(-1.0), rho, 0.7) == 0


def _near_axis_points():
    """40 seeded (params, z) with |arg z| or |pi - arg z| in (0.02, 0.3)."""
    rng = np.random.default_rng(2026)
    points = []
    for _ in range(40):
        p = SystemParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 1.0)))
        arg = float(rng.uniform(0.02, 0.3)) * (1 if rng.uniform() < 0.5 else -1)
        if rng.uniform() < 0.5:
            arg = math.copysign(math.pi, arg) - arg
        points.append((p, cmath.rect(float(rng.uniform(0.2, 3.0)), arg)))
    return points


def counted(f):
    """f wrapped to count its evaluations, per integral, in the returned array."""
    evals = np.zeros(2, dtype=int)

    def wrapped(k, x):
        evals[:] += np.bincount(k.ravel(), minlength=2) * x.shape[1]
        return f(k, x)
    return wrapped, evals


class TestGK21:
    def test_weights_sum_to_two(self):
        assert _WK21.sum() == pytest.approx(2.0, abs=1e-15)
        assert _WG21.sum() == pytest.approx(2.0, abs=1e-15)

    def test_exact_degrees_on_one_interval(self):
        assert _WG21 @ _X21 ** 18 == pytest.approx(2.0 / 19.0, rel=1e-14)
        assert _WK21 @ _X21 ** 30 == pytest.approx(2.0 / 31.0, rel=1e-14)
        f, evals = counted(lambda k, x: x ** 30)
        val, err = _gk21_batch(f, np.zeros(1, dtype=int), -np.ones(1), np.ones(1),
                               1, 1.0, 0.0)
        assert evals.sum() == 21
        assert val[0] == pytest.approx(2.0 / 31.0, rel=1e-14) and err[0] <= 1.0

    def test_each_integral_of_a_batch_adapts_on_its_own(self):
        eps = 1e-3
        f, evals = counted(
            lambda k, x: np.where(k == 0, np.cos(x), 1j / ((x - 0.3) ** 2 + eps * eps)))
        val, err = _gk21_batch(f, np.arange(2), np.zeros(2), np.ones(2), 2,
                               1e-12, 1e-10)
        exact = (math.sin(1.0), 1j * (math.atan(0.7 / eps) + math.atan(0.3 / eps)) / eps)
        for v, e, ref in zip(val, err, exact):
            assert abs(v - ref) <= e <= max(1e-12, 1e-10 * abs(v))
        assert evals[0] == 21 and evals[1] > 21

    def test_unreachable_target_stops_at_interval_cap(self):
        f, evals = counted(lambda k, x: (x > 1.0 / 3.0) * 1.0)
        val, err = _gk21_batch(f, np.zeros(1, dtype=int), np.zeros(1), np.ones(1),
                               1, 1e-16, 0.0)
        assert evals.sum() == 21 * (2 * 200 - 1)
        assert err[0] > 1e-16 and abs(val[0] - 2.0 / 3.0) <= err[0]


class TestGreenQuadrature:
    def test_free_case(self):
        res = gs_ren_quadrature(SystemParams(0.0, 0.0), 1, -1.0)
        assert res.value == 0 and res.evaluations == 0

    @pytest.mark.parametrize("a,b,s,z", [
        (0.0, 0.5, 1, -1.0),
        (2.0, 0.5, -1, -1.5),
        (0.3, 0.6, 1, -0.8 + 0.7j),
        (1.0, 1.0, -1, 1j),
    ])
    def test_matches_closed_form(self, a, b, s, z):
        p = SystemParams(a, b)
        res = gs_ren_quadrature(p, s, z, tol=1e-7)
        ref = gs_ren_origin(p, s, complex(z))
        assert abs(res.value - ref) <= 1e-6 * (1.0 + abs(ref))
        assert res.abs_error_estimate <= 1e-7 * (1.0 + abs(res.value))
        assert res.evaluations > 0

    def test_conjugation(self):
        p = SystemParams(0.7, 0.4)
        z = -1.0 + 0.8j
        a = gs_ren_quadrature(p, 1, z, tol=1e-8).value
        b = gs_ren_quadrature(p, 1, z.conjugate(), tol=1e-8).value
        assert b == pytest.approx(a.conjugate(), abs=1e-8)

    def test_tightening_tolerance_does_not_hurt(self):
        p = SystemParams(0.5, 0.5)
        ref = gs_ren_origin(p, 1, complex(-2.0))
        d1 = abs(gs_ren_quadrature(p, 1, -2.0, tol=1e-6).value - ref)
        d2 = abs(gs_ren_quadrature(p, 1, -2.0, tol=5e-7).value - ref)
        assert d2 <= d1 + 1e-13 * (1.0 + abs(ref))

    def test_error_estimate_holds_near_the_real_axis(self):
        for p, z in _near_axis_points():
            for s in (1, -1):
                res = gs_ren_quadrature(p, s, z, tol=1e-7)
                assert abs(res.value - gs_ren_origin(p, s, z)) <= res.abs_error_estimate

    @pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        p = SystemParams(1.0, 0.5)
        for quad in (gs_ren_quadrature, phi_norm_quadrature):
            with pytest.raises(DomainError):
                quad(p, 1, -1.0 + 1j, tol=tol)

    def test_continuum_rejected(self):
        p = SystemParams(2.0, 0.5)
        with pytest.raises(DomainError):
            gs_ren_quadrature(p, 1, -threshold_sigma(p))
        with pytest.raises(DomainError):
            gs_ren_quadrature(p, 1, 0.3)

    def test_q_reconstruction_at_i(self):
        # oracle values pushed through the Q assembly give Q(i) = i
        p = SystemParams(1.0, 0.5)
        n2 = normalization(p).n_plus ** 2
        g_i = gs_ren_quadrature(p, 1, 1j, tol=1e-8).value
        q = n2 * (INV_4SQRT2PI - _sqrt_minus(1j) / FOUR_PI + g_i - g_i.real)
        assert abs(q - 1j) <= 1e-6

    def test_q_reconstruction_below_band(self):
        p = SystemParams(2.0, 0.5)
        z = complex(-1.5)
        nd = normalization(p)
        g_z = gs_ren_quadrature(p, -1, z, tol=1e-8).value
        g_i = gs_ren_quadrature(p, -1, 1j, tol=1e-8).value
        q = nd.n_minus ** 2 * (INV_4SQRT2PI - _sqrt_minus(z) / FOUR_PI
                               + g_z - g_i.real)
        ref = krein_q(p, z).q_mm
        assert abs(q - ref) <= 1e-6 * (1.0 + abs(ref))


class TestSigmaNumeric:
    def test_zeeman_case(self):
        assert sigma_numeric(SystemParams(0.0, 0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_large_coupling_case(self):
        assert sigma_numeric(SystemParams(2.0, 0.5)) == pytest.approx(
            1.0625, abs=1e-10)

    def test_grid_agreement(self):
        for a in np.linspace(0.0, 2.4, 7):
            for b in np.linspace(0.0, 1.2, 7):
                p = SystemParams(float(a), float(b))
                assert sigma_numeric(p) == pytest.approx(
                    threshold_sigma(p), abs=1e-10)


class TestPhiNormQuadrature:
    def test_orthonormal_at_i(self):
        for a, b in ((0.5, 0.5), (2.0, 0.5)):
            p = SystemParams(a, b)
            for s in (1, -1):
                res = phi_norm_quadrature(p, s, 1j, tol=1e-6)
                assert res.value.real == pytest.approx(1.0, abs=1e-5)

    def test_matches_closed_form_below_band(self):
        p = SystemParams(2.0, 0.5)
        for e in (-2.0, -1.3):
            for s in (1, -1):
                res = phi_norm_quadrature(p, s, complex(e), tol=1e-6)
                ref = phi_norm_sq(p, s, complex(e))
                assert res.value.real == pytest.approx(ref, abs=1e-5 * (1 + ref))

    def test_imq_cross_check(self):
        p = SystemParams(1.0, 0.5)
        z = -1.0 + 0.5j
        res = phi_norm_quadrature(p, 1, z, tol=1e-6)
        ref = krein_q(p, z).q_pp.imag / z.imag
        assert res.value.real == pytest.approx(ref, abs=1e-5 * (1 + ref))

    def test_continuum_rejected(self):
        with pytest.raises(DomainError):
            phi_norm_quadrature(SystemParams(0.5, 0.5), 1, -0.2)

    def test_error_estimate_holds_near_the_real_axis(self):
        for p, z in _near_axis_points():
            for s in (1, -1):
                res = phi_norm_quadrature(p, s, z, tol=1e-6)
                assert abs(res.value - phi_norm_sq(p, s, z)) <= res.abs_error_estimate


@pytest.fixture
def empty_memo():
    oracle._gs_pair.cache_clear()
    oracle._phi_pair.cache_clear()
    yield
    oracle._gs_pair.cache_clear()
    oracle._phi_pair.cache_clear()


class TestBothSpins:
    """Both spins of one (params, z, tol) are integrated in one batch and the
    latest point is kept in one slot."""

    QUADS = ((gs_ren_quadrature, 1e-7), (phi_norm_quadrature, 1e-6))

    @pytest.mark.parametrize("quad,tol", QUADS)
    def test_spin_order_does_not_matter(self, empty_memo, quad, tol):
        points = _near_axis_points()[:4]
        for (p, z), (q, w) in zip(points, points[1:] + points[:1]):
            plus_first = (quad(p, 1, z, tol=tol), quad(p, -1, z, tol=tol))
            quad(q, 1, w, tol=tol)          # another point takes the slot
            minus = quad(p, -1, z, tol=tol)
            quad(q, 1, w, tol=tol)          # and takes it again
            plus = quad(p, 1, z, tol=tol)
            assert (plus, minus) == plus_first
            assert plus.value != minus.value

    @pytest.mark.parametrize("quad,tol", QUADS)
    def test_second_spin_is_served_from_the_slot(self, empty_memo, monkeypatch, quad, tol):
        calls = []
        real = oracle._iterated_quad

        def counted(f2, spins, tol):
            calls.append(spins.size)
            return real(f2, spins, tol)

        monkeypatch.setattr(oracle, "_iterated_quad", counted)
        p, z = SystemParams(1.0, 0.5), -1.0 + 0.5j
        quad(p, 1, z, tol=tol)
        quad(p, -1, z, tol=tol)
        assert calls == [2]
        quad(p, 1, z, tol=tol / 2)          # a new tolerance is a new point
        quad(p, 1, z, tol=tol)
        assert calls == [2, 2, 2]

    @pytest.mark.parametrize("quad,tol", QUADS)
    def test_each_spin_raises_its_own_error(self, empty_memo, monkeypatch, quad, tol):
        monkeypatch.setattr(oracle, "_QUAD_LIMIT", 4)
        p, z = SystemParams(1.0, 0.5), -0.3 + 1e-3j
        errors = {}
        for s in (1, -1):
            with pytest.raises(ConvergenceError) as info:
                quad(p, s, z, tol=tol)
            errors[s] = info.value
            assert info.value.abs_error > tol * (1.0 + abs(info.value.value))
        assert errors[1].value != errors[-1].value
        assert errors[1].abs_error != errors[-1].abs_error

    @pytest.mark.parametrize("quad,tol", QUADS)
    def test_only_the_failing_spin_fails(self, empty_memo, monkeypatch, quad, tol):
        # at alpha = 0 only s = -1 has its pole p^2 = z + beta next to the
        # positive p^2 axis, so with few intervals only s = -1 misses its target
        p, z = SystemParams(0.0, 1.0), -0.5 + 1e-3j
        alone = quad(p, 1, z, tol=tol)
        oracle._gs_pair.cache_clear()
        oracle._phi_pair.cache_clear()
        monkeypatch.setattr(oracle, "_QUAD_LIMIT", 8)
        with pytest.raises(ConvergenceError):
            quad(p, -1, z, tol=tol)
        # s = +1 was not retried at tol/20: it made the evaluations it makes alone
        assert quad(p, 1, z, tol=tol) == alone


def test_integrand_evaluations_stay_under_ceiling():
    # A count, unlike a time, does not depend on the machine: fewer evaluations
    # pass and a regression fails.  The sum was 234654 when each radial
    # integral started on the single interval (0, 1).
    rng = np.random.default_rng(16)
    total = 0
    for _ in range(16):
        p = SystemParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 1.0)))
        arg = float(rng.uniform(0.1, math.pi - 0.1)) * (1 if rng.uniform() < 0.5 else -1)
        z = cmath.rect(float(rng.uniform(0.2, 3.0)), arg)
        for s in (1, -1):
            total += gs_ren_quadrature(p, s, z, tol=1e-7).evaluations
            total += phi_norm_quadrature(p, s, z, tol=1e-6).evaluations
    assert total <= 198324


def test_import_leaves_scipy_integrate_out():
    # neither the package nor its quadratures load any part of scipy
    import rashba_contact
    src = str(Path(rashba_contact.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, rashba_contact as rc\n"
            "p = rc.SystemParams(1.0, 0.5)\n"
            "rc.gs_ren_quadrature(p, 1, -1.0 + 1j)\n"
            "rc.phi_norm_quadrature(p, 1, -1.0 + 1j)\n"
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
