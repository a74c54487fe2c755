import cmath
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rashba_contact import (ConvergenceError, DomainError, PoleError, SystemParams,
                            gs_ren_origin, gs_ren_quadrature, krein_q, normalization,
                            phi_norm_quadrature, phi_norm_sq, sigma_numeric,
                            threshold_sigma)
from rashba_contact import oracle
from rashba_contact.greens import FOUR_PI, INV_4SQRT2PI
from rashba_contact.oracle import _WG21, _WK21, _X21, _atan_h, _gk21_batch, _gs_radial


class TestAtanH:
    """h(t) = (atan(sqrt t)/sqrt t - 1)/t against 50-digit mpmath."""

    @staticmethod
    def worst(t):
        mpmath = pytest.importorskip("mpmath")
        got = _atan_h(t)
        worst = 0.0
        with mpmath.workdps(50):
            for ti, hi in zip(t.tolist(), got.tolist()):
                u = mpmath.sqrt(mpmath.mpc(ti))
                ref = (mpmath.atan(u) / u - 1) / mpmath.mpc(ti)
                worst = max(worst, float(abs(hi - ref) / abs(ref)))
        return worst

    def test_both_sides_of_the_series_switch(self):
        # the series is taken at |t1| < 1/2, t1 = t/(1 + sqrt(1 + t))^2, that
        # is t = 4 t1/(1 - t1)^2
        rng = np.random.default_rng(1)
        r = np.concatenate(((1.0 + rng.uniform(-1e-3, 1e-3, 100)) / 2.0,
                            rng.uniform(0.4, 0.6, 100)))
        t1 = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
        t1 = np.concatenate((t1, r, -r))
        assert self.worst(4.0 * t1 / (1.0 - t1) ** 2) <= 1e-15

    def test_small_and_moderate_t(self):
        rng = np.random.default_rng(4)
        t = 10.0 ** rng.uniform(-6, 1, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
        assert self.worst(t) <= 1e-15

    def test_real_axis(self):
        rng = np.random.default_rng(2)
        t = np.concatenate((-rng.uniform(0.0, 1.0, 200), 10.0 ** rng.uniform(-3, 6, 200),
                            [-0.999, -0.5, 1e-20, 1.0, 1e6])) + 0j
        assert self.worst(t) <= 1e-15

    def test_next_to_the_cut(self):
        # the cut is (-inf, -1]; h is continuous onto it from either side
        rng = np.random.default_rng(3)
        x = -(1.0 + 10.0 ** rng.uniform(-1, 3, 200))
        y = 10.0 ** rng.uniform(-14, -2, 200) * rng.choice((-1.0, 1.0), 200)
        assert self.worst(x + 1j * y) <= 1e-15

    def test_free_of_branch_choice(self):
        # t on either side of the negative axis inside (-1, 0) gives the real h
        t = np.array([-0.5 + 0j, complex(-0.5, 0.0), complex(-0.5, -0.0)])
        assert np.all(_atan_h(t) == _atan_h(t)[0])
        assert _atan_h(np.zeros(1))[0] == -1.0 / 3.0


class TestIntegrand:
    RHO = np.array([0.3, 2.0, 50.0])

    def test_decay_is_quartic(self):
        # s = -1 keeps the leading coefficient 2 alpha^2/3 + beta away from 0
        for a, b in ((1.0, 0.5), (0.0, 0.5), (2.0, 0.05)):
            p = SystemParams(a, b)
            f2, f3 = np.abs(_gs_radial(p, -1, complex(-2.0), np.array([1e2, 1e3])))
            assert 0.5e4 <= f2 / f3 <= 2e4   # rho^-4 within a factor 2

    def test_leading_coefficient(self):
        p = SystemParams(1.0, 0.5)
        for s in (1, -1):
            f = _gs_radial(p, s, complex(-2.0), np.array([1e4]))[0]
            assert f * 1e16 == pytest.approx(2.0 / 3.0 - s * 0.5, rel=1e-6)

    def test_free_case_exactly_zero(self):
        p = SystemParams(0.0, 0.0)
        for s in (1, -1):
            assert np.all(_gs_radial(p, s, complex(-1.0), self.RHO) == 0)

    def test_alpha_zero_is_the_unintegrated_integrand(self):
        b, z = 0.5, complex(-1.0, 0.3)
        for s in (1, -1):
            w = self.RHO ** 2 - z
            ref = (b * b - s * b * w) / ((w * w - b * b) * w)
            got = _gs_radial(SystemParams(0.0, b), s, z, self.RHO)
            assert np.allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_tiny_alpha_matches_alpha_zero(self):
        z = complex(-1.0, 0.3)
        tiny, zero = SystemParams(1e-300, 0.5), SystemParams(0.0, 0.5)
        for s in (1, -1):
            assert np.all(_gs_radial(tiny, s, z, self.RHO) == _gs_radial(zero, s, z, self.RHO))
            assert (gs_ren_quadrature(tiny, s, z, tol=1e-8).value
                    == gs_ren_quadrature(zero, s, z, tol=1e-8).value)

    def test_matches_the_polar_integral(self):
        # the closed polar integral against a 2D Gauss-Legendre quadrature in
        # c = cos(theta) of the unintegrated integrand
        a, b, z = 1.3, 0.4, complex(-0.7, 0.9)
        c, wc = np.polynomial.legendre.leggauss(60)
        c, wc = 0.5 * (c + 1.0), 0.5 * wc
        for s in (1, -1):
            w = self.RHO[:, None] ** 2 - z
            pperp2 = self.RHO[:, None] ** 2 * (1.0 - c * c)
            dd = w * w - a * a * pperp2 - b * b
            ref = ((a * a * pperp2 + b * b - s * b * w) / (dd * w)) @ wc
            got = _gs_radial(SystemParams(a, b), s, z, self.RHO)
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


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

    def test_pole_guard_raises_at_once(self):
        # both quadratures take the Green layer's real-axis rule: inside the
        # pole guard just below -Sigma they raise PoleError before integrating
        p = SystemParams(2.0, 0.5)
        e = -threshold_sigma(p) - 1e-12
        for quad in (gs_ren_quadrature, phi_norm_quadrature):
            t0 = time.perf_counter()
            with pytest.raises(PoleError):
                quad(p, 1, e)
            assert time.perf_counter() - t0 < 1.0

    def test_matches_closed_form_at_tight_tol(self):
        # 48 seeded points, off the axis and below the band in turn
        rng = np.random.default_rng(12)
        for i in range(48):
            p = SystemParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 1.0)))
            if i % 2:
                z = complex(-threshold_sigma(p) - 10.0 ** float(rng.uniform(-2.0, 0.5)))
            else:
                arg = float(rng.uniform(0.1, math.pi - 0.1)) * (1 if rng.uniform() < 0.5 else -1)
                z = cmath.rect(float(rng.uniform(0.2, 3.0)), arg)
            for s in (1, -1):
                ref = gs_ren_origin(p, s, z)
                assert abs(gs_ren_quadrature(p, s, z, tol=1e-12).value - ref) <= 1e-11 * abs(ref)

    def test_q_reconstruction_at_i(self):
        # oracle values pushed through the Q assembly give Q(i) = i
        p = SystemParams(1.0, 0.5)
        n2 = normalization(p).n_plus ** 2
        g_i = gs_ren_quadrature(p, 1, 1j, tol=1e-8).value
        q = n2 * (INV_4SQRT2PI - cmath.sqrt(-1j) / FOUR_PI + g_i - g_i.real)
        assert abs(q - 1j) <= 1e-6

    def test_q_reconstruction_below_band(self):
        p = SystemParams(2.0, 0.5)
        z = complex(-1.5)
        nd = normalization(p)
        g_z = gs_ren_quadrature(p, -1, z, tol=1e-8).value
        g_i = gs_ren_quadrature(p, -1, 1j, tol=1e-8).value
        q = nd.n_minus ** 2 * (INV_4SQRT2PI - cmath.sqrt(-z) / FOUR_PI
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
        # the Green pair's radial integrator, the norm pair's iterated one
        integrator = "_radial_quad" if quad is gs_ren_quadrature else "_iterated_quad"
        calls = []
        real = getattr(oracle, integrator)

        def counted(f, spins, tol):
            calls.append(spins.size)
            return real(f, spins, tol)

        monkeypatch.setattr(oracle, integrator, counted)
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
    # integral started on the single interval (0, 1), and 183246 when the
    # Green values took the iterated 2D quadrature (the norms' share, 78876,
    # is unchanged since).
    rng = np.random.default_rng(16)
    total = 0
    for _ in range(16):
        p = SystemParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 1.0)))
        arg = float(rng.uniform(0.1, math.pi - 0.1)) * (1 if rng.uniform() < 0.5 else -1)
        z = cmath.rect(float(rng.uniform(0.2, 3.0)), arg)
        for s in (1, -1):
            total += gs_ren_quadrature(p, s, z, tol=1e-7).evaluations
            total += phi_norm_quadrature(p, s, z, tol=1e-6).evaluations
    assert total <= 83790


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
