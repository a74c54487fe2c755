import math
import warnings

import numpy as np
import pytest

from rashba_contact import (ConvergenceError, DomainError, EffectiveCouplings,
                            ExtensionKind, Hermitian2, PoleError,
                            RegimeError, RootMethod, SystemParams,
                            artanh_branch, discrete_eigenvalues, e_nu,
                            effective_couplings, embedded_alpha0,
                            embedded_large_alpha, forbidden_band_scan,
                            gamma_for_couplings, krein_q, large_coupling_context,
                            normalization, secular_function, solve_spectrum,
                            symmetric_small_beta_eigenvalue, threshold_sigma,
                            u_nu, v_nu, xi)
from rashba_contact.greens import _artanh_branch_array, _xi_real_array

RMAP = (math.acosh(3.0) - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0) + math.pi)


class TestSecularFunction:
    def test_free_symmetric_zero(self):
        p = SystemParams(0.0, 0.0)
        eff = EffectiveCouplings(-1.0, -1.0, 0.0)
        assert abs(secular_function(p, eff, -1.0)) < 1e-14

    def test_constructed_zero_below_band(self):
        b, e = 0.3, -1.0
        wp, wm = -0.2, 0.4
        g = (wp + math.sqrt(b - e)) * (wm + math.sqrt(-b - e))
        eff = EffectiveCouplings(wp, wm, g)
        assert abs(secular_function(SystemParams(0.0, b), eff, e)) < 1e-13

    def test_pole_at_band_edge(self):
        p = SystemParams(2.0, 0.5)
        eff = EffectiveCouplings(0.1, 0.1, 0.0)
        with pytest.raises(PoleError):
            secular_function(p, eff, -threshold_sigma(p) + 1e-12)

    def test_matches_det_zero_sets(self):
        # det(Gamma - Q) and the scalar secular form vanish together
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(50):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0.05, 1))
            wp, wm = rng.uniform(-1.5, 1), rng.uniform(-1.5, 1)
            g = rng.uniform(0, 1.5)
            gm = gamma_for_couplings(p, wp, wm, g)
            eff = effective_couplings(p, gm)
            for r in discrete_eigenvalues(p, gm, tol=1e-11):
                assert abs(secular_function(p, eff, r.energy)) <= 1e-9
                checked += 1
        assert checked > 10

    def test_channel_monotonicity_below_band(self):
        # with gamma = 0 each channel factor is strictly monotone below -Sigma
        for a, b in ((0.0, 0.5), (0.8, 0.5), (2.0, 0.5)):
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            es = -sigma - np.geomspace(1e-4, 20.0, 60)
            for s in (1, -1):
                vals = []
                for e in es:
                    x = xi(p, complex(float(e)))
                    if a == 0.0:
                        tail = -s * b * x
                    else:
                        tail = (a / 2.0 - s * b / a) * artanh_branch(a * x)
                    vals.append((1.0 / (2.0 * x) - tail).real)
                diffs = np.diff(vals)
                assert np.all(diffs > 0) or np.all(diffs < 0)


class TestDiscrete:
    def test_free_double_root(self):
        p = SystemParams(0.0, 0.0)
        g = 0.5
        roots = discrete_eigenvalues(p, Hermitian2.scalar(g))
        w = (g - 1.0) / math.sqrt(2.0)
        assert len(roots) == 1
        assert roots[0].method is RootMethod.EVEN_ORDER
        assert roots[0].energy == pytest.approx(-w * w, rel=1e-10)

    def test_near_zero_beta_symmetric(self):
        # large coupling, beta ~ 0, omega tuned to 0: single root near -1.43923
        p = SystemParams(2.0, 1e-6)
        nd = normalization(p)
        gm = Hermitian2.scalar(-nd.n_plus ** 2 * nd.lambda_plus)
        roots = discrete_eigenvalues(p, gm)
        assert 1 <= len(roots) <= 2
        for r in roots:
            assert r.energy == pytest.approx(-1.43923, abs=1e-4)

    def test_two_channel_pair(self):
        p = SystemParams(2.0, 0.5)
        roots = discrete_eigenvalues(p, Hermitian2.scalar(-(-0.17850)))
        assert sorted(r.energy for r in roots) == pytest.approx(
            [-1.60313, -1.37956], abs=1e-3)

    def test_empty_spectrum_is_valid(self):
        # repulsive-like coupling: no bound state
        p = SystemParams(0.0, 0.0)
        assert discrete_eigenvalues(p, Hermitian2.scalar(3.0)) == ()

    def test_emin_validation(self):
        p = SystemParams(0.0, 0.5)
        for e_min in (-0.1, math.nan, -math.inf):
            with pytest.raises(DomainError):
                discrete_eigenvalues(p, Hermitian2.scalar(0.1), e_min=e_min)

    def test_theorem1_closure(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = rng.uniform(0.05, 1.0)
            p = SystemParams(0.0, b)
            wp, wm = rng.uniform(-2, 1.5), rng.uniform(-2, 1.5)
            g = rng.uniform(0, 2)
            gm = gamma_for_couplings(p, wp, wm, g)
            for r in discrete_eigenvalues(p, gm):
                e = r.energy
                assert e < -b
                closure = g - (wp + math.sqrt(b - e)) * (wm + math.sqrt(-b - e))
                assert abs(closure) <= 1e-10

    def test_close_pair(self):
        # gamma = 0 at alpha = 0: the channel roots beta - w^2 and -beta - w^2
        # lie 2*beta apart, well inside one cell of the grid at |E| ~ 2500
        p = SystemParams(0.0, 0.5)
        roots = discrete_eigenvalues(p, gamma_for_couplings(p, -50.0, -50.0, 0.0))
        assert [r.energy for r in roots] == pytest.approx([-2500.5, -2499.5], rel=1e-12)
        assert all(r.method is RootMethod.SIGN_CHANGE for r in roots)

    def test_equal_omega_sweep(self):
        b = 0.5
        p = SystemParams(0.0, b)
        for w in np.geomspace(1.0, 1000.0, 60):
            roots = discrete_eigenvalues(p, gamma_for_couplings(p, -w, -w, 0.0))
            want = sorted(e for e in (b - w * w, -b - w * w) if e < -b)
            assert [r.energy for r in roots] == pytest.approx(want, rel=1e-12), w

    def test_edge_root(self):
        # the minus-channel root sits 1e-10 below the threshold -beta
        p = SystemParams(0.0, 0.5)
        roots = discrete_eigenvalues(p, gamma_for_couplings(p, 1.0, -1e-5, 0.0))
        assert [r.energy for r in roots] == pytest.approx([-0.5 - 1e-10], rel=1e-12)

    def test_constructed_roots(self):
        # Gamma = diag(Re Q_pp(e1), Re Q_mm(e2)) has its roots exactly at e1, e2
        rng = np.random.default_rng(41)
        for k in range(40):
            b = rng.uniform(0.05, 1.0)
            a = (0.0, rng.uniform(0.05, 0.95), rng.uniform(1.0, 4.0))[k % 3] \
                * math.sqrt(2.0 * b)
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            e1 = -sigma - 10.0 ** rng.uniform(-8.0, 2.0) * max(1.0, sigma)
            if rng.uniform() < 0.5:
                e2 = -sigma - 10.0 ** rng.uniform(-8.0, 2.0) * max(1.0, sigma)
            else:
                e2 = e1 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -1.0) * abs(e1)
                if e2 >= -sigma:
                    e2 = 2.0 * e1 - e2
            gm = Hermitian2(krein_q(p, e1).q_pp.real, krein_q(p, e2).q_mm.real)
            got = [r.energy for r in discrete_eigenvalues(p, gm)]
            want = sorted((e1, e2))
            if want[1] - want[0] > 1e-8 * abs(want[0]):
                assert got == pytest.approx(want, rel=1e-8), (a, b, e1, e2)
            else:
                assert len(got) in (1, 2), (a, b, e1, e2)
                for e in got:
                    assert e == pytest.approx(want[0], rel=1e-8)
                    assert e == pytest.approx(want[1], rel=1e-8)

    def test_root_inside_pole_guard_warns(self):
        p = SystemParams(2.0, 0.5)
        sigma = threshold_sigma(p)
        q_edge = krein_q(p, -sigma - 1.5e-10 * sigma).q_pp.real
        gm = Hermitian2(q_edge, krein_q(p, -sigma - 1.0).q_mm.real)
        with pytest.warns(UserWarning, match="pole guard") as direct:
            roots = discrete_eigenvalues(p, gm)
        assert [r.energy for r in roots] == pytest.approx([-2.0625], rel=1e-12)
        # the warning points at the caller's line, also through solve_spectrum
        with pytest.warns(UserWarning, match="pole guard") as nested:
            solve_spectrum(p, gm)
        for rec in (direct, nested):
            assert {w.filename for w in rec if "pole guard" in str(w.message)} == {__file__}


class TestEmbeddedAlpha0:
    def test_minus_beta_singleton(self):
        b, wp, wm = 0.5, -0.3, 0.4
        g = (wp + math.sqrt(2.0 * b)) * wm
        eff = EffectiveCouplings(wp, wm, g)
        out = embedded_alpha0(b, eff)
        assert [r.energy for r in out] == [pytest.approx(-b)]
        assert out[0].theorem == "T1"

    def test_plus_channel_singleton(self):
        eff = EffectiveCouplings(-0.6, 0.3, 0.0)
        out = embedded_alpha0(0.5, eff)
        assert [r.energy for r in out] == [pytest.approx(0.5 - 0.36)]

    def test_beta_singleton_with_companions(self):
        # gamma = omega_- = 0 puts beta in the spectrum; the same data also
        # satisfies the -beta condition (both sides vanish) and the plus
        # channel qualifies through -sqrt(2 beta) < omega_+ < 0
        eff = EffectiveCouplings(-0.5, 0.0, 0.0)
        out = embedded_alpha0(0.5, eff)
        assert [r.energy for r in out] == [pytest.approx(-0.5), pytest.approx(0.25),
                                           pytest.approx(0.5)]

    def test_beta_zero_empty(self):
        assert embedded_alpha0(0.0, EffectiveCouplings(-0.5, 0.0, 0.0)) == ()

    def test_generic_empty(self):
        eff = EffectiveCouplings(0.7, 0.9, 1.3)
        assert embedded_alpha0(0.5, eff) == ()


class TestCaseCFunctions:
    def test_e_nu_at_nu(self):
        for nu in (1.0, 2.0, 17.5):
            assert e_nu(0.4, nu, nu) == pytest.approx(0.4, rel=1e-14)

    def test_u1_at_one(self):
        assert u_nu(1.0, 1.0) == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-14)

    def test_u1_zero_location(self):
        assert abs(u_nu(1.0, 0.76538)) < 1e-4

    def test_v_equals_u_at_nu_one(self):
        for x in (0.3, 0.76538, 1.0):
            assert v_nu(1.0, x) == pytest.approx(u_nu(1.0, x), rel=1e-12)

    def test_e_nu_minimum_at_endpoint(self):
        # E_nu >= beta on (0, nu], with the minimum attained at x = nu
        b, nu = 0.4, 1.7
        xs = np.linspace(1e-3, nu, 400)
        vals = [e_nu(b, nu, float(x)) for x in xs]
        assert min(vals) >= b - 1e-14
        assert vals[-1] == pytest.approx(b, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            u_nu(0.9, 0.5)
        with pytest.raises(DomainError):
            u_nu(2.0, 2.5)
        with pytest.raises(DomainError):
            e_nu(0.0, 2.0, 1.0)


class TestLargeCouplingContext:
    def test_nu_one(self):
        b = 0.5
        ctx = large_coupling_context(SystemParams(math.sqrt(2.0 * b), b))
        assert ctx.x_nu_1 == pytest.approx(0.76538, abs=5e-5)
        assert ctx.x_nu_2 is None
        assert ctx.e_nu_1 / b == pytest.approx(1.14643, abs=5e-5)

    def test_nu_huge(self):
        beta = 2.0 ** 2 / (2.0 * 1e6 ** 2)
        ctx = large_coupling_context(SystemParams(2.0, beta))
        assert ctx.nu == pytest.approx(1e6, rel=1e-12)
        assert ctx.x_nu_1 == pytest.approx(1.16234, abs=1e-4)
        # x_{nu,2} sits about 1e-12 above x_{nu,1}
        x2 = ctx.x_nu_2
        assert ctx.x_nu_1 < x2 < ctx.x_nu_1 * (1.0 + 1e-11)
        assert abs(u_nu(ctx.nu, x2) - 2.0 / ((ctx.nu ** 2 - 1.0) * x2 * x2)) <= 1e-15

    def test_second_zero_exists_at_nu_two(self):
        ctx = large_coupling_context(SystemParams(2.0, 0.5))
        assert ctx.x_nu_2 == pytest.approx(1.4018, abs=1e-4)
        assert ctx.x_nu_1 <= ctx.x_nu_2
        assert 0.5 <= ctx.e_nu_2 <= ctx.e_nu_1

    def test_second_zero_absent_at_nu_16(self):
        b = 0.5
        ctx = large_coupling_context(SystemParams(1.6 * math.sqrt(2.0 * b), b))
        assert ctx.x_nu_2 is None     # the would-be zero 1.61471 exceeds nu = 1.6

    def test_levels_match_mpmath(self):
        # x_{nu,1} and x_{nu,2} are the roots of x arctan(x) at the float
        # levels nu^2/(nu^2 +- 1); each is pinned to 2 ulps of a 50-digit
        # Newton root.  x_{nu,2} is None exactly where its root exceeds nu,
        # or where the two levels are the same float: that happens once
        # nu^2 >= 2^53 (nu >= 9.49e7), where nu^2 +- 1 rounds back to nu^2
        # and both levels are 1.0.  beta = 0.5 makes nu = alpha exactly.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        seeded = np.exp(rng.uniform(math.log1p(1e-9), math.log(1e8), 80))
        merged = np.linspace(9.0e7, 1.5e8, 13)          # 9.0e7 and 9.5e7 straddle it
        nus = [1.0 + 1e-9, 1.6, 1.62, 9.4906265e7, 9.4906266e7, 1e8,
               *seeded, *merged]

        def newton_root(level: float) -> float:
            lvl = mpmath.mpf(level)
            return float(mpmath.findroot(lambda t: t * mpmath.atan(t) - lvl, lvl + 1,
                                         solver="newton",
                                         df=lambda t: mpmath.atan(t) + t / (1 + t * t)))

        merged_seen = present_seen = absent_seen = 0
        with mpmath.workdps(50):
            for nu in map(float, nus):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore" if nu > 1e8 else "error", UserWarning)
                    ctx = large_coupling_context(SystemParams(nu, 0.5))
                assert ctx.nu == nu
                n2 = nu * nu
                lvl1, lvl2 = n2 / (n2 + 1.0), n2 / (n2 - 1.0)
                r1 = newton_root(lvl1)
                assert abs(ctx.x_nu_1 - r1) <= 2.0 * math.ulp(r1)
                assert (lvl1 == lvl2) == (n2 >= 2.0 ** 53)
                if lvl1 == lvl2:
                    assert ctx.x_nu_2 is None
                    merged_seen += 1
                elif mpmath.mpf(nu) * mpmath.atan(nu) < lvl2:
                    assert ctx.x_nu_2 is None
                    absent_seen += 1
                else:
                    r2 = newton_root(lvl2)
                    assert ctx.x_nu_2 is not None and r2 <= nu
                    assert abs(ctx.x_nu_2 - r2) <= 2.0 * math.ulp(r2)
                    present_seen += 1
        assert merged_seen >= 10 and present_seen >= 50 and absent_seen >= 5

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            large_coupling_context(SystemParams(0.1, 0.5))

    def test_extreme_nu_warns(self):
        beta = 2.0 ** 2 / (2.0 * 1e9 ** 2)
        p = SystemParams(2.0, beta)
        with pytest.warns(UserWarning, match="extreme") as direct:
            large_coupling_context(p)
        with pytest.warns(UserWarning, match="extreme") as nested:
            embedded_large_alpha(p, EffectiveCouplings(1.0, 0.0, 0.0))
        for rec in (direct, nested):
            assert {w.filename for w in rec if "extreme" in str(w.message)} == {__file__}


class TestEmbeddedLargeAlpha:
    def test_limit_energy(self):
        params = SystemParams(2.0, 1e-5)
        gm = gamma_for_couplings(params, 1.0, 0.0, 0.0)
        out = embedded_large_alpha(params, effective_couplings(params, gm))
        assert len(out) == 1
        assert out[0].energy == pytest.approx(0.74018, abs=1e-3)
        assert out[0].theorem == "T3"
        assert out[0].series_valid is False   # needs analytic continuation

    def test_endpoint_root_gives_beta(self):
        # at nu = 1 the constraint at x = nu forces omega_- = U_1(1)*omega_+,
        # which keeps gamma = omega_+ omega_- + (beta/2) V_1(1) nonnegative
        b = 0.5
        params = SystemParams(math.sqrt(2.0 * b), b)
        wp = 1.0
        wm = u_nu(1.0, 1.0) * wp
        g = wp * wm + 0.5 * b * v_nu(1.0, 1.0)
        assert g >= 0.0
        eff = EffectiveCouplings(wp, wm, g)
        out = embedded_large_alpha(params, eff)
        assert any(r.energy == pytest.approx(b, abs=1e-8) for r in out)

    def test_zero_omegas_give_both_roots(self):
        # gamma = (beta/2) V_nu(x) meets the single peak of V_nu twice; at nu = 20
        # both roots lie within 0.004 of x_{nu,1}
        b = 0.5
        for nu in (2.0, 20.0):
            params = SystemParams(nu * math.sqrt(2.0 * b), b)
            ctx = large_coupling_context(params)
            xs = np.linspace(ctx.x_nu_1, ctx.x_nu_2, 201)
            peak = max(0.5 * b * v_nu(nu, float(x)) for x in xs)
            out = embedded_large_alpha(params, EffectiveCouplings(0.0, 0.0, 0.5 * peak))
            assert len(out) == 2
            assert ctx.e_nu_2 < out[0].energy < out[1].energy < ctx.e_nu_1
            assert all(r.condition_residual <= 1e-12 * peak for r in out)
            # at gamma = 0 the roots are x_{nu,1} and x_{nu,2} themselves
            out = embedded_large_alpha(params, EffectiveCouplings(0.0, 0.0, 0.0))
            assert [r.energy for r in out] == pytest.approx([ctx.e_nu_2, ctx.e_nu_1],
                                                            rel=1e-12)

    def test_generic_rejection(self):
        rng = np.random.default_rng(41)
        params = SystemParams(2.0, 0.5)
        nu = 2.0
        for _ in range(25):
            wp, wm = rng.uniform(-2, 2), rng.uniform(-2, 2)
            g = rng.uniform(0.0, 2.0)
            eff = EffectiveCouplings(wp, wm, g)
            out = embedded_large_alpha(params, eff)
            for r in out:
                # accepted roots satisfy the gamma condition by construction
                assert r.condition_residual <= 1e-8 * (1.0 + g)
                assert 0.5 <= r.energy <= large_coupling_context(params).e_nu_1 + 1e-12
            if not out:
                # rejection is real: the gamma gap at the linear-constraint roots
                # is positive
                acoef = (nu ** 2 + 1) * wp + (nu ** 2 - 1) * wm
                h = lambda x: 2 * wm - x * x * u_nu(nu, x) * acoef
                xs = np.linspace(large_coupling_context(params).x_nu_1, nu, 2000)
                hv = [h(float(x)) for x in xs]
                for i in range(len(xs) - 1):
                    if (hv[i] < 0) != (hv[i + 1] < 0):
                        xm = 0.5 * (xs[i] + xs[i + 1])
                        gap = abs(g - wp * wm - 0.25 * v_nu(nu, float(xm)))
                        assert gap > 1e-8


class TestForbiddenBand:
    def test_negative_for_random_omegas(self):
        rng = np.random.default_rng(43)
        params = SystemParams(2.0, 0.5)
        for _ in range(10):
            eff = EffectiveCouplings(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                     rng.uniform(0, 2))
            rep = forbidden_band_scan(params, eff, grid_size=1000)
            assert rep.max_gamma_required < 0.0
            assert rep.band == (-threshold_sigma(params), 0.5)

    def test_b_sign_structure(self):
        # the imaginary channel parts share their sign across the mid band
        a, b = 2.0, 0.5
        p = SystemParams(a, b)
        for e, expect_neg in ((-0.3, True), (-0.01, True), (0.2, False), (0.45, False)):
            x = xi(p, complex(e))
            ar = artanh_branch(a * x)
            for s in (1, -1):
                b_s = -(1.0 / (2.0 * x)).imag + ar.imag * (a / 2.0 + s * b / a)
                assert (b_s < 0.0) is expect_neg
        # the scan's array xi and artanh agree node by node with the scalar
        # forms on the same inputs; nu near 1 gives Sigma = beta and no node
        # below -beta
        rng = np.random.default_rng(47)
        for nu in (1.0, 1.0 + 1e-9, *rng.uniform(1.2, 6.0, 4)):
            b = float(rng.uniform(0.05, 1.0))
            p = SystemParams(nu * math.sqrt(2.0 * b), b)
            sigma = threshold_sigma(p)
            delta = 1e-6 * max(1.0, sigma + b)
            for n in (1000, 10000):
                grid = np.linspace(-sigma + delta, b - delta, n)
                assert np.any(grid <= -b) == (nu >= 1.2)
                x_arr = _xi_real_array(b, grid)
                ar_arr = _artanh_branch_array(p.alpha * x_arr)
                x_sc = np.array([xi(p, complex(e)) for e in grid])
                ar_sc = np.array([artanh_branch(p.alpha * x) for x in x_arr])
                assert np.all(np.abs(x_arr - x_sc) <= 1e-14 * np.abs(x_sc))
                assert np.all(np.abs(ar_arr - ar_sc) <= 1e-14 * np.abs(ar_sc))
        # the array artanh mirrors the scalar on every entry: all four
        # quadrants with |w| below, above and next to 1, points next to both
        # poles, and real entries on both cuts and between them, with +0.0
        # and -0.0 imaginary parts (arctan2 would read the sign of -0.0)
        rng = np.random.default_rng(59)
        r = np.concatenate([rng.uniform(0.05, 0.95, 40), rng.uniform(1.05, 20.0, 40),
                            1.0 + rng.uniform(-1e-6, 1e-6, 40)])
        w = r * np.exp(1j * rng.uniform(-np.pi, np.pi, r.size))
        poles = np.concatenate([s + 1e-7 * np.exp(1j * rng.uniform(-np.pi, np.pi, 20))
                                for s in (1.0, -1.0)])
        reals = np.concatenate([rng.uniform(1.0001, 30.0, 10), -rng.uniform(1.0001, 30.0, 10),
                                rng.uniform(-0.999, 0.999, 10),
                                [0.0, -0.0, 1.0 + 1e-12, -1.0 - 1e-12, 1.0 - 1e-12, -1.0 + 1e-12]])
        w = np.concatenate([w, poles, [complex(x, 0.0) for x in reals],
                            [complex(x, -0.0) for x in reals]])
        assert {(q.real > 0, q.imag > 0) for q in w[:120]} == {(True, True), (True, False),
                                                             (False, True), (False, False)}
        ar_arr = _artanh_branch_array(w)
        ar_sc = np.array([artanh_branch(q) for q in w])
        assert np.all(np.abs(ar_arr - ar_sc) <= 1e-14 * np.abs(ar_sc))
        real = w.imag == 0.0
        assert np.array_equal(ar_arr.imag[real], ar_sc.imag[real])
        assert set(ar_arr.imag[real]) == {-0.5 * np.pi, 0.0, 0.5 * np.pi}
        # xi at the band ends and at both zeros: -0.0 takes the E >= 0 sign
        for b in (0.05, 0.5, 1.0, 3.7):
            e = np.array([-b, -0.0, 0.0, b - 1e-12])
            x_arr = _xi_real_array(b, e)
            x_sc = np.array([xi(SystemParams(2.0 * math.sqrt(b), b), complex(q)) for q in e])
            assert np.all(np.abs(x_arr - x_sc) <= 1e-14 * np.abs(x_sc))
            assert x_arr[0].imag == 0.0 and x_arr[1].imag > 0.0

    def test_grid_refinement_stable(self):
        params = SystemParams(2.0, 0.5)
        eff = EffectiveCouplings(0.4, -0.7, 0.3)
        r1 = forbidden_band_scan(params, eff, grid_size=1000).max_gamma_required
        r2 = forbidden_band_scan(params, eff, grid_size=10000).max_gamma_required
        assert abs(r1 - r2) < 1e-8

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            forbidden_band_scan(SystemParams(0.1, 0.5), EffectiveCouplings(0, 0, 0))


class TestSymmetricSolver:
    def test_reference_value(self):
        assert symmetric_small_beta_eigenvalue(2.0, 0.0) == pytest.approx(
            -1.43923, abs=1e-4)

    def test_small_alpha_limit(self):
        w = -0.7
        e = symmetric_small_beta_eigenvalue(1e-4, w)
        assert e == pytest.approx(-w * w, abs=1e-6)

    def test_r_map_consistency(self):
        # at beta = 0, alpha = 2 the coupling v with omega(v) = 0 equals
        # -(arcosh(3) - 2 sqrt2)/(2 sqrt2 + pi)
        p = SystemParams(2.0, 0.0)
        nd = normalization(p)
        v = -nd.n_plus ** 2 * nd.lambda_plus
        assert v == pytest.approx(-RMAP, rel=1e-12)
        assert abs(RMAP) == pytest.approx(0.17850, abs=1e-5)

    def test_below_threshold(self):
        for a, w in ((2.0, 0.0), (1.0, -0.5), (0.5, 1.0)):
            e = symmetric_small_beta_eigenvalue(a, w)
            assert e < -a * a / 4.0

    def test_no_solution_reported(self):
        with pytest.raises(ConvergenceError, match="boundary"):
            symmetric_small_beta_eigenvalue(0.1, 5.0)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            symmetric_small_beta_eigenvalue(0.0, -1.0)


class TestSolveSpectrum:
    def test_distinguished_extensions(self):
        p = SystemParams(1.0, 0.5)
        for kind in (ExtensionKind.TRIVIAL, ExtensionKind.FRIEDRICHS):
            rep = solve_spectrum(p, kind)
            assert rep.discrete == () and rep.embedded == ()
            assert rep.continuous_edge == -threshold_sigma(p)

    def test_case_a_embeds(self):
        b = 0.5
        p = SystemParams(0.0, b)
        gm = gamma_for_couplings(p, -0.6, 0.3, 0.0)
        rep = solve_spectrum(p, gm)
        assert any(r.theorem == "T1" and r.energy == pytest.approx(b - 0.36)
                   for r in rep.embedded)
        assert all(r.energy < -b for r in rep.discrete)

    def test_case_c_embeds(self):
        p = SystemParams(2.0, 1e-5)
        gm = gamma_for_couplings(p, 1.0, 0.0, 0.0)
        rep = solve_spectrum(p, gm)
        assert any(r.theorem == "T3" for r in rep.embedded)

    def test_case_b_generic_no_embedded(self):
        p = SystemParams(0.3, 0.5)
        rep = solve_spectrum(p, gamma_for_couplings(p, -0.5, -0.5, 0.1))
        assert rep.embedded == ()

    def test_case_b_threshold_persistence(self):
        # the unique admissible persistence coupling keeps -beta embedded
        b = 0.5
        gm = gamma_for_couplings(SystemParams(0.0, b), -math.sqrt(2.0 * b), 0.0, 0.0)
        rep = solve_spectrum(SystemParams(0.1, b), gm)
        assert any(r.theorem == "T1" and r.energy == pytest.approx(-b)
                   for r in rep.embedded)

    def test_case_b_zeroth_order_root_at_threshold(self):
        # the zeroth-order root lies within 1e-8 of -beta, where the
        # second-order shift is undefined; a solve needs only the persistence
        # criterion, so it must not raise
        b = 0.5
        gm = gamma_for_couplings(SystemParams(0.0, b), 0.5, -math.sqrt(5e-9), 0.0)
        gm = Hermitian2(gm.pp, gm.mm, 0j)
        p = SystemParams(0.3, b)
        rep = solve_spectrum(p, gm)
        assert [r.energy for r in rep.discrete] == [r.energy for r in discrete_eigenvalues(p, gm)]
        assert rep.discrete[0].energy == pytest.approx(-0.5011964725143627, abs=1e-10)
        assert rep.embedded == ()

    def test_json_schema(self):
        p = SystemParams(0.0, 0.5)
        rep = solve_spectrum(p, gamma_for_couplings(p, -0.6, 0.3, 0.0))
        d = rep.to_json_dict()
        assert set(d) == {"regime", "sigma", "discrete", "embedded"}
        for row in d["discrete"]:
            assert set(row) == {"E", "residual"}
        for row in d["embedded"]:
            assert set(row) == {"E", "residual", "theorem"}
