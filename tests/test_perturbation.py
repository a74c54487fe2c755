import math

import numpy as np
import pytest

from rashba_contact import (Branch, DomainError, EffectiveCouplings, Hermitian2,
                            RegimeError, SystemParams, asymptotic_eigenvalues,
                            cnd0, cnd0_max, discrete_eigenvalues, e2, e_nu,
                            effective_couplings, embedded_alpha0,
                            expansion_coefficients, gamma_for_couplings,
                            normalization, q0, xi)
from rashba_contact.perturbation import (_circle_coefficients, _series_scalars,
                                        threshold_persistence)
from rashba_contact.spectrum import _golden_min

N_FREE = 2.0 * 2.0 ** 0.25 * math.sqrt(math.pi)


def _diagonal_gamma(beta: float, w0p: float, w0m: float) -> Hermitian2:
    """Diagonal coupling whose zeroth-order effective couplings are (w0p, w0m)."""
    return gamma_for_couplings(SystemParams(0.0, beta), w0p, w0m, 0.0)


_EFF = EffectiveCouplings(0.5, -0.25, 0.1)


@pytest.mark.parametrize("f,args", [
    (xi, (SystemParams(1.0, 0.5), math.nan)),
    (xi, (SystemParams(1.0, 0.0), math.nan)),
    (q0, (0.5, 0.1, 1, math.nan)),
    (e2, (0.5, Hermitian2.scalar(1.0), math.nan)),
    (cnd0, (math.nan,)),
    (cnd0, (math.inf,)),
    (expansion_coefficients, (math.nan, Hermitian2.scalar(1.0))),
    (expansion_coefficients, (math.inf, Hermitian2.scalar(1.0))),
    (embedded_alpha0, (math.nan, _EFF)),
    (embedded_alpha0, (math.inf, _EFF)),
    (e_nu, (math.nan, 2.0, 1.0)),
], ids=["xi", "xi-beta0", "q0", "e2", "cnd0-nan", "cnd0-inf", "coefficients-nan",
        "coefficients-inf", "embedded_alpha0-nan", "embedded_alpha0-inf", "e_nu"])
def test_non_finite_inputs_fail_the_domain_guards(f, args):
    # a guard written as `if x > bound: raise` lets NaN through
    with pytest.raises(DomainError):
        f(*args)


class TestCoefficients:
    def test_beta_to_zero_limits(self):
        co = expansion_coefficients(1e-9, Hermitian2.scalar(0.0))
        assert co.n0[0] == pytest.approx(N_FREE, rel=1e-9)
        assert co.n0[1] == pytest.approx(N_FREE, rel=1e-9)
        ref_l0 = -math.sqrt(2.0) / (8.0 * math.pi)
        assert co.l0[0] == pytest.approx(ref_l0, rel=1e-9)
        assert co.l0[1] == pytest.approx(ref_l0, rel=1e-9)

    def test_eta_sum_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            co = expansion_coefficients(rng.uniform(0.02, 3.0), Hermitian2.scalar(0.1))
            assert co.eta[0] + co.eta[1] == pytest.approx(2.0 * co.eta[2], rel=1e-14)

    def test_matches_full_normalization_at_alpha_zero(self):
        # omega0/gamma0 must equal the full couplings evaluated at alpha = 0
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = rng.uniform(0.05, 1.2)
            gm = Hermitian2(rng.uniform(-1, 1), rng.uniform(-1, 1),
                            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
            co = expansion_coefficients(b, gm)
            eff = effective_couplings(SystemParams(0.0, b), gm)
            assert co.omega0[0] == pytest.approx(eff.omega_plus, abs=1e-12)
            assert co.omega0[1] == pytest.approx(eff.omega_minus, abs=1e-12)
            assert co.gamma0 == pytest.approx(eff.gamma, abs=1e-12)

    def test_normalization_series_order(self):
        # N_s(alpha) - (n0 - alpha^2 n1) = O(alpha^4): 16x drop on halving
        b = 0.5
        co = expansion_coefficients(b, Hermitian2.scalar(0.0))
        errs = []
        for a in (0.2, 0.1):
            nd = normalization(SystemParams(a, b))
            errs.append(abs(nd.n_plus - (co.n0[0] - a * a * co.n1[0])))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)

    def test_omega_gamma_series_order(self):
        b = 0.5
        gm = Hermitian2(0.3, -0.2, 0.15 + 0.1j)
        co = expansion_coefficients(b, gm)
        errs_w, errs_g = [], []
        for a in (0.2, 0.1):
            eff = effective_couplings(SystemParams(a, b), gm)
            model_w = co.omega0[0] + a * a * co.omega1[0]
            errs_w.append(abs(eff.omega_plus - model_w))
            model_g = co.gamma0 * (1.0 + 2.0 * a * a * co.eta[2])
            errs_g.append(abs(eff.gamma - model_g))
        assert errs_w[0] / errs_w[1] > 12.0
        assert errs_g[0] / errs_g[1] > 12.0

    def test_beta_zero_rejected(self):
        with pytest.raises(DomainError):
            expansion_coefficients(0.0, Hermitian2.scalar(0.0))


class TestQ0:
    def test_threshold_value(self):
        # q_s(-beta) = omega1_s - (1 - s/3)/(2 sqrt(2 beta))
        b, w1 = 0.4, 0.7
        for s in (1, -1):
            ref = w1 - (1.0 - s / 3.0) / (2.0 * math.sqrt(2.0 * b))
            assert q0(b, w1, s, -b) == pytest.approx(ref, rel=1e-13)

    def test_bracket_sign_flip(self):
        # the bracket x*(1/2 - s*b*x^2/3) changes sign at x = sqrt(3/(2 b))
        b, s = 0.7, 1
        bracket = lambda x: x * (0.5 - s * b * x * x / 3.0)
        x_flip = math.sqrt(3.0 / (2.0 * b))
        assert bracket(0.999 * x_flip) > 0.0 > bracket(1.001 * x_flip)

    def test_minus_channel_negative(self):
        # diagonal coupling, root of the minus channel: q0_- < 0
        rng = np.random.default_rng(7)
        for _ in range(15):
            b = rng.uniform(0.1, 1.0)
            w0m = -rng.uniform(0.05, 1.2)
            gm = _diagonal_gamma(b, 0.8, w0m)
            co = expansion_coefficients(b, gm)
            assert q0(b, co.omega1[1], -1, -b - w0m * w0m) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            q0(0.5, 0.0, 1, -0.2)
        with pytest.raises(DomainError):
            q0(0.5, 0.0, 2, -1.0)


class TestE2:
    def test_diagonal_minus_branch_moves_down(self):
        for b in np.linspace(0.1, 1.0, 7):
            w0m = -0.4
            gm = _diagonal_gamma(float(b), 0.8, w0m)
            att = e2(float(b), gm, -float(b) - w0m * w0m)
            assert att.branch is Branch.DIAGONAL_MINUS
            assert att.e2 < 0.0

    def test_twofold(self):
        b = 0.4
        w0p = -1.2
        assert w0p < -math.sqrt(2.0 * b)
        w0m = -math.sqrt(w0p * w0p - 2.0 * b)
        gm = _diagonal_gamma(b, w0p, w0m)
        e0 = b - w0p * w0p
        att = e2(b, gm, e0)
        assert att.branch is Branch.TWOFOLD
        assert isinstance(att.e2, tuple) and len(att.e2) == 2
        co = expansion_coefficients(b, gm)
        ref = (-2.0 * w0p * q0(b, co.omega1[0], 1, e0),
               -2.0 * w0m * q0(b, co.omega1[1], -1, e0))
        assert att.e2 == pytest.approx(ref, rel=1e-12)

    def test_generic_branch_vs_solver_extrapolation(self):
        # Richardson limit of (E(alpha) - E0)/alpha^2 reproduces the quotient
        b = 0.5
        gm = gamma_for_couplings(SystemParams(0.0, b), -0.9, -0.3, 0.4)
        e0 = discrete_eigenvalues(SystemParams(0.0, b), gm)[0].energy
        att = e2(b, gm, e0)
        assert att.branch is Branch.GENERIC_GAMMA
        sl = math.sqrt(2.0 * b)
        ds = []
        for a in (0.1 * sl, 0.05 * sl):
            roots = discrete_eigenvalues(SystemParams(a, b), gm)
            e = min((r.energy for r in roots), key=lambda x: abs(x - e0))
            ds.append((e - e0) / (a * a))
        extrap = (4.0 * ds[1] - ds[0]) / 3.0
        assert extrap == pytest.approx(att.e2, rel=1e-4)

    def test_precondition_checked(self):
        b = 0.5
        gm = _diagonal_gamma(b, 0.8, -0.4)
        with pytest.raises(DomainError, match="zeroth-order"):
            e2(b, gm, -1.234)

    def test_threshold_guard(self):
        b = 0.5
        gm = _diagonal_gamma(b, 0.8, -1e-5)
        with pytest.raises(DomainError, match="threshold"):
            e2(b, gm, -b - 1e-10)


class TestGammaCircle:
    def test_constructed_zero(self):
        b = 0.5
        a_co, b_co, c_co = _circle_coefficients(b)
        pp = 0.3
        mm = -(a_co * pp + c_co) / b_co
        gm = Hermitian2(pp, mm, 0.0)
        scale = abs(a_co * pp) + abs(b_co * mm) + abs(c_co)
        assert abs(threshold_persistence(b, gm)[1]) < 1e-10 * scale

    def test_affine_in_entries(self):
        b = 1.0
        a_co, b_co, _ = _circle_coefficients(b)
        pts = []
        for pp in (0.0, 0.5, 1.0):
            mm = 0.25
            res = threshold_persistence(b, Hermitian2(pp, mm, 0.0))[1]
            pts.append((pp, res))
        slope1 = (pts[1][1] - pts[0][1]) / 0.5
        slope2 = (pts[2][1] - pts[1][1]) / 0.5
        assert slope1 == pytest.approx(slope2, rel=1e-12)
        assert slope1 == pytest.approx(a_co, rel=1e-12)

    def test_generic_nonzero(self):
        assert abs(threshold_persistence(0.5, Hermitian2(0.4, 0.7, 0.0))[1]) > 1e-6


class TestCnd0:
    def test_maximum(self):
        val, arg = cnd0_max()
        assert val == pytest.approx(-0.14874, abs=1e-4)
        assert arg == pytest.approx(1.00553, abs=1e-3)

    def test_single_slope_sign_change(self):
        # cnd0 is unimodal, so one golden-section search finds its maximum
        grid = np.geomspace(1e-4, 1e4, 20001)
        slope = np.diff([cnd0(float(b)) for b in grid])
        flips = np.flatnonzero(np.signbit(slope[1:]) != np.signbit(slope[:-1]))
        assert len(flips) == 1
        assert grid[flips[0]] < cnd0_max()[1] < grid[flips[0] + 2]
        # on a window off the peak the maximum is the end nearer to it
        assert cnd0_max(0.05, 0.5)[1] == pytest.approx(0.5, rel=1e-12)
        assert cnd0_max(2.0, 10.0)[1] == pytest.approx(2.0, rel=1e-12)
        # so the peak clamped to a window is what a search over that window
        # finds: the same end off the peak, the same value up to rounding on it
        rng = np.random.default_rng(59)
        peak = cnd0_max()[1]
        for _ in range(50):
            lo, hi = (float(v) for v in np.sort(10.0 ** rng.uniform(-2.0, 2.0, 2)))
            val, arg = cnd0_max(lo, hi)
            found = _golden_min(lambda b: -cnd0(b), lo, hi)
            if lo < peak < hi:
                assert val == pytest.approx(cnd0(found), rel=0.0, abs=1e-15)
            else:
                assert arg == found
            assert lo <= arg <= hi and val == cnd0(arg)
            assert cnd0_max(lo, hi) == (val, arg)
        with pytest.raises(DomainError):
            cnd0_max(0.0, 1.0)
        with pytest.raises(DomainError):
            cnd0_max(2.0, 1.0)

    def test_window_value_is_cnd0_at_the_clamped_peak_exactly(self):
        # the kept peak value and a fresh cnd0 at the clamped peak agree bit
        # for bit, on windows that hold the peak, lie below or above it, or
        # end at it
        peak = cnd0_max()[1]
        below, above = math.nextafter(peak, 0.0), math.nextafter(peak, math.inf)
        windows = [(0.05, 10.0), (0.5, 2.0), (peak, peak), (peak, 3.0), (0.2, peak),
                   (0.05, 0.5), (0.2, below), (2.0, 10.0), (above, 4.0)]
        rng = np.random.default_rng(67)
        windows += [tuple(float(v) for v in np.sort(10.0 ** rng.uniform(-2.0, 2.0, 2)))
                    for _ in range(50)]
        kinds = set()
        for lo, hi in windows:
            b = min(max(peak, lo), hi)
            assert cnd0_max(lo, hi) == (cnd0(b), b)
            kinds.add("below" if hi < peak else "above" if lo > peak
                      else "end" if peak in (lo, hi) else "holds")
        assert kinds == {"below", "above", "end", "holds"}

    def test_divergence_at_zero(self):
        assert cnd0(1e-6) < -100.0

    def test_negative_everywhere(self):
        for b in np.geomspace(0.01, 100.0, 200):
            assert cnd0(float(b)) < 0.0


class TestLargeBeta:
    """The series scalars where u - beta and rt - beta/rt would cancel
    (u = sqrt(1 + beta^2), rt = sqrt(1 + u)), against 50-digit mpmath."""

    def test_series_scalars_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import series_scalars_mp
        # every scalar up to 1e200: beyond it N_1,- falls below the smallest
        # float; eta up to 1e300, where eta_- is still a normal float
        betas = [float(b) for b in np.geomspace(1e-6, 1e8, 57)]
        betas += [1e4, 1e6, 6.7e7, 1e12, 1e20, 1e100, 1e200]
        names = ("n0", "n1", "l0", "l1", "eta")
        with mpmath.workdps(50):
            for b in betas + [1e250, 1e300]:
                got, want = _series_scalars(b), series_scalars_mp(b)
                for s in (1, -1):
                    for name, g, w in zip(names, (d[s] for d in got), want[s]):
                        if b in betas or name == "eta":
                            assert abs(g - w) <= 2e-15 * abs(w), (b, s, name, g)

    def test_eta_pm_is_the_mean_of_the_channel_etas(self):
        # eta_pm = N_1,+/N_0,+ + N_1,-/N_0,- = (eta_+ + eta_-)/2, formed from
        # the same two values, so it too survives the underflow of N_1,-
        for b in (1e-6, 0.3, 1.0, 1e8, 1e250, 1e300):
            co = expansion_coefficients(b, Hermitian2.scalar(1.0))
            assert co.eta[2] == 0.5 * (co.eta[0] + co.eta[1])
            assert co.eta[1] > 0.0

    def test_cnd0_stays_finite_to_the_end_of_float_range(self):
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import cnd0_mp
        with mpmath.workdps(50):
            for b in (1e8, 1e20, 1e154, 1e155, 1e300, 1e307):
                v, ref = cnd0(b), cnd0_mp(b)
                assert math.isfinite(v) and v < 0.0
                assert abs(v - ref) <= 4e-15 * abs(ref), b

    def test_minus_channel_coefficients_stay_positive(self):
        # from beta ~ 6.7e7 the old u - beta rounded to 0 and the series
        # divided by zero
        for b in (6.7e7, 1e8, 1e12, 1e100):
            co = expansion_coefficients(b, Hermitian2.scalar(1.0))
            assert co.n0[1] > 0.0 and math.isfinite(co.eta[1])
            threshold_persistence(b, Hermitian2.scalar(1.0))


class TestAsymptoticEigenvalues:
    def test_diagonal_pipeline(self):
        b, alpha = 0.5, 0.2
        gm = _diagonal_gamma(b, 0.8, -0.4)
        asym = asymptotic_eigenvalues(SystemParams(alpha, b), gm)
        assert len(asym.entries) == 1
        entry = asym.entries[0]
        assert entry.e0 == pytest.approx(-0.66, abs=1e-10)
        pred = entry.predicted_energy(alpha)
        roots = discrete_eigenvalues(SystemParams(alpha, b), gm)
        solver = min((r.energy for r in roots), key=lambda x: abs(x - entry.e0))
        assert abs(solver - pred) < 1e-3     # O(alpha^4) remainder

    def test_alpha_zero_passthrough(self):
        b = 0.5
        gm = _diagonal_gamma(b, 0.8, -0.4)
        asym = asymptotic_eigenvalues(SystemParams(0.0, b), gm)
        assert asym.entries[0].predicted_energy(0.0) == asym.entries[0].e0

    def test_gamma_circle_marker(self):
        # on the circle line the membership product is -(N-^2 B)/(N+^2 A) y^2,
        # so with A, B > 0 the unique admissible persistence point is
        # x = y = 0: omega0_+ = -sqrt(2 beta), omega0_- = 0, gamma0 = 0
        b = 0.5
        a_co, b_co, c_co = _circle_coefficients(b)
        assert a_co > 0.0 and b_co > 0.0
        gm = _diagonal_gamma(b, -math.sqrt(2.0 * b), 0.0)
        scale = abs(a_co * gm.pp) + abs(b_co * gm.mm) + abs(c_co)
        assert abs(threshold_persistence(b, gm)[1]) < 1e-10 * scale
        asym = asymptotic_eigenvalues(SystemParams(0.1, b), gm)
        assert asym.threshold_persists
        # everywhere else on the line the membership product is negative
        co0 = expansion_coefficients(b, Hermitian2.scalar(0.0))
        for pp in np.linspace(-2.0, 2.0, 11):
            mm = -(a_co * pp + c_co) / b_co
            w0p = 4.0 * math.pi * (pp / co0.n0[0] ** 2 + co0.l0[0])
            w0m = 4.0 * math.pi * (mm / co0.n0[1] ** 2 + co0.l0[1])
            assert (w0p + math.sqrt(2.0 * b)) * w0m <= 1e-12

    def test_generic_does_not_persist(self):
        b = 0.5
        gm = _diagonal_gamma(b, 0.8, -0.4)
        asym = asymptotic_eigenvalues(SystemParams(0.1, b), gm)
        assert not asym.threshold_persists

    def test_regime_gate(self):
        gm = Hermitian2.scalar(0.1)
        with pytest.raises(RegimeError):
            asymptotic_eigenvalues(SystemParams(1.2, 0.5), gm)
        with pytest.raises(RegimeError):
            asymptotic_eigenvalues(SystemParams(0.5, 0.0), gm)

    def test_shallow_roots_stay_below_threshold(self):
        # E0 = -beta - delta stays below -beta for alpha^4 << delta
        b = 0.5
        for delta in (1e-2, 1e-3):
            w0m = -math.sqrt(delta)
            gm = _diagonal_gamma(b, 0.8, w0m)
            alpha = (delta / 100.0) ** 0.25
            roots = discrete_eigenvalues(SystemParams(alpha, b), gm)
            e = min((r.energy for r in roots), key=lambda x: abs(x + b + delta))
            assert e < -b
