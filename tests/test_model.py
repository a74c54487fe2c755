import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from rashba_contact import (DomainError, Regime, SystemParams, classify_regime,
                            e_nu, series_validity, threshold_sigma)


class TestParams:
    def test_valid(self):
        p = SystemParams(0.5, 1.0)
        assert p.alpha == 0.5 and p.beta == 1.0

    @pytest.mark.parametrize("alpha,beta", [(-0.1, 0.5), (0.5, -1.0),
                                            (math.nan, 0.0), (0.0, math.inf)])
    def test_invalid(self, alpha, beta):
        with pytest.raises(DomainError):
            SystemParams(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(1e200, 1.0), (2.7e154, 0.0), (2.6e154, 1.7e308)])
    def test_sigma_overflow_is_a_domain_error(self, alpha, beta):
        # (alpha/2)^2 overflows, or (beta/alpha)^2 + (alpha/2)^2 rounds to inf
        with pytest.raises(DomainError, match="Sigma overflows"):
            SystemParams(alpha, beta)
        assert SystemParams(2.6e154, 1.0)._sigma == pytest.approx(1.69e308, rel=1e-15)


class TestThreshold:
    def test_zeeman_branch(self):
        assert threshold_sigma(SystemParams(0.0, 0.5)) == 0.5

    def test_origin(self):
        assert threshold_sigma(SystemParams(0.0, 0.0)) == 0.0

    def test_large_coupling_branch(self):
        assert threshold_sigma(SystemParams(2.0, 0.5)) == 17.0 / 16.0

    def test_seam_continuity(self):
        # both branches equal alpha^2/2 at beta = alpha^2/2
        a = 0.9
        seam = a * a / 2.0
        assert threshold_sigma(SystemParams(a, seam)) == pytest.approx(seam, abs=1e-15)
        for eps in (1e-4, 1e-6, 1e-8):
            lo = threshold_sigma(SystemParams(a, seam - eps))
            hi = threshold_sigma(SystemParams(a, seam + eps))
            assert abs(hi - lo) < 4.0 * eps


class TestStoredConstants:
    """Sigma and the pole-guard half-width are computed once per SystemParams."""

    @pytest.mark.parametrize("alpha,beta,sigma", [
        (0.0, 0.7, 0.7),                                        # alpha = 0
        (3.0, 0.0, 2.25),                                       # beta = 0
        (2.0, 2.0, 2.0),                                        # exact seam
        (0.9, 0.405, (0.405 / 0.9) ** 2 + (0.9 / 2.0) ** 2),    # seam, inexact
        (0.3, 0.5, 0.5),                                        # CaseB
        (2.0, 0.5, 17.0 / 16.0),                                # CaseC
        (1.7, 0.3, (0.3 / 1.7) ** 2 + (1.7 / 2.0) ** 2),        # CaseC, inexact
    ])
    def test_threshold_is_the_closed_form(self, alpha, beta, sigma):
        assert threshold_sigma(SystemParams(alpha, beta)) == sigma

    def test_guard_nonzero_exactly_where_the_pole_is(self):
        alphas = (0.0, 1e-8, 0.3, 0.9, 1.0, 2.0, 40.0)
        for a in alphas:
            for b in (0.0, 1e-12, 0.1, a * a / 2.0, 0.5, 0.81, 3.0):
                p = SystemParams(a, b)
                pole = a > 0.0 and a * a >= 2.0 * b
                assert (p._pole_guard > 0.0) is pole
                if pole:
                    assert p._pole_guard == 1e-10 * max(1.0, threshold_sigma(p))

    def test_fields_repr_eq_hash_unchanged(self):
        p = SystemParams(2.0, 0.5)
        assert [f.name for f in dataclasses.fields(p)] == ["alpha", "beta"]
        assert repr(p) == "SystemParams(alpha=2.0, beta=0.5)"
        assert p == SystemParams(2, 0.5) and hash(p) == hash(SystemParams(2, 0.5))
        assert p != SystemParams(2.0, 0.25)

    def test_copies_keep_the_constants_consistent(self):
        p = SystemParams(2.0, 0.5)
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p
            assert (q._sigma, q._pole_guard) == (p._sigma, p._pole_guard)
        r = dataclasses.replace(p, beta=3.0)          # past the seam: no pole
        assert r._sigma == 3.0 and r._pole_guard == 0.0
        r = dataclasses.replace(p, alpha=4.0)
        assert r._sigma == threshold_sigma(SystemParams(4.0, 0.5)) == 4.015625
        assert r._pole_guard == 1e-10 * 4.015625


class TestRegime:
    def test_case_a(self):
        info = classify_regime(SystemParams(0.0, 0.7))
        assert info.regime is Regime.CASE_A
        assert info.sigma == 0.7
        assert info.nu is None

    def test_case_b(self):
        info = classify_regime(SystemParams(0.1, 0.5))
        assert info.regime is Regime.CASE_B

    def test_case_c_with_flag(self):
        # Sigma = 1.0625 > 1: tag stays CaseC
        info = classify_regime(SystemParams(2.0, 0.5))
        assert info.regime is Regime.CASE_C
        assert info.nu == pytest.approx(2.0, rel=1e-14)

    def test_case_c_boundary_alpha(self):
        b = 0.3
        info = classify_regime(SystemParams(math.sqrt(2.0 * b), b))
        assert info.regime is Regime.CASE_C
        assert info.nu == pytest.approx(1.0, rel=1e-12)

    def test_unsupported(self):
        assert classify_regime(SystemParams(1.0, 0.0)).regime is Regime.UNSUPPORTED

    def test_case_c_sigma_identity(self):
        # Sigma == E_nu(1) whenever nu is defined
        for b in np.linspace(0.05, 1.0, 7):
            for fac in np.linspace(1.0, 2.2, 6):
                a = fac * math.sqrt(2.0 * b)
                info = classify_regime(SystemParams(a, float(b)))
                assert info.regime is Regime.CASE_C
                ref = e_nu(float(b), info.nu, 1.0)
                assert info.sigma == pytest.approx(ref, rel=1e-12)

    def test_nu_upper_bound_equivalence(self):
        # Sigma <= 1 iff nu^2 <= (1 + sqrt(1-beta^2))/beta, for 0 < beta <= 1
        for b in np.linspace(0.05, 1.0, 9):
            bound = (1.0 + math.sqrt(max(0.0, 1.0 - b * b))) / b
            for fac in np.linspace(1.0, 2.5, 9):
                a = fac * math.sqrt(2.0 * b)
                info = classify_regime(SystemParams(float(a), float(b)))
                assert (info.sigma <= 1.0 + 1e-14) == (info.nu ** 2 <= bound + 1e-12)


class TestSeriesValidity:
    def test_cond_a(self):
        rep = series_validity(SystemParams(0.1, 0.5), -0.6)
        assert rep.cond_a and rep.any

    def test_cond_b(self):
        rep = series_validity(SystemParams(2.0, 0.5), -2.0)
        assert rep.cond_b and rep.any

    def test_origin_any(self):
        assert series_validity(SystemParams(0.0, 0.0), -1.0).any

    def test_cond_b_equality_rule(self):
        # equality |z| = Sigma only counts when 2*beta < alpha^2
        rep = series_validity(SystemParams(2.0, 0.5), -17.0 / 16.0)
        assert rep.cond_b
        rep = series_validity(SystemParams(1.0, 0.8), -0.8)  # 2*beta > alpha^2
        assert not rep.cond_b

    def test_cond_c_scan(self):
        # at alpha = 2, beta = 0.5 condition (c) needs |z| above roughly 1;
        # far above it must hold, deep inside the band it must not
        assert series_validity(SystemParams(2.0, 0.5), -3.0).cond_c
        assert not series_validity(SystemParams(2.0, 0.5), -0.1).cond_c
        # its bound is Sigma, on both sides of the seam alpha^2 = 2*beta
        for p in (SystemParams(2.0, 0.5), SystemParams(0.8, 0.4)):
            sigma = threshold_sigma(p)
            assert series_validity(p, -sigma * (1.0 + 1e-5)).cond_c
            assert not series_validity(p, -sigma).cond_c

    def test_inside_band_invalid(self):
        rep = series_validity(SystemParams(0.4, 0.5), -0.05)
        assert not rep.any
