import cmath
import math

import numpy as np
import pytest

from rashba_contact import (DomainError, PoleError, SystemParams, artanh_branch,
                            g1_origin, g2ren_origin, gs_ren_origin,
                            normalization, threshold_sigma, xi)
from rashba_contact.greens import INV_4SQRT2PI


class TestArtanh:
    def test_zero(self):
        assert artanh_branch(0.0) == 0.0

    def test_real_inside(self):
        assert artanh_branch(0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-15)

    def test_cut_above_one(self):
        # real |w| > 1 lies on the cuts, where artanh has no single value
        for w in (2.0, -2.0, 1.0 + 2.2e-16, -7.0, 1e300):
            with pytest.raises(DomainError, match="real cuts") as info:
                artanh_branch(w)
            assert not isinstance(info.value, PoleError), w

    def test_oddness(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(w - 1.0), abs(w + 1.0)) < 1e-3:
                continue
            assert artanh_branch(-w) == pytest.approx(-artanh_branch(w), abs=1e-14)

    def test_matches_principal_off_cut(self):
        # against 40-digit mpmath, |w| from 1e-12 to 1e2 in all four quadrants
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        with mpmath.workdps(40):
            for quadrant in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j):
                for mod, arg in zip(10.0 ** rng.uniform(-12.0, 2.0, 100),
                                    rng.uniform(0.0, math.pi / 2, 100)):
                    w = complex(mod * math.cos(arg) * quadrant.real,
                                mod * math.sin(arg) * quadrant.imag)
                    ref = mpmath.atanh(w)
                    assert abs(artanh_branch(w) - ref) <= 1e-15 * abs(ref), w

    @pytest.mark.parametrize("w", [1.0, -1.0])
    def test_poles(self, w):
        with pytest.raises(PoleError):
            artanh_branch(w)


class TestXi:
    def test_beta_zero(self):
        assert xi(SystemParams(0.0, 0.0), -1.0) == pytest.approx(0.5, rel=1e-15)

    def test_at_minus_beta(self):
        # xi(-beta) = 1/sqrt(2*beta)
        v = xi(SystemParams(0.0, 0.5), -0.5)
        assert v == pytest.approx(1.0, rel=1e-14)
        assert v.imag == 0.0 and v.real > 0.0

    def test_below_band_value(self):
        v = xi(SystemParams(0.0, 1.0), -2.0)
        assert v == pytest.approx(math.sqrt(1.0 - math.sqrt(3.0) / 2.0), rel=1e-12)
        # algebraic cross-check (1/(2 xi) + s*beta*xi)^2 = s*beta - E
        for s in (1, -1):
            lhs = (1.0 / (2.0 * v) + s * 1.0 * v) ** 2
            assert lhs == pytest.approx(s * 1.0 + 2.0, rel=1e-12)

    def test_below_band_identity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            b = rng.uniform(0.05, 1.5)
            e = -b - rng.uniform(1e-3, 8.0)
            v = xi(SystemParams(0.0, b), e)
            assert v.imag == 0.0 and v.real > 0.0
            for s in (1, -1):
                lhs = (1.0 / (2.0 * v) + s * b * v) ** 2
                assert lhs.real == pytest.approx(s * b - e, rel=1e-12)

    def test_above_band(self):
        # real xi is taken only at E <= -beta (E < 0 at beta = 0)
        for b, e in ((0.5, -0.5 + 1e-12), (0.5, -0.2), (0.5, 0.0), (0.5, 0.5),
                     (1.0, 1.25), (0.0, 0.0), (0.0, 1.0)):
            with pytest.raises(DomainError):
                xi(SystemParams(0.0, b), e)

    @pytest.mark.parametrize("b,e", [(1e-200, -2e-200), (1e-160, -1.5e-160),
                                     (0.5, -1e200), (1e300, -2e300), (0.5, -2.8e306)])
    def test_real_ends_of_float_range_match_mpmath(self, b, e):
        # E^2 underflows or overflows here; sqrt(E^2 - beta^2) is factored
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import xi_mp

        with mpmath.workdps(50):
            ref = xi_mp(b, e)
            assert abs(xi(SystemParams(0.0, b), e) - ref) <= 4.4e-16 * abs(ref)

    def test_beta_zero_domain(self):
        with pytest.raises(DomainError):
            xi(SystemParams(0.0, 0.0), 0.5)

    def test_conjugation(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            b = rng.uniform(0.0, 1.5)
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 4))
            a = xi(SystemParams(0.0, b), z)
            c = xi(SystemParams(0.0, b), z.conjugate())
            assert c == pytest.approx(a.conjugate(), rel=1e-13)

    def test_product_identity(self):
        # ((-z/2)(1-u)) * ((-z/2)(1+u)) = beta^2/4 for principal branches
        rng = np.random.default_rng(4)
        for _ in range(40):
            b = rng.uniform(0.05, 1.5)
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) < 1e-3:
                continue
            u = np.sqrt(1.0 - (b / z) ** 2)
            prod = ((-z / 2.0) * (1.0 - u)) * ((-z / 2.0) * (1.0 + u))
            assert prod == pytest.approx(b * b / 4.0, rel=1e-12)
            # package-level version: (beta*xi) * B = beta/2 off the real axis,
            # with B the principal partner root, which G_2^ren carries at alpha = 0
            if z.imag != 0.0:
                big = cmath.sqrt((-z / 2.0) * (1.0 + cmath.sqrt(1.0 - (b / z) ** 2)))
                p = SystemParams(0.0, b)
                assert b * xi(p, z) * big == pytest.approx(b / 2.0, rel=1e-12)
                got = cmath.sqrt(-z) - 4.0 * math.pi * g2ren_origin(p, z)
                assert got == pytest.approx(big, rel=1e-12)

    @pytest.mark.parametrize("b", [0.5, 1.3])
    def test_partner_root_on_the_real_axis(self, b):
        # at alpha = 0, sqrt(-E) - 4 pi G_2^ren(0;E) is the partner root B(E)
        # below the band, where both one-sided limits of the principal
        # sqrt((-z/2)(1 + sqrt(1 - (beta/z)^2))) agree
        p = SystemParams(0.0, b)
        for side in (-1e-13j, 1e-13j):
            for e in (-b - 3.0, -1.4 * b):
                z = e + side
                big = cmath.sqrt((-z / 2.0) * (1.0 + cmath.sqrt(1.0 - (b / z) ** 2)))
                got = cmath.sqrt(-complex(e)) - 4.0 * math.pi * g2ren_origin(p, e)
                assert got == pytest.approx(big, rel=1e-10), (e, side)


class TestGreenValues:
    def test_g1_free_limit(self):
        # alpha = beta = 0: xi/(4 pi) = 1/(8 pi) at z = -1
        v = g1_origin(SystemParams(0.0, 0.0), -1.0)
        assert v == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-14)

    def test_g1_small_alpha_series_consistency(self):
        # series branch vs direct artanh on either side of the switch
        p_small = SystemParams(1e-3, 0.5)
        z = -50.0
        x = xi(p_small, z)
        direct = artanh_branch(p_small.alpha * x) / (4.0 * math.pi * p_small.alpha)
        assert g1_origin(p_small, z) == pytest.approx(direct, rel=1e-13)

    def test_g1_arg_difference_imaginary_part(self):
        # Im G1(0;i) = (Arg(1+c(1+i)) - Arg(1-c(1+i)))/(8 pi alpha),
        # c = alpha/(2 sqrt(1 + sqrt(1 + beta^2)))
        a, b = 1.0, 1.0
        c = a / (2.0 * math.sqrt(1.0 + math.sqrt(1.0 + b * b)))
        darg = cmath.phase(1 + c * (1 + 1j)) - cmath.phase(1 - c * (1 + 1j))
        got = g1_origin(SystemParams(a, b), 1j).imag
        assert got == pytest.approx(darg / (8.0 * math.pi * a), rel=1e-12)

    def test_g2ren_free_vanishes(self):
        p = SystemParams(0.0, 0.0)
        for z in (-1.0, -4.0, 1j, -2.0 + 1.5j):
            assert abs(g2ren_origin(p, z)) < 1e-15

    def test_g2ren_imag_at_i(self):
        # alpha = 0, beta = 1: Im G2ren(0;i) = -1/(4 sqrt2 pi) + sqrt(1+sqrt2)/(8 pi)
        got = g2ren_origin(SystemParams(0.0, 1.0), 1j).imag
        ref = -INV_4SQRT2PI + math.sqrt(1.0 + math.sqrt(2.0)) / (8.0 * math.pi)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_gs_free_vanishes(self):
        p = SystemParams(0.0, 0.0)
        for s in (1, -1):
            assert abs(gs_ren_origin(p, s, -1.0)) < 1e-15

    def test_gs_imag_at_i_reconstructs_normalization(self):
        # Im G_s^ren(0;i) + 1/(4 sqrt2 pi) = N_s^-2
        p = SystemParams(0.1, 0.5)
        nd = normalization(p)
        got = gs_ren_origin(p, 1, 1j).imag + INV_4SQRT2PI
        assert got == pytest.approx(1.0 / nd.n_plus ** 2, rel=1e-12)

    def test_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = SystemParams(rng.uniform(0, 2.2), rng.uniform(0, 1.2))
            z = complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
            for s in (1, -1):
                a = gs_ren_origin(p, s, z)
                c = gs_ren_origin(p, s, z.conjugate())
                assert c == pytest.approx(a.conjugate(), abs=1e-13 * (1 + abs(a)))

    def test_pole_guard_at_band_edge(self):
        p = SystemParams(2.0, 0.5)
        sigma = threshold_sigma(p)
        with pytest.raises(PoleError):
            g1_origin(p, -sigma)
        with pytest.raises(PoleError):
            g2ren_origin(p, -sigma + 1e-12)

    def test_no_pole_in_small_coupling_case(self):
        # alpha < sqrt(2*beta): artanh argument stays below 1 up to the edge
        p = SystemParams(0.4, 0.5)
        v = g1_origin(p, -0.5 - 1e-12)
        assert np.isfinite(v.real) and v.imag == 0.0
