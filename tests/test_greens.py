import cmath
import math

import numpy as np
import pytest

from rashba_contact import (DomainError, PoleError, SystemParams, artanh_branch,
                            g1_origin, g2ren_origin, gs_ren_origin,
                            normalization, threshold_sigma, xi)
from rashba_contact.greens import INV_4SQRT2PI, _sqrt_minus


class TestArtanh:
    def test_zero(self):
        assert artanh_branch(0.0) == 0.0

    def test_real_inside(self):
        assert artanh_branch(0.5) == pytest.approx(0.5 * math.log(3.0), rel=1e-15)

    def test_cut_above_one(self):
        # continuation from below: r - i*pi/2
        v = artanh_branch(2.0)
        assert v.real == pytest.approx(0.5 * math.log(3.0), rel=1e-15)
        assert v.imag == pytest.approx(-math.pi / 2.0, rel=1e-15)

    def test_oddness(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(w - 1.0), abs(w + 1.0)) < 1e-3:
                continue
            assert artanh_branch(-w) == pytest.approx(-artanh_branch(w), abs=1e-14)
        for x in (1.5, 2.0, 7.0):
            assert artanh_branch(-x) == pytest.approx(-artanh_branch(x), abs=1e-14)

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

    def test_mid_band_signs(self):
        b = 0.5
        below = xi(SystemParams(0.0, b), -0.2)
        assert below.real > 0.0 and below.imag < 0.0
        above = xi(SystemParams(0.0, b), 0.2)
        assert above.real > 0.0 and above.imag > 0.0
        # constant modulus 1/sqrt(2*beta) across the band
        for e in (-0.45, -0.1, 0.0, 0.3, 0.49):
            assert abs(xi(SystemParams(0.0, b), e)) == pytest.approx(
                1.0 / math.sqrt(2.0 * b), rel=1e-13)

    def test_above_band(self):
        b, e = 1.0, 1.25
        v = xi(SystemParams(0.0, b), e)
        assert v.real == 0.0 and v.imag > 0.0
        # T(E) = 1/sqrt(2 (E + sqrt(E^2 - beta^2)))
        assert v.imag == pytest.approx(1.0 / math.sqrt(2.0 * (e + math.sqrt(e * e - b * b))),
                                       rel=1e-14)

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
        # at alpha = 0, sqrt(-E) - 4 pi G_2^ren(0;E) is the partner root B(E):
        # the principal sqrt((-z/2)(1 + sqrt(1 - (beta/z)^2))) at z = E -/+ i0,
        # from below on (-beta, 0) and [beta, inf), from above on [0, beta);
        # at the branch point E = beta the 1e-13 offset moves B by ~3e-7
        p = SystemParams(0.0, b)
        below = [-b - 3.0, -1.4 * b, -0.6 * b, -0.1 * b, b, 1.2 * b, 4.0 * b, 20.0 * b]
        above = [-b - 3.0, -1.4 * b, 0.0, 0.4 * b, 0.9 * b]
        for side, energies in ((-1e-13j, below), (1e-13j, above)):
            for e in energies:
                z = e + side
                big = cmath.sqrt((-z / 2.0) * (1.0 + cmath.sqrt(1.0 - (b / z) ** 2)))
                got = _sqrt_minus(complex(e)) - 4.0 * math.pi * g2ren_origin(p, e)
                assert got == pytest.approx(big, rel=1e-6 if e == b else 1e-10), (e, side)


    def test_band_ends_match_mpmath(self):
        # inside the band xi = exp(i*theta/2)/sqrt(2*beta), cos(theta) = -E/beta,
        # taken here at 40 digits from the float E; the half-angle forms keep
        # full precision next to both band ends, where acos(-E/beta) in float
        # arithmetic lost digits (4.4e-10 relative at beta = 3.7, k = 15)
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for b in (3.7, 0.5, 1e-3):
                p = SystemParams(0.0, b)
                for k in range(1, 16):
                    for sign in (1.0, -1.0):
                        e = sign * b * (1.0 - 10.0 ** -k)
                        theta = mpmath.acos(-mpmath.mpf(e) / b)
                        if e < 0.0:
                            theta = -theta
                        ref = mpmath.exp(0.5j * theta) / mpmath.sqrt(2 * mpmath.mpf(b))
                        got = xi(p, complex(e))
                        err = abs(mpmath.mpc(got) - ref) / abs(ref)
                        worst = max(worst, float(err))
        assert worst <= 4.4e-16


class TestTofE:
    """xi(E) = i*T(E) on E >= beta, with T falling from 1/sqrt(2*beta)."""

    def test_at_beta(self):
        v = xi(SystemParams(0.0, 0.5), 0.5)
        assert v.real == 0.0 and v.imag == pytest.approx(1.0, rel=1e-14)

    def test_value(self):
        v = xi(SystemParams(0.0, 1.0), 1.25)
        assert v.real == 0.0 and v.imag == pytest.approx(0.5, rel=1e-14)

    def test_monotone_decay(self):
        p = SystemParams(0.0, 0.7)
        ts = [xi(p, e).imag for e in (0.7, 1.0, 3.0, 10.0, 1e4)]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert ts[-1] < 1e-2

    def test_domain(self):
        # below beta xi leaves the imaginary axis; at beta = 0 there is no E >= 0 form
        assert xi(SystemParams(0.0, 1.0), 0.9).real > 0.0
        with pytest.raises(DomainError):
            xi(SystemParams(0.0, 0.0), 1.0)


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
        # alpha < sqrt(2*beta): artanh argument stays below 1 at the edge
        p = SystemParams(0.4, 0.5)
        v = g1_origin(p, -0.5)
        assert np.isfinite(v.real) and v.imag == 0.0
