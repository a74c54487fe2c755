import cmath
import dataclasses
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from rashba_contact import (DomainError, EffectiveCouplings, ExtensionKind,
                            Hermitian2, KreinQ, PoleError, SingularMatrixError,
                            SystemParams, effective_couplings, g1_origin,
                            g2ren_origin, gamma_for_couplings, gamma_from_cr,
                            gs_ren_origin, krein_q, normalization,
                            phi_norm_sq, secular_det,
                            secular_function, threshold_sigma, xi)
from rashba_contact import extension, model
from rashba_contact.greens import FOUR_PI, INV_4SQRT2PI

# float.hex of krein_q at 40 seeded z per parameter point: real E from the
# first float outside the pole guard down to -1e3, complex z down to
# |Im z| = 1e-8; each row is z, then Q_++ and Q_-- (real and imaginary parts)
KREIN_Q_GOLDEN = json.loads((Path(__file__).resolve().parent / "data"
                             / "krein_q_golden.json").read_text())["points"]

N_FREE = 2.0 * 2.0 ** 0.25 * math.sqrt(math.pi)      # normalization at alpha = beta = 0
RMAP = (math.acosh(3.0) - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0) + math.pi)


class TestHermitian2:
    def test_det(self):
        m = Hermitian2(2.0, 3.0, 1.0 + 1.0j)
        assert m.det == pytest.approx(4.0, rel=1e-15)

    def test_json_round_trip(self):
        m = Hermitian2(0.25, -1.5, 0.5 - 0.75j)
        assert Hermitian2.from_json_dict(m.to_json_dict()) == m

    def test_json_missing_key(self):
        with pytest.raises(DomainError):
            Hermitian2.from_json_dict({"pp": 1.0, "mm": 2.0})

    def test_finite_required(self):
        with pytest.raises(DomainError):
            Hermitian2(math.inf, 0.0)

    def test_an_overflowing_square_is_a_domain_error(self):
        # |pm|^2 keeps its ** 2 (its bits) below overflow, and past it the
        # OverflowError of float ** becomes DomainError
        assert Hermitian2(1.0, 1.0, 1e150).det == 1.0 - 1e150 ** 2
        m, p = Hermitian2(0.1, 0.2, 1e200), SystemParams(1.0, 0.5)
        for call in (lambda: m.det, lambda: effective_couplings(p, m),
                     lambda: secular_det(p, m, -3.0)):
            with pytest.raises(DomainError, match="too large"):
                call()


class TestNormalization:
    def test_free_values(self):
        nd = normalization(SystemParams(0.0, 0.0))
        assert nd.n_plus == pytest.approx(N_FREE, rel=1e-14)
        assert nd.n_minus == pytest.approx(N_FREE, rel=1e-14)
        assert nd.lambda_plus == pytest.approx(-INV_4SQRT2PI, abs=1e-15)
        assert nd.lambda_minus == pytest.approx(-INV_4SQRT2PI, abs=1e-15)

    def test_dual_route(self):
        # closed principal-Arg formula for N_s^-2 against Q_ss(i) = i:
        # N_s^-2 = (r + k_s (Arg(1 + w) - Arg(1 - w)))/(8 pi), r = sqrt(1 + sqrt(1 + beta^2)),
        # w = c (1 + i), c = alpha/(2 r), k_s = alpha/2 - s*beta/alpha
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b = rng.uniform(0, 2.2), rng.uniform(0, 1.2)
            nd = normalization(SystemParams(a, b))
            r = math.sqrt(1.0 + math.sqrt(1.0 + b * b))
            w = a / (2.0 * r) * (1.0 + 1j)
            darg = cmath.phase(1.0 + w) - cmath.phase(1.0 - w)
            for s, n in ((1, nd.n_plus), (-1, nd.n_minus)):
                inv_sq = (r + (a / 2.0 - s * b / a) * darg) / (8.0 * math.pi)
                assert inv_sq == pytest.approx(1.0 / n ** 2, rel=1e-12)

    def test_matches_mpmath(self):
        # 50-digit N_s and Lambda_s from Q_ss(i) = i through the channel
        # factor, down to alpha = 1e-8 and on both axes
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import normalization_mp

        rng = np.random.default_rng(18)
        points = [(0.0, 0.0), (0.0, 0.7), (1.3, 0.0),
                  *zip(10.0 ** rng.uniform(-8.0, 0.4, 40), rng.uniform(0.0, 1.2, 40))]
        with mpmath.workdps(50):
            for a, b in points:
                nd = normalization(SystemParams(a, b))
                for s, lam in ((1, nd.lambda_plus), (-1, nd.lambda_minus)):
                    n_ref, lam_ref = normalization_mp(a, b, s)
                    assert abs(nd.n(s) - n_ref) <= 2e-15 * n_ref
                    assert abs(lam - lam_ref) <= 1e-14 * max(abs(lam_ref), INV_4SQRT2PI)

    def test_lambda_is_the_spin_green_value_exactly(self):
        # both Lambda_s come from one (G_2^ren, G_1) pair at i and equal the
        # per-spin route bit for bit, on both axes alpha = 0 and beta = 0 too
        rng = np.random.default_rng(61)
        points = [(0.0, 0.0), *((0.0, b) for b in rng.uniform(0.0, 1.2, 20)),
                  *((a, 0.0) for a in rng.uniform(0.0, 2.2, 20)),
                  *zip(rng.uniform(0.0, 2.2, 200), rng.uniform(0.0, 1.2, 200))]
        for a, b in points:
            p = SystemParams(a, b)
            nd = normalization(p)
            assert nd.lambda_plus == gs_ren_origin(p, 1, 1j).real - INV_4SQRT2PI
            assert nd.lambda_minus == gs_ren_origin(p, -1, 1j).real - INV_4SQRT2PI

    def test_r_map_consistency(self):
        # at beta = 0, alpha = 2 the coupling v with omega(v) = 0 equals
        # -(arcosh(3) - 2 sqrt2)/(2 sqrt2 + pi)
        p = SystemParams(2.0, 0.0)
        nd = normalization(p)
        v = -nd.n_plus ** 2 * nd.lambda_plus
        assert v == pytest.approx(-RMAP, rel=1e-12)
        assert abs(RMAP) == pytest.approx(0.17850, abs=1e-5)


class TestGammaFromCR:
    def test_scalar(self):
        g = gamma_from_cr(Hermitian2.scalar(2.0), Hermitian2.scalar(0.3))
        assert g.pp == pytest.approx(-0.5 - 0.3, rel=1e-15)
        assert g.mm == pytest.approx(-0.8, rel=1e-15)
        assert g.pm == 0

    def test_diagonal(self):
        g = gamma_from_cr(Hermitian2(1.0, -1.0), Hermitian2(0.0, 0.0))
        assert (g.pp, g.mm) == (-1.0, 1.0)

    def test_large_c_approaches_minus_r(self):
        r = Hermitian2(0.2, -0.1, 0.05j)
        for c in (1e8, -1e8):
            g = gamma_from_cr(Hermitian2.scalar(c), r)
            assert g.pp == pytest.approx(-r.pp, abs=1e-7)
            assert g.mm == pytest.approx(-r.mm, abs=1e-7)
            assert abs(g.pm + r.pm) < 1e-7

    def test_zero_c(self):
        with pytest.raises(SingularMatrixError, match="trivial"):
            gamma_from_cr(Hermitian2.scalar(0.0), Hermitian2.scalar(0.1))

    def test_singular_c(self):
        with pytest.raises(SingularMatrixError, match="det C"):
            gamma_from_cr(Hermitian2(1.0, 1.0, 1.0), Hermitian2.scalar(0.0))

    def test_off_diagonal_inverse(self):
        c = Hermitian2(1.0, 2.0, 0.3 + 0.4j)
        g = gamma_from_cr(c, Hermitian2.scalar(0.0))
        total = -np.linalg.inv([[c.pp, c.pm], [c.pm.conjugate(), c.mm]])
        assert np.allclose([[g.pp, g.pm], [g.pm.conjugate(), g.mm]], total, atol=1e-14)


class TestEffectiveCouplings:
    def test_omega_zero_by_construction(self):
        p = SystemParams(0.7, 0.4)
        nd = normalization(p)
        gm = Hermitian2(pp=-nd.n_plus ** 2 * nd.lambda_plus,
                        mm=-nd.n_minus ** 2 * nd.lambda_minus)
        eff = effective_couplings(p, gm)
        assert eff.omega_plus == pytest.approx(0.0, abs=1e-13)
        assert eff.omega_minus == pytest.approx(0.0, abs=1e-13)
        assert eff.gamma == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0, 1))
            wp, wm, g = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0, 3)
            eff = effective_couplings(p, gamma_for_couplings(p, wp, wm, g))
            assert eff.omega_plus == pytest.approx(wp, abs=1e-12)
            assert eff.omega_minus == pytest.approx(wm, abs=1e-12)
            assert eff.gamma == pytest.approx(g, abs=1e-12)

    def test_free_map_and_root_trend(self):
        # alpha = beta = 0, Gamma = v*I: omega = (v-1)/sqrt(2) and the bound
        # state sits at E = -omega^2 for v < 1
        p = SystemParams(0.0, 0.0)
        for v in (0.5, 0.0, -1.0):
            eff = effective_couplings(p, Hermitian2.scalar(v))
            w = (v - 1.0) / math.sqrt(2.0)
            assert eff.omega_plus == pytest.approx(w, rel=1e-12)
            e = -w * w
            assert abs(secular_det(p, Hermitian2.scalar(v), complex(e))) < 1e-12


class TestKreinQ:
    def test_unit_imaginary(self):
        for a, b in ((0.0, 0.0), (0.5, 0.5), (2.0, 0.5), (1.0, 0.3)):
            q = krein_q(SystemParams(a, b), 1j)
            assert abs(q.q_pp - 1j) < 1e-10 and abs(q.q_mm - 1j) < 1e-10
            q = krein_q(SystemParams(a, b), -1j)
            assert abs(q.q_pp + 1j) < 1e-10 and abs(q.q_mm + 1j) < 1e-10

    def test_classical_limit(self):
        q = krein_q(SystemParams(0.0, 0.0), -2.0)
        assert q.q_pp == pytest.approx(-1.0, rel=1e-13)
        assert q.q_mm == pytest.approx(-1.0, rel=1e-13)

    def test_nevanlinna(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0, 1))
            z = complex(rng.uniform(-6, 6), rng.uniform(1e-3, 5))
            q = krein_q(p, z)
            assert q.q_pp.imag > 0.0 and q.q_mm.imag > 0.0

    def test_immutable_named_pair(self):
        p = SystemParams(2.0, 0.5)
        q = krein_q(p, -3.0)
        with pytest.raises(AttributeError):
            q.q_pp = 0.0
        with pytest.raises(AttributeError):
            q.q_mm = 0.0
        assert (q.entry(1), q.entry(-1)) == (q.q_pp, q.q_mm) == tuple(q)
        assert q.q_pp != q.q_mm
        assert repr(KreinQ(1j, 2j)) == "KreinQ(q_pp=1j, q_mm=2j)"
        assert repr(q) == f"KreinQ(q_pp={q.q_pp!r}, q_mm={q.q_mm!r})"
        for z in (-3.0, complex(-3.0), -1 + 1j, 1j):
            assert type(krein_q(p, z)) is KreinQ, z

    def test_entry_types(self):
        # floats below the band, complex numbers off the real axis
        p = SystemParams(2.0, 0.5)
        assert all(type(v) is float for v in krein_q(p, -3.0))
        assert all(type(v) is float for v in krein_q(p, complex(-3.0)))
        for z in (-1 + 1j, 1j, -3.0 - 1e-3j):
            assert all(type(v) is complex for v in krein_q(p, z))

    def test_real_below_edge(self):
        p = SystemParams(1.0, 0.5)
        for e in (-0.7, -2.0, -9.0):
            q = krein_q(p, complex(e))
            assert q.q_pp.imag == 0.0 and q.q_mm.imag == 0.0

    def test_band_rejection(self):
        # every real z on [-Sigma, inf) is refused, in each band and at its ends
        p = SystemParams(0.3, 0.5)
        for e in (-threshold_sigma(p), -0.2, 0.0, 0.3, 0.5, 2.0):
            with pytest.raises(DomainError, match="continuous band"):
                krein_q(p, e)
            with pytest.raises(DomainError, match="continuous band"):
                secular_det(p, Hermitian2.scalar(0.1), e)

    def test_off_axis_matches_mpmath(self):
        # small alpha puts |alpha xi| just above G_1's series switch, where an
        # artanh that loses eps/|w| is off by up to 1e-11
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import q_mp

        rng = np.random.default_rng(29)
        with mpmath.workdps(50):
            for _ in range(60):
                a, b = 10.0 ** rng.uniform(-4.0, -1.0), rng.uniform(0.05, 2.0)
                p = SystemParams(a, b)
                z = cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-3.1, 3.1))
                q = krein_q(p, z)
                for s in (1, -1):
                    ref = q_mp(a, b, s, z)
                    assert abs(q.entry(s) - ref) <= 5e-14 * abs(ref), (a, b, z, s)

    @staticmethod
    def _real_axis_points(n=400, seed=31):
        """Seeded (params, E) below -Sigma: CaseA, CaseB, CaseC, the seam and
        alpha in [1e-6, 1e-3] in turn, alternately 1e-2 to 1e2 and 1e-6 to
        1e-2 times max(1, Sigma) below the edge."""
        rng = np.random.default_rng(seed)
        out = []
        for k in range(n):
            kind = ("A", "B", "C", "seam", "small")[k % 5]
            b = float(rng.uniform(0.05, 2.0))
            if kind == "A":
                a = 0.0
            elif kind == "B":
                a = math.sqrt(2.0 * b) * float(rng.uniform(0.05, 0.95))
            elif kind == "C":
                a = math.sqrt(2.0 * b) * float(rng.uniform(1.05, 3.0))
            elif kind == "seam":
                a = float(rng.uniform(0.3, 2.0))
                b = a * a / 2.0
            else:
                a = float(10.0 ** rng.uniform(-6.0, -3.0))
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            near = k // 5 % 2 == 1
            d = float(10.0 ** (rng.uniform(-6.0, -2.0) if near else rng.uniform(-2.0, 2.0)))
            out.append((near, p, -sigma - d * max(1.0, sigma)))
        return out

    def test_real_axis_matches_mpmath(self):
        # below the band Q is real and computed in float arithmetic; next to
        # the edge the error is the conditioning of artanh by its pole.  The
        # small alpha put |alpha xi| on both sides of G_1's series switch
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import q_mp

        worst = {False: 0.0, True: 0.0}
        with mpmath.workdps(50):
            for near, p, e in self._real_axis_points():
                q = krein_q(p, complex(e))
                for s in (1, -1):
                    got = q.entry(s)
                    assert type(got) is float
                    ref = q_mp(p.alpha, p.beta, s, e)
                    worst[near] = max(worst[near], float(abs(got - ref) / abs(ref)))
        assert worst[False] <= 1e-13 and worst[True] <= 1.5e-11, worst

    def test_formula_equivalence(self):
        # 4 pi (Gamma~_ss - Q_ss/N_s^2) = omega_s + sqrt(-z) - 4 pi G_s^ren(0;z)
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0.05, 1))
            gm = Hermitian2(rng.uniform(-1, 1), rng.uniform(-1, 1),
                            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            nd = normalization(p)
            eff = effective_couplings(p, gm)
            if rng.random() < 0.5:
                z = complex(rng.uniform(-4, 4), rng.uniform(0.1, 3))
            else:
                z = complex(-threshold_sigma(p) - rng.uniform(0.05, 4))
            q = krein_q(p, z)
            for s, gss, n, w in ((1, gm.pp, nd.n_plus, eff.omega_plus),
                                 (-1, gm.mm, nd.n_minus, eff.omega_minus)):
                lhs = FOUR_PI * (gss / n ** 2 - q.entry(s) / n ** 2)
                rhs = w + cmath.sqrt(-z) - FOUR_PI * gs_ren_origin(p, s, z)
                assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


class TestKreinQGolden:
    @pytest.mark.parametrize("point", KREIN_Q_GOLDEN, ids=lambda pt: pt["name"])
    def test_values_match_the_golden_bit_for_bit(self, point):
        p = SystemParams(float.fromhex(point["alpha"]), float.fromhex(point["beta"]))
        for row in point["rows"]:
            z = complex(float.fromhex(row[0]), float.fromhex(row[1]))
            q = krein_q(p, z)
            assert all(type(v) is _value_type(z) for v in q), z
            assert [*_bits(q.q_pp), *_bits(q.q_mm)] == row[2:], (point["name"], z)

    def test_covers_every_kind_of_point(self):
        assert [pt["name"] for pt in KREIN_Q_GOLDEN] == [
            "CaseA", "CaseB", "CaseC", "seam", "beta0", "free", "alpha1e-5", "sigma_gt_1"]
        sigmas = []
        for pt in KREIN_Q_GOLDEN:
            p = SystemParams(float.fromhex(pt["alpha"]), float.fromhex(pt["beta"]))
            sigmas.append(threshold_sigma(p))
            # the first row is the first float outside the pole guard, or
            # below a band edge that has none: its upper neighbour raises
            with pytest.raises(DomainError):
                krein_q(p, math.nextafter(float.fromhex(pt["rows"][0][0]), math.inf))
        assert sigmas[-1] > 1.0


class TestQScale:
    """krein_q keeps N_s^2 and Lambda_s on the parameter point after its
    first evaluation there; the point's value semantics do not change."""

    def test_later_evaluations_skip_the_cache(self, monkeypatch):
        calls, miss = [], extension._normalization_miss
        monkeypatch.setattr(extension, "_normalization_miss",
                            lambda q: calls.append(q) or miss(q))
        p = SystemParams(2.0, 0.5)
        krein_q(p, -3.0)
        assert calls == [p]
        for z in (-4.0, -2.0 + 1j, 1j, -1e3):
            krein_q(p, z)
        assert calls == [p]
        nd = normalization(p)
        assert calls == [p]
        assert p._q_scale == (nd.n_plus ** 2, nd.n_minus ** 2,
                              nd.lambda_plus, nd.lambda_minus)

    def test_a_failed_normalization_stores_nothing(self, monkeypatch):
        def fail(q):
            raise DomainError("normalization failed")
        monkeypatch.setattr(extension, "_normalization_miss", fail)
        p = SystemParams(2.0, 0.5)
        for _ in range(2):
            with pytest.raises(DomainError, match="normalization failed"):
                krein_q(p, -3.0)
            with pytest.raises(DomainError, match="normalization failed"):
                normalization(p)
            assert p._q_scale is None and p._normalization is None

    def test_a_fresh_equal_point_gives_the_same_bits(self):
        used = SystemParams(0.8, 0.3)
        zs = [-0.31, -0.5, -7.0, -2.0 + 0.5j, 1j, -0.3 - 1e-8j]
        first = [krein_q(used, z) for z in zs]
        again = [krein_q(used, z) for z in zs]
        fresh = [krein_q(SystemParams(0.8, 0.3), z) for z in zs]
        for a, b, c in zip(first, again, fresh):
            assert ([_bits(v) for v in a] == [_bits(v) for v in b]
                    == [_bits(v) for v in c])

    def test_value_semantics_are_unchanged(self):
        p, fresh = SystemParams(1.0, 0.5), SystemParams(1.0, 0.5)
        before = (hash(p), repr(p), dataclasses.fields(p))
        krein_q(p, -2.0)
        assert p._q_scale is not None and fresh._q_scale is None
        assert p == fresh and hash(p) == hash(fresh)
        assert (hash(p), repr(p), dataclasses.fields(p)) == before
        assert repr(p) == "SystemParams(alpha=1.0, beta=0.5)"
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
        assert _bits(krein_q(back, -2.0).q_pp) == _bits(krein_q(p, -2.0).q_pp)

    def test_normalization_reads_the_record_kept_on_the_point(self, monkeypatch):
        p = SystemParams(0.4, 0.5)
        krein_q(p, -1.0)
        record = p._normalization
        assert isinstance(record, extension.NormalizationData)
        calls, miss = [], extension._normalization_miss
        monkeypatch.setattr(extension, "_normalization_miss",
                            lambda q: calls.append(q) or miss(q))
        assert normalization(p) is record and calls == []
        fresh = SystemParams(0.4, 0.5)
        again = normalization(fresh)
        assert calls == [fresh] and again is not record and again == record


class TestFloatRange:
    """Q and dQ/dE at the ends of float range, where E^2 or (beta/z)^2
    overflows, against 50-digit mpmath; beyond it DomainError."""

    P = SystemParams(2.0, 0.5)

    @pytest.mark.parametrize("z", [-1e200, -1.5e154, -2.8e306, 1e-160j,
                                   (-1 + 1j) * 1e-200, 1e-300j, 1e300j])
    def test_krein_q_matches_mpmath(self, z):
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import q_mp

        q = krein_q(self.P, z)
        with mpmath.workdps(50):
            for s in (1, -1):
                ref = q_mp(self.P.alpha, self.P.beta, s, z)
                assert abs(q.entry(s) - ref) <= 1e-15 * abs(ref), (z, s)

    @pytest.mark.parametrize("e", [-1e160, -1e200, -2.8e306])
    def test_phi_norm_sq_matches_mpmath(self, e):
        # below the band the squared norm is dQ_ss/dE
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import q_mp

        with mpmath.workdps(50):
            for s in (1, -1):
                ref = mpmath.diff(lambda t: q_mp(self.P.alpha, self.P.beta, s, t),
                                  mpmath.mpf(e), h=abs(e) * mpmath.mpf(10) ** -20)
                got = phi_norm_sq(self.P, s, e)
                assert abs(got - ref) <= 1e-15 * abs(ref), (e, s)

    @pytest.mark.parametrize("z", [-2.9e306, -1e308, 1e308 + 1j, -1e308j,
                                   complex(1.7e308, 1.7e308)])
    def test_beyond_float_range_raises(self, z):
        with pytest.raises(DomainError, match="beyond the float range of xi"):
            krein_q(self.P, z)
        with pytest.raises(DomainError, match="beyond the float range of xi"):
            phi_norm_sq(self.P, 1, z)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.3])
    @pytest.mark.parametrize("e", [-math.inf, -1e308])
    def test_every_real_axis_entry_raises_beyond_float_range(self, alpha, beta, e):
        # the same rule at beta = 0, where xi = 1/(2 sqrt(-E)) needs no E^2
        p = SystemParams(alpha, beta)
        eff = EffectiveCouplings(0.5, -0.25, 0.1)
        calls = [lambda: xi(p, e), lambda: g1_origin(p, e), lambda: g2ren_origin(p, e),
                 lambda: krein_q(p, e), lambda: secular_det(p, Hermitian2.scalar(0.1), e),
                 lambda: secular_function(p, eff, e)]
        for s in (1, -1):
            calls += [lambda s=s: gs_ren_origin(p, s, e), lambda s=s: phi_norm_sq(p, s, e)]
        for call in calls:
            with pytest.raises(DomainError, match="beyond the float range of xi"):
                call()


class TestPoleGuard:
    """Every real-axis entry rejects energies within the stored guard of -Sigma."""

    # CaseC with Sigma > 1 and < 1, the seam, and beta = 0
    POLES = [SystemParams(2.0, 0.5), SystemParams(0.8, 0.3),
             SystemParams(1.0, 0.5), SystemParams(1.0, 0.0)]
    # CaseB, CaseA and the free case: Q is finite up to -Sigma
    NO_POLE = [SystemParams(0.4, 0.5), SystemParams(0.0, 0.5), SystemParams(0.0, 0.0)]

    @staticmethod
    def entries(p: SystemParams, e: float):
        z = complex(e)
        eff = EffectiveCouplings(0.5, -0.25, 0.1)
        return {
            "krein_q": lambda: krein_q(p, z),
            "g1_origin": lambda: g1_origin(p, z),
            "g2ren_origin": lambda: g2ren_origin(p, z),
            "gs_ren_origin+": lambda: gs_ren_origin(p, 1, z),
            "gs_ren_origin-": lambda: gs_ren_origin(p, -1, z),
            "secular_function": lambda: secular_function(p, eff, e),
            "phi_norm_sq+": lambda: phi_norm_sq(p, 1, z),
            "phi_norm_sq-": lambda: phi_norm_sq(p, -1, z),
        }

    @pytest.mark.parametrize("p", POLES, ids=repr)
    def test_inside_the_guard_raises(self, p):
        sigma, guard = threshold_sigma(p), p._pole_guard
        assert guard > 0.0
        for side in (-0.5, 0.5):
            for name, call in self.entries(p, -sigma + side * guard).items():
                with pytest.raises(PoleError, match="diverges at z = -Sigma"):
                    call()

    @pytest.mark.parametrize("p", POLES + NO_POLE, ids=repr)
    def test_on_the_band_outside_the_guard_raises_domain_error(self, p):
        # one rule on the real axis: DomainError, not PoleError, everywhere
        # on [-Sigma, inf) outside the guard, which is empty without a pole
        sigma, guard, b = threshold_sigma(p), p._pole_guard, p.beta
        points = [-sigma + 2.0 * guard, 0.0, b, 2.0 * b + 1.0]
        if -b > -sigma + 2.0 * guard:
            points.append(-b)
        for e in points:
            for name, call in self.entries(p, e).items():
                with pytest.raises(DomainError, match="continuous band") as info:
                    call()
                assert not isinstance(info.value, PoleError), (name, e)

    @pytest.mark.parametrize("p", POLES, ids=repr)
    def test_outside_the_guard_evaluates(self, p):
        e = -threshold_sigma(p) - 2.0 * p._pole_guard
        for call in self.entries(p, e).values():
            call()

    def test_real_axis_q_reads_the_stored_threshold(self, monkeypatch):
        calls = []
        closed_form = model._threshold
        monkeypatch.setattr(model, "_threshold",
                            lambda a, b: calls.append((a, b)) or closed_form(a, b))
        p = SystemParams(2.0, 0.5)
        assert calls == [(2.0, 0.5)]
        normalization(p)                    # may build its own SystemParams once
        calls.clear()
        for e in np.linspace(-9.0, -1.1, 100):
            krein_q(p, complex(e))
        assert calls == []


def _bits(c: complex) -> tuple[str, str]:
    # hex keeps the sign of a zero and tells every float apart
    return c.real.hex(), c.imag.hex()


def _value_type(z: complex) -> type:
    # below the band every value is a float, off the axis a complex
    return float if z.imag == 0.0 else complex


class TestPublicValuesAgree:
    """krein_q and each Green value check z once and share one kernel per
    Green value, so they agree bit for bit and in type, on the real axis and
    off it."""

    PARAMS = [SystemParams(2.0, 0.5), SystemParams(0.4, 0.5), SystemParams(0.0, 0.5),
              SystemParams(1.3, 0.0), SystemParams(0.0, 0.0), SystemParams(1.0, 0.5),
              SystemParams(1e-5, 0.3)]

    @staticmethod
    def points(p: SystemParams, seed: int) -> list[complex]:
        rng = np.random.default_rng(seed)
        sigma, guard = threshold_sigma(p), p._pole_guard
        # just outside the pole guard, or the first float below a band edge
        # that has none
        real = [math.nextafter(-sigma - 2.0 * guard, -math.inf),
                -sigma - 1e-9 * max(1.0, sigma), -sigma - 1.0]
        real += list(-sigma - rng.exponential(2.0, 30))
        cplx = [complex(x, y) for x, y in zip(rng.uniform(-6.0, 6.0, 30),
                                             rng.choice([-1.0, 1.0], 30)
                                             * 10.0 ** rng.uniform(-8.0, 1.0, 30))]
        return [complex(e) for e in real] + cplx + [1j, complex(-sigma, 1e-12)]

    @pytest.mark.parametrize("seed,p", enumerate(PARAMS), ids=repr)
    def test_krein_q_is_its_channel_formula(self, seed, p):
        nd = normalization(p)
        for z in self.points(p, seed):
            q = krein_q(p, z)
            for s, lam in ((1, nd.lambda_plus), (-1, nd.lambda_minus)):
                sq = math.sqrt(-z.real) if z.imag == 0.0 else cmath.sqrt(-z)
                want = nd.n(s) ** 2 * (gs_ren_origin(p, s, z) - sq / FOUR_PI - lam)
                assert type(q.entry(s)) is type(want) is _value_type(z), (p, z, s)
                assert _bits(q.entry(s)) == _bits(want), (p, z, s)

    @pytest.mark.parametrize("seed,p", enumerate(PARAMS), ids=repr)
    def test_gs_is_g2_minus_s_beta_g1(self, seed, p):
        for z in self.points(p, seed):
            g2, g1 = g2ren_origin(p, z), g1_origin(p, z)
            assert type(g2) is type(g1) is _value_type(z), (p, z)
            for s in (1, -1):
                got, want = gs_ren_origin(p, s, z), g2 - s * p.beta * g1
                assert type(got) is _value_type(z), (p, z, s)
                assert _bits(got) == _bits(want), (p, z, s)

    @pytest.mark.parametrize("p", PARAMS[:2] + PARAMS[3:4], ids=repr)
    def test_spin_is_checked_before_z(self, p):
        sigma = threshold_sigma(p)
        for z in (complex(-sigma + 0.5 * p._pole_guard), complex(-sigma + 1.0),
                  complex(math.nan), complex(-sigma - 1.0)):
            for call in (lambda: gs_ren_origin(p, 0, z), lambda: phi_norm_sq(p, 2, z)):
                with pytest.raises(DomainError, match="spin index"):
                    call()


class TestSecularDet:
    def test_constructed_identity_shift(self):
        p = SystemParams(0.8, 0.6)
        z = -threshold_sigma(p) - 1.5
        q = krein_q(p, complex(z))
        gm = Hermitian2(q.q_pp.real + 1.0, q.q_mm.real + 1.0)
        assert secular_det(p, gm, complex(z)) == pytest.approx(1.0, rel=1e-12)

    def test_free_analytic_root(self):
        # alpha = beta = 0, Gamma = g*I, g < 1: root at z = -(g-1)^2/2
        p = SystemParams(0.0, 0.0)
        for g in (0.3, -0.7):
            z = -((g - 1.0) ** 2) / 2.0
            assert abs(secular_det(p, Hermitian2.scalar(g), complex(z))) < 1e-12


class TestPhiNorm:
    def test_orthonormal_at_i(self):
        for a, b in ((0.0, 0.0), (0.8, 0.4), (2.0, 0.5)):
            for s in (1, -1):
                assert phi_norm_sq(SystemParams(a, b), s, 1j) == pytest.approx(1.0, abs=1e-12)

    def test_imq_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0, 1))
            z = complex(rng.uniform(-4, 2), rng.uniform(0.1, 3))
            q = krein_q(p, z)
            for s in (1, -1):
                assert q.entry(s).imag / z.imag == pytest.approx(
                    phi_norm_sq(p, s, z), rel=1e-12)

    def test_boundary_limit_continuity(self):
        # closed real-line form vs the Im z -> 0 limit of the complex route
        for a, b in ((0.0, 0.5), (1.0, 0.6), (2.0, 0.5), (1.0, 0.0), (2.0, 0.0)):
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            for off in (0.3, 1.7):
                e = -sigma - off
                for s in (1, -1):
                    closed = phi_norm_sq(p, s, complex(e))
                    limit = phi_norm_sq(p, s, complex(e, 1e-8))
                    assert abs(closed - limit) < 1e-6 * (1.0 + abs(closed))

    def test_domain_error_on_band(self):
        p = SystemParams(0.5, 0.5)
        with pytest.raises(DomainError):
            phi_norm_sq(p, 1, -0.3)

    def test_rejects_bad_spin(self):
        p = SystemParams(0.8, 0.4)
        for s in (0, 2):
            for z in (-2.0, 1j):
                with pytest.raises(DomainError):
                    phi_norm_sq(p, s, z)


class TestExtensionKind:
    def test_values(self):
        assert ExtensionKind.TRIVIAL.value == "trivial"
        assert ExtensionKind.FRIEDRICHS.value == "friedrichs"
