"""The first touch of a parameter point, bit for bit.

A miss of the normalization cache takes G_2^ren(0; i) and G_1(0; i) from one
xi and one artanh, and a miss of the large-coupling cache (and the band
scan's regime gate) reads the CaseC tag and nu from the bare floats.  Both
must equal the routes they replaced, written out below: the public Green
values at z = i on a fresh ``SystemParams``, and ``classify_regime``'s nu.
"""

import math

import numpy as np
import pytest

from rashba_contact import (DomainError, EffectiveCouplings, Regime, RegimeError,
                            RegimeInfo, SystemParams, classify_regime,
                            forbidden_band_scan, g1_origin, g2ren_origin, xi)
from rashba_contact import extension, spectrum
from rashba_contact.greens import _SMALL_ARG, INV_4SQRT2PI

EFF = EffectiveCouplings(0.5, -0.25, 0.1)


def _ulps(x: float, k: int) -> list[float]:
    """x and the k floats on either side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _series_switch_alphas(beta: float) -> list[float]:
    """alpha around |alpha*xi(i)| = _SMALL_ARG, where G_1 leaves its series."""
    x = abs(xi(SystemParams(0.0, beta), 1j))
    return _ulps(_SMALL_ARG / x, 3)


def _points() -> list[tuple[float, float]]:
    rng = np.random.default_rng(3201)
    a = 10.0 ** rng.uniform(-10.0, 4.0, 2000)
    b = 10.0 ** rng.uniform(-10.0, 4.0, 2000)
    a[rng.random(2000) < 0.05] = 0.0
    b[rng.random(2000) < 0.05] = 0.0
    pts = [(float(x), float(y)) for x, y in zip(a, b)]
    pts += [(0.0, 0.0), (0.0, 0.5), (1.5, 0.0), (1e-300, 0.0), (0.0, 1e-300)]
    pts += [(x, b) for b in (0.0, 0.3, 2.0) for x in _series_switch_alphas(b)]
    for b in (0.5, 0.3, 1e-6, 7.0):
        seam = math.sqrt(2.0 * b)          # alpha^2 = 2 beta, and nu = 1
        pts += [(x, b) for x in _ulps(seam, 3)]
        pts += [(seam * (1.0 + t), b) for t in (1e-15, 1e-12, 1e-9, 1e-6)]
    pts += [(1.3, y) for y in _ulps(1.3 * 1.3 / 2.0, 3)]
    pts += [(0.0, 1e300), (1.0, 1e300), (2e150, 1e300), (1.0, 1e-310)]
    return pts


POINTS = _points()


def _old_normalization(a: float, b: float) -> tuple[float, float, float, float]:
    """(N_+, N_-, Lambda_+, Lambda_-) through g2ren_origin and g1_origin at i."""
    p = SystemParams(a, b)
    g2, g1 = g2ren_origin(p, 1j), g1_origin(p, 1j)
    n, lam = {}, {}
    for s in (1, -1):
        g = g2 - s * b * g1
        inv_sq = g.imag + INV_4SQRT2PI
        if inv_sq <= 0.0:
            raise DomainError(f"N^-2 = {inv_sq} <= 0")
        n[s] = 1.0 / math.sqrt(inv_sq)
        lam[s] = g.real - INV_4SQRT2PI
    return n[1], n[-1], lam[1], lam[-1]


def _old_regime(p: SystemParams) -> RegimeInfo:
    """classify_regime as it was written before the rule moved to one helper."""
    a, b, sigma = p.alpha, p.beta, p._sigma
    if a == 0.0:
        return RegimeInfo(sigma=sigma, regime=Regime.CASE_A)
    if b == 0.0:
        return RegimeInfo(sigma=sigma, regime=Regime.UNSUPPORTED)
    if a < math.sqrt(2.0 * b):
        return RegimeInfo(sigma=sigma, regime=Regime.CASE_B)
    return RegimeInfo(sigma=sigma, regime=Regime.CASE_C, nu=a / math.sqrt(2.0 * b))


def _hex(v: float | None) -> str | None:
    return None if v is None else float.hex(v)


def test_the_points_cover_every_edge():
    regimes = {_old_regime(SystemParams(a, b)).regime for a, b in POINTS}
    assert regimes == set(Regime)
    sides = {abs(a * xi(SystemParams(a, b), 1j)) < _SMALL_ARG for a, b in POINTS if a > 0.0}
    assert sides == {True, False}
    nus = [_old_regime(SystemParams(a, b)).nu for a, b in POINTS]
    assert 1.0 in nus and min(v for v in nus if v and v > 1.0) < 1.0 + 1e-15
    assert len(POINTS) >= 2000


def test_normalization_miss_equals_the_green_values_at_i():
    miss = extension._normalization_cached.__wrapped__
    for a, b in POINTS:
        try:
            want = _old_normalization(a, b)
        except DomainError:
            with pytest.raises(DomainError):
                miss(a, b)
            continue
        nd = miss(a, b)
        got = (nd.n_plus, nd.n_minus, nd.lambda_plus, nd.lambda_minus)
        assert [_hex(v) for v in got] == [_hex(v) for v in want], (a, b)


def test_context_miss_and_band_gate_read_the_old_nu():
    miss = spectrum._large_coupling_cached.__wrapped__
    for a, b in POINTS:
        p = SystemParams(a, b)
        old = _old_regime(p)
        info = classify_regime(p)
        assert info == old and _hex(info.nu) == _hex(old.nu), (a, b)
        if old.regime is not Regime.CASE_C:
            with pytest.raises(RegimeError):
                miss(a, b)
            with pytest.raises(RegimeError):
                forbidden_band_scan(p, EFF)
        elif not math.isfinite(old.nu * old.nu):
            with pytest.raises(DomainError, match="nu\\^2 overflows"):
                miss(a, b)
        else:
            assert _hex(miss(a, b).nu) == _hex(old.nu), (a, b)
