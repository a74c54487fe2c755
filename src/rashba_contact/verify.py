"""Named verification checks behind the ``verify`` CLI command.

This module is the one home of every acceptance criterion: its grids, seeds
and tolerances live here, and ``tests/test_acceptance.py`` runs these checks.

Two suites: "paper" pins the reference constants of the model (distinguished
zeros, limiting eigenvalues, the obstruction maximum); "invariants" exercises
structural identities (normalization of Q at +-i, the Herglotz property, norm
identities, cross-route agreement with the quadrature oracle, the band-edge
identities, the Theorem-1 classification, the perturbation-order
behaviour and the root count from the band edge).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import oracle, perturbation, spectrum
from .extension import (EffectiveCouplings, Hermitian2, effective_couplings,
                        gamma_for_couplings, krein_q, normalization, phi_norm_sq)
from .greens import _xi_real
from .model import SystemParams, series_validity, threshold_sigma

SUITES = ("paper", "invariants", "all")


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    expected: float
    tol: float
    detail: str = ""


def _near(name, measured, expected, tol, detail="") -> CheckResult:
    return CheckResult(name=name, passed=bool(abs(measured - expected) <= tol),
                       measured=float(measured), expected=float(expected),
                       tol=float(tol), detail=detail)


def _bound(name, measured, bound, detail="") -> CheckResult:
    """Pass iff measured <= bound."""
    return CheckResult(name=name, passed=bool(measured <= bound),
                       measured=float(measured), expected=float(bound),
                       tol=0.0, detail=detail or "pass iff measured <= expected")


# --------------------------------------------- reference-constant suite

def check_threshold_17_16() -> CheckResult:
    s = threshold_sigma(SystemParams(2.0, 0.5))
    return _near("threshold-at-(2,1/2)", s, 17.0 / 16.0, 0.0)


def check_large_coupling_constants() -> list[CheckResult]:
    ctx1 = spectrum.large_coupling_context(SystemParams(math.sqrt(2.0 * 0.5), 0.5))
    out = [_near("x_nu1-at-nu-1", ctx1.x_nu_1, 0.76538, 5e-5),
           _near("E_nu1-over-beta-at-nu-1", ctx1.e_nu_1 / 0.5, 1.14643, 5e-5)]
    beta = 2.0 ** 2 / (2.0 * 1e6 ** 2)   # alpha = 2 gives nu = 1e6
    ctx2 = spectrum.large_coupling_context(SystemParams(2.0, beta))
    out.append(_near("x_nu1-at-nu-1e6", ctx2.x_nu_1, 1.16234, 1e-4))
    return out


def check_embedded_074() -> CheckResult:
    params = SystemParams(2.0, 1e-5)
    gm = gamma_for_couplings(params, 1.0, 0.0, 0.0)   # omega_- = 0, gamma = 0
    eff = effective_couplings(params, gm)
    roots = spectrum.embedded_large_alpha(params, eff)
    e = roots[-1].energy if roots else math.nan
    return _near("embedded-energy-at-large-nu", e, 0.74018, 1e-3)


def check_symmetric_eigenvalue() -> CheckResult:
    """The beta = 0 root at omega_+ = omega_- = 0: a double eigenvalue, both
    roots of the discrete solve at one energy."""
    params = SystemParams(2.0, 0.0)
    roots = spectrum.discrete_eigenvalues(params, gamma_for_couplings(params, 0.0, 0.0, 0.0))
    e = roots[0].energy if len(roots) == 2 and roots[0].energy == roots[1].energy else math.nan
    return _near("symmetric-root-alpha-2", e, -1.43923, 1e-4)


def check_r_map_constant() -> CheckResult:
    """|v| for the scalar coupling v = -N_+^2 Lambda_+ that makes omega_+ = 0."""
    nd = normalization(SystemParams(2.0, 0.0))
    return _near("r-map-constant", abs(nd.n_plus ** 2 * nd.lambda_plus), 0.17850, 1e-5)


def check_two_channel_pair() -> list[CheckResult]:
    params = SystemParams(2.0, 0.5)
    roots = spectrum.discrete_eigenvalues(params, Hermitian2.scalar(0.17850))
    es = sorted(r.energy for r in roots)
    if len(es) != 2:
        bad = CheckResult("two-channel-pair-count", False, float(len(es)), 2.0, 0.0)
        return [bad]
    return [_near("two-channel-pair-low", es[0], -1.60313, 1e-3),
            _near("two-channel-pair-high", es[1], -1.37956, 1e-3)]


def check_cnd0_max() -> list[CheckResult]:
    val, arg = perturbation.cnd0_max()
    return [_near("cnd0-max-value", val, -0.14874, 1e-4),
            _near("cnd0-max-location", arg, 1.00553, 1e-3)]


# ----------------------------------------------------------- invariants suite

def check_q_unit_grid() -> CheckResult:
    """Q(+-i) = +-i, which holds where Sigma <= 1: every grid point must have it."""
    pts = [(0.0, 0.0)] + [(float(a), float(b)) for a in np.linspace(0.0, 1.4, 5)
                          for b in np.linspace(0.04, 1.0, 5)]
    worst, sigma_max = 0.0, 0.0
    for a, b in pts:
        params = SystemParams(a, b)
        sigma_max = max(sigma_max, threshold_sigma(params))
        for z in (1j, -1j):
            q = krein_q(params, z)
            worst = max(worst, abs(q.q_pp - z), abs(q.q_mm - z))
    return CheckResult("q-at-unit-imaginary", worst <= 1e-10 and sigma_max <= 1.0 + 1e-12,
                       worst, 1e-10, 0.0,
                       detail=f"{len(pts)} parameter points, largest Sigma {sigma_max:.6g}; "
                              "pass iff measured <= expected and Sigma <= 1 at every point")


def check_classical_q() -> CheckResult:
    params = SystemParams(0.0, 0.0)
    worst = 0.0
    zs = [complex(x) for x in np.linspace(-10.0, -0.01, 20)]
    rng = np.random.default_rng(2)
    zs += [complex(rng.uniform(-4, 4), rng.uniform(0.1, 4) * (1 if k % 2 else -1))
           for k in range(10)]
    for z in zs:
        q = krein_q(params, z)
        ref = 1.0 - cmath.sqrt(-2.0 * z)
        worst = max(worst, abs(q.q_pp - ref), abs(q.q_mm - ref))
    return _bound("classical-limit-q", worst, 1e-10)


def check_nevanlinna() -> CheckResult:
    rng = np.random.default_rng(5)
    worst = math.inf
    for _ in range(200):
        params = SystemParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
        z = complex(rng.uniform(-6.0, 6.0), rng.uniform(1e-3, 5.0))
        q = krein_q(params, z)
        worst = min(worst, q.q_pp.imag, q.q_mm.imag)
    return CheckResult("herglotz-upper-half-plane", worst > 0.0, worst, 0.0, 0.0,
                       detail="pass iff measured > 0 (smallest Im Q over 200 draws)")


def check_norm_identities() -> list[CheckResult]:
    params = SystemParams(0.8, 0.4)
    at_i = max((phi_norm_sq(params, s, 1j) for s in (1, -1)), key=lambda v: abs(v - 1.0))
    out = [_near("phi-norm-at-i", at_i, 1.0, 1e-8, detail="both spins")]
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-4, 2), rng.uniform(0.2, 3))
        q = krein_q(params, z)
        for s in (1, -1):
            worst = max(worst, abs(q.entry(s).imag / z.imag - phi_norm_sq(params, s, z)))
    out.append(_bound("imq-equals-norm", worst, 1e-8))
    return out


# (alpha, beta) points of the oracle checks: CaseA, CaseB, CaseC
_ORACLE_GRID = ([(0.0, b) for b in (0.0, 0.3, 0.6, 1.0)]
                + [(0.2, 0.4), (0.3, 0.6), (0.5, 0.9)] + [(2.0, 0.5), (1.5, 0.3), (1.2, 0.2)])
_ORACLE_OFF_AXIS = (1j, -1.0 + 0.8j)


def check_oracle_gs() -> CheckResult:
    """Closed form vs momentum quadrature on 40 regime-spanning triples."""
    from .greens import gs_ren_origin
    zs = [complex(-1.5), complex(-3.0), *_ORACLE_OFF_AXIS]
    triples = [(a, b, z) for a, b in _ORACLE_GRID for z in zs]
    worst, used = 0.0, 0
    for a, b, z in triples:
        params = SystemParams(a, b)
        if not series_validity(params, z).any:
            continue
        used += 1
        for s in (1, -1):
            got = oracle.gs_ren_quadrature(params, s, z, tol=1e-7).value
            ref = gs_ren_origin(params, s, z)
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    return CheckResult("oracle-green-agreement", worst <= 1e-6 and used >= 30, worst, 1e-6, 0.0,
                       detail=f"{used} of {len(triples)} triples inside the series region; "
                              "pass iff measured <= expected and at least 30 are used")


def check_oracle_phi_norm() -> CheckResult:
    """||phi_s(z)||^2 in closed form vs momentum quadrature, both spins at
    each z: five energies below the band at (2, 1/2), and the off-axis z of
    ``check_oracle_gs`` at its grid points inside the series region."""
    params = SystemParams(2.0, 0.5)
    sigma = threshold_sigma(params)
    below = [(params, complex(float(e))) for e in np.linspace(-sigma - 0.3, -sigma - 2.5, 5)]
    off_axis = [(SystemParams(a, b), z) for a, b in _ORACLE_GRID for z in _ORACLE_OFF_AXIS]
    off_axis = [(p, z) for p, z in off_axis if series_validity(p, z).any]
    worst = 0.0
    for p, z in below + off_axis:
        for s in (1, -1):
            got = oracle.phi_norm_quadrature(p, s, z, tol=1e-6).value.real
            ref = phi_norm_sq(p, s, z)
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    return _bound("oracle-phi-norm-agreement", worst, 1e-5,
                  detail=f"{len(below)} energies below the band at (2, 1/2) and "
                         f"{len(off_axis)} off-axis points inside the series region; "
                         "pass iff measured <= expected")


def check_oracle_sigma() -> CheckResult:
    worst = 0.0
    for a in np.linspace(0.0, 2.2, 10):
        for b in np.linspace(0.0, 1.1, 10):
            p = SystemParams(float(a), float(b))
            worst = max(worst, abs(threshold_sigma(p) - oracle.sigma_numeric(p)))
    return _bound("threshold-vs-dispersion", worst, 1e-10)


def check_threshold_e_nu() -> CheckResult:
    """Sigma = E_nu(1) for nu = alpha/sqrt(2 beta) in [1, 2]."""
    worst = 0.0
    for b in np.linspace(0.05, 1.0, 6):
        for fac in np.linspace(1.0, 2.0, 5):
            p = SystemParams(float(fac * math.sqrt(2.0 * b)), float(b))
            sigma = threshold_sigma(p)
            nu = p.alpha / math.sqrt(2.0 * p.beta)
            worst = max(worst, abs(sigma - spectrum.e_nu(p.beta, nu, 1.0)) / sigma)
    return _bound("threshold-equals-e-nu-1", worst, 1e-12, detail="relative, 30 points")


def check_theorem1_random() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.05, 1.0)
        params = SystemParams(0.0, beta)
        wp, wm = rng.uniform(-2, 1.5), rng.uniform(-2, 1.5)
        g = rng.uniform(0.0, 2.0)
        gm = gamma_for_couplings(params, wp, wm, g)
        for r in spectrum.discrete_eigenvalues(params, gm):
            e = r.energy
            closure = abs(g - (wp + math.sqrt(beta - e)) * (wm + math.sqrt(-beta - e)))
            worst = max(worst, closure)
    return _bound("no-coupling-closure", worst, 1e-9)


def check_embedded_alpha0() -> CheckResult:
    """Theorem-1 embedded singletons: each case's energies, exactly, to 1e-12."""
    b = 0.5
    g_edge = (-0.3 + math.sqrt(2.0 * b)) * 0.4     # puts -beta in the spectrum
    cases = [(b, (-0.3, 0.4, g_edge), [-b]),
             (b, (-0.3, 0.4, g_edge + 0.1), []),
             (b, (-0.6, 0.3, 0.0), [b - 0.36]),
             (b, (0.2, 0.3, 0.0), []),              # omega_+ > 0
             (b, (-0.6, 0.3, 0.5), []),             # gamma != 0
             (b, (0.7, 0.0, 0.0), [-b, b]),
             (b, (0.7, 0.2, 0.0), []),
             (0.0, (-0.5, 0.0, 0.0), [])]
    bad = 0
    for beta, eff, want in cases:
        got = sorted(r.energy for r in spectrum.embedded_alpha0(beta, EffectiveCouplings(*eff)))
        bad += len(got) != len(want) or any(abs(g - w) > 1e-12 for g, w in zip(got, want))
    return _bound("alpha0-embedded-singletons", bad, 0,
                  detail=f"cases with wrong energies, of {len(cases)}")


def check_forbidden_band() -> CheckResult:
    rng = np.random.default_rng(17)
    params = SystemParams(2.0, 0.5)
    worst = -math.inf
    for _ in range(10):
        eff = effective_couplings(
            params, gamma_for_couplings(params, rng.uniform(-2, 2),
                                        rng.uniform(-2, 2), rng.uniform(0, 2)))
        rep = spectrum.forbidden_band_scan(params, eff)
        worst = max(worst, rep.max_gamma_required)
    return CheckResult("forbidden-band-negative", worst < 0.0, worst, 0.0, 0.0,
                       detail="pass iff measured < 0")


def check_perturbation_order() -> list[CheckResult]:
    beta = 0.5
    gm = gamma_for_couplings(SystemParams(0.0, beta), 0.8, -0.4, 0.0)
    gm = Hermitian2(gm.pp, gm.mm, 0j)
    att = perturbation.e2(beta, gm, -beta - 0.4 ** 2)

    def root(alpha: float) -> float:
        roots = spectrum.discrete_eigenvalues(SystemParams(alpha, beta), gm)
        return min((r.energy for r in roots), key=lambda x: abs(x - att.e0))

    errs = [abs(root(a) - att.predicted_energy(a)) for a in (0.2, 0.1, 0.05)]
    ratio = min(errs[0] / errs[1], errs[1] / errs[2])
    # fit E(alpha) - E0 by alpha..alpha^4: the odd terms must be negligible
    alphas = 0.02 * np.arange(1, 11)
    des = np.array([root(float(a)) - att.e0 for a in alphas])
    basis = np.vstack([alphas ** k for k in range(1, 5)]).T
    coef, *_ = np.linalg.lstsq(basis, des, rcond=None)
    am = float(alphas[-1])
    odd = max(abs(coef[0]) * am, abs(coef[2]) * am ** 3) / (abs(coef[1]) * am * am)
    return [CheckResult("order-alpha-squared", ratio >= 12.0, ratio, 12.0, 0.0,
                        detail="pass iff measured ratio >= 12 (expected 16)"),
            _bound("odd-orders-absent", odd, 1e-3,
                   detail="largest odd-term contribution over the alpha^2 one at alpha = 0.2")]


def _edge_count_inputs() -> list[tuple[SystemParams, Hermitian2, int]]:
    """68 seeded (params, Gamma, the number of roots it was built to have).

    CaseA, CaseB, CaseC and the seam in turn, and every fifth input a root
    1e-12 to 1e-6 max(1, Sigma) below the edge in each channel (gamma = 0),
    next to the pole partly inside its guard; every other one of these puts
    both channel roots at one energy, a double eigenvalue.  The channel
    matrix C rises as E falls, so the count is fixed at the edge: off the
    seam with the pole it is 2; on the seam c_- tends to -inf and c_+ =
    omega_+ + alpha/2 is drawn with either sign; without the pole C at the
    edge is drawn with 0, 1 or 2 negative eigenvalues (``_built_at_edge``).
    The last 8 are CaseB with alpha 1 to 3 ulps below sqrt(2 beta), where
    alpha*xi(-Sigma) rounds to 1 or close to it, built as CaseB: the first
    two are inputs where it rounds to 1, then 6 seeded ones."""
    rng = np.random.default_rng(41)
    out = []
    for k in range(60):
        kind = ("A", "B", "C", "seam", "edge")[k % 5]
        case = ("A", "B", "C", "seam")[k // 5 % 4] if kind == "edge" else kind
        b = float(rng.uniform(0.05, 1.0))
        if case == "A":
            a = 0.0
        elif case == "B":
            a = math.sqrt(2.0 * b) * float(rng.uniform(0.1, 0.9))
        elif case == "C":
            a = math.sqrt(2.0 * b) * float(rng.uniform(1.1, 2.5))
        else:
            a = float(rng.uniform(0.3, 2.0))
            b = a * a / 2.0
        p = SystemParams(a, b)
        sigma = threshold_sigma(p)
        if kind == "edge":
            d_p = float(10.0 ** rng.uniform(-12.0, -6.0))
            d_m = d_p if k // 5 % 2 else float(10.0 ** rng.uniform(-12.0, -6.0))
            xp, xm = (_xi_real(b, -sigma - d * max(1.0, sigma)) for d in (d_p, d_m))
            wp = -spectrum._channel_factors(a, b, xp, 0.0, 0.0)[0]
            wm = -spectrum._channel_factors(a, b, xm, 0.0, 0.0)[1]
            g, want = 0.0, 2
        elif case == "C":
            wp, wm = float(rng.uniform(-2.0, 1.0)), float(rng.uniform(-2.0, 1.0))
            g, want = float(rng.uniform(0.0, 1.5)), 2
        elif case == "seam":
            want = 1 + k // 5 % 2
            wp = -0.5 * a + (1.0 if want == 1 else -1.0) * float(rng.uniform(0.1, 1.0))
            wm, g = float(rng.uniform(-2.0, 1.0)), float(rng.uniform(0.0, 1.5))
        else:
            want = k // 5 % 3
            wp, wm, g = _built_at_edge(rng, p, want)
        out.append((p, gamma_for_couplings(p, wp, wm, g), want))
    near_seam = [(1.8347014526009928, 1.6830647100880969),
                 (0.47004875356927067, 0.11047291536601249)]
    while len(near_seam) < 8:
        b = float(rng.uniform(0.05, 1.0))
        a = math.sqrt(2.0 * b)
        for _ in range(len(near_seam) % 3 + 1):
            a = math.nextafter(a, 0.0)
        if a * a < 2.0 * b:             # no pole in floats: CaseB
            near_seam.append((a, b))
    for k, (a, b) in enumerate(near_seam):
        p = SystemParams(a, b)
        out.append((p, gamma_for_couplings(p, *_built_at_edge(rng, p, k % 3)), k % 3))
    return out


def _built_at_edge(rng: np.random.Generator, p: SystemParams,
                   want: int) -> tuple[float, float, float]:
    """(omega_+, omega_-, gamma) drawn so that C at the band edge, without
    the pole, has ``want`` negative eigenvalues; the channel factors there
    come from ``spectrum._edge_factors``."""
    if want == 1:
        cp, cm = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        g = max(cp * cm, 0.0) + float(rng.uniform(0.1, 1.0))
    else:
        sign = 1.0 if want == 0 else -1.0
        cp, cm = (sign * float(c) for c in rng.uniform(0.1, 1.0, 2))
        g = float(rng.uniform(0.0, 0.9)) * cp * cm
    c0p, c0m = spectrum._edge_factors(p.alpha, p.beta, 0.0, 0.0)
    return cp - c0p, cm - c0m, g


def _unreported_branches(records) -> int:
    """The number of branches that the solver's warnings name as not reported."""
    return sum(str(w.message).count("lambda_") for w in records
               if "not reported" in str(w.message))


def check_root_count() -> CheckResult:
    """Found roots plus the roots the solver warns of equal the inertia of
    the channel matrix at the band edge (``spectrum._edge_count``, which
    needs no Q evaluation), and that count is the one each input was built
    to have."""
    inputs = _edge_count_inputs()
    bad, counts, warned = 0, [0, 0, 0], 0
    for p, gm, want in inputs:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            try:
                roots = spectrum.discrete_eigenvalues(p, gm)
            except AssertionError:          # more roots found than counted
                bad += 1
                continue
        count = spectrum._edge_count(p, effective_couplings(p, gm))[0]
        unreported = _unreported_branches(rec)
        bad += len(roots) + unreported != count or count != want
        counts[count] += 1
        warned += unreported > 0
    return _bound("root-count-equals-edge-inertia", bad, 0,
                  detail=f"inputs where found + warned != count or count != built, "
                         f"of {len(inputs)}; counts 0/1/2 on {counts[0]}/{counts[1]}/{counts[2]}, "
                         f"{warned} with a warned root")


PAPER_CHECKS = (check_threshold_17_16, check_large_coupling_constants,
                check_embedded_074, check_symmetric_eigenvalue,
                check_r_map_constant, check_two_channel_pair, check_cnd0_max)

INVARIANT_CHECKS = (check_q_unit_grid, check_classical_q, check_nevanlinna,
                    check_norm_identities, check_oracle_gs, check_oracle_phi_norm,
                    check_oracle_sigma, check_threshold_e_nu, check_theorem1_random,
                    check_embedded_alpha0, check_forbidden_band,
                    check_perturbation_order, check_root_count)


def run_checks(funcs) -> list[CheckResult]:
    """Run each check in order and flatten their results into one list."""
    results: list[CheckResult] = []
    for fn in funcs:
        got = fn()
        results.extend(got if isinstance(got, list) else [got])
    return results


def run_suite(suite: str) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    funcs = []
    if suite in ("paper", "all"):
        funcs += list(PAPER_CHECKS)
    if suite in ("invariants", "all"):
        funcs += list(INVARIANT_CHECKS)
    return run_checks(funcs)
