"""The benchmark's workloads: seeded inputs, one op each, and its check.

Every workload turns a seed into a fixed, ordered pool of inputs.  The timed
loop runs op 0, 1, 2, ... of the pool (wrapping round if it ever runs out),
one at a time, and keeps each op's output; the outputs are checked against
``reference`` only after timing has stopped.

- ``solve-mixed``: one ``solve_spectrum`` call.  Ops come in blocks of
  twelve, four per regime (CaseA, CaseB, CaseC); the last three of every
  block sit on one of the hard spots, taken in turn.
- ``coupling-sweep``: one step of an ordered sweep, i.e. one
  ``discrete_eigenvalues`` call with Gamma = (-1/c - r) * I, c log-spaced
  over four decades as in the README ``sweep``.
- ``aux-scans``: the scans that run no discrete solve, on one CaseC point
  built to carry an embedded eigenvalue.
- ``oracle-crosscheck``: the momentum-space quadratures of both spins at one
  complex energy, beside the closed forms they must agree with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref
import rashba_contact as rc
from rashba_contact import Hermitian2, SystemParams

POOL_SIZE = 960
# the library memoizes normalization constants for this many parameter points
NORMALIZATION_CACHE = 512
HARD_KINDS = ("coincident", "edge", "seam", "small-beta")
SWEEP_STEPS = 20
GS_TOL = 1e-7
PHI_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]
    roots: Callable[[Any], int] = lambda out: 0
    integrand_evals: Callable[[Any], int] = lambda out: 0


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def _loguniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def _strata(rng, n: int):
    """Latin-hypercube draws: a random order of the n equal strata of [0, 1),
    with a uniform draw inside each, so every block of n inputs spans the
    whole range and runs of different seeds see the same mix."""
    return [(k + float(rng.uniform())) / n for k in rng.permutation(n)]


# ---------------------------------------------------------------- solve-mixed

@dataclass(frozen=True)
class SolveInput:
    params: SystemParams
    gamma: Hermitian2
    regime: str           # "A", "B" or "C"
    kind: str             # "random" or one of HARD_KINDS


def _case_params(rng, case: str, kind: str) -> SystemParams:
    beta = float(rng.uniform(0.05, 1.0))
    if kind == "small-beta" or (kind == "seam" and case == "A"):
        beta = _loguniform(rng, -8.0, -4.0)     # the seam of CaseA is beta = 0
    if case == "A":
        return SystemParams(0.0, beta)
    root2b = math.sqrt(2.0 * beta)
    if kind == "seam":
        eta = _loguniform(rng, -8.0, -3.0)
        return SystemParams(root2b * math.sqrt(1.0 - eta if case == "B" else 1.0 + eta), beta)
    if case == "B":
        return SystemParams(root2b * float(rng.uniform(0.05, 0.95)), beta)
    if kind == "small-beta":
        return SystemParams(float(rng.uniform(0.5, 2.0)), beta)
    return SystemParams(root2b * float(rng.uniform(1.05, 4.0)), beta)


def _random_gamma(rng, params: SystemParams) -> Hermitian2:
    gm = rc.gamma_for_couplings(params, float(rng.uniform(-2.0, 1.5)),
                                float(rng.uniform(-2.0, 1.5)), float(rng.uniform(0.0, 2.0)))
    phase = cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
    return Hermitian2(gm.pp, gm.mm, gm.pm * phase)


def _gamma_with_roots(params: SystemParams, e_plus: float, e_minus: float) -> Hermitian2:
    """Diagonal Gamma whose plus channel vanishes at e_plus, minus at e_minus."""
    return Hermitian2(rc.krein_q(params, complex(e_plus)).q_pp.real,
                      rc.krein_q(params, complex(e_minus)).q_mm.real, 0j)


def solve_inputs(seed: int) -> list[SolveInput]:
    rng = _rng(seed, 1)
    out = []
    for i in range(POOL_SIZE):
        block, pos = divmod(i, 12)
        case = "ABC"[pos % 3]
        kind = HARD_KINDS[block % len(HARD_KINDS)] if pos >= 9 else "random"
        params = _case_params(rng, case, kind)
        sigma = rc.threshold_sigma(params)
        scale = max(1.0, sigma)
        if kind == "coincident":
            e1 = -sigma - scale * _loguniform(rng, -0.7, 3.5)
            e2 = e1 - abs(e1) * _loguniform(rng, -7.0, -3.0)
            gamma = _gamma_with_roots(params, e1, e2)
        elif kind == "edge":
            e1 = -sigma - scale * _loguniform(rng, -9.5, -6.0)
            e2 = -sigma - scale * float(rng.uniform(0.2, 3.0))
            gamma = _gamma_with_roots(params, e1, e2) if rng.uniform() < 0.5 \
                else _gamma_with_roots(params, e2, e1)
        else:
            gamma = _random_gamma(rng, params)
        out.append(SolveInput(params, gamma, case, kind))
    return out


def solve_run(inp: SolveInput):
    return rc.solve_spectrum(inp.params, inp.gamma)


def solve_check(inp: SolveInput, report) -> list:
    roots = ref.reference_roots(inp.params, inp.gamma)
    problems = ref.check_discrete(inp.params, inp.gamma,
                                  [r.energy for r in report.discrete], roots)
    return problems + ref.check_embedded(inp.params, inp.gamma, report.embedded)


# ------------------------------------------------------------- coupling-sweep

@dataclass(frozen=True)
class SweepInput:
    params: SystemParams
    gamma: Hermitian2
    sweep: int
    step: int
    c: float
    r: float


def sweep_inputs(seed: int) -> list[SweepInput]:
    rng = _rng(seed, 2)
    out = []
    alphas: list[float] = []
    for k in range(POOL_SIZE // SWEEP_STEPS):
        if not alphas:
            alphas = [0.5 + 2.5 * u for u in _strata(rng, 4)]
        alpha = alphas.pop()
        # half the sweeps use the CLI's near-zero stand-in for beta
        beta = 1e-6 if k % 2 == 0 else float(rng.uniform(0.05, 1.0))
        r = float(rng.uniform(-0.5, 0.0))
        c_from = -_loguniform(rng, 0.0, 0.5)
        params = SystemParams(alpha, beta)
        for j, c in enumerate(-np.geomspace(-c_from, -c_from * 1e4, SWEEP_STEPS)):
            gamma = rc.gamma_from_cr(Hermitian2.scalar(float(c)), Hermitian2.scalar(r))
            out.append(SweepInput(params, gamma, k, j, float(c), r))
    return out


def sweep_run(inp: SweepInput):
    return rc.discrete_eigenvalues(inp.params, inp.gamma)


def sweep_check(inp: SweepInput, roots) -> list:
    return ref.check_discrete(inp.params, inp.gamma, [r.energy for r in roots],
                              ref.reference_roots(inp.params, inp.gamma))


# ------------------------------------------------------------------ aux-scans

@dataclass(frozen=True)
class AuxInput:
    params: SystemParams
    gamma: Hermitian2
    e_embedded: float
    beta_window: tuple[float, float]


@dataclass(frozen=True)
class AuxOutput:
    context: Any
    embedded: tuple
    band: Any
    cnd0: tuple[float, float]
    validity: tuple


def aux_inputs(seed: int) -> list[AuxInput]:
    """CaseC points whose coupling meets Theorem 3 at a chosen x in
    (x_nu1, nu), so each carries one embedded eigenvalue E_nu(x)."""
    rng = _rng(seed, 3)
    out = []
    while len(out) < POOL_SIZE:
        beta = float(rng.uniform(0.05, 1.0))
        nu = float(rng.uniform(1.2, 6.0))
        params = SystemParams(nu * math.sqrt(2.0 * beta), beta)
        x1 = ref.x_nu_1(nu)
        x = float(rng.uniform(1.05 * x1, 0.95 * nu))
        xu = x * x * ref.u_nu(nu, x)
        wp = float(rng.uniform(-1.5, 1.5))
        denom = 2.0 - xu * (nu * nu - 1.0)
        window = (_loguniform(rng, math.log10(0.05), math.log10(0.6)),
                  _loguniform(rng, math.log10(1.7), 1.0))
        if abs(denom) < 0.05:
            continue
        wm = xu * (nu * nu + 1.0) * wp / denom
        g = wp * wm + 0.5 * beta * ref.v_nu(nu, x)
        if abs(wm) > 5.0 or g < 0.01:
            continue
        out.append(AuxInput(params, rc.gamma_for_couplings(params, wp, wm, g),
                            ref.e_nu(beta, nu, x), window))
    return out


def aux_run(inp: AuxInput) -> AuxOutput:
    p = inp.params
    eff = rc.effective_couplings(p, inp.gamma)
    ctx = rc.large_coupling_context(p)
    emb = rc.embedded_large_alpha(p, eff)
    band = rc.forbidden_band_scan(p, eff)
    c0 = rc.cnd0_max(*inp.beta_window)
    validity = tuple(rc.series_validity(p, complex(r.energy)) for r in emb)
    return AuxOutput(ctx, emb, band, c0, validity)


def aux_check(inp: AuxInput, out: AuxOutput) -> list:
    P = ref.Problem
    p = inp.params
    problems = []
    nu = p.alpha / math.sqrt(2.0 * p.beta)
    ctx = out.context
    x1 = ref.x_nu_1(nu)
    if abs(ctx.x_nu_1 - x1) > 1e-10 or abs(ctx.e_nu_1 - ref.e_nu(p.beta, nu, x1)) > 1e-9 * ctx.e_nu_1:
        problems.append(P("context", f"x_nu1 {ctx.x_nu_1!r} != {x1!r}", True))
    xs = np.linspace(x1 * (1.0 + 1e-6), nu, 4001)
    g2 = ref.u_nu(nu, xs) - 2.0 / ((nu * nu - 1.0) * xs * xs)
    has_x2 = bool(np.any(np.signbit(g2[1:]) != np.signbit(g2[:-1])))
    if ctx.x_nu_2 is not None:
        x2 = ctx.x_nu_2
        resid = abs(ref.u_nu(nu, x2) - 2.0 / ((nu * nu - 1.0) * x2 * x2))
        if not (x1 < x2 <= nu and resid <= 1e-9 * (1.0 + abs(ref.u_nu(nu, x2)))):
            problems.append(P("context", f"x_nu2 {x2!r} is not a zero", True))
    elif has_x2:
        problems.append(P("context", "x_nu2 exists but was not reported", False))

    problems += ref.check_embedded(p, inp.gamma, out.embedded)
    if not any(abs(r.energy - inp.e_embedded) <= 1e-6 * max(1.0, inp.e_embedded)
               for r in out.embedded):
        problems.append(P("embedded", f"constructed T3 root {inp.e_embedded!r} not reported",
                          False))

    sigma, b = rc.threshold_sigma(p), p.beta
    delta = 1e-6 * max(1.0, sigma + b)
    grid = np.linspace(-sigma + delta, b - delta, out.band.grid_size)
    eff = rc.effective_couplings(p, inp.gamma)
    worst = float(np.max(ref.gamma_required(p, eff.omega_plus, eff.omega_minus, grid)))
    got = out.band.max_gamma_required
    if not (got < 0.0 and abs(got - worst) <= 1e-9 * (1.0 + abs(worst))):
        problems.append(P("forbidden-band", f"max gamma {got!r}, reference {worst!r}", True))

    val, arg = out.cnd0
    lo, hi = inp.beta_window
    dense = float(np.max(ref.cnd0(np.geomspace(lo, hi, 20001))))
    at_arg = float(ref.cnd0(np.array([arg]))[0])
    if not (lo <= arg <= hi and val >= dense - 1e-12 and abs(val - at_arg) <= 1e-13):
        problems.append(P("cnd0-max", f"({val!r}, {arg!r}) vs grid max {dense!r}", True))

    for r, rep in zip(out.embedded, out.validity):
        problems += ref.check_validity(p, complex(r.energy), rep)
    return problems


# ---------------------------------------------------------- oracle-crosscheck

@dataclass(frozen=True)
class OracleInput:
    params: SystemParams
    z: complex


@dataclass(frozen=True)
class OracleOutput:
    gs: tuple          # (quadrature result, closed form) per spin
    phi: tuple


def oracle_inputs(seed: int) -> list[OracleInput]:
    """(alpha, beta, z) with z off the real axis, kept where the series
    representation is valid.  The quadrature's cost grows as z nears the
    real axis and with alpha, so both are stratified in blocks of sixteen."""
    rng = _rng(seed, 4)
    n = 16
    out = []
    while len(out) < POOL_SIZE:
        for j, (ua, ut) in enumerate(zip(_strata(rng, n), _strata(rng, n))):
            while True:
                params = SystemParams(2.0 * ua, float(rng.uniform(0.05, 1.0)))
                arg = 0.1 + (math.pi - 0.2) * ut
                z = cmath.rect(float(rng.uniform(0.2, 3.0)), arg if j % 2 else -arg)
                if rc.series_validity(params, z).any:
                    break
                # redraw inside the same strata
                ua = (math.floor(ua * n) + float(rng.uniform())) / n
                ut = (math.floor(ut * n) + float(rng.uniform())) / n
            out.append(OracleInput(params, z))
    return out[:POOL_SIZE]


def oracle_run(inp: OracleInput) -> OracleOutput:
    p, z = inp.params, inp.z
    gs = tuple((rc.gs_ren_quadrature(p, s, z, tol=GS_TOL), rc.gs_ren_origin(p, s, z))
               for s in (1, -1))
    phi = tuple((rc.phi_norm_quadrature(p, s, z, tol=PHI_TOL), rc.phi_norm_sq(p, s, z))
                for s in (1, -1))
    return OracleOutput(gs, phi)


def oracle_check(inp: OracleInput, out: OracleOutput) -> list:
    problems = []
    for quad, closed in out.gs:
        if not abs(quad.value - closed) <= 1e-6 * (1.0 + abs(closed)):
            problems.append(ref.Problem("oracle-green", f"{quad.value!r} vs {closed!r}", True))
    for quad, closed in out.phi:
        if not abs(quad.value.real - closed) <= 1e-5 * (1.0 + abs(closed)):
            problems.append(ref.Problem("oracle-norm", f"{quad.value!r} vs {closed!r}", True))
    return problems


def _oracle_evals(out: OracleOutput) -> int:
    return sum(q.evaluations for q, _ in out.gs + out.phi)


WORKLOADS = {
    "solve-mixed": Workload("solve-mixed", solve_inputs, solve_run, solve_check,
                            roots=lambda rep: len(rep.discrete)),
    "coupling-sweep": Workload("coupling-sweep", sweep_inputs, sweep_run, sweep_check,
                               roots=len),
    "aux-scans": Workload("aux-scans", aux_inputs, aux_run, aux_check),
    "oracle-crosscheck": Workload("oracle-crosscheck", oracle_inputs, oracle_run,
                                  oracle_check, integrand_evals=_oracle_evals),
}


def fill_caches(inputs) -> None:
    """Lazy set-up a user pays once per parameter point: the normalization
    constants of the pool's first points, as many as the library keeps."""
    for inp in inputs[:NORMALIZATION_CACHE]:
        rc.normalization(inp.params)
