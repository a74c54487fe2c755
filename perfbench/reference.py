"""Independent reference answers and the checks that compare against them.

Nothing here calls the library's root finders or scans.  Discrete roots come
from a bracketed bisection on each of the two eigenvalue branches

    lambda_-/+(E) = h -/+ sqrt(d^2 + |Gamma_pm|^2),
    h = (m11 + m22)/2, d = (m11 - m22)/2, M = Gamma - Q(E),

which strictly decrease on (-inf, -Sigma) because Q is Herglotz.  Each branch
tends to +inf as E -> -inf, so it has one root below the band iff it is
negative just below -Sigma.  Q itself comes from ``krein_q``; every other
formula (U_nu, V_nu, cnd0, the forbidden-band constraint, series-validity
condition (c)) is written out here again from the paper.

A check returns a list of ``Problem`` records.  ``Problem.wrong`` marks a
reported value that is wrong (a spurious root, a residual above the noise
floor, a scan result that disagrees); a missing root is a problem that is not
``wrong``: the op is incomplete, but nothing false was reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rashba_contact import (Hermitian2, SystemParams, effective_couplings,
                            krein_q, secular_function, threshold_sigma)

# the reference evaluates branches this close to -Sigma (relative to
# max(1, Sigma)); closer than the library's pole guard is not possible where
# artanh(alpha*xi) has its pole, elsewhere Q is continuous up to -Sigma
EDGE_REL_POLE = 2e-10
EDGE_REL_SMOOTH = 1e-14
# a reported root matches a reference root within this relative distance
MATCH_REL = 1e-8
# scalar secular form at a reported root, relative to 1 + |gamma|; the same
# level at which the library itself warns that the formulations disagree.
# Next to the artanh pole the form is too steep for that: there it must
# change sign within the match tolerance instead.
SECULAR_REL = 1e-5
CLOSURE_REL = 1e-8


@dataclass(frozen=True)
class Problem:
    kind: str
    detail: str
    wrong: bool


@dataclass(frozen=True)
class RefRoot:
    energy: float
    branch: int          # -1 for lambda_-, +1 for lambda_+
    resolved: bool       # False: the root lies between `energy` and -Sigma


def has_pole(params: SystemParams) -> bool:
    """artanh(alpha*xi) diverges at -Sigma exactly when alpha^2 >= 2 beta > 0
    or alpha > 0 = beta."""
    a, b = params.alpha, params.beta
    return a > 0.0 and a * a >= 2.0 * b


def edge_energy(params: SystemParams) -> float:
    sigma = threshold_sigma(params)
    rel = EDGE_REL_POLE if has_pole(params) else EDGE_REL_SMOOTH
    return -sigma - rel * max(1.0, sigma)


def branches(params: SystemParams, gamma: Hermitian2, e: float) -> tuple[float, float]:
    """(lambda_-, lambda_+) of Gamma - Q(E) at real E below -Sigma."""
    q = krein_q(params, complex(e))
    m11 = gamma.pp - q.q_pp.real
    m22 = gamma.mm - q.q_mm.real
    h = 0.5 * (m11 + m22)
    r = math.hypot(0.5 * (m11 - m22), abs(gamma.pm))
    return h - r, h + r


def _bisect_decreasing(f, lo: float, hi: float) -> float:
    """Root of a decreasing f with f(lo) > 0 > f(hi), to the last bit."""
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_roots(params: SystemParams, gamma: Hermitian2) -> tuple[RefRoot, ...]:
    """Every discrete eigenvalue, one per branch at most, sorted by energy."""
    sigma = threshold_sigma(params)
    e_edge = edge_energy(params)
    out = []
    for k, sign in ((0, -1), (1, 1)):
        def lam(e: float, k=k) -> float:
            return branches(params, gamma, e)[k]

        if lam(e_edge) > 0.0:
            if has_pole(params) and not (sign == 1 and _on_seam(params)):
                # the branch reaches -inf at -Sigma: the root sits inside
                # the last (-Sigma - e_edge) and cannot be resolved
                out.append(RefRoot(e_edge, sign, False))
            continue
        dist = 1.0
        while lam(-sigma - dist) <= 0.0:
            dist *= 2.0
            if dist > 1e15:
                raise ArithmeticError("reference: no lower bracket below 1e15")
        out.append(RefRoot(_bisect_decreasing(lam, -sigma - dist, e_edge), sign, True))
    return tuple(sorted(out, key=lambda r: r.energy))


def _on_seam(params: SystemParams) -> bool:
    a, b = params.alpha, params.beta
    return a * a == 2.0 * b


def _tol(e: float) -> float:
    return MATCH_REL * max(1.0, abs(e))


def closure_residual(params: SystemParams, gamma: Hermitian2, e: float) -> float:
    """Theorem 1 (alpha = 0): gamma = (omega_+ + sqrt(beta-E))(omega_- + sqrt(-beta-E)),
    relative to the size of the terms."""
    eff = effective_couplings(params, gamma)
    b = params.beta
    fp = eff.omega_plus + math.sqrt(b - e)
    fm = eff.omega_minus + math.sqrt(-b - e)
    scale = 1.0 + abs(eff.gamma) + (abs(eff.omega_plus) + math.sqrt(b - e)) * (
        abs(eff.omega_minus) + math.sqrt(-b - e))
    return abs(eff.gamma - fp * fm) / scale


def check_discrete(params: SystemParams, gamma: Hermitian2, reported,
                   ref: tuple[RefRoot, ...]) -> list[Problem]:
    """Compare reported root energies with the reference root set.

    Reference roots closer than the match tolerance form one cluster (a
    twofold root), which one or two reported roots may stand for.
    """
    problems: list[Problem] = []
    reported = sorted(float(e) for e in reported)
    sigma = threshold_sigma(params)
    clusters: list[list[RefRoot]] = []
    for r in ref:
        if clusters and r.energy - clusters[-1][-1].energy <= _tol(r.energy):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    used = [False] * len(reported)
    for cl in clusters:
        lo = cl[0].energy - _tol(cl[0].energy)
        hi = -sigma if not cl[-1].resolved else cl[-1].energy + _tol(cl[-1].energy)
        hits = [i for i, e in enumerate(reported) if lo <= e <= hi and not used[i]]
        if not hits:
            problems.append(Problem("missed", f"root near {cl[0].energy!r} not reported", False))
            continue
        if len(hits) > len(cl):
            problems.append(Problem("duplicate", f"{len(hits)} roots for {len(cl)} near "
                                    f"{cl[0].energy!r}", True))
        for i in hits:
            used[i] = True
    for e, u in zip(reported, used):
        if not u:
            problems.append(Problem("spurious", f"reported root {e!r} is not a root", True))
    if params.alpha == 0.0:
        for r in ref:
            if r.resolved and closure_residual(params, gamma, r.energy) > CLOSURE_REL:
                problems.append(Problem("closure", f"Theorem-1 closure fails at {r.energy!r}",
                                        True))
    eff = effective_couplings(params, gamma)
    for e in reported:
        if not secular_vanishes(params, eff, e):
            problems.append(Problem("secular", f"secular form does not vanish at {e!r}", True))
    return problems


def secular_vanishes(params: SystemParams, eff, e: float) -> bool:
    """The scalar secular form is at its noise floor at E, or changes sign
    within the match tolerance around it (staying below the band)."""
    if abs(secular_function(params, eff, e)) <= SECULAR_REL * (1.0 + abs(eff.gamma)):
        return True
    t = min(_tol(e), 0.5 * (-threshold_sigma(params) - e))
    below = secular_function(params, eff, e - t).real
    above = secular_function(params, eff, e + t).real
    return (below < 0.0) != (above < 0.0)


# ------------------------------------------------------------ large coupling

def u_nu(nu: float, x):
    """U_nu(x); x may be a float or an array."""
    n2 = nu * nu
    atan = np.arctan if isinstance(x, np.ndarray) else math.atan
    return ((n2 + 1.0) / n2 * atan(x) - 1.0 / x) / x


def v_nu(nu: float, x: float) -> float:
    n2 = nu * nu
    u = u_nu(nu, x)
    return n2 / (n2 + 1.0) * u * (2.0 - (n2 - 1.0) * x * x * u)


def e_nu(beta: float, nu: float, x: float) -> float:
    return beta * (nu ** 4 + x ** 4) / (2.0 * (nu * x) ** 2)


def x_of_e_nu(beta: float, nu: float, e: float) -> float:
    """Inverse of E_nu on (0, nu]: x^2 = nu^2 (t - sqrt(t^2 - 1)), t = E/beta."""
    t = e / beta
    return nu * math.sqrt(1.0 / (t + math.sqrt(max(t * t - 1.0, 0.0))))


def t3_residuals(params: SystemParams, eff, e: float) -> tuple[float, float]:
    """(gamma condition, linear constraint) of Theorem 3 at an embedded energy,
    each relative to the size of its terms."""
    b = params.beta
    nu = params.alpha / math.sqrt(2.0 * b)
    x = x_of_e_nu(b, nu, e)
    wp, wm, g = eff.omega_plus, eff.omega_minus, eff.gamma
    gap = abs(g - wp * wm - 0.5 * b * v_nu(nu, x)) / (1.0 + abs(g))
    xu = x * x * u_nu(nu, x)
    lin = 2.0 * wm - xu * ((nu * nu + 1.0) * wp + (nu * nu - 1.0) * wm)
    lin_scale = 1.0 + 2.0 * abs(wm) + abs(xu) * ((nu * nu + 1.0) * abs(wp)
                                                 + (nu * nu - 1.0) * abs(wm))
    return gap, abs(lin) / lin_scale


def check_embedded(params: SystemParams, gamma: Hermitian2, embedded) -> list[Problem]:
    """Each reported embedded eigenvalue must meet its acceptance condition."""
    problems = []
    eff = effective_couplings(params, gamma)
    b = params.beta
    for r in embedded:
        e = r.energy
        if r.theorem == "T3":
            gap, lin = t3_residuals(params, eff, e)
            ok = gap <= 1e-7 and lin <= 1e-7
        elif params.alpha == 0.0:
            wp, wm, g = eff.omega_plus, eff.omega_minus, eff.gamma
            if e == -b:
                ok = abs(g - (wp + math.sqrt(2.0 * b)) * wm) <= 1e-9 * (1.0 + abs(g))
            elif e == b:
                ok = g <= 1e-9 and abs(wm) <= 1e-9
            else:
                ok = (g <= 1e-9 and -math.sqrt(2.0 * b) < wp < 0.0
                      and abs(e - (b - wp * wp)) <= 1e-12 * max(1.0, b))
        else:
            # small coupling: only the threshold -beta can persist
            ok = e == -b and r.condition_residual <= 1e-9 * (
                1.0 + abs(gamma.pp) + abs(gamma.mm))
        if not ok:
            problems.append(Problem("embedded", f"{r.theorem} root {e!r} fails its "
                                    "acceptance condition", True))
    return problems


def x_nu_1(nu: float) -> float:
    """The zero of U_nu on (0, nu]; U_nu is increasing there."""
    return _bisect_decreasing(lambda x: -u_nu(nu, x), 0.5, min(nu, 2.0))


def gamma_required(params: SystemParams, wp: float, wm: float,
                   energies: np.ndarray) -> np.ndarray:
    """The gamma the two-channel phase constraint forces at energies in
    (-Sigma, beta), vectorized.  xi is real below -beta and
    exp(i theta/2)/sqrt(2 beta) with cos(theta) = -E/beta above it; artanh
    takes r - i pi/2 on its real cut w > 1."""
    a, b = params.alpha, params.beta
    e = np.asarray(energies, dtype=float)
    low = e <= -b
    x = np.empty(e.shape, dtype=complex)
    x[low] = 1.0 / np.sqrt(2.0 * (-e[low] + np.sqrt(e[low] ** 2 - b * b)))
    theta = np.arccos(np.clip(-e[~low] / b, -1.0, 1.0))
    theta = np.where(e[~low] < 0.0, -theta, theta)
    x[~low] = np.exp(0.5j * theta) / math.sqrt(2.0 * b)
    inv2 = 1.0 / (2.0 * x)
    w = a * x
    ar = np.empty(e.shape, dtype=complex)
    wl = w[low].real
    cut = wl > 1.0
    ar_low = np.empty(wl.shape, dtype=complex)
    ar_low[cut] = 0.5 * np.log((wl[cut] + 1.0) / (wl[cut] - 1.0)) - 0.5j * math.pi
    ar_low[~cut] = np.arctanh(wl[~cut])
    ar[low] = ar_low
    wm_ = w[~low]
    ar[~low] = 0.5 * (np.log(1.0 + wm_) - np.log(1.0 - wm_))
    ap = wp + inv2.real - ar.real * (a / 2.0 - b / a)
    bp = -inv2.imag + ar.imag * (a / 2.0 + b / a)
    bm = -inv2.imag + ar.imag * (a / 2.0 - b / a)
    return -(bp / bm) * (ap * ap + bp * bp)


def cnd0(beta: np.ndarray) -> np.ndarray:
    """The threshold-obstruction function, vectorized over beta > 0."""
    u = np.sqrt(1.0 + beta * beta)
    rt = np.sqrt(1.0 + u)
    n0 = 2.0 * 2.0 ** 0.25 * math.sqrt(math.pi) * (u + beta) ** 0.25
    n1 = (math.sqrt(math.pi) / (6.0 * 2.0 ** 0.25)
          * (3.0 - beta / (1.0 + u)) * (u + beta) ** 0.75 / rt)
    l0 = -(rt + beta / rt) / (8.0 * math.pi)
    l1 = (3.0 + beta / (1.0 + u)) / (48.0 * math.pi * rt)
    eta = 2.0 * n1 / n0
    r2b = np.sqrt(2.0 * beta)
    return 4.0 * math.pi * (l1 - eta * l0) - 1.0 / (3.0 * r2b) - eta * r2b


def cond_c_bound(params: SystemParams) -> float:
    """min over S in (0,1) of max(beta/(2 sqrt(R)), alpha^2/(4 S)),
    R = 1/4 - (S - 1/2)^2, by a dense grid plus golden-section polish."""
    a, b = params.alpha, params.beta

    def g(s: float) -> float:
        r = 0.25 - (s - 0.5) ** 2
        return max(b / (2.0 * math.sqrt(r)), a * a / (4.0 * s))

    grid = np.linspace(0.0, 1.0, 4002)[1:-1]
    r = 0.25 - (grid - 0.5) ** 2
    vals = np.maximum(b / (2.0 * np.sqrt(r)), a * a / (4.0 * grid))
    i = int(np.argmin(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        c = hi - invphi * (hi - lo)
        d = lo + invphi * (hi - lo)
        if g(c) < g(d):
            hi = d
        else:
            lo = c
    return min(float(vals[i]), g(0.5 * (lo + hi)))


def check_validity(params: SystemParams, z: complex, report) -> list[Problem]:
    """series_validity against the conditions written out; condition (c) is
    only judged where |z| is clearly away from its bound."""
    a, b = params.alpha, params.beta
    r = abs(z)
    sigma = threshold_sigma(params)
    upper = math.inf if a == 0.0 else 2.0 * (b / a) ** 2
    cond_a = (2.0 * b > a * a) and (b <= r < upper)
    cond_b = r > sigma or (r == sigma and 2.0 * b < a * a)
    bound = cond_c_bound(params)
    problems = []
    if report.cond_a != cond_a or report.cond_b != cond_b:
        problems.append(Problem("validity", f"conditions (a)/(b) wrong at |z|={r!r}", True))
    if abs(r - bound) > 1e-3 * bound and report.cond_c != (r > bound):
        problems.append(Problem("validity", f"condition (c) wrong at |z|={r!r}", True))
    if report.any != (report.cond_a or report.cond_b or report.cond_c):
        problems.append(Problem("validity", "any != a or b or c", True))
    return problems
