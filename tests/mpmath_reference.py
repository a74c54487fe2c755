"""High-precision mpmath references for Q and the discrete roots.

Q is written through the channel factor at omega = 0,
c0_s(x) = 1/(2x) - k_s artanh(alpha x) with k_s = alpha/2 - s*beta/alpha
(-s*beta*x at alpha = 0), normalized by its definition Q_ss(i) = i:

    Q_ss(z) = (c0_s(xi(z)) - Re c0_s(xi(i))) / Im c0_s(xi(i)),
    N_s^-2 = -Im c0_s(xi(i))/(4 pi),  Lambda_s = -Re c0_s(xi(i))/(4 pi).

None of this goes through the package: no Green values, no sqrt(-z) added
and taken away again, no Arg formula.

Run as a script to print ``SMALL_ALPHA_CASEB_ROOTS`` for
``tests/test_spectrum.py``: seeded CaseB inputs with alpha in [1e-5, 0.1]
and their discrete roots, each found by bisection on a monotone eigenvalue
branch of Gamma - Q(E) at 50 digits.

    python tests/mpmath_reference.py
"""

import mpmath as mp


def xi_mp(beta, z):
    """xi(z) = sqrt(-1/(2 z (1 + sqrt(1 - (beta/z)^2)))), principal branches."""
    z, b = mp.mpc(z), mp.mpf(beta)
    if z.imag == 0 and z.real < -b:
        return mp.mpc(1 / mp.sqrt(2 * (-z.real + mp.sqrt(z.real ** 2 - b ** 2))))
    return mp.sqrt(-1 / (2 * z * (1 + mp.sqrt(1 - (b / z) ** 2))))


def c0_mp(alpha, beta, s, x):
    a, b = mp.mpf(alpha), mp.mpf(beta)
    tail = -s * b * x if a == 0 else (a / 2 - s * b / a) * mp.atanh(a * x)
    return 1 / (2 * x) - tail


def normalization_mp(alpha, beta, s):
    """(N_s, Lambda_s) from Q_ss(i) = i."""
    c = c0_mp(alpha, beta, s, xi_mp(beta, 1j))
    return mp.sqrt(-4 * mp.pi / c.imag), -c.real / (4 * mp.pi)


def q_mp(alpha, beta, s, z):
    """Q_ss(z) off the band."""
    ci = c0_mp(alpha, beta, s, xi_mp(beta, 1j))
    q = (c0_mp(alpha, beta, s, xi_mp(beta, z)) - ci.real) / ci.imag
    return q.real if mp.mpc(z).imag == 0 else q


def series_scalars_mp(beta):
    """{s: (N_0,s, N_1,s, Lambda_0,s, Lambda_1,s, eta_s)} of the small-coupling
    series, from their closed forms with u = sqrt(1 + beta^2) and
    rt = sqrt(1 + u), taken literally: u - beta and rt - beta/rt cancel about
    2 log10(beta) digits, so the working precision grows by that many."""
    extra = int(2 * max(0, mp.log10(beta))) + 10
    with mp.extradps(extra):
        b = mp.mpf(beta)
        u = mp.sqrt(1 + b * b)
        rt = mp.sqrt(1 + u)
        out = {}
        for s in (1, -1):
            n0 = 2 * mp.root(2, 4) * mp.sqrt(mp.pi) * mp.root(u + s * b, 4)
            n1 = (mp.sqrt(mp.pi) / (6 * mp.root(2, 4)) * (3 - s * b / (1 + u))
                  * (u + s * b) ** mp.mpf(0.75) / rt)
            l0 = -(rt + s * b / rt) / (8 * mp.pi)
            l1 = (3 + s * b / (1 + u)) / (48 * mp.pi * rt)
            out[s] = tuple(+v for v in (n0, n1, l0, l1, 2 * n1 / n0))
    return out


def cnd0_mp(beta):
    """4 pi (Lambda_1,+ - eta_+ Lambda_0,+) - 1/(3 sqrt(2 beta)) - eta_+ sqrt(2 beta)."""
    _, _, l0, l1, eta = series_scalars_mp(beta)[1]
    r = mp.sqrt(2 * mp.mpf(beta))
    return 4 * mp.pi * (l1 - eta * l0) - 1 / (3 * r) - eta * r


def branch_roots_mp(alpha, beta, pp, mm, pm):
    """Roots below -beta of the branches h -/+ sqrt(d^2 + |pm|^2) of Gamma - Q(E).

    CaseB only (alpha^2 < 2 beta): Q is finite at the edge -Sigma = -beta,
    and each branch strictly decreases in E, so it has a root exactly when
    it is <= 0 at the edge.
    """
    def branches(e):
        qp, qm = q_mp(alpha, beta, 1, e), q_mp(alpha, beta, -1, e)
        h, d = (pp - qp + mm - qm) / 2, (pp - qp - mm + qm) / 2
        r = mp.sqrt(d * d + abs(mp.mpc(pm)) ** 2)
        return h - r, h + r

    edge = -mp.mpf(beta)
    roots = []
    for k in (0, 1):
        if branches(edge)[k] > 0:
            continue
        lo = edge - 1
        while branches(lo)[k] <= 0:
            lo = edge + 2 * (lo - edge)
        hi = edge
        while hi - lo > abs(hi) * mp.mpf(10) ** (-mp.mp.dps + 5):
            mid = (lo + hi) / 2
            if branches(mid)[k] > 0:
                lo = mid
            else:
                hi = mid
        roots.append((lo + hi) / 2)
    return sorted(roots)


def small_alpha_caseb_roots(n=12, seed=18):
    """Seeded CaseB inputs (alpha, beta, pp, mm, pm) and their roots.

    Gamma_ss = Q_ss(E_s) at two drawn energies below -beta, with a real
    off-diagonal entry that pushes one root down and may push the other
    into the band.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = []
    with mp.workdps(50):
        for _ in range(n):
            a = float(10.0 ** rng.uniform(-5.0, -1.0))
            b = float(rng.uniform(0.2, 2.0))
            e_p, e_m = (-b - float(10.0 ** rng.uniform(-2.0, 0.5)) for _ in range(2))
            pp = float(q_mp(a, b, 1, e_p))
            mm = float(q_mp(a, b, -1, e_m))
            pm = float(rng.uniform(0.0, 0.3))
            roots = branch_roots_mp(a, b, pp, mm, pm)
            rows.append((a, b, pp, mm, pm, tuple(float(r) for r in roots)))
    return rows


if __name__ == "__main__":
    print("SMALL_ALPHA_CASEB_ROOTS = [")
    print("    # alpha, beta, Gamma_pp, Gamma_mm, Gamma_pm, roots")
    for a, b, pp, mm, pm, roots in small_alpha_caseb_roots():
        print(f"    ({a!r}, {b!r}, {pp!r}, {mm!r}, {pm!r},")
        print(f"     ({', '.join(map(repr, roots))}{',' * (len(roots) == 1)})),")
    print("]")
