import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from rashba_contact import (DomainError, EffectiveCouplings,
                            ExtensionKind, Hermitian2, KreinQ, PoleError,
                            RegimeError, SystemParams,
                            discrete_eigenvalues, e_nu,
                            effective_couplings, embedded_alpha0,
                            embedded_large_alpha, forbidden_band_scan,
                            gamma_for_couplings, gamma_from_cr, krein_q,
                            large_coupling_context, normalization, secular_det,
                            secular_function, solve_spectrum,
                            threshold_sigma, u_nu, v_nu)
from rashba_contact import model, spectrum, verify
from rashba_contact.greens import _xi_real

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# float.hex values written by the complex-arithmetic channel factors, at
# seeded points and on the aux-scans pool: the float kernel keeps them all
GOLDEN = json.loads((Path(__file__).resolve().parent / "data"
                     / "channel_factor_golden.json").read_text())
# float.hex nodes of four solve windows, written by np.geomspace with numpy's
# AVX-512 kernels off, each with the input whose solve scans it
ROOT_GRID = json.loads((Path(__file__).resolve().parent / "data"
                        / "root_grid_nodes.json").read_text())["windows"]
# the seed-1 aux-scans band maxima of channel_factor_golden.json, written
# again with numpy's AVX-512 kernels off
BAND_MAX_BASELINE = json.loads((Path(__file__).resolve().parent / "data"
                                / "forbidden_band_max_baseline.json").read_text())[
    "forbidden_band_max_seed1_baseline"]
# numpy's AVX-512 kernels, whose last bit differs from libm's on some inputs;
# on a CPU without them numpy ignores the names with an ImportWarning
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _numpy_avx512() -> bool:
    """Whether numpy dispatches to its AVX-512 (Skylake-X) kernels here."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                 # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__["AVX512_SKX"]


def _band_maxima(seed: int) -> list[str]:
    """float.hex of the forbidden-band maxima over the benchmark's aux-scans
    pool of one seed (perfbench must be importable)."""
    import workloads
    return [forbidden_band_scan(inp.params, effective_couplings(inp.params, inp.gamma))
            .max_gamma_required.hex() for inp in workloads.aux_inputs(seed)]


class TestSecularFunction:
    def test_values_match_the_golden_bit_for_bit(self):
        # 200 seeded points below the band, 1e-9 to 1e2 max(1, Sigma) from the
        # edge: CaseA, CaseB, CaseC, the seam and beta = 0 in turn
        kinds = set()
        for kind, *point, want_re, want_im in GOLDEN["secular_function"]:
            a, b, wp, wm, g, e = (float.fromhex(h) for h in point)
            v = secular_function(SystemParams(a, b), EffectiveCouplings(wp, wm, g), e)
            assert (v.real.hex(), v.imag.hex()) == (want_re, want_im), (kind, point)
            kinds.add(kind)
        assert kinds == {"A", "B", "C", "seam", "beta0"}

    def test_free_symmetric_zero(self):
        p = SystemParams(0.0, 0.0)
        eff = EffectiveCouplings(-1.0, -1.0, 0.0)
        assert abs(secular_function(p, eff, -1.0)) < 1e-14

    def test_constructed_zero_below_band(self):
        b, e = 0.3, -1.0
        wp, wm = -0.2, 0.4
        g = (wp + math.sqrt(b - e)) * (wm + math.sqrt(-b - e))
        eff = EffectiveCouplings(wp, wm, g)
        assert abs(secular_function(SystemParams(0.0, b), eff, e)) < 1e-13

    def test_pole_at_band_edge(self):
        p = SystemParams(2.0, 0.5)
        eff = EffectiveCouplings(0.1, 0.1, 0.0)
        with pytest.raises(PoleError):
            secular_function(p, eff, -threshold_sigma(p) + 1e-12)

    def test_matches_det_zero_sets(self):
        # det(Gamma - Q) and the scalar secular form vanish together
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(50):
            p = SystemParams(rng.uniform(0, 2), rng.uniform(0.05, 1))
            wp, wm = rng.uniform(-1.5, 1), rng.uniform(-1.5, 1)
            g = rng.uniform(0, 1.5)
            gm = gamma_for_couplings(p, wp, wm, g)
            eff = effective_couplings(p, gm)
            for r in discrete_eigenvalues(p, gm):
                assert abs(secular_function(p, eff, r.energy)) <= 1e-9
                checked += 1
        assert checked > 10

    def test_channel_monotonicity_below_band(self):
        # with gamma = 0 each channel factor is strictly monotone below -Sigma
        for a, b in ((0.0, 0.5), (0.8, 0.5), (2.0, 0.5)):
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            es = -sigma - np.geomspace(1e-4, 20.0, 60)
            vals = np.array([spectrum._channel_factors(a, b, _xi_real(b, float(e)), 0.0, 0.0)
                             for e in es])
            for k in (0, 1):
                diffs = np.diff(vals[:, k])
                assert np.all(diffs > 0) or np.all(diffs < 0)


def _root_grid(edge, span):
    """The root grid's distances below -Sigma, from edge up to span, in
    numpy's geomspace arithmetic done in libm."""
    n = spectrum._GRID_NODES
    lo = math.log10(edge)
    step = (math.log10(span) - lo) / (n - 1)
    return [edge] + [10.0 ** (k * step + lo) for k in range(1, n - 1)] + [span]


def _solve_rows(rows):
    """solve_spectrum at (alpha, beta, Gamma_pp, Gamma_mm, Re Gamma_pm,
    Im Gamma_pm) rows of float.hex strings: the float.hex discrete and
    embedded roots with their residuals, and the texts of the warnings."""
    out = []
    for row in rows:
        a, b, pp, mm, re, im = (float.fromhex(h) for h in row)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rep = solve_spectrum(SystemParams(a, b), Hermitian2(pp, mm, complex(re, im)))
        out.append([[[r.energy.hex(), r.residual.hex()] for r in rep.discrete],
                     [[r.energy.hex(), r.condition_residual.hex(), r.theorem]
                      for r in rep.embedded],
                     [str(w.message) for w in rec]])
    return out


def _full_grid_solve(p, gm):
    """discrete_eigenvalues with Q evaluated at all the grid's nodes: each
    branch is bracketed at its first node <= 0.  Returns the roots and the
    texts of the warnings the solver gives."""
    sigma = threshold_sigma(p)
    eff = effective_couplings(p, gm)
    w = max(abs(eff.omega_plus), abs(eff.omega_minus), math.sqrt(eff.gamma))
    e_min = -max(100.0, 10.0 * (1.0 + sigma + w * w))
    pole = p.alpha > 0.0 and p.alpha * p.alpha >= 2.0 * p.beta
    edge = (2.0 * model._POLE_GUARD if pole else 1e-14) * max(1.0, sigma)
    grid = [-sigma - x for x in reversed(_root_grid(edge, -e_min - sigma))]

    def branches(e):
        q = spectrum.krein_q(p, complex(e))
        m11, m22 = gm.pp - q.q_pp.real, gm.mm - q.q_mm.real
        h, r = 0.5 * (m11 + m22), math.hypot(0.5 * (m11 - m22), abs(gm.pm))
        return h - r, h + r

    vals = np.array([branches(e) for e in grid])
    names, found, messages = ("lambda_-", "lambda_+"), [], []
    for k in (0, 1):
        below = np.flatnonzero(vals[:, k] <= 0.0)
        if below.size == 0:
            continue
        i = int(below[0])
        assert i > 0
        found.append(grid[i] if vals[i, k] == 0.0 else spectrum._brent(
            lambda e, k=k: branches(e)[k], grid[i - 1], grid[i],
            vals[i - 1, k], vals[i, k]))
    count, reason = spectrum._edge_count(p, eff)
    if len(found) < count:
        where = "inside the pole guard" if pole else "above the grid's last node"
        messages.append(f"the root of {' and '.join(names[len(found):count])} within "
                        f"{edge:.3g} of the band edge {-sigma} lies {where}; it is not reported "
                        f"(edge count {count}: {reason})")
    roots = tuple(spectrum.DiscreteRoot(e, abs(secular_det(p, gm, complex(e)).real))
                  for e in sorted(found))
    for r in roots:
        e = r.energy
        sf = abs(secular_function(p, eff, e))
        if not sf > 1e-5 * (1.0 + abs(eff.gamma)):
            continue
        w = spectrum._AGREEMENT_WINDOW * max(1.0, abs(e))
        lo, hi = (secular_function(p, eff, x) for x in (e - w, min(e + w, grid[-1])))
        if not min(lo, hi) <= 0.0 <= max(lo, hi):
            messages.append(f"root {e} has secular residual {sf:.3e}; formulations disagree")
    return roots, messages


def _walk_inputs():
    """Seeded (params, Gamma) over CaseA/B/C: random couplings, the seam,
    coincident channel roots and roots 1e-9 to 1e-6 max(1, Sigma) from the
    edge; then a root in the grid's last cell, 2.001e-10 Sigma from the edge
    where the cell starts at 2e-10 Sigma, and the coupling-sweep input whose
    root lies inside the pole guard."""
    rng = np.random.default_rng(173)
    out = []
    for k in range(48):
        case, kind = "ABC"[k % 3], ("random", "seam", "coincident", "edge")[k // 3 % 4]
        b = float(rng.uniform(0.05, 1.0))
        if case == "A":
            a, b = 0.0, (10.0 ** rng.uniform(-8.0, -4.0) if kind == "seam" else b)
        elif kind == "seam" and case == "C":
            a = float(rng.uniform(0.3, 2.0))
            b = a * a / 2.0
        else:
            a = math.sqrt(2.0 * b) * float(
                1.0 - 10.0 ** rng.uniform(-8.0, -3.0) if kind == "seam"
                else rng.uniform(0.05, 0.95) if case == "B" else rng.uniform(1.05, 4.0))
        p = SystemParams(a, b)
        sigma, scale = threshold_sigma(p), max(1.0, threshold_sigma(p))
        if kind in ("random", "seam"):
            gm = gamma_for_couplings(p, float(rng.uniform(-2.0, 1.5)),
                                     float(rng.uniform(-2.0, 1.5)), float(rng.uniform(0.0, 2.0)))
            gm = Hermitian2(gm.pp, gm.mm, gm.pm * complex(math.cos(k), math.sin(k)))
        else:
            if kind == "coincident":
                e1 = -sigma - scale * 10.0 ** rng.uniform(-0.7, 3.5)
                e2 = e1 - abs(e1) * 10.0 ** rng.uniform(-10.0, -3.0)
            else:
                e1 = -sigma - scale * 10.0 ** rng.uniform(-9.0, -6.0)
                e2 = -sigma - scale * float(rng.uniform(0.2, 3.0))
            if k % 2:
                e1, e2 = e2, e1
            gm = Hermitian2(krein_q(p, e1).q_pp.real, krein_q(p, e2).q_mm.real)
        out.append((p, gm))
    p = SystemParams(2.0, 0.5)
    sigma = threshold_sigma(p)
    out.append((p, Hermitian2(krein_q(p, -sigma - 2.001e-10 * sigma).q_pp.real,
                              krein_q(p, -sigma - 1.0).q_mm.real)))
    out.append((SystemParams(1.404175458487645, 0.9301095272420988),
                gamma_from_cr(Hermitian2.scalar(-1.5512371676647674),
                              Hermitian2.scalar(-0.0035322558359299205))))
    return out


# printed by ``python tests/mpmath_reference.py``: CaseB inputs with alpha in
# [1e-5, 0.1] and their roots at 50 digits, rounded to float
SMALL_ALPHA_CASEB_ROOTS = [
    # alpha, beta, Gamma_pp, Gamma_mm, Gamma_pm, roots
    (0.0003955697536725441, 1.491346422718789, -1.1783637525043589, 0.2052603235548739, 0.2909313957878579,
     (-1.8576770554823967,)),
    (0.0018018016549113352, 1.3597777318722437, -1.2259504514108213, 0.009896193587715214, 0.036720596954357095,
     (-1.652367833413698, -1.5010092958854564)),
    (0.0001796323224531955, 1.5251754488329856, -2.3833469368458426, -0.6986696221334865, 0.28449626456098254,
     (-4.020355034754718, -2.6426414553971687)),
    (1.263617655989119e-05, 1.5284694533584178, -1.516835116814452, -0.16876155229384296, 0.1912872563739197,
     (-2.277503543352769, -1.6857298445693898)),
    (3.199510694295447e-05, 1.327098999829597, -1.6388671164548083, 0.2510204244103093, 0.27631314816431246,
     (-2.4110432605256285,)),
    (3.3306171167443374e-05, 0.8762709309011383, -0.7575993067611364, -0.09499760080134281, 0.1648285826529367,
     (-1.3923709926808379, -0.9726010836353168)),
    (0.00035553266353597994, 1.7845691909040904, -1.470012479862863, -0.6318078673810161, 0.09896501171841779,
     (-3.3461554207659137, -1.8630413142978424)),
    (0.0031833038424411266, 1.7296720794905371, -1.365397091111651, 0.14847908971666574, 0.21847905082213578,
     (-2.0023134166749985,)),
    (3.182181140751737e-05, 0.23065522325718213, 0.14561271949848448, 0.4026902478519256, 0.2107956698425077,
     (-0.4618059415702939,)),
    (0.006323073452227005, 0.5856358966929434, -0.3081964823979412, 0.4489244601245698, 0.006750683524302114,
     (-0.6227047530027926, -0.5986268683547313)),
    (3.4607934904115545e-05, 1.5533998366367614, -1.2482281134880826, 0.08518689884645086, 0.10360958337760069,
     (-1.7428633410013386, -1.5534157049129)),
    (9.17471554835005e-05, 1.8945827282167114, -2.947358375776256, -0.7828158830806158, 0.21601770366436748,
     (-4.701891870111416, -3.5361663140252615)),
]


class TestDiscrete:
    def test_grid_nodes_match_the_golden_bit_for_bit(self, monkeypatch):
        # four windows: pole edges at the README point, at a root in the
        # grid's last cell and with a span of 6e149, and a no-pole edge with
        # a root 3e-14 below -Sigma.  Each solve evaluates Q at both ends of
        # the grid, then at its nodes up from the lowest energy, with Brent's
        # points between them; the last-cell solve reaches every node
        energies = []
        monkeypatch.setattr(spectrum, "krein_q", lambda p, z: energies.append(z) or krein_q(p, z))
        reached = []
        for w in ROOT_GRID:
            edge, span = float.fromhex(w["edge"]), float.fromhex(w["span"])
            assert [x.hex() for x in _root_grid(edge, span)] == w["nodes"], w["name"]
            p = SystemParams(float.fromhex(w["alpha"]), float.fromhex(w["beta"]))
            pp, mm, re, im = (float.fromhex(h) for h in w["gamma"])
            energies.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert discrete_eigenvalues(p, Hermitian2(pp, mm, complex(re, im))), w["name"]
            sigma = threshold_sigma(p)
            grid = [-sigma - float.fromhex(h) for h in reversed(w["nodes"])]
            index = {e: i for i, e in enumerate(grid)}
            assert len(index) == spectrum._GRID_NODES
            walked = [index[e] for e in energies if e in index]
            assert walked[:2] == [0, len(grid) - 1], w["name"]
            assert walked[2:] == list(range(1, len(walked) - 1)), w["name"]
            reached.append(len(walked))
        assert max(reached) == spectrum._GRID_NODES and min(reached) < 100

    def test_solves_are_the_same_bits_in_any_order(self):
        # a pole window (edge twice the pole guard) and a no-pole window
        # (edge 1e-14 max(1, Sigma)), each shared by three Gammas, and a pole
        # input with a root inside the pole guard, whose larger Gamma_pp sets
        # a lower e_min.  Solved in runs that share a window, and alternating
        # between the parameter points, the roots and warnings are the same
        # bits as when each is solved alone.
        pole, smooth = SystemParams(2.0, 0.5), SystemParams(0.3, 0.5)
        assert pole._pole_guard > 0.0 and smooth._pole_guard == 0.0
        sigma = threshold_sigma(pole)
        gms = [Hermitian2(krein_q(pole, -sigma - 1.5e-10 * sigma).q_pp,
                          krein_q(pole, -sigma - 1.0).q_mm),
               Hermitian2(-0.4, 0.3, 0.2 - 0.1j), Hermitian2(0.5, -1.0, 0.3j),
               Hermitian2.scalar(-0.2)]
        inputs = {pole: gms, smooth: [Hermitian2(-0.6, 0.1, 0.2 + 0.2j),
                                      Hermitian2(-1.1, -0.9, 0.05), Hermitian2.scalar(-0.8)]}

        def solve(p, gm):
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                roots = discrete_eigenvalues(p, gm)
            return ([(r.energy.hex(), r.residual.hex()) for r in roots],
                    [str(w.message) for w in rec])

        want = {(p, k): solve(p, gm) for p, gs in inputs.items() for k, gm in enumerate(gs)}
        assert any("pole guard" in m for m in want[pole, 0][1])
        assert all(roots for roots, _ in want.values())
        shared = [(p, k) for p, gs in inputs.items() for k in range(len(gs))]
        alternating = [(p, k) for k in range(4) for p in inputs if k < len(inputs[p])]
        for order in (shared, alternating):
            for p, k in order:
                assert solve(p, inputs[p][k]) == want[p, k], (p, k)

    def test_roots_do_not_depend_on_numpys_cpu_kernels(self, monkeypatch):
        # the first 300 solve-mixed inputs of the benchmark's seed-1 pool,
        # solved here and in a subprocess with numpy's AVX-512 kernels off,
        # give the same roots, residuals and warnings.  On an AVX-512 CPU a
        # root grid built with np.power gives other bits on 6 of them
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        rows = [[x.hex() for x in (inp.params.alpha, inp.params.beta, inp.gamma.pp,
                                   inp.gamma.mm, inp.gamma.pm.real, inp.gamma.pm.imag)]
                for inp in workloads.solve_inputs(1)[:300]]
        here = Path(__file__).resolve().parent
        src = str(Path(spectrum.__file__).resolve().parents[1])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, str(here), os.environ.get("PYTHONPATH")) if p))
        code = ("import json, sys\n"
                "from test_spectrum import _solve_rows\n"
                "json.dump(_solve_rows(json.load(sys.stdin)), sys.stdout)")
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(rows), env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        assert json.loads(out.stdout) == _solve_rows(rows)

    def test_free_double_root(self):
        # a scalar Gamma at alpha = beta = 0: both branches vanish at one
        # energy, and the double eigenvalue is listed twice
        p = SystemParams(0.0, 0.0)
        g = 0.5
        roots = discrete_eigenvalues(p, Hermitian2.scalar(g))
        w = (g - 1.0) / math.sqrt(2.0)
        assert len(roots) == 2 and roots[0].energy == roots[1].energy
        assert roots[0].energy == pytest.approx(-w * w, rel=1e-10)

    def test_near_zero_beta_symmetric(self):
        # large coupling, beta ~ 0, omega tuned to 0: single root near -1.43923
        p = SystemParams(2.0, 1e-6)
        nd = normalization(p)
        gm = Hermitian2.scalar(-nd.n_plus ** 2 * nd.lambda_plus)
        roots = discrete_eigenvalues(p, gm)
        assert 1 <= len(roots) <= 2
        for r in roots:
            assert r.energy == pytest.approx(-1.43923, abs=1e-4)

    def test_two_channel_pair(self):
        p = SystemParams(2.0, 0.5)
        roots = discrete_eigenvalues(p, Hermitian2.scalar(-(-0.17850)))
        assert sorted(r.energy for r in roots) == pytest.approx(
            [-1.60313, -1.37956], abs=1e-3)

    def test_empty_spectrum_is_valid(self):
        # repulsive-like coupling: no bound state
        p = SystemParams(0.0, 0.0)
        assert discrete_eigenvalues(p, Hermitian2.scalar(3.0)) == ()

    def test_window_lower_end_is_below_every_root(self, monkeypatch):
        # both eigenvalues of Gamma - Q(E) are positive at the window's lower
        # end e_min = -max(100, 10 (1 + Sigma + w^2)), so, Gamma - Q(E) being
        # decreasing, no root lies below it: alpha = 0, beta = 0, the seam
        # and Gamma entries from 1e-3 up to 1e4 in size; on the first draws
        # the solver's grid starts at that e_min
        rng = np.random.default_rng(71)
        energies = []
        monkeypatch.setattr(spectrum, "krein_q",
                            lambda p, z: energies.append(z.real) or krein_q(p, z))

        def entry():
            return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 4.0)

        for k in range(400):
            a = 0.0 if k % 4 == 0 else float(rng.uniform(0.0, 4.0))
            b = (a * a / 2.0 if k % 4 == 1 else 0.0 if k % 4 == 2
                 else float(10.0 ** rng.uniform(-6.0, 1.0)))
            p = SystemParams(a, b)
            gm = Hermitian2(entry(), entry(), complex(entry(), entry()) if k % 3 else 0j)
            eff = effective_couplings(p, gm)
            w = max(abs(eff.omega_plus), abs(eff.omega_minus), math.sqrt(eff.gamma))
            e_min = -max(100.0, 10.0 * (1.0 + threshold_sigma(p) + w * w))
            q = krein_q(p, complex(e_min))
            m = np.array([[gm.pp - q.q_pp.real, gm.pm],
                          [gm.pm.conjugate(), gm.mm - q.q_mm.real]])
            assert np.all(np.linalg.eigvalsh(m) > 0.0), (a, b, gm)
            if k < 8:
                energies.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)   # pole guard
                    discrete_eigenvalues(p, gm)
                assert min(energies) == pytest.approx(e_min, rel=1e-14)
        # a Gamma whose w^2, or e_min^2 inside xi(e_min), overflows has no
        # window; one just below that still solves, its root inside the pole
        # guard of this seam point
        p = SystemParams(1.0, 0.5)
        with pytest.warns(UserWarning, match="inside the pole guard"):
            assert discrete_eigenvalues(p, Hermitian2.scalar(1e76)) == ()
        for v in (1e77, 1e80, 1e160):
            with pytest.raises(DomainError, match="overflows"):
                discrete_eigenvalues(p, Hermitian2.scalar(v))

    def test_a_branch_negative_at_the_window_end_is_an_error(self, monkeypatch):
        # the bound makes this impossible for the true Q; a Q that breaks it
        # must not lose the root below the window in silence, also when the
        # branches are positive at every other node, so that no branch has a
        # sign change above e_min = -100
        for q_above_e_min in (1e9, -1e9):
            def fake_q(p, z, q_above_e_min=q_above_e_min):
                q = 1e9 if z < -99.0 else q_above_e_min
                return KreinQ(q, q)

            monkeypatch.setattr(spectrum, "krein_q", fake_q)
            with pytest.raises(AssertionError, match="lambda_- <= 0 at e_min"):
                discrete_eigenvalues(SystemParams(1.0, 0.5), Hermitian2.scalar(0.1))

    def test_more_roots_than_the_edge_count_is_an_error(self, monkeypatch):
        # C at the band edge of this CaseB point is positive definite, so no
        # root exists; a Q that gives the walk two must not pass in silence
        def fake_q(p, z):
            q = -1e9 if z < -99.0 else 1e9
            return KreinQ(q, q)

        p, gm = SystemParams(0.3, 0.5), Hermitian2.scalar(50.0)
        assert spectrum._edge_count(p, effective_couplings(p, gm))[0] == 0
        monkeypatch.setattr(spectrum, "krein_q", fake_q)
        with pytest.raises(AssertionError, match="2 roots found against the edge count 0"):
            discrete_eigenvalues(p, gm)

    def test_q_evaluations_stop_at_the_deciding_nodes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectrum, "krein_q", lambda p, z: calls.append(z) or krein_q(p, z))
        # no root: both branches are positive at both ends of the grid
        assert discrete_eigenvalues(SystemParams(0.3, 0.5), Hermitian2.scalar(50.0)) == ()
        assert len(calls) == 2
        # the README point: the walk stops at the upper root's first node
        calls.clear()
        gm = gamma_from_cr(Hermitian2.scalar(-50.0), Hermitian2.scalar(-0.17850))
        assert len(discrete_eigenvalues(SystemParams(2.0, 0.5), gm)) == 2
        assert len(calls) < spectrum._GRID_NODES // 2
        # its two roots take a few Brent steps each beyond the walk's nodes
        assert len(calls) <= 456

    def test_brent_evaluates_no_point_twice(self):
        # the ends' values are passed in, so f is never called at an end, and
        # no point is evaluated twice; 1e-15*max(1, |x|) accuracy in a few
        # steps on smooth functions
        for f, want in ((lambda x: x * x - 2.0, math.sqrt(2.0)),
                        (lambda x: x - 1e-16, 1e-16),
                        (lambda x: math.exp(-x) - 0.5, math.log(2.0))):
            calls = []
            got = spectrum._brent(lambda x: calls.append(x) or f(x), 0.0, 2.0, f(0.0), f(2.0))
            assert got == pytest.approx(want, rel=1e-15, abs=1e-15)
            assert len(set(calls)) == len(calls) <= 10
            assert 0.0 not in calls and 2.0 not in calls

    def test_brent_bisects_next_to_a_log_pole(self):
        # 1 + log(x)/20 on [1e-300, 1] is flat at the upper end and falls to
        # -33.5 at the lower one: secant steps from the upper end would creep,
        # so the guard bisects, and the root 2.06e-9 comes in no more steps
        # than plain bisection to 1e-15 takes (50)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 + 0.05 * math.log(x)

        got = spectrum._brent(f, 1e-300, 1.0, f(1e-300), f(1.0))
        calls = calls[2:]
        assert abs(got - math.exp(-20.0)) <= 1e-15
        assert len(set(calls)) == len(calls) <= 50
        assert 1e-300 not in calls and 1.0 not in calls
        # ends of one sign: the one nearer a touching zero, with no evaluation
        calls.clear()
        assert spectrum._brent(f, 1.0, 2.0, 1e-17, 0.5) == 1.0 and not calls

    def test_theorem1_closure(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = rng.uniform(0.05, 1.0)
            p = SystemParams(0.0, b)
            wp, wm = rng.uniform(-2, 1.5), rng.uniform(-2, 1.5)
            g = rng.uniform(0, 2)
            gm = gamma_for_couplings(p, wp, wm, g)
            for r in discrete_eigenvalues(p, gm):
                e = r.energy
                assert e < -b
                closure = g - (wp + math.sqrt(b - e)) * (wm + math.sqrt(-b - e))
                assert abs(closure) <= 1e-10

    def test_close_pair(self):
        # gamma = 0 at alpha = 0: the channel roots beta - w^2 and -beta - w^2
        # lie 2*beta apart, well inside one cell of the grid at |E| ~ 2500
        p = SystemParams(0.0, 0.5)
        roots = discrete_eigenvalues(p, gamma_for_couplings(p, -50.0, -50.0, 0.0))
        assert [r.energy for r in roots] == pytest.approx([-2500.5, -2499.5], rel=1e-12)

    def test_equal_omega_sweep(self):
        b = 0.5
        p = SystemParams(0.0, b)
        for w in np.geomspace(1.0, 1000.0, 60):
            roots = discrete_eigenvalues(p, gamma_for_couplings(p, -w, -w, 0.0))
            want = sorted(e for e in (b - w * w, -b - w * w) if e < -b)
            assert [r.energy for r in roots] == pytest.approx(want, rel=1e-12), w

    def test_edge_root(self):
        # the minus-channel root sits 1e-10 below the threshold -beta
        p = SystemParams(0.0, 0.5)
        roots = discrete_eigenvalues(p, gamma_for_couplings(p, 1.0, -1e-5, 0.0))
        assert [r.energy for r in roots] == pytest.approx([-0.5 - 1e-10], rel=1e-12)

    def test_constructed_roots(self):
        # Gamma = diag(Re Q_pp(e1), Re Q_mm(e2)) has its roots exactly at e1, e2
        rng = np.random.default_rng(41)
        for k in range(40):
            b = rng.uniform(0.05, 1.0)
            a = (0.0, rng.uniform(0.05, 0.95), rng.uniform(1.0, 4.0))[k % 3] \
                * math.sqrt(2.0 * b)
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            e1 = -sigma - 10.0 ** rng.uniform(-8.0, 2.0) * max(1.0, sigma)
            if rng.uniform() < 0.5:
                e2 = -sigma - 10.0 ** rng.uniform(-8.0, 2.0) * max(1.0, sigma)
            else:
                e2 = e1 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -1.0) * abs(e1)
                if e2 >= -sigma:
                    e2 = 2.0 * e1 - e2
            gm = Hermitian2(krein_q(p, e1).q_pp.real, krein_q(p, e2).q_mm.real)
            got = [r.energy for r in discrete_eigenvalues(p, gm)]
            # close pairs too: one root per branch, each within 1e-8
            assert got == pytest.approx(sorted((e1, e2)), rel=1e-8), (a, b, e1, e2)

    def test_small_alpha_caseb_roots_match_mpmath(self):
        # at small alpha, Lambda_s reads artanh(alpha xi(i)) just above G_1's
        # series switch: an artanh that loses eps/|w| there moves these roots
        # by up to 4e-13
        for a, b, pp, mm, pm, want in SMALL_ALPHA_CASEB_ROOTS:
            got = [r.energy for r in discrete_eigenvalues(SystemParams(a, b),
                                                          Hermitian2(pp, mm, pm))]
            assert got == pytest.approx(list(want), rel=1e-14, abs=0.0), (a, b)

    @pytest.mark.parametrize("gap", [2e-9, 5e-10])
    def test_close_channel_roots_are_both_reported(self, gap):
        # channel roots gap*|E| apart at E = -2, on either side of 1e-9: each
        # branch's root is reported where it lies
        p = SystemParams(2.0, 0.5)
        e1, e2 = -2.0, -2.0 * (1.0 + gap)
        gm = Hermitian2(krein_q(p, e1).q_pp.real, krein_q(p, e2).q_mm.real)
        roots = discrete_eigenvalues(p, gm)
        assert [r.energy for r in roots] == pytest.approx([e2, e1], rel=1e-12, abs=0.0)

    def test_a_root_next_to_a_steep_edge_does_not_warn(self):
        # a few ulps below the seam gamma - c_+ c_- rises by about 17 over the
        # last 1e-12 before the edge: at this root, a quarter ulp from the
        # 60-digit root, secular_function reads -1.2e-5, yet changes sign
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import branch_roots_mp

        a, b = 0.47004875356927067, 0.11047291536601249
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = discrete_eigenvalues(SystemParams(a, b), Hermitian2.scalar(5.0))
        with mpmath.workdps(60):
            want = branch_roots_mp(a, b, 5.0, 5.0, 0.0)
        assert len(roots) == len(want) == 1
        assert abs(roots[0].energy - want[0]) <= math.ulp(roots[0].energy)

    def test_formulations_that_disagree_warn(self, monkeypatch):
        # a secular_function with no zero near the root
        monkeypatch.setattr(spectrum, "secular_function", lambda p, eff, e: 1.0)
        with pytest.warns(UserWarning, match="formulations disagree") as rec:
            roots = discrete_eigenvalues(SystemParams(0.0, 0.0), Hermitian2.scalar(0.5))
        # the free double root, listed twice: each copy is checked
        assert len(roots) == 2
        assert sum("formulations disagree" in str(w.message) for w in rec) == 2

    def test_the_agreement_window_ends_at_the_grids_last_node(self, monkeypatch):
        # a root 3e-10 relative below the pole: its window, 1e-9 relative,
        # would reach through the pole guard onto the band
        p = SystemParams(2.0, 0.5)
        sigma = threshold_sigma(p)
        e1 = -sigma - 3e-10 * sigma
        gm = Hermitian2(krein_q(p, e1).q_pp, krein_q(p, -sigma - 1.0).q_mm)
        seen = []

        def shifted(p, eff, e):
            seen.append(e)
            return secular_function(p, eff, e) + 1.0

        monkeypatch.setattr(spectrum, "secular_function", shifted)
        with pytest.warns(UserWarning, match="formulations disagree"):
            roots = discrete_eigenvalues(p, gm)
        assert roots[-1].energy == pytest.approx(e1, rel=1e-12)
        assert max(seen) == -sigma - 2.0 * p._pole_guard

    def test_two_simple_roots_next_to_the_edge(self):
        # CaseC, gamma = 0: channel roots 1.49e-9 and 4.93e-9 below -Sigma,
        # 3.4e-9 apart, both outside the pole guard; each is reported within
        # a few ulps of its 50-digit value, and neither route warns
        p = SystemParams(2.9677027571477224, 3.7888855499800984)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = discrete_eigenvalues(p, Hermitian2(1.3648654649482084, 8.189583546880181))
        want = [-3.831794534710712, -3.831794531272113]
        assert len(roots) == 2
        for r, w in zip(roots, want):
            assert abs(r.energy - w) <= 4.0 * math.ulp(w), (r.energy, w)

    def test_close_pairs_next_to_the_edge(self):
        # 200 CaseC inputs with gamma = 0 and channel roots 3e-10 to
        # 1.5e-9 max(1, Sigma) below the edge, their depths 1.3 to 3 times
        # apart: omega_s = -c_s at omega = 0 puts each channel's root at its
        # depth, and both come back, with no warning
        rng = np.random.default_rng(17)
        for k in range(200):
            b = float(rng.uniform(0.05, 1.0))
            a = math.sqrt(2.0 * b) * float(rng.uniform(1.1, 2.5))
            p = SystemParams(a, b)
            sigma = threshold_sigma(p)
            ratio = float(rng.uniform(1.3, 3.0))
            d = float(10.0 ** rng.uniform(math.log10(3e-10), math.log10(1.5e-9 / ratio)))
            d_p, d_m = (d, d * ratio) if k % 2 else (d * ratio, d)
            e_p, e_m = (-sigma - dd * max(1.0, sigma) for dd in (d_p, d_m))
            wp = -spectrum._channel_factors(a, b, _xi_real(b, e_p), 0.0, 0.0)[0]
            wm = -spectrum._channel_factors(a, b, _xi_real(b, e_m), 0.0, 0.0)[1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                roots = discrete_eigenvalues(p, gamma_for_couplings(p, wp, wm, 0.0))
            assert [r.energy for r in roots] == pytest.approx(sorted((e_p, e_m)), rel=1e-12,
                                                              abs=0.0), (a, b, d_p, d_m)

    def test_root_inside_pole_guard_warns(self):
        p = SystemParams(2.0, 0.5)
        sigma = threshold_sigma(p)
        q_edge = krein_q(p, -sigma - 1.5e-10 * sigma).q_pp.real
        gm = Hermitian2(q_edge, krein_q(p, -sigma - 1.0).q_mm.real)
        with pytest.warns(UserWarning, match="pole guard") as direct:
            roots = discrete_eigenvalues(p, gm)
        assert [r.energy for r in roots] == pytest.approx([-2.0625], rel=1e-12)
        # the warning points at the caller's line, also through solve_spectrum
        with pytest.warns(UserWarning, match="pole guard") as nested:
            solve_spectrum(p, gm)
        for rec in (direct, nested):
            assert {w.filename for w in rec if "pole guard" in str(w.message)} == {__file__}

    def test_matches_the_full_grid_solve_bit_for_bit(self):
        # the solver evaluates only the nodes that decide a bracket; the
        # roots, residuals and warnings are those of the solve that
        # evaluates every node
        seen = set()
        for p, gm in _walk_inputs():
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                want, messages = _full_grid_solve(p, gm)
                assert not rec
                got = discrete_eigenvalues(p, gm)
            assert [(r.energy.hex(), r.residual.hex()) for r in got] == \
                [(r.energy.hex(), r.residual.hex()) for r in want], (p, gm)
            assert [str(w.message) for w in rec] == messages, (p, gm)
            seen.add(len(got))
            if len(got) == 2 and got[1].energy - got[0].energy <= 1e-9 * abs(got[0].energy):
                seen.add("close pair")
            seen.update("pole guard" for m in messages if "pole guard" in m)
        assert seen == {1, 2, "close pair", "pole guard"}


class TestEdgeCount:
    @pytest.mark.parametrize("workload", ["solve-mixed", "coupling-sweep"])
    def test_found_and_warned_roots_equal_the_edge_count(self, workload, monkeypatch):
        # the roots the walk finds (one per branch) and the ones it
        # warns about are those the inertia of C at the band edge counts, on
        # the benchmark's pools of seeds 1-2: CaseA/B/C, the seam, roots
        # within 1e-6 Sigma of the edge and inside the pole guard.  The rule
        # the count replaced gives the same warnings there: a branch positive
        # at the grid's last node, next to the pole, lambda_+ not on the seam
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        counts, warned_inputs = set(), 0
        for seed in (1, 2):
            for inp in workloads.WORKLOADS[workload].make_inputs(seed):
                p = inp.params
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    roots = discrete_eigenvalues(p, inp.gamma)
                found = len(roots)
                count, reason = spectrum._edge_count(p, effective_couplings(p, inp.gamma))
                unreported = verify._unreported_branches(rec)
                assert found + unreported == count, (inp, reason)
                # found counts the branches <= 0 at the last node, lambda_- first
                pole, seam = p._pole_guard > 0.0, p.alpha * p.alpha == 2.0 * p.beta
                old_rule = 2 - found if pole and not seam else int(pole and found == 0)
                assert unreported == old_rule, (inp, reason)
                counts.add(count)
                warned_inputs += unreported > 0
        assert counts == {0, 1, 2}
        assert warned_inputs > 0 or workload == "coupling-sweep"

    def test_reasons(self):
        p = SystemParams(2.0, 0.5)
        assert spectrum._edge_count(p, EffectiveCouplings(5.0, 5.0, 0.0)) == (
            2, "c_+ and c_- tend to -inf at the band edge")
        count, reason = spectrum._edge_count(SystemParams(0.3, 0.5),
                                             EffectiveCouplings(5.0, 5.0, 0.0))
        assert count == 0 and reason.startswith("C at the band edge has 0 negative")

    @pytest.mark.parametrize("shift,want", [(-1e-3, 2), (0.0, 1), (1e-3, 1)])
    def test_zero_at_the_edge_on_the_seam(self, shift, want):
        # on the seam c_+ = omega_+ + u has no pole: with gamma = 0 its root
        # is at u = -omega_+, at -Sigma itself for omega_+ = -alpha/2, and
        # below it by about (2 shift)^2 for omega_+ = -alpha/2 + shift < that
        a = 1.5
        p = SystemParams(a, a * a / 2.0)
        gm = gamma_for_couplings(p, -a / 2.0 + shift, 1.0, 0.0)
        count, reason = spectrum._edge_count(p, effective_couplings(p, gm))
        assert count == want and reason.startswith("on the seam")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            roots = discrete_eigenvalues(p, gm)
        assert len(roots) == want and not rec

    @pytest.mark.parametrize("a,g,want", [(0.0, 0.0, 1), (0.5, 0.0, 1), (0.5, 2.0, 1),
                                          (0.5, 2.0 * (1.0 - 1e-4), 2)])
    def test_zero_at_the_edge_without_the_pole(self, a, g, want):
        # C(u_edge) = [[-1, sqrt(g)], [sqrt(g), c_-]] with c_- = 0 for g = 0
        # and -2 otherwise: singular for g = 0 and g = 2, where the zero
        # eigenvalue is a root at -Sigma itself, not counted and not warned of
        b = 0.5
        p = SystemParams(a, b)
        c0p, c0m = spectrum._edge_factors(a, b, 0.0, 0.0)
        cm = 0.0 if g == 0.0 else -2.0
        gm = gamma_for_couplings(p, -1.0 - c0p, cm - c0m, g)
        assert spectrum._edge_count(p, effective_couplings(p, gm))[0] == want
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            roots = discrete_eigenvalues(p, gm)
        assert len(roots) == want and not rec

    def test_edge_factors_within_the_counts_slack(self):
        # C at the edge without the pole against 50 digits, 1-5 ulps below
        # the seam and in generic CaseB: each factor lies within the rounding
        # slack that _edge_count allows it, 4 eps for each term of
        # c_s = u - (alpha/2) A + s (beta/alpha) A at omega_s = 0
        mpmath = pytest.importorskip("mpmath")
        from mpmath_reference import c0_mp
        rng = np.random.default_rng(61)
        points = [(1.8347014526009928, 1.6830647100880969),
                  (0.47004875356927067, 0.11047291536601249)]
        for k in range(40):
            b = float(10.0 ** rng.uniform(-3.0, 1.0))
            a = math.sqrt(2.0 * b) * (float(rng.uniform(0.01, 0.99)) if k % 2 else 1.0)
            for _ in range(0 if k % 2 else 1 + k % 5):
                a = math.nextafter(a, 0.0)
            if a * a < 2.0 * b:
                points.append((a, b))
        assert len(points) > 30
        with mpmath.workdps(50):
            for a, b in points:
                cp, cm = spectrum._edge_factors(a, b, 0.0, 0.0)
                u = math.sqrt(0.5 * b)
                slack = spectrum._ROUNDING * (u + abs(u - cm))
                x = 1 / mpmath.sqrt(2 * mpmath.mpf(b))
                for s, c in ((1, cp), (-1, cm)):
                    assert abs(c - c0_mp(a, b, s, x)) <= slack, (a, b, s)

    @pytest.mark.parametrize("a,b,g,want", [
        (1.8347014526009928, 1.6830647100880969, 0.3, 1),
        (1.8347014526009928, 1.6830647100880969, -2.0, 2),
        (1.8347014526009928, 1.6830647100880969, 5.0, 1),
        (0.47004875356927067, 0.11047291536601249, 0.3, 2),
        (0.47004875356927067, 0.11047291536601249, -2.0, 2),
        (0.47004875356927067, 0.11047291536601249, 5.0, 1)])
    def test_a_few_ulps_below_the_seam(self, a, b, g, want):
        # CaseB with alpha^2 < 2 beta in floats, no pole, but alpha*xi(-Sigma)
        # = alpha/sqrt(2 beta) rounds to 1: the edge count takes artanh from
        # 2 beta - alpha^2 and matches the 60-digit mpmath inertia of C at
        # the edge (want), and the walk finds or warns of exactly those roots.
        # The root for g = 5 at the second point lies 7e-14 below the edge,
        # where the secular residual check warns that the formulations disagree
        p = SystemParams(a, b)
        assert p._pole_guard == 0.0 and a * (1.0 / math.sqrt(2.0 * b)) == 1.0
        gm = Hermitian2.scalar(g)
        count = spectrum._edge_count(p, effective_couplings(p, gm))[0]
        assert count == want
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            roots = discrete_eigenvalues(p, gm)
        assert len(roots) + verify._unreported_branches(rec) == count


class TestEmbeddedAlpha0:
    def test_minus_beta_singleton(self):
        b, wp, wm = 0.5, -0.3, 0.4
        g = (wp + math.sqrt(2.0 * b)) * wm
        eff = EffectiveCouplings(wp, wm, g)
        out = embedded_alpha0(b, eff)
        assert [r.energy for r in out] == [pytest.approx(-b)]
        assert out[0].theorem == "T1"

    def test_plus_channel_singleton(self):
        eff = EffectiveCouplings(-0.6, 0.3, 0.0)
        out = embedded_alpha0(0.5, eff)
        assert [r.energy for r in out] == [pytest.approx(0.5 - 0.36)]

    def test_beta_singleton_with_companions(self):
        # gamma = omega_- = 0 puts beta in the spectrum; the same data also
        # satisfies the -beta condition (both sides vanish) and the plus
        # channel qualifies through -sqrt(2 beta) < omega_+ < 0
        eff = EffectiveCouplings(-0.5, 0.0, 0.0)
        out = embedded_alpha0(0.5, eff)
        assert [r.energy for r in out] == [pytest.approx(-0.5), pytest.approx(0.25),
                                           pytest.approx(0.5)]

    def test_beta_zero_empty(self):
        assert embedded_alpha0(0.0, EffectiveCouplings(-0.5, 0.0, 0.0)) == ()

    def test_generic_empty(self):
        eff = EffectiveCouplings(0.7, 0.9, 1.3)
        assert embedded_alpha0(0.5, eff) == ()


class TestCaseCFunctions:
    def test_e_nu_at_nu(self):
        for nu in (1.0, 2.0, 17.5):
            assert e_nu(0.4, nu, nu) == pytest.approx(0.4, rel=1e-14)

    def test_u1_at_one(self):
        assert u_nu(1.0, 1.0) == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-14)

    def test_u1_zero_location(self):
        assert abs(u_nu(1.0, 0.76538)) < 1e-4

    def test_v_equals_u_at_nu_one(self):
        for x in (0.3, 0.76538, 1.0):
            assert v_nu(1.0, x) == pytest.approx(u_nu(1.0, x), rel=1e-12)

    def test_e_nu_minimum_at_endpoint(self):
        # E_nu >= beta on (0, nu], with the minimum attained at x = nu
        b, nu = 0.4, 1.7
        xs = np.linspace(1e-3, nu, 400)
        vals = [e_nu(b, nu, float(x)) for x in xs]
        assert min(vals) >= b - 1e-14
        assert vals[-1] == pytest.approx(b, rel=1e-14)

    def test_e_nu_where_nu_to_the_fourth_overflows(self):
        nu, x = 3.5e150, 1.2
        assert e_nu(1e-300, nu, x) == pytest.approx(0.5e-300 * (nu / x) ** 2, rel=1e-14)
        assert e_nu(0.5, 1e200, 1e200) == pytest.approx(0.5, rel=1e-14)

    def test_domains(self):
        with pytest.raises(DomainError):
            u_nu(0.9, 0.5)
        with pytest.raises(DomainError):
            u_nu(2.0, 2.5)
        with pytest.raises(DomainError):
            e_nu(0.0, 2.0, 1.0)

    def test_values_beyond_the_float_range(self):
        # U_nu ~ -1/x^2 and E_nu ~ beta nu^2/(2 x^2) leave the float range at
        # small x: an overflow, -inf, and nan from x*x = 0 against U = -inf
        with pytest.raises(DomainError, match="E_nu leaves the float range"):
            e_nu(0.5, 2.0, 1e-200)
        with pytest.raises(DomainError, match="U_nu leaves the float range"):
            v_nu(2.0, 1e-200)
        with pytest.raises(DomainError, match="U_nu leaves the float range"):
            u_nu(2.0, 1e-310)

    def test_v_nu_where_nu_squared_x_squared_overflows(self):
        # (nu^2 - 1) x x U_nu overflows from nu ~ 1e77 on, while V_nu ~
        # -2.5 nu^2 stays finite: the value against 50-digit mpmath, and a
        # CaseC solve there with both omegas zero, which reads V_nu up to x = nu
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for nu, x in ((1e80, 3.8e79), (1e120, 1e100), (1e150, 1e150), (1e150, 2.0)):
                n2, xm = mpmath.mpf(nu) ** 2, mpmath.mpf(x)
                u = ((n2 + 1) / n2 * mpmath.atan(xm) - 1 / xm) / xm
                want = n2 / (n2 + 1) * u * (2 - (n2 - 1) * xm * xm * u)
                assert v_nu(nu, x) == pytest.approx(float(want), rel=1e-14)
        b = 1e-200
        p = SystemParams(1e80 * math.sqrt(2.0 * b), b)
        with pytest.warns(UserWarning, match="extreme"):
            assert embedded_large_alpha(p, EffectiveCouplings(0.0, 0.0, 0.5)) == ()


class TestLargeCouplingContext:
    def test_nu_one(self):
        b = 0.5
        ctx = large_coupling_context(SystemParams(math.sqrt(2.0 * b), b))
        assert ctx.x_nu_1 == pytest.approx(0.76538, abs=5e-5)
        assert ctx.x_nu_2 is None
        assert ctx.e_nu_1 / b == pytest.approx(1.14643, abs=5e-5)

    def test_nu_huge(self):
        beta = 2.0 ** 2 / (2.0 * 1e6 ** 2)
        ctx = large_coupling_context(SystemParams(2.0, beta))
        assert ctx.nu == pytest.approx(1e6, rel=1e-12)
        assert ctx.x_nu_1 == pytest.approx(1.16234, abs=1e-4)
        # x_{nu,2} sits about 1e-12 above x_{nu,1}
        x2 = ctx.x_nu_2
        assert ctx.x_nu_1 < x2 < ctx.x_nu_1 * (1.0 + 1e-11)
        assert abs(u_nu(ctx.nu, x2) - 2.0 / ((ctx.nu ** 2 - 1.0) * x2 * x2)) <= 1e-15

    def test_second_zero_exists_at_nu_two(self):
        ctx = large_coupling_context(SystemParams(2.0, 0.5))
        assert ctx.x_nu_2 == pytest.approx(1.4018, abs=1e-4)
        assert ctx.x_nu_1 <= ctx.x_nu_2
        assert 0.5 <= ctx.e_nu_2 <= ctx.e_nu_1

    def test_second_zero_absent_at_nu_16(self):
        b = 0.5
        ctx = large_coupling_context(SystemParams(1.6 * math.sqrt(2.0 * b), b))
        assert ctx.x_nu_2 is None     # the would-be zero 1.61471 exceeds nu = 1.6

    def test_levels_match_mpmath(self):
        # x_{nu,1} and x_{nu,2} are the roots of x arctan(x) at the float
        # levels nu^2/(nu^2 +- 1); each is pinned to 2 ulps of a 50-digit
        # Newton root.  x_{nu,2} is None exactly where its root exceeds nu,
        # or where the two levels are the same float: that happens once
        # nu^2 >= 2^53 (nu >= 9.49e7), where nu^2 +- 1 rounds back to nu^2
        # and both levels are 1.0.  beta = 0.5 makes nu = alpha exactly.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        seeded = np.exp(rng.uniform(math.log1p(1e-9), math.log(1e8), 80))
        merged = np.linspace(9.0e7, 1.5e8, 13)          # 9.0e7 and 9.5e7 straddle it
        nus = [1.0 + 1e-9, 1.6, 1.62, 9.4906265e7, 9.4906266e7, 1e8,
               *seeded, *merged]

        def newton_root(level: float) -> float:
            lvl = mpmath.mpf(level)
            return float(mpmath.findroot(lambda t: t * mpmath.atan(t) - lvl, lvl + 1,
                                         solver="newton",
                                         df=lambda t: mpmath.atan(t) + t / (1 + t * t)))

        merged_seen = present_seen = absent_seen = 0
        with mpmath.workdps(50):
            for nu in map(float, nus):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore" if nu > 1e8 else "error", UserWarning)
                    ctx = large_coupling_context(SystemParams(nu, 0.5))
                assert ctx.nu == nu
                n2 = nu * nu
                lvl1, lvl2 = n2 / (n2 + 1.0), n2 / (n2 - 1.0)
                r1 = newton_root(lvl1)
                assert abs(ctx.x_nu_1 - r1) <= 2.0 * math.ulp(r1)
                assert (lvl1 == lvl2) == (n2 >= 2.0 ** 53)
                if lvl1 == lvl2:
                    assert ctx.x_nu_2 is None
                    merged_seen += 1
                elif mpmath.mpf(nu) * mpmath.atan(nu) < lvl2:
                    assert ctx.x_nu_2 is None
                    absent_seen += 1
                else:
                    r2 = newton_root(lvl2)
                    assert ctx.x_nu_2 is not None and r2 <= nu
                    assert abs(ctx.x_nu_2 - r2) <= 2.0 * math.ulp(r2)
                    present_seen += 1
        assert merged_seen >= 10 and present_seen >= 50 and absent_seen >= 5

    @pytest.mark.parametrize("nu", [1e17, 1e50, 1e150])
    def test_extreme_nu_matches_mpmath(self, nu):
        # the level nu^2/(nu^2 + 1) is 1.0 in floats; Newton started at hi = nu
        # used to round its first step to x <= 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            root = float(mpmath.findroot(lambda t: t * mpmath.atan(t) - 1, 1.2))
        with pytest.warns(UserWarning, match="extreme"):
            ctx = large_coupling_context(SystemParams(nu, 0.5))
        assert ctx.nu == nu
        assert abs(ctx.x_nu_1 - root) <= 1e-15 * root
        assert math.isfinite(ctx.e_nu_1) and ctx.e_nu_1 > 0.0
        assert ctx.e_nu_1 == pytest.approx(0.25 * (nu / root) ** 2, rel=1e-14)

    def test_nu_squared_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="nu\\^2 overflows"):
            large_coupling_context(SystemParams(1.0, 1e-310))

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            large_coupling_context(SystemParams(0.1, 0.5))

    def test_extreme_nu_warns(self):
        beta = 2.0 ** 2 / (2.0 * 1e9 ** 2)
        p = SystemParams(2.0, beta)
        with pytest.warns(UserWarning, match="extreme") as direct:
            large_coupling_context(p)
        with pytest.warns(UserWarning, match="extreme") as nested:
            embedded_large_alpha(p, EffectiveCouplings(1.0, 0.0, 0.0))
        for rec in (direct, nested):
            assert {w.filename for w in rec if "extreme" in str(w.message)} == {__file__}

    def test_memoized_and_warns_on_every_call(self, monkeypatch):
        calls, miss = [], spectrum._large_coupling_miss
        monkeypatch.setattr(spectrum, "_large_coupling_miss",
                            lambda a, b: calls.append((a, b)) or miss(a, b))
        p = SystemParams(2.0, 2.0 ** 2 / (2.0 * 1e9 ** 2))
        fresh = SystemParams(p.alpha, p.beta)
        with pytest.warns(UserWarning, match="extreme") as rec:
            first = large_coupling_context(p)
            second = large_coupling_context(p)
            third = large_coupling_context(fresh)
        assert second is first and p._large_coupling is first
        # an equal but distinct point is its own memo: the same bits, once more
        assert third is not first and third == first and fresh._large_coupling is third
        assert calls == [(p.alpha, p.beta)] * 2
        assert len([w for w in rec if "extreme" in str(w.message)]) == 3

    def test_a_failed_context_stores_nothing(self):
        # the regime gate and the nu^2 overflow raise on every call
        for p, err in ((SystemParams(0.1, 0.5), RegimeError),
                       (SystemParams(1.0, 1e-310), DomainError)):
            for _ in range(2):
                with pytest.raises(err):
                    large_coupling_context(p)
                assert p._large_coupling is None


class TestEmbeddedLargeAlpha:
    def test_limit_energy(self):
        params = SystemParams(2.0, 1e-5)
        gm = gamma_for_couplings(params, 1.0, 0.0, 0.0)
        out = embedded_large_alpha(params, effective_couplings(params, gm))
        assert len(out) == 1
        assert out[0].energy == pytest.approx(0.74018, abs=1e-3)
        assert out[0].theorem == "T3"
        assert out[0].series_valid is False   # needs analytic continuation

    def test_endpoint_root_gives_beta(self):
        # at nu = 1 the constraint at x = nu forces omega_- = U_1(1)*omega_+,
        # which keeps gamma = omega_+ omega_- + (beta/2) V_1(1) nonnegative
        b = 0.5
        params = SystemParams(math.sqrt(2.0 * b), b)
        wp = 1.0
        wm = u_nu(1.0, 1.0) * wp
        g = wp * wm + 0.5 * b * v_nu(1.0, 1.0)
        assert g >= 0.0
        eff = EffectiveCouplings(wp, wm, g)
        out = embedded_large_alpha(params, eff)
        assert any(r.energy == pytest.approx(b, abs=1e-8) for r in out)

    def test_zero_omegas_give_both_roots(self):
        # gamma = (beta/2) V_nu(x) meets the single peak of V_nu twice; at nu = 20
        # both roots lie within 0.004 of x_{nu,1}
        b = 0.5
        for nu in (2.0, 20.0):
            params = SystemParams(nu * math.sqrt(2.0 * b), b)
            ctx = large_coupling_context(params)
            xs = np.linspace(ctx.x_nu_1, ctx.x_nu_2, 201)
            peak = max(0.5 * b * v_nu(nu, float(x)) for x in xs)
            out = embedded_large_alpha(params, EffectiveCouplings(0.0, 0.0, 0.5 * peak))
            assert len(out) == 2
            assert ctx.e_nu_2 < out[0].energy < out[1].energy < ctx.e_nu_1
            assert all(r.condition_residual <= 1e-12 * peak for r in out)
            # at gamma = 0 the roots are x_{nu,1} and x_{nu,2} themselves
            out = embedded_large_alpha(params, EffectiveCouplings(0.0, 0.0, 0.0))
            assert [r.energy for r in out] == pytest.approx([ctx.e_nu_2, ctx.e_nu_1],
                                                            rel=1e-12)

    def test_generic_rejection(self):
        rng = np.random.default_rng(41)
        params = SystemParams(2.0, 0.5)
        nu = 2.0
        for _ in range(25):
            wp, wm = rng.uniform(-2, 2), rng.uniform(-2, 2)
            g = rng.uniform(0.0, 2.0)
            eff = EffectiveCouplings(wp, wm, g)
            out = embedded_large_alpha(params, eff)
            for r in out:
                # accepted roots satisfy the gamma condition by construction
                assert r.condition_residual <= 1e-8 * (1.0 + g)
                assert 0.5 <= r.energy <= large_coupling_context(params).e_nu_1 + 1e-12
            if not out:
                # rejection is real: the gamma gap at the linear-constraint roots
                # is positive
                acoef = (nu ** 2 + 1) * wp + (nu ** 2 - 1) * wm
                h = lambda x: 2 * wm - x * x * u_nu(nu, x) * acoef
                xs = np.linspace(large_coupling_context(params).x_nu_1, nu, 2000)
                hv = [h(float(x)) for x in xs]
                for i in range(len(xs) - 1):
                    if (hv[i] < 0) != (hv[i + 1] < 0):
                        xm = 0.5 * (xs[i] + xs[i + 1])
                        gap = abs(g - wp * wm - 0.25 * v_nu(nu, float(xm)))
                        assert gap > 1e-8


class TestForbiddenBand:
    def test_negative_for_random_omegas(self):
        rng = np.random.default_rng(43)
        params = SystemParams(2.0, 0.5)
        for _ in range(10):
            eff = EffectiveCouplings(rng.uniform(-2, 2), rng.uniform(-2, 2),
                                     rng.uniform(0, 2))
            rep = forbidden_band_scan(params, eff)
            assert rep.max_gamma_required < 0.0
            assert rep.band == (-threshold_sigma(params), 0.5)

    # the scalar route on (-Sigma, beta), which the Green layer does not take:
    # xi real on E <= -beta and the half-angle form above it, artanh continued
    # as r - i pi/2 on its cut w > 1, and the channel factors at sgn = +1
    @staticmethod
    def band_xi(b, e):
        if e <= -b:
            return complex(1.0 / math.sqrt(2.0 * (-e + math.sqrt(e * e - b * b))))
        return complex(math.sqrt(b - e) / (2.0 * b),
                       math.copysign(math.sqrt(b + e) / (2.0 * b), e + 0.0))

    @staticmethod
    def cut_artanh(w):
        if w.imag != 0.0:
            return cmath.atanh(w)
        if w.real > 1.0:
            return complex(0.5 * math.log((w.real + 1.0) / (w.real - 1.0)), -0.5 * math.pi)
        return complex(math.atanh(w.real))

    @classmethod
    def scalar_route(cls, p, wp, e):
        """(Re c_+, gamma required) at E in (-Sigma, beta), omega_- = 0."""
        a, b = p.alpha, p.beta
        x = cls.band_xi(b, e)
        ar = cls.cut_artanh(a * x)
        inv = 1.0 / (2.0 * x)
        cp = wp + inv - (a / 2.0 - b / a) * ar
        cm = 0.0 + inv - (a / 2.0 + b / a) * ar
        return cp.real, -(cm.imag / cp.imag) * (cp.real * cp.real + cm.imag * cm.imag)

    @staticmethod
    def scan_grid(p, n=1000):
        sigma, b = threshold_sigma(p), p.beta
        delta = 1e-6 * max(1.0, sigma + b)
        return np.linspace(-sigma + delta, b - delta, n)

    @staticmethod
    def array_grid(p):
        """The scan's 1000 nodes as one array, each i*h + start with the last
        one stop, and the count of nodes at or below -beta, as np.searchsorted
        gives it."""
        sigma, b = threshold_sigma(p), p.beta
        delta = 1e-6 * max(1.0, sigma + b)
        start, stop = -sigma + delta, b - delta
        grid = np.arange(1000, dtype=float) * ((stop - start) / 999)
        grid += start
        grid[-1] = stop
        return grid, int(np.searchsorted(grid, -b, side="right"))

    @staticmethod
    def mid_formulas(a, b, wp, e):
        """The mid-band gamma as out-of-place array formulas, with artanh's
        two denominators in their circle forms 1 + nu^2 - 2 s r and 1 - nu^2."""
        kp, km = spectrum._channel_slopes(a, b)
        r, q = np.sqrt(b - e), np.sqrt(b + e)
        s = a / (2.0 * b)
        n2 = a * s
        log_arg = np.log1p(4.0 * s * r / (1.0 + n2 - 2.0 * s * r))
        angle = np.arctan2(2.0 * s * q, 1.0 - n2)
        re_p = (wp + 0.5 * r) - (0.25 * kp) * log_arg
        half_q = 0.5 * q
        im_p = (-0.5 * kp) * angle - half_q
        neg_im_m = half_q + (0.5 * km) * angle
        return neg_im_m / im_p * (re_p * re_p + neg_im_m * neg_im_m)

    @staticmethod
    def seeded_bands():
        """(alpha, beta, omega_+) of 500 seeded CaseC bands and the edge cases:
        nu = 1 and nu = 1 + 1e-9 (no node below -beta), nu = 1e3 with
        beta = 1e-7 (no node above it) and a band whose node 300 is -beta."""
        rng = np.random.default_rng(3902)
        nus = np.concatenate([rng.uniform(1.0, 6.0, 400), 10.0 ** rng.uniform(0.0, 4.0, 100)])
        betas = 10.0 ** rng.uniform(-6.0, 1.0, 500)
        wps = rng.uniform(-3.0, 3.0, 504)
        out = [(float(nu * math.sqrt(2.0 * b)), float(b)) for nu, b in zip(nus, betas)]
        out += [(nu * math.sqrt(2.0 * b), b) for nu, b in ((1.0, 0.5), (1.0 + 1e-9, 0.3),
                                                           (1e3, 1e-7))]
        out.append((float.fromhex("0x1.4efef12b2f118p+0"), 0.25))
        return [(a, b, float(wp)) for (a, b), wp in zip(out, wps)]

    def test_lazy_nodes_equal_the_array_grid(self, monkeypatch):
        # the nodes the scan forms, below -beta one at a time and above it as
        # one array, and the split between them, against the whole array
        # grid and np.searchsorted, by float.hex
        seen = {}
        below_kernel, mid_kernel = spectrum._max_gamma_below, spectrum._gamma_required_mid

        def below(a, b, wp, node, n):
            seen["n"], seen["node"] = n, node
            reads = seen["reads"] = []
            return below_kernel(a, b, wp, lambda i: reads.append((i, node(i))) or node(i), n)

        def mid(a, b, wp, e):
            seen["mid"] = e.copy()
            return mid_kernel(a, b, wp, e)

        monkeypatch.setattr(spectrum, "_max_gamma_below", below)
        monkeypatch.setattr(spectrum, "_gamma_required_mid", mid)
        splits, exact = [], 0
        for a, b, wp in self.seeded_bands():
            p = SystemParams(a, b)
            grid, n = self.array_grid(p)
            seen.clear()
            forbidden_band_scan(p, EffectiveCouplings(wp, 0.0, 0.0))
            hexes = [float.hex(float(x)) for x in grid]
            assert seen.get("n", 0) == n, (a, b)
            if n:
                assert [float.hex(seen["node"](i)) for i in range(n)] == hexes[:n]
                assert 0 < len(seen["reads"]) <= math.ceil(math.log2(n)) + 2
                assert all(float.hex(x) == hexes[i] for i, x in seen["reads"])
            if n < 1000:
                assert [float.hex(float(x)) for x in seen["mid"]] == hexes[n:]
            else:
                assert "mid" not in seen
            splits.append(n)
            exact += int(np.any(grid == -b))
        assert splits[-4:-1] == [0, 0, 1000]
        assert exact >= 1 and splits[-1] == 301
        assert sum(0 < n < 1000 for n in splits) > 400

    def test_mid_pass_in_place_matches_the_formulas(self):
        # bit for bit with numpy's kernels as they run here, and e unwritten
        for a, b, wp in self.seeded_bands()[::10]:
            grid, n = self.array_grid(SystemParams(a, b))
            e = grid[n:]
            if not e.size:
                continue
            before = e.copy()
            got = spectrum._gamma_required_mid(a, b, wp, e)
            want = self.mid_formulas(a, b, wp, e)
            assert [float.hex(float(x)) for x in got] == [float.hex(float(x)) for x in want]
            assert np.array_equal(e, before)

    def test_b_sign_structure(self):
        # the imaginary channel parts share their sign across the mid band
        a, b = 2.0, 0.5
        for e, expect_neg in ((-0.3, True), (-0.01, True), (0.2, False), (0.45, False)):
            x = self.band_xi(b, e)
            ar = self.cut_artanh(a * x)
            for s in (1, -1):
                b_s = -(1.0 / (2.0 * x)).imag + ar.imag * (a / 2.0 + s * b / a)
                assert (b_s < 0.0) is expect_neg
        # each kernel agrees node by node with the scalar route on its
        # sub-band: Re c_+ below -beta, the gamma above it.  nu = 1 gives
        # Sigma = beta and no node below -beta, nu near 1 puts small Im c_+
        # next to -beta, as nu = 1 + 1e-6 and 1 + 1e-3 put the smallest
        # 1 + nu^2 - 2 s r there, and every grid holds -0.0 and +0.0, where
        # the sign of Im xi switches, and -beta itself
        rng = np.random.default_rng(47)
        for nu in (1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3, *rng.uniform(1.2, 6.0, 4),
                   *10.0 ** rng.uniform(1.0, 4.0, 3)):
            b = float(rng.uniform(0.05, 1.0))
            p = SystemParams(nu * math.sqrt(2.0 * b), b)
            a = p.alpha
            wp = float(rng.uniform(-3.0, 3.0))
            for n in (1000, 10000):
                grid = self.scan_grid(p, n)
                assert np.any(grid <= -b) == (nu >= 1.2)
                extra = [-0.0, 0.0] + ([-b] if nu >= 1.2 else [])
                grid = np.sort(np.concatenate([grid, extra]))
                assert np.any(grid == -b) == (nu >= 1.2)
                below, mid = grid[grid <= -b], grid[grid > -b]
                for e in below:
                    re_ref, g_ref = self.scalar_route(p, wp, float(e))
                    got = spectrum._channel_factors(a, b, _xi_real(b, float(e)), wp, 0.0)[0]
                    assert abs(got - re_ref) <= 1e-12 * (1.0 + abs(re_ref))
                    assert g_ref < 0.0
                got = spectrum._gamma_required_mid(a, b, wp, mid)
                ref = np.array([self.scalar_route(p, wp, float(e))[1] for e in mid])
                assert np.all(got < 0.0)
                assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_grid_refinement_stable(self):
        params = SystemParams(2.0, 0.5)
        eff = EffectiveCouplings(0.4, -0.7, 0.3)
        rep = forbidden_band_scan(params, eff)
        fine = self.scan_grid(params, 10000)
        r2 = max(self.scalar_route(params, eff.omega_plus, float(e))[1] for e in fine)
        assert rep.grid_size == 1000 and abs(rep.max_gamma_required - r2) < 1e-8

    @pytest.mark.parametrize("where", ["inside", "positive", "negative"])
    def test_search_below_minus_beta_finds_the_maximum(self, where, monkeypatch):
        # Re c_+ changes sign inside (-Sigma, -beta], or keeps one sign there:
        # the search's maximum is the scalar route's over every node, and it
        # evaluates at most ceil(log2 n) + 2 of the n nodes
        p = SystemParams(2.0, 0.5)
        a, b = p.alpha, p.beta
        grid = self.scan_grid(p)
        below, mid = grid[grid <= -b], grid[grid > -b]
        n = len(below)
        assert n > 300
        f_lo = self.scalar_route(p, 0.0, float(below[0]))[0]
        f_hi = self.scalar_route(p, 0.0, float(below[-1]))[0]
        assert f_lo < f_hi
        wp = {"inside": -0.5 * (f_lo + f_hi), "positive": 1.0 - f_lo,
              "negative": -1.0 - f_hi}[where]
        signs = {math.copysign(1.0, self.scalar_route(p, wp, float(e))[0]) for e in below}
        assert len(signs) == (2 if where == "inside" else 1)
        ref = max(self.scalar_route(p, wp, float(e))[1] for e in below)
        got = spectrum._max_gamma_below(a, b, wp, lambda i: float(below[i]), n)
        assert got == pytest.approx(ref, rel=1e-12)

        calls = []
        kernel = spectrum._channel_factors

        def counted(a, b, x, *args):
            calls.append(x)
            return kernel(a, b, x, *args)

        monkeypatch.setattr(spectrum, "_channel_factors", counted)
        rep = forbidden_band_scan(p, EffectiveCouplings(wp, 0.0, 0.0))
        assert set(calls) <= {_xi_real(b, float(e)) for e in below}
        assert len(calls) <= math.ceil(math.log2(n)) + 2
        worst = max(ref, *(self.scalar_route(p, wp, float(e))[1] for e in mid))
        assert rep.max_gamma_required == pytest.approx(worst, rel=1e-12)

    def test_one_sub_band_only(self):
        # nu = 1: Sigma = beta, so no node lies below -beta; nu = 1e3 with
        # beta = 1e-7: delta = 1e-6 > 2 beta, so no node lies in (-beta, beta)
        for nu, b, n_below in ((1.0, 0.5, 0), (1e3, 1e-7, 1000)):
            p = SystemParams(nu * math.sqrt(2.0 * b), b)
            assert int(np.sum(self.scan_grid(p) <= -b)) == n_below
            wp = 0.3
            rep = forbidden_band_scan(p, EffectiveCouplings(wp, 0.0, 0.0))
            ref = max(self.scalar_route(p, wp, float(e))[1] for e in self.scan_grid(p))
            assert rep.max_gamma_required == pytest.approx(ref, rel=1e-12)
            assert rep.max_gamma_required < 0.0

    def test_maxima_on_the_aux_scans_pool_match_the_golden(self, monkeypatch):
        # the grid maxima of the benchmark's seed-1 aux-scans pool, bit for
        # bit.  The scan's numpy kernels differ in the last bit with AVX-512,
        # so each golden holds for one setting: here the one numpy runs with,
        # and in a subprocess with numpy's AVX-512 kernels off the baseline
        monkeypatch.syspath_prepend(str(PERFBENCH))
        want = GOLDEN["forbidden_band_max_seed1"] if _numpy_avx512() else BAND_MAX_BASELINE
        assert _band_maxima(1) == want
        here = Path(__file__).resolve().parent
        src = str(Path(spectrum.__file__).resolve().parents[1])
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, str(here), str(PERFBENCH), os.environ.get("PYTHONPATH"))
                       if p))
        code = ("import json, sys\n"
                "from test_spectrum import _band_maxima\n"
                "json.dump(_band_maxima(1), sys.stdout)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        assert json.loads(out.stdout) == BAND_MAX_BASELINE

    def test_band_narrower_than_the_margins(self):
        # Sigma + beta < 2e-6 leaves the grid's ends outside the band
        b = 1e-8
        with pytest.raises(DomainError, match="narrower"):
            forbidden_band_scan(SystemParams(2.0 * math.sqrt(2.0 * b), b),
                                EffectiveCouplings(0.1, 0.0, 0.1))

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            forbidden_band_scan(SystemParams(0.1, 0.5), EffectiveCouplings(0, 0, 0))

    def test_gamma_beyond_the_float_range(self):
        # a valid Gamma whose required gamma overflows at every node, on a
        # band with nodes above -beta and on one without (nu = 1e3,
        # beta = 1e-7); one that stays finite at some node is reported
        p = SystemParams(2.0, 0.5)
        gamma = gamma_for_couplings(p, 1e200, 0.0, 0.0)
        assert 7e199 < gamma.pp < 8e199
        with pytest.raises(DomainError, match="float range"):
            forbidden_band_scan(p, effective_couplings(p, gamma))
        below_only = SystemParams(1e3 * math.sqrt(2e-7), 1e-7)
        with pytest.raises(DomainError, match="float range"):
            forbidden_band_scan(below_only, EffectiveCouplings(1e200, 0.0, 0.0))
        for q, wp in ((p, -1e153), (below_only, 1e100)):
            rep = forbidden_band_scan(q, EffectiveCouplings(wp, 0.0, 0.0))
            assert -math.inf < rep.max_gamma_required < -wp * wp


def _symmetric_roots(alpha: float, omega: float):
    """Discrete roots at beta = 0 with omega_+ = omega_- = omega and gamma = 0:
    both branches vanish at one energy, so a double eigenvalue is listed twice."""
    p = SystemParams(alpha, 0.0)
    return discrete_eigenvalues(p, gamma_for_couplings(p, omega, omega, 0.0))


class TestSymmetricSolver:
    """The symmetric small-beta root: the zero E < -alpha^2/4 of
    omega + sqrt(-E) = (alpha/2) artanh(alpha/(2 sqrt(-E))), the beta = 0
    discrete solve with equal channels."""

    def test_reference_value(self):
        root, twin = _symmetric_roots(2.0, 0.0)
        assert twin == root
        assert root.energy == pytest.approx(-1.43923, abs=1e-4)

    def test_small_alpha_limit(self):
        w = -0.7
        root, twin = _symmetric_roots(1e-4, w)
        assert twin == root
        assert root.energy == pytest.approx(-w * w, abs=1e-6)

    def test_below_threshold(self):
        for a, w in ((2.0, 0.0), (1.0, -0.5), (0.5, 1.0)):
            root, twin = _symmetric_roots(a, w)
            assert twin == root
            assert root.energy < -a * a / 4.0

    def test_no_solution_reported(self):
        # the root lies about exp(-200) below the edge, far inside the pole
        # guard; both branches vanish there, and one warning names them both
        with pytest.warns(UserWarning, match="inside the pole guard") as rec:
            assert _symmetric_roots(0.1, 5.0) == ()
        assert len(rec) == 1
        assert "lambda_- and lambda_+" in str(rec[0].message)

    @pytest.mark.parametrize("alpha,omega", [(2.0, 0.0), (2.0, -1.0), (2.0, 0.5),
                                             (2.0, 0.9), (1e-4, -0.7), (1.0, -0.5),
                                             (0.5, 1.0)])
    def test_matches_mpmath(self, alpha, omega):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            half, w = mpmath.mpf(alpha) / 2, mpmath.mpf(omega)
            lo, hi = half * (1 + mpmath.mpf(10) ** -40), half + abs(w) + 2
            u = mpmath.findroot(lambda u: w + u - half * mpmath.atanh(half / u),
                                (lo, hi), solver="anderson")
            ref = float(-u * u)
        root, twin = _symmetric_roots(alpha, omega)
        assert twin == root
        assert root.energy == pytest.approx(ref, rel=1e-14)


class TestSolveSpectrum:
    def test_distinguished_extensions(self):
        p = SystemParams(1.0, 0.5)
        for kind in (ExtensionKind.TRIVIAL, ExtensionKind.FRIEDRICHS):
            rep = solve_spectrum(p, kind)
            assert rep.discrete == () and rep.embedded == ()
            assert rep.continuous_edge == -threshold_sigma(p)

    def test_case_a_embeds(self):
        b = 0.5
        p = SystemParams(0.0, b)
        gm = gamma_for_couplings(p, -0.6, 0.3, 0.0)
        rep = solve_spectrum(p, gm)
        assert any(r.theorem == "T1" and r.energy == pytest.approx(b - 0.36)
                   for r in rep.embedded)
        assert all(r.energy < -b for r in rep.discrete)

    def test_case_c_embeds(self):
        p = SystemParams(2.0, 1e-5)
        gm = gamma_for_couplings(p, 1.0, 0.0, 0.0)
        rep = solve_spectrum(p, gm)
        assert any(r.theorem == "T3" for r in rep.embedded)

    def test_case_b_generic_no_embedded(self):
        p = SystemParams(0.3, 0.5)
        rep = solve_spectrum(p, gamma_for_couplings(p, -0.5, -0.5, 0.1))
        assert rep.embedded == ()

    def test_case_b_threshold_persistence(self):
        # the unique admissible persistence coupling keeps -beta embedded
        b = 0.5
        gm = gamma_for_couplings(SystemParams(0.0, b), -math.sqrt(2.0 * b), 0.0, 0.0)
        rep = solve_spectrum(SystemParams(0.1, b), gm)
        assert any(r.theorem == "T1" and r.energy == pytest.approx(-b)
                   for r in rep.embedded)

    def test_case_b_zeroth_order_root_at_threshold(self):
        # the zeroth-order root lies within 1e-8 of -beta, where the
        # second-order shift is undefined; a solve needs only the persistence
        # criterion, so it must not raise
        b = 0.5
        gm = gamma_for_couplings(SystemParams(0.0, b), 0.5, -math.sqrt(5e-9), 0.0)
        gm = Hermitian2(gm.pp, gm.mm, 0j)
        p = SystemParams(0.3, b)
        rep = solve_spectrum(p, gm)
        assert [r.energy for r in rep.discrete] == [r.energy for r in discrete_eigenvalues(p, gm)]
        assert rep.discrete[0].energy == pytest.approx(-0.5011964725143627, abs=1e-10)
        assert rep.embedded == ()

    def test_json_schema(self):
        p = SystemParams(0.0, 0.5)
        rep = solve_spectrum(p, gamma_for_couplings(p, -0.6, 0.3, 0.0))
        d = rep.to_json_dict()
        assert set(d) == {"regime", "sigma", "discrete", "embedded"}
        for row in d["discrete"]:
            assert set(row) == {"E", "residual"}
        for row in d["embedded"]:
            assert set(row) == {"E", "residual", "theorem"}
