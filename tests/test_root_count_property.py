"""Property test of the root count: the roots ``discrete_eigenvalues``
reports, one per branch, plus those it warns of as not reported equal the
inertia of the channel matrix at the band edge (``spectrum._edge_count``),
over CaseA, CaseB, CaseC and the seam, with Gamma built from drawn
(omega_+, omega_-, gamma) and a random phase of Gamma_+-; and the property
that the spectrum does not depend on that phase.
"""

import cmath
import math
import re
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rashba_contact import (Hermitian2, SystemParams, discrete_eigenvalues,  # noqa: E402
                            effective_couplings, gamma_for_couplings, solve_spectrum)
from rashba_contact import spectrum, verify  # noqa: E402


@st.composite
def params(draw):
    case = draw(st.sampled_from(("A", "B", "C", "seam")))
    beta = draw(st.floats(0.05, 1.0))
    if case == "A":
        return SystemParams(0.0, beta)
    if case == "seam":
        alpha = draw(st.floats(0.3, 2.0))
        return SystemParams(alpha, alpha * alpha / 2.0)
    scale = draw(st.floats(0.05, 0.95) if case == "B" else st.floats(1.05, 4.0))
    return SystemParams(math.sqrt(2.0 * beta) * scale, beta)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.data())
def test_found_and_warned_roots_equal_the_edge_count(data):
    p = data.draw(params())
    wp, wm = data.draw(st.floats(-3.0, 2.0)), data.draw(st.floats(-3.0, 2.0))
    g = data.draw(st.floats(0.0, 2.0))
    gm = gamma_for_couplings(p, wp, wm, g)
    gm = Hermitian2(gm.pp, gm.mm, gm.pm * cmath.exp(1j * data.draw(st.floats(-math.pi, math.pi))))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        roots = discrete_eigenvalues(p, gm)
    count, reason = spectrum._edge_count(p, effective_couplings(p, gm))
    assert len(roots) + verify._unreported_branches(rec) == count, (p, gm, reason)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf")


def _solve_recording(p, gm):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        report = solve_spectrum(p, gm)
    # the warnings' text with its numbers masked: a root a warning names is
    # compared below, to the tolerance of the roots
    return report, [(w.category, _NUMBER.sub("#", str(w.message))) for w in rec]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.data())
def test_the_spectrum_does_not_depend_on_the_phase_of_gamma_pm(data):
    # only |Gamma_+-| enters the secular equation, so Gamma and Gamma with
    # Gamma_+- turned by any phase have one spectrum, up to the rounding of
    # |Gamma_+-|
    p = data.draw(params())
    wp, wm = data.draw(st.floats(-3.0, 2.0)), data.draw(st.floats(-3.0, 2.0))
    g = data.draw(st.floats(0.0, 2.0))
    gm = gamma_for_couplings(p, wp, wm, g)
    turned = Hermitian2(gm.pp, gm.mm,
                        gm.pm * cmath.exp(1j * data.draw(st.floats(-math.pi, math.pi))))
    want, want_warned = _solve_recording(p, gm)
    got, got_warned = _solve_recording(p, turned)
    assert got_warned == want_warned, (p, gm, turned)
    for key in ("discrete", "embedded"):
        a, b = getattr(want, key), getattr(got, key)
        assert len(a) == len(b), (key, p, gm, turned)
        for ra, rb in zip(a, b):
            assert abs(ra.energy - rb.energy) <= 1e-12 * max(1.0, abs(ra.energy)), \
                (key, p, gm, turned, ra, rb)
