"""Property test of the root count: the roots ``discrete_eigenvalues``
reports, one per branch, plus those it warns of as not reported equal the
inertia of the channel matrix at the band edge (``spectrum._edge_count``),
over CaseA, CaseB, CaseC and the seam, with Gamma built from drawn
(omega_+, omega_-, gamma) and a random phase of Gamma_+-.
"""

import cmath
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rashba_contact import (Hermitian2, SystemParams, discrete_eigenvalues,  # noqa: E402
                            effective_couplings, gamma_for_couplings)
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
