"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Each criterion lives once, as a check in ``rashba_contact.verify`` (the
checks behind ``rashba-contact verify --suite all``); the tests here run
those checks. Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they go; without -s pytest still shows them for failing criteria.
"""

import math
import time
from collections import Counter

from rashba_contact import verify

# test number -> (criterion, the verify checks that make it up)
ACCEPTANCE = {
    1: ("q-normalization-at-unit-imaginary", (verify.check_q_unit_grid,)),
    2: ("classical-limit-q", (verify.check_classical_q,)),
    3: ("oracle-equivalence", (verify.check_oracle_gs,)),
    4: ("large-coupling-constants", (verify.check_large_coupling_constants,
                                     verify.check_embedded_074)),
    5: ("symmetric-reference-values", (verify.check_symmetric_eigenvalue,
                                       verify.check_r_map_constant)),
    6: ("two-channel-reference-values", (verify.check_threshold_17_16,
                                         verify.check_two_channel_pair)),
    7: ("no-coupling-theorem-suite", (verify.check_theorem1_random,
                                      verify.check_embedded_alpha0)),
    8: ("perturbation-order", (verify.check_perturbation_order,)),
    9: ("obstruction-maximum", (verify.check_cnd0_max,)),
    10: ("forbidden-band-empty", (verify.check_forbidden_band,)),
    11: ("norm-identities", (verify.check_norm_identities, verify.check_nevanlinna,
                             verify.check_oracle_phi_norm)),
    12: ("threshold-identities", (verify.check_oracle_sigma,
                                  verify.check_threshold_e_nu)),
    13: ("root-count-reasons", (verify.check_root_count,)),
}


def _accept(num: int, wall_s: float = math.inf) -> None:
    """Run criterion num's checks, print its line, and assert they all passed."""
    title, checks = ACCEPTANCE[num]
    t0 = time.perf_counter()
    results = verify.run_checks(checks)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed <= wall_s
    line = f"ACCEPTANCE {num:02d} {title}: {'PASS' if ok else 'FAIL'} ("
    line += ", ".join(f"{r.name}={r.measured:.6g}{'' if r.passed else ' FAIL'}"
                      for r in results)
    print(line + f"; {elapsed:.1f}s)")
    assert ok, line + "".join(f"\n  {r}" for r in results if not r.passed)


def test_01_q_normalization():
    _accept(1)


def test_02_classical_limit():
    _accept(2)


def test_03_oracle_equivalence():
    _accept(3, wall_s=120.0)


def test_04_large_coupling_constants():
    _accept(4)


def test_05_symmetric_limit_reference():
    _accept(5)


def test_06_two_channel_reference():
    _accept(6)


def test_07_no_coupling_suite():
    _accept(7)


def test_08_perturbation_order():
    _accept(8)


def test_09_threshold_obstruction_landscape():
    _accept(9)


def test_10_forbidden_band():
    _accept(10)


def test_11_norm_identities():
    _accept(11)


def test_12_threshold_identities():
    _accept(12)


def test_13_root_count_reasons():
    _accept(13)


def test_table_runs_every_check_once():
    listed = [fn for _, checks in ACCEPTANCE.values() for fn in checks]
    assert Counter(listed) == Counter(verify.PAPER_CHECKS + verify.INVARIANT_CHECKS)


def test_check_names_are_unique():
    names = [r.name for r in verify.run_suite("all")]
    assert len(names) == len(set(names))
