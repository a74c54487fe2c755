"""Tests of the benchmark itself: seeded inputs, the reference route, the
failure count and the tracer."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import tracing
import worker
import workloads
import rashba_contact as rc
from rashba_contact import Hermitian2, SystemParams

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_inputs
    first = make(7)
    assert len(first) == workloads.POOL_SIZE
    assert make(7) == first
    assert make(8) != first


def test_reference_two_channel_pair():
    roots = ref.reference_roots(SystemParams(2.0, 0.5), Hermitian2.scalar(0.17850))
    assert [r.energy for r in roots] == pytest.approx([-1.60313, -1.37956], abs=1e-3)
    assert all(r.resolved for r in roots)


def test_reference_close_pair():
    # alpha = 0, beta = 1/2, gamma = 0, omega_+ = omega_- = -50
    params = SystemParams(0.0, 0.5)
    gm = rc.gamma_for_couplings(params, -50.0, -50.0, 0.0)
    roots = ref.reference_roots(params, gm)
    assert [r.energy for r in roots] == pytest.approx([-2500.5, -2499.5], rel=1e-12)
    assert all(ref.closure_residual(params, gm, r.energy) < 1e-10 for r in roots)


def test_wrong_root_sets_are_failures():
    params, gm = SystemParams(2.0, 0.5), Hermitian2.scalar(0.17850)
    roots = ref.reference_roots(params, gm)
    exact = [r.energy for r in roots]
    assert ref.check_discrete(params, gm, exact, roots) == []
    missing = ref.check_discrete(params, gm, exact[:1], roots)
    assert [p.kind for p in missing] == ["missed"] and not missing[0].wrong
    shifted = ref.check_discrete(params, gm, [exact[0], exact[1] + 1e-3], roots)
    assert {"missed", "spurious"} <= {p.kind for p in shifted}
    assert any(p.wrong for p in shifted)


def test_secular_check_next_to_the_pole():
    # a genuine root 1.4e-9 Sigma below the artanh pole, where the secular
    # form is too steep for its plain noise-floor bound
    params = SystemParams(4.887972574640495, 0.9906980037239547)
    eff = rc.effective_couplings(params, Hermitian2(-0.7360933465475961, 6.520213699775932))
    e = -6.014148471990547
    assert abs(rc.secular_function(params, eff, e)) > ref.SECULAR_REL * (1.0 + eff.gamma)
    assert ref.secular_vanishes(params, eff, e)
    assert not ref.secular_vanishes(params, eff, e - 1e-3)


def test_worker_tells_missed_roots_from_failures():
    wl = workloads.WORKLOADS["solve-mixed"]
    inp = next(i for i in wl.make_inputs(1) if i.kind == "random")
    good = wl.run(inp)
    assert good.discrete
    dropped = dataclasses.replace(good, discrete=good.discrete[1:])
    notes = worker._judge(wl, [inp, inp], [(good, None), (dropped, None)])
    assert notes[0] is None and [p["kind"] for p in notes[1]["problems"]] == ["missed"]
    tally = worker._summary(notes, [3, 2], mismatched=0)
    assert (tally["attempted"], tally["failed"], tally["incomplete"]) == (5, 0, 2)
    assert tally["correct"] and tally["ok_ratio"] == pytest.approx(3 / 5)
    spurious = dataclasses.replace(good, discrete=good.discrete + (
        dataclasses.replace(good.discrete[0], energy=good.discrete[0].energy - 1.0),))
    notes = worker._judge(wl, [inp, inp], [(spurious, None), (None, "ValueError: x")])
    tally = worker._summary(notes, [1, 1], 0)
    assert (tally["failed"], tally["incomplete"], tally["correct"]) == (2, 0, False)
    assert tally["ok_ratio"] == 0.0


def test_tracer_spans_restore_and_exact_counts():
    orig = rc.spectrum.krein_q
    ops = workloads.WORKLOADS["coupling-sweep"].make_inputs(3)[:2]
    tables = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert rc.spectrum.krein_q is not orig
            for inp in ops:
                rc.discrete_eigenvalues(inp.params, inp.gamma)
        finally:
            tracer.uninstall()
        tables.append(tracing.SpanTable(tracer.arrays()))
    assert rc.spectrum.krein_q is orig and rc.krein_q is orig
    a, b = tables
    q = a.count("extension.krein_q")
    assert q > 1000 and b.count("extension.krein_q") == q
    assert a.calls_within("greens.xi", "extension.krein_q") == 4 * q
    layers = a.self_ns_by_layer()
    assert all(v >= 0 for v in layers.values())
    top = a.outermost_ns("spectrum.discrete_eigenvalues")
    assert sum(layers.values()) == pytest.approx(top, rel=1e-9)


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "aux-scans",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
