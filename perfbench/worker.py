"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py`` in a fresh interpreter, never imported.  Modes:

- ``setup``: import, make the inputs, fill caches, run one warm-up op, report
  the set-up time and exit.
- ``measure``: set up, then run ops back to back for ``--seconds`` (at least
  ``MIN_OPS`` of them) with nothing traced; then check every output against
  the reference.
- ``trace``: set up, then alternate an untraced and a traced pass over the
  first ``TRACE_OPS`` inputs until ``--seconds`` have passed; derive the
  per-layer metrics from the spans.

Times are scaled to nominal machine speed (see ``calibration``); the raw
wall times are reported beside them.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

T_SPAWN_NS = int(os.environ.get("PERFBENCH_SPAWN_NS", "0")) or time.time_ns()

import calibration  # noqa: E402

CAL_AT_START = [calibration.kernel_ns() for _ in range(5)]

import numpy as np  # noqa: E402

MIN_OPS = 100
TRACE_OPS = {"solve-mixed": 12, "coupling-sweep": 10, "aux-scans": 24,
             "oracle-crosscheck": 24}


def _setup(workload: str, seed: int, root: Path):
    import rashba_contact
    if Path(rashba_contact.__file__).resolve().parent != (root / "src" / "rashba_contact").resolve():
        raise SystemExit(f"rashba_contact imported from {rashba_contact.__file__}, "
                         "not from this checkout")
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed)
    workloads.fill_caches(inputs)
    try:
        wl.run(inputs[-1])                   # lazy set-up finishes here
    except Exception:
        pass                                 # counted if the timed loop reaches it
    raw_s = (time.time_ns() - T_SPAWN_NS) / 1e9
    speed = calibration.scale(CAL_AT_START + [calibration.kernel_ns() for _ in range(5)])
    return wl, inputs, {"setup_s": raw_s * speed, "setup_raw_s": raw_s}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_timed(wl, inputs, seconds: float):
    """Closed loop, one client: each op starts when the previous one ends."""
    n = len(inputs)
    first: list = [None] * n               # (output, error) of each input's first run
    lat_ns: list[int] = []
    cal_ns: list[int] = []
    mismatched = 0
    i = 0
    clock = time.perf_counter_ns
    t_start = clock()
    deadline = t_start + int(seconds * 1e9)
    while True:
        inp = inputs[i % n]
        cal_ns.append(calibration.kernel_ns())
        t0 = clock()
        try:
            out, err = wl.run(inp), None
        except Exception as exc:            # an op that raises is a failed op
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        lat_ns.append(t1 - t0)
        if i < n:
            first[i] = (out, err)
        elif (out, err) != first[i % n]:
            mismatched += 1
        i += 1
        if i >= MIN_OPS and t1 >= deadline:
            break
    cal_ns.append(calibration.kernel_ns())
    return first[:min(i, n)], lat_ns, cal_ns, (clock() - t_start) / 1e9, mismatched


def _judge(wl, inputs, first) -> list[dict | None]:
    """Per input: what was wrong with its output, or None if nothing.  A
    problem marked ``wrong`` means a false value was reported."""
    notes = []
    for inp, (out, err) in zip(inputs, first):
        if err is not None:
            problems = [{"kind": "raised", "detail": err, "wrong": False}]
        else:
            try:
                problems = [vars(p) for p in wl.check(inp, out)]
            except Exception as exc:
                problems = [{"kind": "check-raised", "detail": f"{type(exc).__name__}: {exc}",
                             "wrong": True}]
        notes.append({"input": _describe(inp), "problems": problems} if problems else None)
    return notes


def _failed(note: dict | None) -> bool:
    """An op fails if it raised or reported a false value.  One whose only
    problem is a root it did not report (the solver's known defect) is
    incomplete, not failed: it is counted in ``ok_ratio`` instead."""
    return note is not None and any(p["wrong"] or p["kind"] == "raised"
                                    for p in note["problems"])


def _describe(inp) -> str:
    text = repr(inp)
    return text if len(text) <= 300 else text[:297] + "..."


def _summary(notes: list, runs: list[int], mismatched: int) -> dict:
    """Tally ops: input j ran runs[j] times; a repeat whose output differs
    from the input's first output is a failed op too."""
    kinds: dict[str, int] = {}
    wrong = False
    for note in notes:
        for p in (note or {}).get("problems", []):
            kinds[p["kind"]] = kinds.get(p["kind"], 0) + 1
            wrong = wrong or p["wrong"]
    attempted = sum(runs)
    failed = sum(r for r, n in zip(runs, notes) if _failed(n)) + mismatched
    incomplete = sum(r for r, n in zip(runs, notes) if n is not None and not _failed(n))
    return {"attempted": attempted, "failed": failed, "incomplete": incomplete,
            "ok_ratio": 1.0 - (failed + incomplete) / attempted,
            "correct": not wrong and mismatched == 0,
            "problem_kinds": kinds, "nondeterministic_repeats": mismatched,
            "failures": [x for x in notes if x][:10]}


def measure(wl, inputs, seconds: float) -> dict:
    first, lat_ns, cal_ns, elapsed, mismatched = _run_timed(wl, inputs, seconds)
    peak = _peak_rss_mb()
    notes = _judge(wl, inputs, first)
    raw_ms = np.array(lat_ns) / 1e6
    speed = np.array(calibration.local_scales(cal_ns, len(lat_ns)))
    lat_ms = raw_ms * speed
    runs = [len(range(j, len(lat_ns), len(inputs))) for j in range(len(first))]
    res = _summary(notes, runs, mismatched)
    by_kind: dict[str, list[int]] = {}
    for inp, note in zip(inputs, notes):
        kind = getattr(inp, "kind", None)
        if kind is not None:
            tally = by_kind.setdefault(kind, [0, 0])
            tally[0] += 1
            tally[1] += int(note is not None)
    res.update({
        "ops": len(lat_ns), "elapsed_s": elapsed,
        "throughput_ops_s": len(lat_ns) / (float(np.sum(lat_ms)) / 1e3),
        "latency_p50_ms": float(np.percentile(lat_ms, 50)),
        "latency_p90_ms": float(np.percentile(lat_ms, 90)),
        "latency_samples": len(lat_ns),
        "raw": {"throughput_ops_s": len(lat_ns) / elapsed,
                "latency_p50_ms": float(np.percentile(raw_ms, 50)),
                "latency_p90_ms": float(np.percentile(raw_ms, 90))},
        "speed_scale_quartiles": [float(v) for v in np.percentile(speed, [25, 50, 75])],
        "peak_rss_mb": peak,
        "distinct_inputs_checked": len(first),
        "by_input_kind": {k: {"inputs": v[0], "not_ok": v[1]} for k, v in by_kind.items()},
    })
    return res


def _pass(wl, ops, tracer=None):
    """Run the ops once; return their outputs, the pass's nominal seconds and
    the speed scale that converted them."""
    outs = []
    cal = [calibration.kernel_ns() for _ in range(3)]
    t0 = time.perf_counter_ns()
    for k, inp in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        try:
            outs.append((wl.run(inp), None))
        except Exception as exc:
            outs.append((None, f"{type(exc).__name__}: {exc}"))
    t1 = time.perf_counter_ns()
    speed = calibration.scale(cal + [calibration.kernel_ns() for _ in range(3)])
    return outs, (t1 - t0) / 1e9 * speed, speed


def _layer_metrics(wl, table, outs, k: int, speed: float) -> dict:
    ms = 1e-6 / k * speed
    q = table.count("extension.krein_q")
    self_ns = table.self_ns_by_layer()
    return {
        "counts": {
            "extension.q_evals_per_op": q / k,
            "greens.xi_per_q": table.calls_within("greens.xi", "extension.krein_q") / q if q else 0.0,
            "perturbation.cnd0_calls_per_op": table.count("perturbation.cnd0") / k,
            "oracle.integrand_evals_per_op": sum(wl.integrand_evals(o) for o, e in outs if e is None) / k,
            "spectrum.roots_per_op": sum(wl.roots(o) for o, e in outs if e is None) / k,
        },
        "times": {
            "extension.q_us": (table.outermost_ns("extension.krein_q") / q / 1e3 * speed
                               if q else 0.0),
            "spectrum.discrete_ms_per_op": table.outermost_ns("spectrum.discrete_eigenvalues") * ms,
            "spectrum.scan_ms_per_op": table.outermost_ns(
                "spectrum.large_coupling_context", "spectrum.embedded_large_alpha",
                "spectrum.forbidden_band_scan") * ms,
            "spectrum.embedded_ms_per_op": table.outermost_ns(
                "spectrum.embedded_alpha0", "spectrum.embedded_large_alpha") * ms,
            "perturbation.asymptotic_ms_per_op": table.outermost_ns(
                "perturbation.asymptotic_eigenvalues") * ms,
            "oracle.quad_ms_per_op": table.outermost_ns(
                "oracle.gs_ren_quadrature", "oracle.phi_norm_quadrature") * ms,
            **{f"{layer}.self_ms_per_op": self_ns.get(layer, 0) * ms
               for layer in ("model", "greens", "extension", "spectrum", "perturbation",
                             "oracle")},
        },
    }


def trace(wl, workload: str, inputs, seconds: float, spans_path: Path) -> dict:
    import tracing
    from rashba_contact import verify

    ops = inputs[:TRACE_OPS[workload]]
    k = len(ops)
    tracer = tracing.Tracer()
    plain_s, traced_s, per_pass = [], [], []
    reference_outs = None
    mismatched = 0
    deadline = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < deadline:
        outs, dt, _ = _pass(wl, ops)
        plain_s.append(dt)
        tracer.install()
        try:
            touts, tdt, speed = _pass(wl, ops, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(tdt)
        spans = tracer.arrays()
        tracer.clear()
        if reference_outs is None:
            reference_outs = outs
            n_spans = len(spans["name"])
            np.savez(spans_path, **spans)
        mismatched += sum(a != b for a, b in zip(outs + touts, reference_outs * 2))
        per_pass.append(_layer_metrics(wl, tracing.SpanTable(spans), touts, k, speed))
        del spans
    peak = _peak_rss_mb()

    cal = [calibration.kernel_ns() for _ in range(3)]
    t0 = time.perf_counter()
    suite = verify.run_suite("all")
    suite_s = time.perf_counter() - t0
    suite_s *= calibration.scale(cal + [calibration.kernel_ns() for _ in range(3)])

    res = _summary(_judge(wl, ops, reference_outs), [2 * len(per_pass)] * k, mismatched)
    counts = per_pass[0]["counts"]
    repeat = all(p["counts"] == counts for p in per_pass)
    metrics = dict(counts)
    for name in per_pass[0]["times"]:
        metrics[name] = statistics.median(p["times"][name] for p in per_pass)
    metrics["verify.suite_all_s"] = suite_s
    metrics["trace.overhead_frac"] = 1.0 - statistics.median(plain_s) / statistics.median(traced_s)
    res["correct"] = res["correct"] and repeat and all(c.passed for c in suite)
    res.update({"metrics": metrics, "passes": len(per_pass), "ops_per_pass": k,
                "counts_repeat_exactly": repeat, "peak_rss_mb": peak,
                "verify_failures": [c.name for c in suite if not c.passed],
                "spans_file": str(spans_path), "spans_recorded": n_spans})
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    root = Path.cwd()

    wl, inputs, setup = _setup(args.workload, args.seed, root)
    if args.mode == "setup":
        res = {}
    elif args.mode == "measure":
        res = measure(wl, inputs, args.seconds)
    else:
        res = trace(wl, args.workload, inputs, args.seconds, args.spans)
    import scipy
    res.update(setup, numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
