"""Benchmark of rashba-contact: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-mixed --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (BENCHMARK.json lists both).  The last line
of standard output is the result as one JSON object; the line before it is
the full report (environment, failures by kind, fail ratio), which is also
written to ``.perfbench_out/``.

Every workload runs in fresh interpreters (``worker.py``) with the BLAS and
OpenMP pools pinned to one thread.  Set-up time is the median over
``SETUP_SAMPLES`` fresh interpreters, after one warm-up start that is not
counted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("solve-mixed", "coupling-sweep", "aux-scans", "oracle-crosscheck")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
RUN_BUDGET_S = 170.0       # every child of one run must end within this
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COLD_SOLVE = ("solve", "--alpha", "2", "--beta", "0.5", "--c", "-50", "--r", "-0.17850")

DEADLINE = time.monotonic() + RUN_BUDGET_S


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], env: dict[str, str], root: Path) -> tuple[str, str, float]:
    """Run a child to completion; return its stdout, stderr and wall time."""
    env = dict(env, PERFBENCH_SPAWN_NS=str(time.time_ns()))
    t0 = time.perf_counter()
    timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(argv)}")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}\n{err[-4000:]}")
    return out, err, wall


def run_worker(root: Path, env, mode: str, workload: str, seed: int, seconds: float,
               spans: Path | None = None) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    out, err, _ = run_child(argv, env, root)
    sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def import_times(root: Path, env) -> tuple[float, float]:
    """Median cumulative import time of rashba_contact and of its oracle module,
    each from a fresh interpreter under -X importtime."""
    pkg, orc = [], []
    for _ in range(IMPORT_SAMPLES):
        _, err, _ = run_child([sys.executable, "-X", "importtime", "-c", "import rashba_contact"],
                              env, root)
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        pkg.append(cumulative["rashba_contact"])
        orc.append(cumulative["rashba_contact.oracle"])
    return statistics.median(pkg), statistics.median(orc)


def cold_solve(root: Path, env) -> tuple[float, bool]:
    """Wall time of the README ``solve`` example as a cold CLI process."""
    out, _, wall = run_child([sys.executable, "-m", "rashba_contact.cli", *COLD_SOLVE], env, root)
    report = json.loads(out)
    return wall, len(report.get("discrete", [])) == 2


def environment(seed: int, worker: dict) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(), "numpy": worker.get("numpy"),
            "scipy": worker.get("scipy"), "nproc": os.cpu_count(),
            "cpus_usable": affinity, "machine": platform.machine(),
            "platform": platform.platform(), "seed": seed,
            "threads": {var: "1" for var in THREAD_VARS}}


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Names and units of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    env = child_env(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if traced:
        spans = out_dir / f"spans-{workload}.npz"
        res = run_worker(root, env, "trace", workload, seed, seconds, spans)
        pkg_s, oracle_s = import_times(root, env)
        cli_s, cli_ok = cold_solve(root, env)
        values = dict(res.pop("metrics"), **{"setup.import_s": pkg_s, "oracle.import_s": oracle_s,
                                             "cli.solve_cold_s": cli_s})
        res["correct"] = res["correct"] and cli_ok
        units = metric_units(root, "per_layer")
    else:
        run_worker(root, env, "setup", workload, seed, seconds)      # warm-up start
        setups = [run_worker(root, env, "setup", workload, seed, seconds)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(root, env, "measure", workload, seed, seconds)
        setups.append(res["setup_s"])
        values = {name: res[name] for name in ("throughput_ops_s", "latency_p50_ms",
                                               "latency_p90_ms", "peak_rss_mb", "ok_ratio")}
        values["setup_s"] = statistics.median(setups)
        res["setup_samples_s"] = setups
        res["fail_ratio"] = 1.0 - res["ok_ratio"]
        units = metric_units(root, "end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    report = {"workload": workload, "trace": int(traced), "seconds": seconds,
              "environment": environment(seed, res), "detail": res}
    result = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
              "failed": int(res["failed"]),
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in units.items()}}
    report["result"] = result
    (out_dir / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description="rashba-contact benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "rashba_contact" / "__init__.py").is_file():
        print("perfbench: src/rashba_contact not found; run from the root of a "
              "rashba-contact checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [bench(root, w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, KeyError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        res, detail = rep["result"], rep["detail"]
        verdict = "correct" if res["correct"] else "INCORRECT"
        not_ok = detail["failed"] + detail["incomplete"]
        print(f"# {rep['workload']}: {verdict}; {detail['failed']} failed, "
              f"{detail['incomplete']} missed a root; fail_ratio = {not_ok}/"
              f"{res['attempted']} = {not_ok / res['attempted']:.4g}")
        for name, m in res["metrics"].items():
            print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({r["workload"]: r for r in reports}))
    last = reports[-1]["result"] if len(reports) == 1 else {
        "correct": all(r["result"]["correct"] for r in reports),
        "attempted": sum(r["result"]["attempted"] for r in reports),
        "failed": sum(r["result"]["failed"] for r in reports),
        "metrics": {f"{r['workload']}/{n}": m for r in reports
                    for n, m in r["result"]["metrics"].items()}}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
