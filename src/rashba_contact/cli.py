"""Command-line front end.

Subcommands: ``qfunc`` (Q-matrix at one energy), ``solve`` (classified point
spectrum), ``sweep`` (eigenvalues against the scalar contact strength c),
``expand`` (small-coupling expansion data), ``verify`` (named check suites).

Exit codes: 0 success, 1 verification failure, 2 domain/usage error,
3 solver or quadrature non-convergence.  JSON output is deterministic: keys
sorted, floats printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConvergenceError, DomainError, SingularMatrixError
from .extension import (ExtensionKind, Hermitian2, gamma_from_cr, krein_q,
                        secular_det)
from .model import SystemParams
from .perturbation import asymptotic_eigenvalues, expansion_coefficients
from .spectrum import SpectrumReport, discrete_eigenvalues, solve_spectrum

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


# ------------------------------------------------------- deterministic output

def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Compact JSON with sorted keys and 17-significant-digit floats; a float
    that equals an integer keeps a decimal point, so it reads back as a float."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        text = _fmt_float(obj)
        return text if any(c in text for c in ".en") else text + ".0"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _report_csv(report: SpectrumReport) -> str:
    lines = ["regime,sigma,kind,E,residual,label"]
    meta = f"{report.regime.regime.value},{_fmt_float(report.regime.sigma)}"
    for r in report.discrete:
        lines.append(f"{meta},discrete,{_fmt_float(r.energy)},"
                     f"{_fmt_float(r.residual)},sign-change")
    for r in report.embedded:
        lines.append(f"{meta},embedded,{_fmt_float(r.energy)},"
                     f"{_fmt_float(r.condition_residual)},{r.theorem}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ argument wiring

def _add_params(p: argparse.ArgumentParser, beta: float | None = None) -> None:
    p.add_argument("--alpha", type=float, required=True,
                   help="spin-orbit-coupling strength (>= 0)")
    p.add_argument("--beta", type=float, required=beta is None, default=beta,
                   help="Zeeman field strength (>= 0)" if beta is None else
                   f"Zeeman field strength (default {beta:g}, a stand-in for 0)")


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _add_coupling(p: argparse.ArgumentParser, *, required: bool,
                  extensions: bool = False) -> None:
    """One exclusive group of coupling flags; --r goes only beside --c."""
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--gamma-file", type=str, default=None,
                   help='coupling matrix JSON {"pp","mm","pm_re","pm_im"}')
    g.add_argument("--c", type=float, default=None,
                   help="scalar contact strength, C = c*I (with --r)")
    if extensions:
        g.add_argument("--trivial", dest="extension", action="store_const",
                       const=ExtensionKind.TRIVIAL, help="the uncoupled operator (C = 0)")
        g.add_argument("--friedrichs", dest="extension", action="store_const",
                       const=ExtensionKind.FRIEDRICHS,
                       help="the Friedrichs extension (C^{-1} = 0)")
    p.add_argument("--r", type=float, default=None,
                   help="scalar admissible matrix, R = r*I (only with --c)")


def _params(parser, alpha: float, beta: float) -> SystemParams:
    try:
        return SystemParams(alpha, beta)
    except DomainError as exc:
        parser.error(str(exc))


def _coupling(parser, args) -> Hermitian2 | ExtensionKind | None:
    """The coupling named on the command line; None when none was given."""
    if (args.c is None) != (args.r is None):
        parser.error("--c and --r go together (C = c*I, R = r*I)")
    if args.c is not None:
        return gamma_from_cr(Hermitian2.scalar(args.c), Hermitian2.scalar(args.r))
    if args.gamma_file is not None:
        try:
            data = json.loads(Path(args.gamma_file).read_text(encoding="utf-8"))
            return Hermitian2.from_json_dict(data)
        except (OSError, ValueError, TypeError, DomainError) as exc:
            parser.error(f"cannot read --gamma-file: {exc}")
    return getattr(args, "extension", None)


# ----------------------------------------------------------------- commands

def cmd_qfunc(parser, args) -> int:
    params = _params(parser, args.alpha, args.beta)
    coupling = _coupling(parser, args)
    z = complex(args.z_re, args.z_im)
    q = krein_q(params, z)
    out = {"z_re": z.real, "z_im": z.imag,
           "q_pp_re": q.q_pp.real, "q_pp_im": q.q_pp.imag,
           "q_mm_re": q.q_mm.real, "q_mm_im": q.q_mm.imag}
    if coupling is not None:
        det = secular_det(params, coupling, z)
        out.update(det_re=det.real, det_im=det.imag)
    _emit(dumps(out), args.out)
    return EXIT_OK


def cmd_solve(parser, args) -> int:
    params = _params(parser, args.alpha, args.beta)
    report = solve_spectrum(params, _coupling(parser, args))
    _emit(_report_csv(report) if args.format == "csv" else dumps(report.to_json_dict()),
          args.out)
    return EXIT_OK


def _c_grid(c_from: float, c_to: float, steps: int, log: bool) -> list[float]:
    """The sweep's c values: numpy's linspace, or its geomspace with the sign
    of c rotated out, by numpy's arithmetic done in libm, so that they do not
    depend on the CPU.  Node j is j*step + c_from, or sign*10.0 ** (j*step + lo)
    with lo = log10(|c_from|) and step = (log10(|c_to|) - lo)/(steps - 1); both
    ends are exact."""
    div = steps - 1
    sign = -1.0 if log and c_from < 0.0 else 1.0
    start, stop = ((math.log10(sign * c_from), math.log10(sign * c_to)) if log
                   else (c_from, c_to))
    delta = stop - start
    step = delta / div
    # numpy's form where the step underflows to zero (subnormal ends)
    ys = [(j * step if step != 0.0 else j / div * delta) + start for j in range(div)]
    if not log:
        return ys + [c_to]
    try:
        return [c_from] + [sign * 10.0 ** y for y in ys[1:]] + [c_to]
    except OverflowError:
        raise DomainError(f"a c value between {c_from} and {c_to} overflows") from None


def cmd_sweep(parser, args) -> int:
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    params = _params(parser, args.alpha, args.beta)
    if args.log and args.c_from * args.c_to <= 0.0:
        parser.error("--log requires c-from and c-to nonzero with equal signs")

    rows = []
    for c in _c_grid(args.c_from, args.c_to, args.steps, args.log):
        if c == 0.0:
            if not args.allow_free:
                parser.error("c = 0 in the grid is the uncoupled operator; "
                             "pass --allow-free to emit an empty row instead")
            rows.append((c, []))
            continue
        gm = gamma_from_cr(Hermitian2.scalar(c), Hermitian2.scalar(args.r))
        roots = discrete_eigenvalues(params, gm)
        rows.append((c, sorted(r.energy for r in roots)))

    width = max((len(es) for _, es in rows), default=0)
    header = "c" + "".join(f",E_{k + 1}" for k in range(width))
    lines = [header]
    for c, es in rows:
        cells = [_fmt_float(c)] + [_fmt_float(e) for e in es] + [""] * (width - len(es))
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_expand(parser, args) -> int:
    params = _params(parser, args.alpha, args.beta)
    coupling = _coupling(parser, args)
    asym = asymptotic_eigenvalues(params, coupling)   # RegimeError -> exit 2
    co = expansion_coefficients(params.beta, coupling)
    # dumps writes the tuples of a twofold root as JSON lists
    roots = [{"e0": r.e0, "e2": r.e2, "branch": r.branch.value,
              "energy": r.predicted_energy(params.alpha)} for r in asym.entries]
    coefficients = {"gamma0": co.gamma0,
                    **dict(zip(("eta_pp", "eta_mm", "eta_pm"), co.eta))}
    for name in ("n0", "n1", "l0", "l1", "omega0", "omega1"):
        coefficients[f"{name}_plus"], coefficients[f"{name}_minus"] = getattr(co, name)
    out = {"coefficients": coefficients, "roots": roots,
           "gamma_circle_residual": asym.gamma_circle_residual,
           "threshold_persists": asym.threshold_persists}
    _emit(dumps(out), args.out)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    # imported here, so that the other subcommands start without it
    from . import verify
    if args.suite not in verify.SUITES:
        parser.error(f"argument --suite: invalid choice: {args.suite!r} "
                     f"(choose from {', '.join(map(repr, verify.SUITES))})")
    results = verify.run_suite(args.suite)
    failures = sum(not r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = (f"{status} {r.name}: measured={r.measured:.10g} "
                f"expected={r.expected:.10g} tol={r.tol:.3g}")
        if r.detail:
            line += f" [{r.detail}]"
        print(line)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAIL


# -------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rashba-contact",
        description="Point spectrum of the 3D Rashba Hamiltonian with a "
                    "spin-dependent contact interaction")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("qfunc", help="evaluate the Q-matrix at one energy")
    _add_params(q)
    q.add_argument("--z-re", type=finite, required=True)
    q.add_argument("--z-im", type=finite, default=0.0)
    _add_coupling(q, required=False)
    q.set_defaults(func=cmd_qfunc)

    s = sub.add_parser("solve", help="classified point spectrum for one coupling")
    _add_params(s)
    _add_coupling(s, required=True, extensions=True)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(func=cmd_solve)

    w = sub.add_parser("sweep", help="eigenvalues against the scalar contact "
                                     "strength c with C = c*I, R = r*I")
    _add_params(w, beta=1e-6)
    w.add_argument("--r", type=float, required=True)
    w.add_argument("--c-from", type=float, required=True)
    w.add_argument("--c-to", type=float, required=True)
    w.add_argument("--steps", type=int, required=True)
    w.add_argument("--log", action="store_true", help="logarithmic c grid")
    w.add_argument("--allow-free", action="store_true",
                   help="emit an empty row at c = 0 instead of failing")
    w.set_defaults(func=cmd_sweep)

    e = sub.add_parser("expand", help="small-coupling expansion data")
    _add_params(e)
    _add_coupling(e, required=True)
    e.set_defaults(func=cmd_expand)

    for p in (q, s, w, e):
        p.add_argument("--out", type=str, default=None, help="write to this file")

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", default="all",
                   help="suite name; an unknown name lists the choices")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ConvergenceError as exc:
        print(f"error (non-convergence): {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (DomainError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
