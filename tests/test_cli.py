import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rashba_contact
from rashba_contact.cli import _c_grid, build_parser, dumps, main

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"
# numpy's AVX-512 kernels, whose last bit differs from libm's on some inputs;
# on a CPU without them numpy ignores the names with an ImportWarning
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestQfunc:
    def test_classical_point(self, capsys):
        code, out, _ = run(capsys, "qfunc", "--alpha", "0", "--beta", "0",
                           "--z-re", "-2")
        assert code == 0
        data = json.loads(out)
        assert data["q_pp_re"] == pytest.approx(-1.0, abs=1e-12)
        assert data["q_pp_im"] == 0.0
        assert data["q_mm_re"] == pytest.approx(-1.0, abs=1e-12)

    def test_unit_imaginary(self, capsys):
        code, out, _ = run(capsys, "qfunc", "--alpha", "1", "--beta", "0.5",
                           "--z-re", "0", "--z-im", "1")
        data = json.loads(out)
        assert data["q_pp_re"] == pytest.approx(0.0, abs=1e-10)
        assert data["q_pp_im"] == pytest.approx(1.0, abs=1e-10)

    def test_det_with_coupling(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.5, "mm": 0.5, "pm_re": 0.0, "pm_im": 0.0}')
        code, out, _ = run(capsys, "qfunc", "--alpha", "0", "--beta", "0",
                           "--z-re", "-2", "--gamma-file", str(gf))
        data = json.loads(out)
        assert data["det_re"] == pytest.approx(2.25, abs=1e-10)

    def test_real_det_prints_a_positive_zero_imaginary_part(self, capsys):
        # below the band det is a float, so its imaginary part is 0.0 also
        # where both diagonal entries of Gamma - Q are negative
        code, out, _ = run(capsys, "qfunc", "--alpha", "2", "--beta", "0.5",
                           "--z-re", "-3", "--c", "0.5", "--r", "0.2")
        assert code == 0
        assert '"det_im":0.0,' in out and '"det_re":2.76399567352138' in out

    @pytest.mark.parametrize("argv,golden", [
        (["--alpha", "2", "--beta", "0.5", "--z-re", "-3"], "qfunc_real.json"),
        (["--alpha", "1", "--beta", "0.5", "--z-re", "0", "--z-im", "1"], "readme_qfunc.json"),
        # the small-alpha xi series of G_1 on the real axis, and alpha = 0 off it
        (["--alpha", "1e-05", "--beta", "0.3", "--z-re", "-1"], "qfunc_small_alpha.json"),
        (["--alpha", "0", "--beta", "0.5", "--z-re", "-0.5", "--z-im", "0.25"],
         "qfunc_alpha0_complex.json"),
        # the normalization's beta = 0, alpha > 0 branch, off the axis
        (["--alpha", "1.5", "--beta", "0", "--z-re", "-2", "--z-im", "0.5"],
         "qfunc_beta0.json")])
    def test_output_is_byte_stable(self, capsys, argv, golden):
        # the stored bytes carry the sign of every zero: below the band Q is
        # computed in float arithmetic and its imaginary parts print as 0.0
        code, out, _ = run(capsys, "qfunc", *argv)
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()

    def test_missing_alpha_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qfunc", "--beta", "0", "--z-re", "-2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("z", [["--z-re", "nan"], ["--z-re", "-3", "--z-im", "inf"]])
    def test_non_finite_z_exits_2(self, capsys, z):
        with pytest.raises(SystemExit) as exc:
            main(["qfunc", "--alpha", "1", "--beta", "0.5", *z])
        assert exc.value.code == 2
        assert f"argument {z[-2]}: must be finite" in capsys.readouterr().err

    def test_band_point_exits_2(self, capsys):
        code, _, err = run(capsys, "qfunc", "--alpha", "0", "--beta", "0.5",
                           "--z-re", "-0.2")
        assert code == 2
        assert "continuous band" in err

    @pytest.mark.parametrize("z", [["--z-re=-1e200"], ["--z-re=0", "--z-im=1e-160"],
                                   ["--z-re=-1e-200", "--z-im=1e-200"]])
    def test_ends_of_float_range_print_finite_json(self, capsys, z):
        code, out, err = run(capsys, "qfunc", "--alpha", "2", "--beta", "0.5", *z)
        assert code == 0 and err == ""
        data = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {out}"))
        assert all(math.isfinite(v) for v in data.values())

    def test_beyond_float_range_exits_2(self, capsys):
        code, out, err = run(capsys, "qfunc", "--alpha", "2", "--beta", "0.5",
                             "--z-re=-1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: |E| = 1e+308 is beyond the float range of xi")

    def test_off_axis_beyond_float_range_exits_2(self, capsys):
        # |z| itself overflows here, so the error must not need it
        code, out, err = run(capsys, "qfunc", "--alpha", "2", "--beta", "0.5",
                             "--z-re=1.7e308", "--z-im=1.7e308")
        assert code == 2 and out == ""
        assert err.startswith("error: z = (1.7e+308+1.7e+308j) is beyond the float range of xi")


class TestSolve:
    def test_two_channel_pair_json(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.17850, "mm": 0.17850, "pm_re": 0.0, "pm_im": 0.0}')
        code, out, _ = run(capsys, "solve", "--alpha", "2", "--beta", "0.5",
                           "--gamma-file", str(gf))
        assert code == 0
        data = json.loads(out)
        es = sorted(row["E"] for row in data["discrete"])
        assert es == pytest.approx([-1.60313, -1.37956], abs=1e-3)
        assert data["sigma"] == pytest.approx(1.0625)

    def test_free_symmetric_root(self, capsys, tmp_path):
        # Gamma = v*I with omega = (v-1)/sqrt(2) = -1: a double eigenvalue,
        # listed twice
        v = 1.0 - math.sqrt(2.0)
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps({"pp": v, "mm": v, "pm_re": 0.0, "pm_im": 0.0}))
        code, out, _ = run(capsys, "solve", "--alpha", "0", "--beta", "0",
                           "--gamma-file", str(gf))
        data = json.loads(out)
        assert len(data["discrete"]) == 2 and data["discrete"][0] == data["discrete"][1]
        assert data["discrete"][0]["E"] == pytest.approx(-1.0, abs=1e-9)

    def test_distinguished_extensions(self, capsys):
        for flag in ("--trivial", "--friedrichs"):
            code, out, _ = run(capsys, "solve", "--alpha", "1", "--beta", "0.5",
                               flag)
            assert code == 0
            data = json.loads(out)
            assert data["discrete"] == [] and data["embedded"] == []
            assert data["sigma"] == pytest.approx(0.5)

    def test_empty_spectrum_exit_zero(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 3.0, "mm": 3.0, "pm_re": 0.0, "pm_im": 0.0}')
        code, out, _ = run(capsys, "solve", "--alpha", "0", "--beta", "0",
                           "--gamma-file", str(gf))
        assert code == 0
        assert json.loads(out)["discrete"] == []

    def test_coupling_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "0", "--beta", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["not json", "[0.5, 0.5, 0.0, 0.0]",
                                      '{"pp": 0.5, "mm": 0.5, "pm_re": "x", "pm_im": 0.0}'])
    def test_malformed_gamma_file_exits_2(self, capsys, tmp_path, text):
        gf = tmp_path / "g.json"
        gf.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "0", "--beta", "0", "--gamma-file", str(gf)])
        assert exc.value.code == 2
        assert "cannot read --gamma-file" in capsys.readouterr().err

    def test_sigma_overflow_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "1e200", "--beta", "1", "--c", "1", "--r", "0"])
        assert exc.value.code == 2
        assert "Sigma overflows" in capsys.readouterr().err

    def test_beta_beyond_the_square_range_exits_2(self, capsys):
        # the normalization at z = i takes xi at |beta/z| = 1e300, too large
        # to square; the window for the resulting Gamma then overflows
        code, out, err = run(capsys, "solve", "--alpha", "0", "--beta", "1e300",
                             "--c", "1", "--r", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: the window's lower end") and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore:nu = .* is extreme:UserWarning")
    def test_extreme_nu(self, capsys):
        # beta -> 0 at fixed alpha: nu = 7.1e19 and 3.5e150 solve, and where
        # nu^2 overflows (beta subnormal) the error names it
        code, out, err = run(capsys, "solve", "--alpha", "1", "--beta", "1e-40",
                             "--c", "-1", "--r", "0")
        assert code == 0 and err == ""
        assert [r["E"] for r in json.loads(out)["discrete"]] == [-0.28145835554097498] * 2
        code, out, err = run(capsys, "solve", "--alpha", "5", "--beta", "1e-300",
                             "--c", "-1", "--r", "0")
        assert code == 0 and err == "" and json.loads(out)["regime"] == "CaseC"
        code, out, err = run(capsys, "solve", "--alpha", "1", "--beta", "1e-310",
                             "--c", "-1", "--r", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: nu^2 overflows") and "Traceback" not in err

    def test_large_beta_caseb_solves(self, capsys):
        # the CaseB threshold check takes the series scalars at beta = 1e8,
        # where u - beta once rounded to zero and divided by it
        code, out, err = run(capsys, "solve", "--alpha", "1", "--beta", "1e8",
                             "--c", "-50", "--r", "-0.17850")
        assert code == 0 and err == ""
        assert json.loads(out)["regime"] == "CaseB"

    @pytest.mark.parametrize("alpha,beta,golden", [
        # CaseA, with a Theorem-1 embedded root
        ("0", "0.5", "solve_alpha0.json"),
        # CaseB, through the series branch of G_1
        ("1e-05", "0.3", "solve_small_alpha.json"),
        # beta = 0, where G_s^ren is G_2^ren alone for both spins
        ("1.5", "0", "solve_beta0.json")])
    def test_output_is_byte_stable(self, capsys, alpha, beta, golden):
        code, out, _ = run(capsys, "solve", "--alpha", alpha, "--beta", beta,
                           "--c", "-50", "--r", "-0.17850")
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("command", [["solve"], ["qfunc", "--z-re", "-3"]])
    def test_gamma_whose_square_overflows_exits_2(self, capsys, tmp_path, command):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.1, "mm": 0.2, "pm_re": 1e200, "pm_im": 0.0}')
        code, out, err = run(capsys, *command, "--alpha", "1", "--beta", "0.5",
                             "--gamma-file", str(gf))
        assert code == 2 and out == ""
        assert err.startswith("error: Gamma is too large") and "Traceback" not in err

    def test_gamma_too_large_for_the_window_exits_2(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 1e150, "mm": 1e150, "pm_re": 0.0, "pm_im": 0.0}')
        code, out, err = run(capsys, "solve", "--alpha", "1", "--beta", "0.5",
                             "--gamma-file", str(gf))
        assert code == 2 and out == ""
        assert err.startswith("error: the window's lower end") and "Traceback" not in err

    @pytest.mark.parametrize("coupling", [["--trivial", "--r", "0.1"],
                                          ["--gamma-file", "g.json", "--r", "0.1"],
                                          ["--c", "1"]])
    def test_r_goes_only_with_c(self, capsys, coupling):
        # --gamma-file is never read: the flags are checked first
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "0", "--beta", "0", *coupling])
        assert exc.value.code == 2
        assert "--c and --r" in capsys.readouterr().err

    def test_one_coupling_at_a_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "0", "--beta", "0", "--trivial", "--friedrichs"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("e_min", [["--e-min", "nan"], ["--e-min=-inf"]])
    def test_non_finite_e_min_exits_2(self, capsys, e_min):
        # the search window is fixed by a proven bound, not set by the caller:
        # --e-min is not an option at all, finite or not
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--alpha", "0", "--beta", "0", "--c", "1", "--r", "0", *e_min])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(e_min)}" in capsys.readouterr().err

    def test_csv_round_trip(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.17850, "mm": 0.17850, "pm_re": 0.0, "pm_im": 0.0}')
        code, out_json, _ = run(capsys, "solve", "--alpha", "2", "--beta", "0.5",
                                "--gamma-file", str(gf))
        code, out_csv, _ = run(capsys, "solve", "--alpha", "2", "--beta", "0.5",
                               "--gamma-file", str(gf), "--format", "csv")
        assert code == 0
        lines = out_csv.strip().splitlines()
        assert lines[0] == "regime,sigma,kind,E,residual,label"
        es_csv = sorted(float(l.split(",")[3]) for l in lines[1:]
                        if l.split(",")[2] == "discrete")
        es_json = sorted(r["E"] for r in json.loads(out_json)["discrete"])
        assert es_csv == pytest.approx(es_json, abs=0.0)

    def test_deterministic_output(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.2, "mm": -0.4, "pm_re": 0.1, "pm_im": 0.05}')
        argv = ("solve", "--alpha", "0.4", "--beta", "0.5", "--gamma-file", str(gf))
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestSweep:
    def test_minimal_two_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--alpha", "0", "--beta", "0",
                           "--r", "0.0", "--c-from", "0.5", "--c-to", "1.0",
                           "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("c")
        assert len(lines) == 3

    def test_zero_c_requires_allow_free(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0", "--beta", "0", "--r", "0.0",
                  "--c-from", "-1", "--c-to", "1", "--steps", "3"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, "sweep", "--alpha", "0", "--beta", "0",
                           "--r", "0.0", "--c-from", "-1", "--c-to", "1",
                           "--steps", "3", "--allow-free")
        assert code == 0
        row = out.strip().splitlines()[2]   # the c = 0 row
        assert row.split(",")[0] == "0"
        assert all(cell == "" for cell in row.split(",")[1:])

    def test_large_coupling_limit(self, capsys):
        # beta defaults to the near-zero stand-in; E(c) -> -1.43923 as |c| grows
        code, out, _ = run(capsys, "sweep", "--alpha", "2", "--r", "-0.17850",
                           "--c-from=-1e3", "--c-to=-1e6", "--steps", "3",
                           "--log")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        energies = [float(x) for x in last[1:] if x]
        assert energies
        for e in energies:
            assert e == pytest.approx(-1.43923, abs=1e-3)

    def test_log_grid_sign_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0", "--beta", "0", "--r", "0.0",
                  "--c-from", "-1", "--c-to", "1", "--steps", "3", "--log"])
        assert exc.value.code == 2

    def test_c_grid_is_numpys_without_its_cpu_kernels(self):
        # 400 seeded windows, log and linear, of both signs and 2 to 200
        # steps, the README window, equal ends and subnormal linear ends: the
        # c values equal np.geomspace and np.linspace bit for bit, as numpy
        # gives them with its AVX-512 kernels off (in a subprocess)
        rng = random.Random(3701)
        windows = [(-2.0, -1e4, 40, True), (3.0, 3.0, 5, True), (-1e5, -1e5, 7, False),
                   (5e-324, 1e-323, 4, False), (-1.0, 1.0, 3, False)]
        for k in range(400):
            sign = rng.choice((1.0, -1.0))
            if k % 2:
                ends = (sign * 10.0 ** rng.uniform(-12, 12), sign * 10.0 ** rng.uniform(-12, 12))
            else:
                ends = (sign * 10.0 ** rng.uniform(-6, 6),
                        rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-6, 6))
            windows.append((*ends, rng.randint(2, 200), bool(k % 2)))
        assert {(a < 0.0, log) for a, _, _, log in windows} == {
            (neg, log) for neg in (False, True) for log in (False, True)}
        rows = [[a.hex(), b.hex(), n, log] for a, b, n, log in windows]
        code = ("import json, sys\n"
                "import numpy as np\n"
                "json.dump([[float(c).hex() for c in (np.geomspace if log else np.linspace)(\n"
                "    float.fromhex(a), float.fromhex(b), n)] for a, b, n, log in\n"
                "    json.load(sys.stdin)], sys.stdout)")
        out = subprocess.run([sys.executable, "-c", code], input=json.dumps(rows),
                             env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512),
                             capture_output=True, text=True, check=True, timeout=120)
        got = [[c.hex() for c in _c_grid(a, b, n, log)] for a, b, n, log in windows]
        assert got == json.loads(out.stdout)

    def test_log_grid_beyond_float_range_exits_2(self, capsys):
        # 10.0 ** log10(max float) overflows: an error line, not a traceback
        top = "1.7976931348623157e308"
        code, _, err = run(capsys, "sweep", "--alpha", "2", "--r", "0.0", "--c-from", top,
                           "--c-to", top, "--steps", "3", "--log")
        assert code == 2 and err.startswith("error:")

    def test_readme_first_row_resolves_the_pair(self, capsys):
        # at the default beta = 1e-6 the two roots at c = -2 lie 1.6e-7 apart
        code, out, _ = run(capsys, "sweep", "--alpha", "2", "--r=-0.17850",
                           "--c-from=-2", "--c-to=-1e4", "--steps", "2", "--log")
        assert code == 0
        c, *energies = out.splitlines()[1].split(",")
        assert c == "-2" and len(energies) == 2
        assert [float(e) for e in energies] == pytest.approx(
            [-1.1149918962899035, -1.1149917158201794], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "2", "--beta", "0.5", "--c", "-50", "--r", "-0.17850",
     "--tol", "1e-2"],
    ["sweep", "--alpha", "2", "--r=-0.17850", "--c-from=-2", "--c-to=-1e4",
     "--steps", "2", "--tol", "1e-6"],
], ids=["solve", "sweep"])
def test_tol_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


class TestExpand:
    def test_diagonal_example(self, capsys, tmp_path):
        from rashba_contact import SystemParams, gamma_for_couplings
        gm = gamma_for_couplings(SystemParams(0.0, 0.5), 0.8, -0.4, 0.0)
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps(gm.to_json_dict()))
        code, out, _ = run(capsys, "expand", "--alpha", "0.2", "--beta", "0.5",
                           "--gamma-file", str(gf))
        assert code == 0
        data = json.loads(out)
        assert data["roots"][0]["branch"] == "DiagonalMinus"
        assert data["roots"][0]["e0"] == pytest.approx(-0.66, abs=1e-9)
        assert not data["threshold_persists"]
        assert "gamma0" in data["coefficients"]

    def test_zeroth_order_root_at_threshold(self, capsys, tmp_path):
        # omega0 = (0.5, -sqrt(5e-9)): the zeroth-order root lies 5e-9 below
        # -beta, where the second-order quotient degenerates
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 2.517487708723827, "mm": 0.617955373612119, '
                      '"pm_re": 0.0, "pm_im": 0.0}')
        code, out, _ = run(capsys, "expand", "--alpha", "0.3", "--beta", "0.5",
                           "--gamma-file", str(gf))
        assert code == 0
        (root,) = json.loads(out)["roots"]
        assert abs(root["e0"] + 0.5) < 1e-8
        assert root["e2"] is None and '"e2":null' in out
        assert root["energy"] == root["e0"]
        assert root["branch"] == "DiagonalMinus"

    def test_integer_valued_float_stays_float(self, capsys, tmp_path):
        # a diagonal coupling has gamma0 = 0 exactly
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 2.517487708723827, "mm": 0.617955373612119, '
                      '"pm_re": 0.0, "pm_im": 0.0}')
        code, out, _ = run(capsys, "expand", "--alpha", "0.3", "--beta", "0.5",
                           "--gamma-file", str(gf))
        assert code == 0
        gamma0 = json.loads(out)["coefficients"]["gamma0"]
        assert isinstance(gamma0, float) and gamma0 == 0.0
        assert '"gamma0":0.0' in out
        assert ([dumps(v) for v in (0.0, -2.0, 1e20, 3, 0.5)]
                == ["0.0", "-2.0", "1e+20", "3", "0.5"])

    def test_regime_gate(self, capsys, tmp_path):
        gf = tmp_path / "g.json"
        gf.write_text('{"pp": 0.1, "mm": 0.1, "pm_re": 0.0, "pm_im": 0.0}')
        code, _, err = run(capsys, "expand", "--alpha", "1.2", "--beta", "0.5",
                           "--gamma-file", str(gf))
        assert code == 2
        assert "regime" in err or "requires" in err


class TestReadme:
    def test_cli_examples_parse(self):
        block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
        block = block.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        lines = [line for line in block.splitlines() if line.startswith("rashba-contact ")]
        assert len(lines) >= 6
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_report_schema_example(self, capsys):
        # the schema block is what the quick start's last line prints
        text = README.read_text(encoding="utf-8")
        quick = text.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        schema = text.split("The spectrum report schema", 1)[1]
        shown = json.loads(schema.split("```json", 1)[1].split("```", 1)[0])
        scope = {}
        exec(quick, scope)
        capsys.readouterr()
        got = scope["report"].to_json_dict()
        assert list(shown) == list(got)
        assert shown["regime"] == got["regime"] and shown["sigma"] == got["sigma"]
        assert (len(shown["discrete"]), len(shown["embedded"])) == (2, 1)
        for key in ("discrete", "embedded"):
            assert len(shown[key]) == len(got[key])
            for row, ref in zip(shown[key], got[key]):
                assert list(row) == list(ref)
                assert row["E"] == pytest.approx(ref["E"], rel=1e-12)
        assert shown["embedded"][0]["theorem"] == got["embedded"][0]["theorem"]


    def test_solve_and_sweep_examples_are_byte_stable(self, capsys, tmp_path):
        # the README solve and 40-step sweep print exactly the stored bytes
        code, out, _ = run(capsys, "solve", "--alpha", "2", "--beta", "0.5",
                           "--c", "-50", "--r", "-0.17850")
        assert code == 0
        assert out.encode() == (DATA / "readme_solve.json").read_bytes()
        sweep = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--alpha", "2", "--r=-0.17850", "--c-from=-2",
                         "--c-to=-1e4", "--steps", "40", "--log", "--out", str(sweep))
        assert code == 0
        assert sweep.read_bytes() == (DATA / "readme_sweep.csv").read_bytes()

    def test_solve_csv_is_byte_stable(self, capsys):
        # the README solve as CSV: every discrete row carries the label
        # sign-change, as it did while the label named the root's method
        code, out, _ = run(capsys, "solve", "--alpha", "2", "--beta", "0.5",
                           "--c", "-50", "--r", "-0.17850", "--format", "csv")
        assert code == 0
        assert out.encode() == (DATA / "readme_solve.csv").read_bytes()


class TestVerify:
    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        assert "choose from 'paper', 'invariants', 'all'" in capsys.readouterr().err

    def test_cli_import_leaves_verify_out(self):
        # only the verify subcommand loads the suites
        src = str(Path(rashba_contact.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, rashba_contact.cli\n"
                "print('rashba_contact.verify' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_paper_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        assert "FAIL" not in out
        assert "x_nu1-at-nu-1" in out
