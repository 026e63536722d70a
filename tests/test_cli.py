import json
import os
import subprocess
import sys

import pytest

from fraclog.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thresholds_json(capsys):
    code, out = run(capsys, "thresholds")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    table = {r["name"]: r["value"] for r in payload["thresholds"]}
    assert abs(float(table["a0"]) - 1.8473) <= 5e-4
    assert abs(float(table["a1"]) - 1.5703) <= 5e-4
    assert set(table) == {"a0", "a1", "s0_N3", "s1_N1"}


def test_eigentable_csv(capsys):
    code, out = run(capsys, "eigentable", "--dim", "4", "--order", "0.5", "--kmax", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,lambda_k,d_k,phi_s,phi_slog,phi_log"
    assert len(lines) == 7
    slog = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b > a for a, b in zip(slog, slog[1:]))


def test_eigentable_csv_cells_are_fmt_of_the_rows(capsys):
    from fraclog.cli import _fmt
    from fraclog.constants import Params
    from fraclog.spectral import eigentable
    code, out = run(capsys, "eigentable", "--dim", "2", "--order", "0.3", "--kmax", "300")
    assert code == 0
    want = ["k,lambda_k,d_k,phi_s,phi_slog,phi_log"] + [
        ",".join(map(_fmt, row)) for row in eigentable(Params(2, 0.3), 300)]
    assert out == "\n".join(want) + "\n"


def test_constants_json(capsys):
    code, out = run(capsys, "constants", "--dim", "3", "--order", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["constants"]["A_Ns"]) == pytest.approx(1.0, rel=1e-12)


def test_kernel_vs_spectral(capsys):
    code, out = run(capsys, "kernel-vs-spectral", "--dim", "2", "--order", "0.25",
                    "--kmax", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3 * 4
    rels = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(rels) <= 1e-6


def test_kernel_vs_spectral_high_degree(capsys):
    code, out = run(capsys, "kernel-vs-spectral", "--dim", "3", "--order", "0.5",
                    "--kmax", "40")
    assert code == 0
    rels = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
    assert len(rels) == 3 * 41 and max(rels) <= 1e-6


def test_nonconverged_exit_3_with_record(monkeypatch, capsys):
    from fraclog import sphere_kernel
    from fraclog.errors import NonConvergedError

    def fail(*args):
        raise NonConvergedError("quadrature stalled", value=1.25, error_estimate=3e-4)

    monkeypatch.setattr(sphere_kernel, "apply_kernel_at_pole", fail)
    code = main(["kernel-vs-spectral", "--dim", "2", "--order", "0.25", "--kmax", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "NonConvergedError",
                                    "message": "quadrature stalled",
                                    "value": 1.25, "error_estimate": 3e-4}


def test_failure_exit_status_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    code, out = run(capsys, "failure", "--dim", "3", "--order0", "0.5",
                    "--grid", "12", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["pass"] is True
    assert float(payload["report"]["details"]["min_Fprime"]) < 0.0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,F,Fprime_fd,F_error"
    assert len(lines) == 13


@pytest.mark.parametrize("fourier", [False, True])
def test_bubble_table_cells_are_fmt_of_the_profile(capsys, fourier):
    from fraclog.cli import _fmt
    from fraclog.constants import Params
    from fraclog.euclid_radial import bubble_profile
    code, out = run(capsys, "bubble", "--dim", "3", "--order", "0.5", "--scale", "2",
                    *(["--fourier"] if fourier else []))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("r,v,rho,v_hat" if fourier else "r,v")
    prof = bubble_profile(Params(3, 0.5), 2.0)
    assert len(lines) == 8
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == _fmt(prof.evaluator(float(cells[0])))
        if fourier:
            assert cells[3] == _fmt(prof.fourier.evaluator(float(cells[2])))


def test_bubble_residual(capsys):
    code, out = run(capsys, "bubble-residual", "--dim", "3", "--order", "0.4",
                    "--scale", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["sphere"]["pass"] and payload["euclid"]["pass"]
    euclid = payload["euclid"]
    assert float(euclid["residual"]) <= float(euclid["details"]["error_budget"])


def test_dini_subcommand(capsys):
    code, out = run(capsys, "dini", "--order", "0.3", "--modulus", "power")
    assert code == 0
    assert json.loads(out)["report"]["details"]["verdict"] == "finite"
    code, out = run(capsys, "dini", "--order", "0.3", "--modulus", "power",
                    "--beta", "0.6")
    assert code == 0
    assert json.loads(out)["report"]["details"]["verdict"] == "divergent"


def test_byte_stable_output(capsys):
    _, out1 = run(capsys, "constants", "--dim", "4", "--order", "0.3")
    _, out2 = run(capsys, "constants", "--dim", "4", "--order", "0.3")
    assert out1 == out2
    _, t1 = run(capsys, "thresholds")
    _, t2 = run(capsys, "thresholds")
    assert t1 == t2


def _child_env():
    import fraclog
    # the child imports the package this process tested
    src = os.path.dirname(os.path.dirname(fraclog.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_byte_stable_across_processes():
    env = _child_env()
    cmd = [sys.executable, "-m", "fraclog.cli", "eigentable", "--dim", "3",
           "--order", "0.25", "--kmax", "8"]
    a = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    b = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    assert a == b and len(a) > 0


def test_cold_import_skips_scipy_interpolate():
    code = "import sys, fraclog.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         env=_child_env()).stdout
    assert out.strip() == b"False"


_LOADED_SCIPY = """
import contextlib, io, json, sys
import fraclog.cli
packages = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.linalg",
            "scipy.interpolate")
seen = {"import": [m for m in packages if m in sys.modules]}
quadpack, codes = "scipy.integrate._quadpack" in sys.modules, []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(fraclog.cli.main(argv))
    seen[argv[0]] = [m for m in packages if m in sys.modules]
print(json.dumps({"packages": seen, "quadpack_at_import": quadpack, "codes": codes}))
"""

# one of each subcommand the cli benchmark workload runs; confcore, beckner and dini integrate
_COLD_SUBCOMMANDS = [
    ["thresholds"], ["constants", "--dim", "3", "--order", "0.5"],
    ["eigentable", "--dim", "2", "--order", "0.5", "--kmax", "200"],
    ["kernel-vs-spectral", "--dim", "3", "--order", "0.5", "--kmax", "20"],
    ["bubble-residual", "--dim", "3", "--order", "0.5"],
    ["identity", "--dim", "5", "--order", "0.4"],
    ["failure", "--dim", "3", "--order0", "0.5", "--grid", "40"],
    ["intertwine", "--dim", "1", "--order", "0.3"],
    ["confcore", "--dim", "1", "--profile", "mix"],
    ["beckner", "--dim", "3", "--order", "0.6"], ["dini", "--order", "0.3"],
]


def test_cold_start_runs_no_scipy_package_init():
    # fraclog loads scipy's compiled ufuncs and QUADPACK at import without running the
    # scipy.special or scipy.integrate package init, and no subcommand loads either
    # package, or scipy.optimize, scipy.linalg or scipy.interpolate, later
    out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, json.dumps(_COLD_SUBCOMMANDS)],
                         capture_output=True, check=True, env=_child_env()).stdout
    result = json.loads(out)
    assert result["quadpack_at_import"]
    assert result["codes"] == [0] * len(_COLD_SUBCOMMANDS)
    assert result["packages"] == {key: [] for key in ["import"] + [a[0] for a in _COLD_SUBCOMMANDS]}


def test_out_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out = run(capsys, "constants", "--dim", "3", "--order", "0.25",
                    "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["N"] == 3


def test_usage_errors_exit_2(capsys):
    assert main(["unknown-subcommand"]) == 2
    capsys.readouterr()
    assert main(["constants", "--dim", "3"]) == 2  # missing --order
    capsys.readouterr()
    assert main(["constants", "--dim", "1", "--order", "0.9"]) == 2  # N <= 2s
    capsys.readouterr()


def test_beckner_subcommand(capsys):
    code, out = run(capsys, "beckner", "--dim", "1", "--order", "0.25",
                    "--profile", "extremal")
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["report"]["residual"])) <= 1e-4


def test_intertwine_subcommand(capsys):
    code, out = run(capsys, "intertwine", "--dim", "3", "--order", "0.25")
    assert code == 0
    report = json.loads(out)["report"]
    assert float(report["residual"]) <= float(report["details"]["error_budget"])
    _, again = run(capsys, "intertwine", "--dim", "3", "--order", "0.25")
    assert again == out


def test_confcore_subcommand(capsys):
    code, out = run(capsys, "confcore", "--dim", "3", "--profile", "mix")
    assert code == 0
    assert json.loads(out)["report"]["pass"] is True


def test_identity_subcommand(capsys):
    code, out = run(capsys, "identity", "--dim", "3", "--order", "0.5")
    assert code == 0


@pytest.mark.parametrize("argv", [
    # margin audits: a pass is a margin above -1e-6, not |margin| <= tolerance
    ("beckner", "--dim", "3", "--order", "0.3", "--profile", "gaussian"),
    ("failure", "--dim", "3", "--order0", "0.5"),
    ("identity", "--dim", "3", "--order", "0.5"),
])
def test_exit_status_is_the_report_pass(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == (0 if json.loads(out)["report"]["pass"] else 1)
    assert code == 0


def test_tol_scale_is_gone(capsys):
    for argv in (("identity", "--dim", "3", "--order", "0.5"),
                 ("failure", "--dim", "3", "--order0", "0.5")):
        assert main([*argv, "--tol-scale", "2"]) == 2


_LOADED_AUDIT_MODULES = """
import contextlib, io, json, sys
import fraclog.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = fraclog.cli.main(json.loads(sys.argv[1]))
modules = ("conformal", "euclid_radial", "inequalities", "sphere_kernel")
print(json.dumps([code, [m for m in modules if "fraclog." + m in sys.modules]]))
"""

#: the audit modules each subcommand needs, and so the only ones a cold process loads
_SUBCOMMAND_MODULES = {
    "thresholds": [], "constants": [], "eigentable": [],
    "kernel-vs-spectral": ["sphere_kernel"], "dini": ["sphere_kernel"],
    "identity": ["euclid_radial", "inequalities"], "failure": ["euclid_radial", "inequalities"],
    "beckner": ["euclid_radial", "inequalities"],
    "bubble-residual": ["conformal", "euclid_radial"], "intertwine": ["conformal", "euclid_radial"],
    "confcore": ["conformal", "euclid_radial"],
}


def test_cold_subcommands_load_only_their_audit_modules():
    env = _child_env()
    loaded = {}
    for argv in _COLD_SUBCOMMANDS:
        out = subprocess.run([sys.executable, "-c", _LOADED_AUDIT_MODULES, json.dumps(argv)],
                             capture_output=True, check=True, env=env).stdout
        code, loaded[argv[0]] = json.loads(out)
        assert code == 0, argv
    assert loaded == _SUBCOMMAND_MODULES


def test_cold_bubble_loads_neither_fractions_nor_decimal():
    # the exact pair is one PhiSum, read through as_integer_ratio: a cold bubble run
    # loads no other audit module and not the fractions and decimal imports
    script = _LOADED_AUDIT_MODULES + (
        "print(json.dumps([m for m in ('fractions', 'decimal') if m in sys.modules]))\n")
    argv = ["bubble", "--dim", "3", "--order", "0.5", "--fourier"]
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                         capture_output=True, check=True, env=_child_env()).stdout.splitlines()
    assert list(map(json.loads, out)) == [[0, ["euclid_radial"]], []]


@pytest.mark.parametrize("argv", [("intertwine", "--dim", "3", "--order", "0.3"),
                                  ("confcore", "--dim", "1", "--profile", "mix")])
def test_cold_exact_audits_load_neither_fractions_nor_decimal(argv):
    # the pullback coefficients, the Dyda images and the sums over V^2 are integers
    # over one denominator: the exact audits need no fractions import either
    script = _LOADED_AUDIT_MODULES + (
        "print(json.dumps([m for m in ('fractions', 'decimal') if m in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                         capture_output=True, check=True, env=_child_env()).stdout.splitlines()
    assert list(map(json.loads, out)) == [[0, ["conformal", "euclid_radial"]], []]
