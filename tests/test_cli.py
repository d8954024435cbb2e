"""End-to-end tests of the command line interface (exit codes and output)."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from screenguide import capacity, parse_config
from screenguide.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

FAST_SOLVE = """
[problem]
kappa = 2.5132741228718345
epsilon = 0.02
L = 0.6

[mesh]
h = 0.3

[dtn]
n_modes = 5
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_SOLVE)
    return str(path)


def test_solve_prints_coefficients(fast_cfg, capsys):
    assert main(["solve", fast_cfg]) == 0
    out = capsys.readouterr().out
    assert "R = " in out and "T = " in out
    assert "energy_residual" in out


def test_solve_requires_length(tmp_path, capsys):
    path = tmp_path / "nolen.cfg"
    path.write_text("[problem]\nkappa = 1.0\nepsilon = 0.1\n")
    assert main(["solve", str(path)]) == 2
    assert "problem.L" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem]\nkappa = quick\nepsilon = 0.1\nL = 0.6\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "problem.kappa" in err and "line 2" in err


def test_numerical_error_exit_code(fast_cfg, capsys):
    # kappa outside the single-mode band
    assert main(["solve", fast_cfg, "--set", "problem.kappa=4.0"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_bad_override_exit_code(fast_cfg, capsys):
    assert main(["solve", fast_cfg, "--set", "mesh.granularity=1"]) == 2


def test_sweep_writes_outputs(fast_cfg, tmp_path, capsys):
    csv_path = tmp_path / "s.csv"
    locus_path = tmp_path / "l.csv"
    code = main(["sweep", fast_cfg,
                 "--set", "sweep.L_min=0.58", "--set", "sweep.L_max=0.70",
                 "--set", "sweep.n_steps=3",
                 "--set", f"output.csv={csv_path}",
                 "--set", f"output.locus={locus_path}"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max |T|" in out
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0].startswith("L,Re_R,Im_R")
    assert len(csv_lines) == 4
    locus_lines = locus_path.read_text().splitlines()
    assert locus_lines[0] == "Re_R,Im_R,Re_T,Im_T"
    # every locus point sits inside the closed unit disk
    for line in locus_lines[1:]:
        re_r, im_r, re_t, im_t = map(float, line.split(","))
        assert math.hypot(re_r, im_r) <= 1.0 + 5e-3
        assert math.hypot(re_t, im_t) <= 1.0 + 5e-3


def test_find_resonance_exit_codes(fast_cfg, capsys):
    code = main(["find-resonance", fast_cfg,
                 "--set", "resonance.bracket_lo=0.6",
                 "--set", "resonance.bracket_hi=0.8",
                 "--set", "resonance.tol=2e-3",
                 "--set", "mesh.h=0.08", "--set", "dtn.n_modes=10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L_star" in out and "evaluations" in out


def test_singular_cascade_loop_exit_code(fast_cfg, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError; it must not read as a config error
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = main(["find-resonance", fast_cfg,
                 "--set", "resonance.bracket_lo=0.6",
                 "--set", "resonance.bracket_hi=0.8",
                 "--set", "resonance.tol=2e-3"])
    assert code == 3
    assert "numerical error" in capsys.readouterr().err


def test_find_resonance_bracket_error(fast_cfg, capsys):
    # far below the resonance |T|(L) is monotone: no interior peak
    code = main(["find-resonance", fast_cfg,
                 "--set", "resonance.bracket_lo=0.30",
                 "--set", "resonance.bracket_hi=0.38",
                 "--set", "resonance.tol=5e-3"])
    assert code == 4
    assert "bracket" in capsys.readouterr().err


def test_field_writes_table(fast_cfg, tmp_path):
    out_path = tmp_path / "field.dat"
    code = main(["field", fast_cfg,
                 "--set", "output.field_grid=9x5",
                 "--set", f"output.field={out_path}"])
    assert code == 0
    blocks = out_path.read_text().strip("\n").split("\n\n")
    assert len(blocks) == 9
    assert all(len(b.splitlines()) == 5 for b in blocks)


def test_field_to_stdout(fast_cfg, capsys):
    assert main(["field", fast_cfg, "--set", "output.field_grid=5x3"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 15


def test_asymptotic_report(tmp_path, capsys):
    path = tmp_path / "asym.cfg"
    path.write_text("""
[problem]
kappa = 2.5132741228718345
epsilon = 0.0001

[asymptotic]
q = 1
beta = 0.0
capa_left = 0.6366197723675814
capa_right = 0.6366197723675814
""")
    assert main(["asymptotic", str(path)]) == 0
    out = capsys.readouterr().out
    assert "L0 = 0.625" in out
    assert "|T0| = 1" in out
    assert "reflection_floor = 0" in out
    assert "complete_transmission_possible = True" in out


def test_asymptotic_unbalanced_floor(tmp_path, capsys):
    path = tmp_path / "asym.cfg"
    path.write_text("""
[problem]
kappa = 2.5132741228718345
epsilon = 0.0001

[asymptotic]
capa_left = 0.6
capa_right = 0.2
""")
    assert main(["asymptotic", str(path)]) == 0
    out = capsys.readouterr().out
    assert "reflection_floor = 0.8" in out
    assert "complete_transmission_possible = False" in out


def test_capacity_report(tmp_path, capsys):
    path = tmp_path / "capa.cfg"
    path.write_text("""
[problem]
kappa = 1.0
epsilon = 0.01

[capacity]
shape = disk
params = 1.0
n_panels = 64
""")
    assert main(["capacity", str(path)]) == 0
    out = capsys.readouterr().out
    assert "capacity = " in out
    assert "n_panels = " in out
    assert "est_error = " in out
    capa = float(out.split("capacity = ")[1].splitlines()[0])
    # 64 panels is a smoke test; convergence is covered by the solver tests
    assert abs(capa - 2.0 / math.pi) / (2.0 / math.pi) < 0.10


def test_capacity_rectangle_and_polygon(tmp_path, capsys):
    path = tmp_path / "capa.cfg"
    path.write_text("""
[problem]
kappa = 1.0
epsilon = 0.01

[capacity]
shape = rectangle
params = 1.0, 1.0
n_panels = 64
""")
    assert main(["capacity", str(path)]) == 0
    assert main(["capacity", str(path),
                 "--set", "capacity.shape=polygon",
                 "--set", "capacity.params=0,0,1,0,0,1"]) == 0
    capsys.readouterr()


def test_capacity_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(capacity, "_MINRES_MAXITER", 1)
    path = tmp_path / "capa.cfg"
    path.write_text("""
[problem]
kappa = 1.0
epsilon = 0.01

[capacity]
shape = disk
params = 1.0
n_panels = 64
""")
    assert main(["capacity", str(path)]) == 3
    assert "numerical error: capacity MINRES" in capsys.readouterr().err


def test_capacity_bad_shape(tmp_path, capsys):
    path = tmp_path / "capa.cfg"
    path.write_text("""
[problem]
kappa = 1.0
epsilon = 0.01

[capacity]
shape = hexagon
""")
    assert main(["capacity", str(path)]) == 2
    assert "capacity.shape" in capsys.readouterr().err


@pytest.mark.parametrize("L", ["0", "-0.2"])
def test_nonpositive_length_is_a_config_error(tmp_path, capsys, L):
    path = tmp_path / "len.cfg"
    path.write_text(f"[problem]\nkappa = 1.0\nepsilon = 0.1\nL = {L}\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line 4: [problem.L] L must be > 0")


def test_nonpositive_bracket_is_a_config_error(fast_cfg, capsys):
    code = main(["find-resonance", fast_cfg,
                 "--set", "resonance.bracket_lo=-0.2",
                 "--set", "resonance.bracket_hi=0.3"])
    assert code == 2
    assert "[resonance.bracket_lo] bracket_lo must be > 0" in capsys.readouterr().err


def test_capacity_shape_error_names_its_key(tmp_path, capsys):
    path = tmp_path / "capa.cfg"
    path.write_text("[problem]\nkappa = 1.0\nepsilon = 0.01\n[capacity]\nparams = -1.0\n")
    assert main(["capacity", str(path)]) == 2
    assert ("config error: [capacity.params] disk radius must be finite and > 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("setting, key", [
    ("area_resonator = 0.5", "asymptotic.area_resonator"),
    ("capa_left = -0.6", "asymptotic.capa_left, asymptotic.area_left"),
    ("beta = inf", "asymptotic.beta"),
])
def test_asymptotic_model_error_names_its_keys(tmp_path, capsys, setting, key):
    path = tmp_path / "asym.cfg"
    path.write_text(f"[problem]\nkappa = 2.5\nepsilon = 0.0001\n[asymptotic]\n{setting}\n")
    assert main(["asymptotic", str(path)]) == 2
    assert f"config error: [{key}] " in capsys.readouterr().err


def test_value_error_inside_a_solve_is_not_a_config_error(fast_cfg, capsys, monkeypatch):
    # a ValueError that escapes a solve is a bug, not bad input: it propagates
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr("screenguide.cli.solve_scattering", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["solve", fast_cfg])
    assert "config error" not in capsys.readouterr().err


def test_readme_config_and_overrides_parse():
    text = README.read_text()
    ini = re.search(r"```ini\n(.*?)```", text, re.S)
    commands = re.search(r"```sh\n(screenguide .*?)```", text, re.S)
    assert ini and commands
    cfg = parse_config(ini.group(1))
    assert cfg.L == 0.6 and cfg.csv == "sweep.csv"
    sets = re.findall(r"--set (\S+)", commands.group(1))
    assert len(sets) == 4
    for override in sets:  # each documented --set names a known key
        parse_config(ini.group(1), overrides=(override,))
