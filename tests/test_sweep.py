"""Unit tests for config parsing, sweep batching, and peak localization."""

import io
import logging
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

import screenguide.sweep as sweep_mod
from screenguide import (
    BracketError,
    ConfigError,
    NumericalError,
    RunConfig,
    find_resonance,
    parse_config,
    run_sweep,
    write_sweep_csv,
)

MINIMAL = """
[problem]
kappa = 2.5132741228718345
epsilon = 0.02

[sweep]
L_min = 0.58
L_max = 0.70
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kappa == pytest.approx(0.8 * math.pi, rel=1e-15)
    assert cfg.epsilon == 0.02
    assert cfg.h == 0.04
    assert cfg.n_modes == 15
    assert cfg.n_steps == 21
    assert cfg.tol == 1e-5
    assert cfg.holes_left == ((0.5, 1.0),)
    assert cfg.holes_right == ((0.5, 1.0),)


def test_comments_and_blanks_are_ignored():
    cfg = parse_config("""
# leading comment
[problem]
kappa = 1.0   # trailing comment
epsilon = 0.5

[mesh]
h = 0.1
""")
    assert cfg.kappa == 1.0
    assert cfg.h == 0.1


def test_unknown_key_names_key_and_line():
    text = "[problem]\nkappa = 1.0\nepsilon = 0.1\nwavelength = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "problem.wavelength"
    assert err.value.line == 4
    assert "line 4" in str(err.value)
    # the tip grading and the port distance are fixed, not config keys
    for section, name in (("mesh", "tip_layers"), ("dtn", "Z_offset")):
        text = MINIMAL + f"\n[{section}]\n{name} = 2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key == f"{section}.{name}"
        assert err.value.line == len(text.splitlines())


def test_unknown_section_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("[problems]\nkappa = 1.0\n")
    assert err.value.line == 1


def test_bad_value_names_key_and_line():
    text = "[problem]\nkappa = fast\nepsilon = 0.1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "problem.kappa"
    assert err.value.line == 2


def test_missing_required_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[problem]\nkappa = 1.0\n")
    assert err.value.key == "problem.epsilon"


def test_key_outside_section_is_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("kappa = 1.0\n")
    assert err.value.line == 1


def test_inverted_sweep_bounds():
    text = MINIMAL.replace("L_min = 0.58", "L_min = 0.83")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "sweep.L_min"


def test_nonpositive_epsilon():
    text = MINIMAL.replace("epsilon = 0.02", "epsilon = 0")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "problem.epsilon"


def test_single_step_sweep_is_rejected():
    text = MINIMAL + "n_steps = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "sweep.n_steps"


@pytest.mark.parametrize("key, value", [
    ("problem.kappa", "0"),
    ("problem.epsilon", "-0.02"),
    ("mesh.h", "0"),
    ("dtn.n_modes", "0"),
    ("sweep.n_steps", "1"),
    ("resonance.tol", "0"),
    ("output.field_part", "abs"),
    ("output.field_grid", "9,5"),
    ("capacity.n_panels", "3"),
    ("asymptotic.q", "0"),
])
def test_single_key_check_names_key_and_line(key, value):
    section, _, name = key.partition(".")
    text = MINIMAL + f"\n[{section}]\n{name} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert err.value.line == len(text.splitlines())
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, overrides=(f"{key}={value}",))
    assert err.value.key == key
    assert err.value.line is None


def test_hole_specs():
    cfg = parse_config(MINIMAL + "\n[geometry]\nholes_left = 0.1:1; 0.7:2\n"
                       "holes_right = closed\n")
    assert cfg.holes_left == ((0.1, 1.0), (0.7, 2.0))
    assert cfg.holes_right == ()
    cfg = parse_config(MINIMAL + "\n[geometry]\nholes_right = none\n")
    assert cfg.holes_right is None


def test_bad_hole_spec_is_rejected():
    for bad in ("0.5", "0.5:1:2", "1.5:1", "0.5:-1", ""):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"\n[geometry]\nholes_left = {bad}\n")
        assert err.value.key == "geometry.holes_left"


def test_hole_leaving_the_guide_is_rejected():
    # width 60*epsilon around y=0.99 pokes above y=1
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[geometry]\nholes_left = 0.99:60\n")
    assert err.value.key == "geometry.holes_left"


def test_overlapping_or_touching_holes_are_rejected():
    # at epsilon 0.02 the holes 0.5:1 and 0.505:1 overlap; 0.5:1 and 0.52:1
    # touch at y = 0.51
    for spec in ("0.5:1;0.505:1", "0.52:1; 0.5:1"):
        with pytest.raises(ConfigError, match="overlap or touch") as err:
            parse_config(MINIMAL + f"\n[geometry]\nholes_left = 0.1:1\nholes_right = {spec}\n")
        assert err.value.key == "geometry.holes_right"
        assert err.value.line == MINIMAL.count("\n") + 4
    parse_config(MINIMAL + "\n[geometry]\nholes_left = 0.5:1;0.53:1\n")


def test_overrides_apply_and_validate():
    cfg = parse_config(MINIMAL, overrides=("mesh.h=0.1", "dtn.n_modes=7"))
    assert cfg.h == 0.1
    assert cfg.n_modes == 7
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=("mesh.spacing=0.1",))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides=("h=0.1",))


def test_geometry_scales_holes_by_epsilon():
    cfg = parse_config(MINIMAL + "\n[geometry]\nholes_left = 0.25:2\n")
    geom = cfg.geometry(0.6, 1.7)
    assert geom.screen_half_distance == 0.6
    assert geom.trunc_half_length == 1.7
    (lo, hi), = geom.holes_left
    assert lo == pytest.approx(0.25 - 0.02)
    assert hi == pytest.approx(0.25 + 0.02)


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

FAST = MINIMAL + """
[mesh]
h = 0.3
[dtn]
n_modes = 5
[sweep]
n_steps = 3
"""


def test_run_sweep_rows_are_ordered_and_finite(tmp_path):
    csv_path = tmp_path / "rows.csv"
    cfg = parse_config(FAST, overrides=(f"output.csv={csv_path}",))
    rows = run_sweep(cfg)
    assert [r.L for r in rows] == pytest.approx([0.58, 0.64, 0.70])
    for r in rows:
        assert not r.error
        assert abs(r.R) ** 2 + abs(r.T) ** 2 == pytest.approx(1.0, abs=1e-10)
    text = csv_path.read_text()
    header = text.splitlines()[0]
    assert header == "L,Re_R,Im_R,abs_R,Re_T,Im_T,abs_T,energy_residual,error"
    assert len(text.splitlines()) == 4
    assert "\r" not in text


def test_run_sweep_is_byte_deterministic(tmp_path):
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(parse_config(FAST, overrides=(f"output.csv={a_path}",)))
    run_sweep(parse_config(FAST, overrides=(f"output.csv={b_path}",)))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_run_sweep_records_failures_and_continues(tmp_path, monkeypatch):
    real = sweep_mod.cascade

    def flaky(left, right, L):
        if abs(L - 0.64) < 1e-9:
            raise NumericalError("synthetic failure")
        return real(left, right, L)

    monkeypatch.setattr(sweep_mod, "cascade", flaky)
    csv_path = tmp_path / "rows.csv"
    locus_path = tmp_path / "locus.csv"
    cfg = parse_config(FAST, overrides=(f"output.csv={csv_path}",
                                        f"output.locus={locus_path}"))
    rows = run_sweep(cfg)
    assert [bool(r.error) for r in rows] == [False, True, False]
    assert "NumericalError" in rows[1].error
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 4
    assert "nan" in lines[2] and "synthetic failure" in lines[2]
    assert "," not in rows[1].error  # commas sanitized for the CSV cell
    # the locus file only keeps solved points
    assert len(locus_path.read_text().splitlines()) == 3


def test_failed_screen_build_is_recorded_on_every_row(tmp_path, monkeypatch):
    builds = []

    def broken(holes, kappa, **kw):
        builds.append(holes)
        raise NumericalError("no factor, sorry")

    monkeypatch.setattr(sweep_mod, "screen_smatrix", broken)
    csv_path = tmp_path / "rows.csv"
    rows = run_sweep(parse_config(FAST, overrides=(f"output.csv={csv_path}",)))
    assert builds and all(r.error == "NumericalError: no factor, sorry" for r in rows)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.count(",") == 8 and "nan" in line and "no factor; sorry" in line
               for line in lines[1:])


def test_programming_errors_propagate_out_of_run_sweep(monkeypatch):
    def buggy(left, right, L):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(sweep_mod, "cascade", buggy)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_sweep(parse_config(FAST))


def test_run_sweep_uses_one_discretization_for_all_rows(monkeypatch):
    built, cascaded = [], []
    real_build, real_cascade = sweep_mod.screen_smatrix, sweep_mod.cascade

    def spy_build(holes, kappa, **kw):
        built.append(kw)
        return real_build(holes, kappa, **kw)

    def spy_cascade(left, right, L):
        cascaded.append((id(left), id(right), L))
        return real_cascade(left, right, L)

    monkeypatch.setattr(sweep_mod, "screen_smatrix", spy_build)
    monkeypatch.setattr(sweep_mod, "cascade", spy_cascade)
    # one S-matrix per distinct layout: equal screens share one; centred
    # holes are mirror-symmetric about y = 1/2, so both are built on the
    # lower half of the guide
    for holes_left, builds in (("0.5:1", 1), ("0.5:3", 2)):
        built.clear()
        cascaded.clear()
        run_sweep(parse_config(FAST, overrides=(f"geometry.holes_left={holes_left}",)))
        assert len(built) == builds
        assert all(kw == dict(h=0.3, n_modes=5, lower_half=True) for kw in built)
        assert [L for _, _, L in cascaded] == pytest.approx([0.58, 0.64, 0.70])
        assert len({(a, b) for a, b, _ in cascaded}) == 1


def test_run_sweep_requires_bounds():
    cfg = parse_config("[problem]\nkappa = 1.0\nepsilon = 0.1\n")
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert err.value.key == "sweep.L_min"


def test_csv_uses_twelve_significant_digits():
    # the residual column is |1 - |R|^2 - |T|^2| = 1 - 5/49 - 5/16 = 459/784;
    # a failed row writes nan there and its message in the error column
    nan = complex("nan")
    rows = [sweep_mod.SweepRow(L=1.0 / 3.0, R=(1.0 / 7.0 + 2.0j / 7.0), T=0.5 - 0.25j,
                               amplitude_mid=0.0j),
            sweep_mod.SweepRow(L=0.5, R=nan, T=nan, amplitude_mid=nan,
                               error="NumericalError: singular")]
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    good, failed = (line.split(",") for line in buf.getvalue().splitlines()[1:])
    assert good[0] == "0.333333333333"
    assert good[1] == "0.142857142857"
    assert good[7] == "0.585459183673"
    assert failed[7] == "nan"
    assert failed[8] == "NumericalError: singular"


# ---------------------------------------------------------------------------
# find_resonance
# ---------------------------------------------------------------------------

@dataclass
class FakeSolve:
    T: complex
    R: complex = 0.0j


def resonance_config(lo=0.58, hi=0.70, tol=1e-5):
    return parse_config(MINIMAL + f"""
[resonance]
bracket_lo = {lo}
bracket_hi = {hi}
tol = {tol}
""")


def find_with(monkeypatch, cfg, f):
    """find_resonance on the objective ``f(L)`` in place of the resonator"""
    monkeypatch.setattr(sweep_mod, "_resonator", lambda config: f)
    return find_resonance(cfg)


def test_find_resonance_locates_interior_peak(monkeypatch):
    calls = []

    def f(L):
        calls.append(L)
        return FakeSolve(T=math.exp(-((L - 0.666) / 0.004) ** 2) + 0.0j)

    cfg = resonance_config()
    res = find_with(monkeypatch, cfg, f)
    assert res.L_star == pytest.approx(0.666, abs=3e-5)
    assert abs(res.T_at_star) > 0.99
    # every evaluation stays inside the bracket
    assert all(0.58 <= L <= 0.70 for L in calls)
    bound = math.ceil(math.log(0.12 / 1e-5) / math.log(1.0 / 0.618)) + 3
    assert res.n_evaluations <= bound
    assert len(set(calls)) == res.n_evaluations


def test_find_resonance_eval_budget_various_brackets(monkeypatch):
    for lo, hi, tol in ((0.0, 1.0, 1e-4), (0.6, 0.7, 1e-5), (0.0, 10.0, 1e-2)):
        cfg = resonance_config(lo, hi, tol)
        f = lambda L: FakeSolve(T=1.0 / (1.0 + (L - (lo + 0.37 * (hi - lo))) ** 2))
        res = find_with(monkeypatch, cfg, f)
        bound = math.ceil(math.log((hi - lo) / tol) / math.log(1.0 / 0.618)) + 3
        assert res.n_evaluations <= bound
        assert abs(res.L_star - (lo + 0.37 * (hi - lo))) <= 3.0 * tol


def test_find_resonance_raises_on_monotone_objective(monkeypatch):
    # every evaluation lies in the closed bracket, and the endpoint where |T|
    # is maximal is evaluated once, last, after the search has collapsed
    # within 2 tol of it
    cfg = resonance_config()
    lo, hi, tol = cfg.bracket_lo, cfg.bracket_hi, cfg.tol
    for T, end in ((lambda L: L + 0.0j, hi), (lambda L: -L + 1.0j * 0.0, hi),
                   (lambda L: 1.0 - L + 0.0j, lo)):
        calls = []

        def f(L):
            calls.append(L)
            return FakeSolve(T=T(L))

        with pytest.raises(BracketError):
            find_with(monkeypatch, cfg, f)
        assert calls[-1] == end
        assert all(lo < L < hi for L in calls[:-1])
        assert min(abs(L - end) for L in calls[:-1]) <= 2.0 * tol


def test_find_resonance_accepts_peak_near_edge(monkeypatch):
    # a genuine interior maximum close to (but not at) the boundary
    cfg = resonance_config(0.0, 1.0, 1e-4)
    peak = 2.5e-4

    def f(L):
        return FakeSolve(T=1.0 - (L - peak) ** 2 + 0.0j)

    res = find_with(monkeypatch, cfg, f)
    assert res.L_star == pytest.approx(peak, abs=5e-4)


def test_find_resonance_requires_bracket():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError):
        find_resonance(cfg)


@pytest.mark.slow
def test_dense_sweep_peak_and_background(tmp_path):
    locus_path = tmp_path / "locus.csv"
    cfg = parse_config("""
[problem]
kappa = 2.5132741228718345
epsilon = 0.02

[sweep]
L_min = 0.58
L_max = 0.70
n_steps = 41
""", overrides=(f"output.locus={locus_path}",))
    rows = run_sweep(cfg)
    mags = np.array([abs(r.T) for r in rows])
    Ls = np.array([r.L for r in rows])
    peak = mags.argmax()
    assert mags[peak] >= 0.95
    far = np.abs(Ls - Ls[peak]) > 0.02
    assert np.median(mags[far]) <= 0.3
    for line in locus_path.read_text().splitlines()[1:]:
        re_r, im_r, re_t, im_t = map(float, line.split(","))
        assert math.hypot(re_r, im_r) <= 1.0 + 5e-3
        assert math.hypot(re_t, im_t) <= 1.0 + 5e-3


def test_find_resonance_on_the_real_solver():
    cfg = parse_config("""
[problem]
kappa = 2.5132741228718345
epsilon = 0.02
[mesh]
h = 0.08
[dtn]
n_modes = 10
[resonance]
bracket_lo = 0.64
bracket_hi = 0.72
tol = 1e-3
""")
    res = find_resonance(cfg)
    assert 0.64 < res.L_star < 0.72
    assert abs(res.T_at_star) > 0.9
    assert abs(abs(res.T_at_star) ** 2 + abs(res.R_at_star) ** 2 - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# mirror-symmetric layouts: the lower half of the guide
# ---------------------------------------------------------------------------

KAPPA = 2.5132741228718345


def layout_config(left, right, eps, h, extra=""):
    return parse_config(f"""
[problem]
kappa = {KAPPA!r}
epsilon = {eps!r}
[geometry]
holes_left = {left}
holes_right = {right}
[mesh]
h = {h}
""" + extra)


def spy_builds(monkeypatch):
    """Record the sweep's S-matrix builds as (holes, lower_half, S-matrix)."""
    builds = []
    real = sweep_mod.screen_smatrix

    def spy(holes, kappa, lower_half=False, **kw):
        builds.append((holes, lower_half, real(holes, kappa, lower_half=lower_half, **kw)))
        return builds[-1][2]

    monkeypatch.setattr(sweep_mod, "screen_smatrix", spy)
    return builds


SWEEP3 = "[sweep]\nL_min = 0.58\nL_max = 0.70\nn_steps = 3\n[dtn]\nn_modes = 5\n"


@pytest.mark.parametrize("left, right, lower_half", [
    ("0.5:1", "0.5:1", True),
    ("0.5:3", "0.5:1", True),
    ("0.3:1;0.7:1", "0.5:2", True),
    ("closed", "0.5:1", True),
    ("none", "closed", True),
    ("0.1:1", "0.7:1", False),
    ("closed", "0.1:1", False),
    ("0.7:1", "none", False),
])
def test_sweep_solves_mirror_symmetric_layouts_on_the_lower_half(left, right, lower_half,
                                                                 monkeypatch):
    # both layouts mirror-symmetric about y = 1/2 (closed and none are):
    # the lower half; one that is not, the 0.1/0.7 pair or a closed or no
    # screen beside an off-centre slit: the whole height
    builds = spy_builds(monkeypatch)
    rows = run_sweep(layout_config(left, right, 0.02, 0.3, SWEEP3))
    assert not any(r.error for r in rows)
    assert {(flag, s.basis.height) for _, flag, s in builds} == {
        (lower_half, 0.5 if lower_half else 1.0)}


def test_slits_mirror_symmetric_up_to_rounding_take_the_lower_half(monkeypatch):
    # c -+ w eps/2 rounds: at these epsilons the ends of the centred slit
    # are mirror images of each other only to 0.5 ulp
    rounded = [eps for eps in (0.0173, 0.0191, 0.0217, 0.0239)
               if 0.5 - 0.5 * eps != 1.0 - (0.5 + 0.5 * eps)]
    assert len(rounded) >= 2
    for eps in rounded:
        builds = spy_builds(monkeypatch)
        run_sweep(layout_config("0.5:1", "0.5:1", eps, 0.3, SWEEP3))
        assert [(flag, s.basis.height) for _, flag, s in builds] == [(True, 0.5)]


def test_sweep_falls_back_to_the_whole_height_for_both_screens(monkeypatch):
    # at h 0.04 the half-section of a centred 0.1 slit has no node row at
    # y = 1/2 (a slab cell spans it), so it is solved on the whole height,
    # and its partner is rebuilt there too: the rows are those of the
    # whole-height cascade, bit for bit
    cfg = layout_config("0.5:5", "0.5:1", 0.02, 0.04, SWEEP3.replace("n_modes = 5", "n_modes = 15"))
    builds = spy_builds(monkeypatch)
    rows = run_sweep(cfg)
    assert [(flag, s.basis.height) for _, flag, s in builds] == [(True, 1.0), (True, 0.5),
                                                                 (False, 1.0)]
    monkeypatch.setattr(sweep_mod, "_mirror_symmetric", lambda holes: False)
    whole = run_sweep(cfg)
    assert [(r.R, r.T, r.amplitude_mid) for r in rows] == [
        (r.R, r.T, r.amplitude_mid) for r in whole]


def loop_gain(left, right, L):
    """||(I - r_A P r_B P)^{-1}||_2, the gain of the cascade's loop."""
    P = np.exp(-left.basis.gammas * (2.0 * L - left.d - right.d))
    loop = np.eye(left.basis.n_modes) - (left.r * P) @ (right.r * P)
    return np.linalg.norm(np.linalg.inv(loop), 2)


@pytest.mark.parametrize("h", [0.04, 0.02])
@pytest.mark.parametrize("layout", ["centred", "3:1", "paper-scale"])
def test_lower_half_rows_and_resonance_match_the_whole_height(layout, h, monkeypatch):
    # the lower-half S-matrices are the whole-height ones' even blocks to
    # rounding (3.5e-13); the cascade amplifies that by up to G^2, G its loop
    # gain: 1 to 2 away from the peaks, about 10 at the q = 1 and q = 2
    # peaks and 51 at the paper-scale peak.  The rows and the peak agree to
    # 1e-12 G^2 (6.2e-13 G^2 at most here: 1.6e-11 in R and T near the
    # q = 2 peak at h 0.02, where the whole-height cascade and the strip,
    # one discrete problem, differ by 6.8e-12)
    rng = np.random.default_rng(["centred", "3:1", "paper-scale"].index(layout) + 40)
    eps = 1e-4 if layout == "paper-scale" else float(rng.uniform(0.015, 0.025))
    lo, hi = sorted(float(L) for L in rng.uniform(0.3, 1.4, 2))
    cfg = layout_config("0.5:3" if layout == "3:1" else "0.5:1", "0.5:1", eps, h, f"""
[sweep]
L_min = {lo!r}
L_max = {hi!r}
n_steps = 9
[resonance]
bracket_lo = 0.64
bracket_hi = 0.72
""")
    builds = spy_builds(monkeypatch)
    half_rows, half_peak = run_sweep(cfg), find_resonance(cfg)
    assert {s.basis.height for _, _, s in builds} == {0.5}
    monkeypatch.setattr(sweep_mod, "_mirror_symmetric", lambda holes: False)
    rows, peak = run_sweep(cfg), find_resonance(cfg)
    whole = {holes: s for holes, flag, s in builds if not flag}
    geom = cfg.geometry(1.0, 2.0)
    assert (peak.L_star, peak.n_evaluations) == (half_peak.L_star, half_peak.n_evaluations)
    pairs = [(a.L, (a.R, a.T, a.amplitude_mid), (b.R, b.T, b.amplitude_mid))
             for a, b in zip(half_rows, rows)]
    pairs.append((peak.L_star, (half_peak.R_at_star, half_peak.T_at_star),
                  (peak.R_at_star, peak.T_at_star)))
    for L, a, b in pairs:
        gain = loop_gain(whole[geom.holes_left], whole[geom.holes_right], L)
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-12 * gain ** 2


def test_sweep_logs_each_smatrix_build_with_its_guide(caplog):
    with caplog.at_level(logging.INFO, logger="screenguide.scattering"):
        run_sweep(layout_config("0.5:1", "0.1:1", 0.02, 0.3, SWEEP3))
        run_sweep(layout_config("0.5:1", "closed", 0.02, 0.3, SWEEP3))
    lines = [r.getMessage() for r in caplog.records if r.name == "screenguide.scattering"]
    assert len(lines) == 4
    assert re.fullmatch(r"screen S-matrix: \d+ meshed nodes, 5 modes, guide height 1", lines[0])
    assert re.fullmatch(r"screen S-matrix: \d+ meshed nodes, 3 modes, guide height 0.5", lines[2])
    assert lines[3] == "screen S-matrix: 0 meshed nodes, 3 modes, guide height 0.5"
