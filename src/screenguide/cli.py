"""Command line front end.

Subcommands::

    screenguide solve CONFIG            one scattering solve at [problem] L
    screenguide sweep CONFIG            |T|(L) sweep, CSV + locus output
    screenguide find-resonance CONFIG   golden-section peak localization
    screenguide field CONFIG            sampled field table on a uniform grid
    screenguide asymptotic CONFIG       thin-hole limit model predictions
    screenguide capacity CONFIG         electrostatic capacity of a crack shape

Every subcommand takes a config file plus repeatable ``--set section.key=value``
overrides.  Exit codes: 0 success, 2 config error, 3 numerical failure,
4 resonance bracket error; any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys

from .asymptotic import (DetuningParam, ResonatorSpec, ScreenSide3D,
                         critical_length, first_order_shift,
                         is_complete_transmission_possible, limit_scattering,
                         reflection_floor, side_coupling_K)
from .capacity import CrackShape, eval_far_field, panelize, solve_capacity
from .errors import (BracketError, ConfigError, NumericalError,
                     UnsupportedRegimeError)
from .scattering import export_field, solve_scattering, write_field_table
from .sweep import _g, find_resonance, parse_config, run_sweep

log = logging.getLogger(__name__)

# distance from each screen to the end of the exported field window; the
# strip's ports sit SECTION_HALF_WIDTH past the screens, inside it
_FIELD_MARGIN = 1.0


def _load_config(args):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    return parse_config(text, overrides=args.set or ())


@contextlib.contextmanager
def _config_values(key):
    """Report a ValueError of the block, which builds an object from the
    values of config ``key``, as a ConfigError naming that key."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc), key=key) from exc


def _require(cfg, attr, key):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigError("required for this subcommand", key=key)
    return value


def _solve_once(cfg, want_field=False):
    L = _require(cfg, "L", "problem.L")
    geom = cfg.geometry(L, L + _FIELD_MARGIN)
    return solve_scattering(geom, cfg.kappa, h=cfg.h, n_modes=cfg.n_modes,
                            want_field=want_field)


def _cmd_solve(args):
    cfg = _load_config(args)
    r = _solve_once(cfg)
    print(f"R = {_g(r.R.real)} {'+' if r.R.imag >= 0 else '-'} {_g(abs(r.R.imag))}i"
          f"   |R| = {_g(abs(r.R))}")
    print(f"T = {_g(r.T.real)} {'+' if r.T.imag >= 0 else '-'} {_g(abs(r.T.imag))}i"
          f"   |T| = {_g(abs(r.T))}")
    print(f"energy_residual = {_g(r.energy_residual)}")
    print(f"amplitude_mid = {_g(abs(r.amplitude_mid))}")
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    rows = run_sweep(cfg)
    ok = [row for row in rows if not row.error]
    failed = len(rows) - len(ok)
    if ok:
        peak = max(ok, key=lambda row: abs(row.T))
        print(f"{len(rows)} points, max |T| = {_g(abs(peak.T))} at L = {_g(peak.L)}")
    if failed:
        print(f"{failed} points failed (see error column)", file=sys.stderr)
    if cfg.csv:
        print(f"wrote {cfg.csv}")
    if cfg.locus:
        print(f"wrote {cfg.locus}")
    return 0


def _cmd_find_resonance(args):
    cfg = _load_config(args)
    if cfg.bracket_lo is not None and not cfg.bracket_lo > 0.0:
        # the search may solve at the bracket's ends, and L must be > 0
        raise ConfigError(f"bracket_lo must be > 0, got {cfg.bracket_lo!r}",
                          key="resonance.bracket_lo")
    res = find_resonance(cfg)
    print(f"L_star = {_g(res.L_star)}")
    print(f"|T(L_star)| = {_g(abs(res.T_at_star))}")
    print(f"|R(L_star)| = {_g(abs(res.R_at_star))}")
    print(f"evaluations = {res.n_evaluations}")
    return 0


def _cmd_field(args):
    cfg = _load_config(args)
    r = _solve_once(cfg, want_field=True)
    table = export_field(r, cfg.field_grid, cfg.field_part)
    if cfg.field:
        with open(cfg.field, "w", newline="\n") as fh:
            write_field_table(table, fh)
        print(f"wrote {cfg.field}")
    else:
        write_field_table(table, sys.stdout)
    return 0


def _cmd_asymptotic(args):
    cfg = _load_config(args)
    with _config_values("asymptotic.capa_left, asymptotic.area_left"):
        left = ScreenSide3D(hole_capacities=cfg.asym_capa_left,
                            cross_section_area=cfg.asym_area_left)
    with _config_values("asymptotic.capa_right, asymptotic.area_right"):
        right = ScreenSide3D(hole_capacities=cfg.asym_capa_right,
                             cross_section_area=cfg.asym_area_right)
    with _config_values("asymptotic.area_resonator"):
        spec = ResonatorSpec(kappa=cfg.kappa, q=cfg.asym_q,
                             resonator_area=cfg.asym_area_resonator,
                             left=left, right=right)
    with _config_values("asymptotic.beta"):
        detuning = DetuningParam(cfg.asym_beta)
    K_minus = side_coupling_K(left)
    K_plus = side_coupling_K(right)
    lim = limit_scattering(spec, detuning)
    print(f"L0 = {_g(critical_length(cfg.kappa, cfg.asym_q))}")
    print(f"K_minus = {_g(K_minus)}")
    print(f"K_plus = {_g(K_plus)}")
    print(f"first_order_shift = {_g(first_order_shift(spec))}")
    print(f"R0(beta={_g(cfg.asym_beta)}) = {_g(lim.R0.real)} + {_g(lim.R0.imag)}i"
          f"   |R0| = {_g(abs(lim.R0))}")
    print(f"T0(beta={_g(cfg.asym_beta)}) = {_g(lim.T0.real)} + {_g(lim.T0.imag)}i"
          f"   |T0| = {_g(abs(lim.T0))}")
    print(f"reflection_floor = {_g(reflection_floor(K_plus, K_minus))}")
    print(f"complete_transmission_possible = "
          f"{is_complete_transmission_possible(spec)}")
    return 0


def _make_shape(cfg):
    kind = cfg.capacity_shape.lower()
    p = cfg.capacity_params
    if kind == "disk":
        if len(p) == 1:
            return CrackShape.disk(p[0])
        if len(p) == 3:
            return CrackShape.disk(p[0], center=(p[1], p[2]))
        raise ConfigError("disk wants radius[,cx,cy]", key="capacity.params")
    if kind == "rectangle":
        if len(p) == 2:
            return CrackShape.rectangle(p[0], p[1])
        if len(p) == 4:
            return CrackShape.rectangle(p[0], p[1], center=(p[2], p[3]))
        raise ConfigError("rectangle wants width,height[,cx,cy]",
                          key="capacity.params")
    if kind == "polygon":
        if len(p) < 6 or len(p) % 2:
            raise ConfigError("polygon wants x1,y1,x2,y2,... (>= 3 vertices)",
                              key="capacity.params")
        verts = tuple((p[i], p[i + 1]) for i in range(0, len(p), 2))
        return CrackShape.polygon(verts)
    raise ConfigError(f"unknown shape {cfg.capacity_shape!r}",
                      key="capacity.shape")


def _cmd_capacity(args):
    cfg = _load_config(args)
    # a shape's constructor rejects its dimensions, panelize a polygon that
    # is not star-shaped
    with _config_values("capacity.params"):
        shape = _make_shape(cfg)
        panels = panelize(shape, cfg.capacity_n_panels)
    result = solve_capacity(panels)
    # error estimate: distance to a one-level-coarser solve
    coarse = solve_capacity(panelize(shape, max(4, cfg.capacity_n_panels // 4)))
    est_error = abs(result.capacity - coarse.capacity)
    print(f"capacity = {_g(result.capacity)}")
    print(f"dipole = ({_g(result.dipole[0])}, {_g(result.dipole[1])})")
    print(f"n_panels = {panels.n_panels}")
    print(f"est_error = {_g(est_error)}")
    far = eval_far_field(result, panels, (0.0, 0.0, 50.0 * shape.diameter))
    print(f"far_field_check = {_g(far)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="screenguide",
        description="Waveguide screen resonance toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "solve": (_cmd_solve, "single scattering solve"),
        "sweep": (_cmd_sweep, "sweep |T| over a range of L"),
        "find-resonance": (_cmd_find_resonance,
                           "locate the |T| peak inside a bracket"),
        "field": (_cmd_field, "sample the solution on a uniform grid"),
        "asymptotic": (_cmd_asymptotic, "thin-hole limit model"),
        "capacity": (_cmd_capacity, "electrostatic capacity of a crack"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, UnsupportedRegimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
