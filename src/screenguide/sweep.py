"""Batch runs: config parsing, L-sweeps, and resonance localization.

The configuration format is a flat INI-style text with typed sections; see
``_SCHEMA`` for every key, its type and default.  Hole lists are given as
``center:width`` pairs separated by semicolons, where the width is a
multiplier of the global aperture scale epsilon (so ``0.5:1`` is a hole of
width epsilon centred on the guide axis).  The literals ``closed`` and
``none`` stand for a solid screen and no screen at all.

Sweeps and resonance searches never mesh the whole resonator.  Each call
builds the multimodal S-matrix of every distinct screen layout once (one
mesh and one LU of a short section around the screen) and evaluates each L
as an analytic cascade of the two screens through the uniform guide between
them, a few N x N operations; only an L below the section half-width falls
back to a full-strip solve.  ``run_sweep`` writes a CSV table plus a
complex-plane locus file of the (R, T) trajectory; ``find_resonance``
maximizes |T|(L) by golden-section search inside a user bracket.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketError, ConfigError
from .meshing import WaveguideGeometry2D
from .scattering import (SECTION_HALF_WIDTH, cascade, screen_smatrix,
                         solve_scattering)

log = logging.getLogger(__name__)

_REQUIRED = object()


def _parse_holes(text):
    """Parse a screen spec: 'none', 'closed', or 'c:w;c:w' pairs."""
    s = text.strip().lower()
    if s == "none":
        return None
    if s == "closed":
        return ()
    pairs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 2:
            raise ValueError(f"hole {part!r} is not center:width")
        c, w = float(bits[0]), float(bits[1])
        if not 0.0 < c < 1.0:
            raise ValueError(f"hole center {c} outside (0, 1)")
        if w <= 0.0:
            raise ValueError(f"hole width multiplier {w} must be > 0")
        pairs.append((c, w))
    if not pairs:
        raise ValueError("empty hole list; use 'closed' or 'none'")
    return tuple(pairs)


def _parse_grid(text):
    for sep in ("x", ","):
        if sep in text:
            a, b = text.split(sep, 1)
            nx, ny = int(a), int(b)
            if nx < 2 or ny < 2:
                raise ValueError("grid must be at least 2x2")
            return (nx, ny)
    raise ValueError(f"grid {text!r} is not NXxNY")


def _parse_floats(text):
    vals = tuple(float(p) for p in text.replace(";", ",").split(",") if p.strip())
    if not vals:
        raise ValueError("empty number list")
    return vals


# section -> key -> (caster, default); _REQUIRED marks mandatory keys
_SCHEMA = {
    "problem": {
        "kappa": (float, _REQUIRED),
        "epsilon": (float, _REQUIRED),
        "L": (float, None),
    },
    "geometry": {
        "holes_left": (_parse_holes, _parse_holes("0.5:1")),
        "holes_right": (_parse_holes, _parse_holes("0.5:1")),
    },
    "mesh": {
        "h": (float, 0.04),
        "tip_grading": (float, 0.5),
        "tip_layers": (int, 4),
    },
    "dtn": {
        "n_modes": (int, 15),
        "Z_offset": (float, 1.0),
    },
    "sweep": {
        "L_min": (float, None),
        "L_max": (float, None),
        "n_steps": (int, 21),
    },
    "resonance": {
        "bracket_lo": (float, None),
        "bracket_hi": (float, None),
        "tol": (float, 1e-5),
    },
    "output": {
        "csv": (str, None),
        "locus": (str, None),
        "field_grid": (_parse_grid, (201, 41)),
        "field": (str, None),
        "field_part": (str, "real"),
    },
    "capacity": {
        "shape": (str, "disk"),
        "params": (_parse_floats, (1.0,)),
        "n_panels": (int, 1024),
    },
    "asymptotic": {
        "q": (int, 1),
        "beta": (float, 0.0),
        "capa_left": (_parse_floats, (2.0 / math.pi,)),
        "capa_right": (_parse_floats, (2.0 / math.pi,)),
        "area_left": (float, 1.0),
        "area_right": (float, 1.0),
        "area_resonator": (float, 1.0),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated batch-run parameters (one attribute per schema key)."""

    kappa: float
    epsilon: float
    L: Optional[float]
    holes_left: Optional[tuple]
    holes_right: Optional[tuple]
    h: float
    tip_grading: float
    tip_layers: int
    n_modes: int
    Z_offset: float
    L_min: Optional[float]
    L_max: Optional[float]
    n_steps: int
    bracket_lo: Optional[float]
    bracket_hi: Optional[float]
    tol: float
    csv: Optional[str]
    locus: Optional[str]
    field_grid: tuple
    field: Optional[str]
    field_part: str
    capacity_shape: str
    capacity_params: tuple
    capacity_n_panels: int
    asym_q: int
    asym_beta: float
    asym_capa_left: tuple
    asym_capa_right: tuple
    asym_area_left: float
    asym_area_right: float
    asym_area_resonator: float

    def geometry(self, L: float, Z: float) -> WaveguideGeometry2D:
        """Concrete geometry at screen half-distance L, truncation Z."""
        def holes(pairs):
            if pairs is None:
                return None
            return tuple((c - 0.5 * w * self.epsilon, c + 0.5 * w * self.epsilon)
                         for c, w in pairs)
        return WaveguideGeometry2D(L, Z, holes(self.holes_left),
                                   holes(self.holes_right))


# RunConfig attribute of a schema key: the key, prefixed for these sections
_ATTR_PREFIX = {"capacity": "capacity_", "asymptotic": "asym_"}


def parse_config(text: str, overrides=()) -> RunConfig:
    """Parse and validate a config; raises ConfigError naming key and line.

    ``overrides`` is a sequence of ``section.key=value`` strings applied on
    top of the file content (the CLI --set flag).
    """
    raw = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]",
                                  key=section, line=lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}",
                              line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]",
                              key=f"{section}.{key}", line=lineno)
        raw[(section, key)] = (value, lineno)

    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override {ov!r} is not section.key=value",
                              key=ov)
        dotted, _, value = ov.partition("=")
        section, _, key = dotted.strip().partition(".")
        if section not in _SCHEMA or key.strip() not in _SCHEMA[section]:
            raise ConfigError(f"unknown override key {dotted.strip()!r}",
                              key=dotted.strip())
        raw[(section, key.strip())] = (value.strip(), None)

    values = {}
    for section, keys in _SCHEMA.items():
        for key, (caster, default) in keys.items():
            attr = _ATTR_PREFIX.get(section, "") + key
            if (section, key) in raw:
                text_value, lineno = raw[(section, key)]
                try:
                    values[attr] = caster(text_value)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(str(exc), key=f"{section}.{key}",
                                      line=lineno) from exc
            elif default is _REQUIRED:
                raise ConfigError("required key missing", key=f"{section}.{key}")
            else:
                values[attr] = default

    cfg = RunConfig(**values)
    _validate(cfg, raw)
    return cfg


def _validate(cfg, raw):
    def line_of(section, key):
        entry = raw.get((section, key))
        return entry[1] if entry else None

    def bad(section, key, msg):
        raise ConfigError(msg, key=f"{section}.{key}", line=line_of(section, key))

    if not cfg.epsilon > 0.0:
        bad("problem", "epsilon", f"epsilon must be > 0, got {cfg.epsilon}")
    if not cfg.kappa > 0.0:
        bad("problem", "kappa", f"kappa must be > 0, got {cfg.kappa}")
    if cfg.L_min is not None and cfg.L_max is not None and not cfg.L_min < cfg.L_max:
        bad("sweep", "L_min", f"L_min={cfg.L_min} must be < L_max={cfg.L_max}")
    if cfg.n_steps < 2:
        bad("sweep", "n_steps", f"n_steps must be >= 2, got {cfg.n_steps}")
    if not cfg.h > 0.0:
        bad("mesh", "h", f"h must be > 0, got {cfg.h}")
    if not 0.0 < cfg.tip_grading < 1.0:
        bad("mesh", "tip_grading", f"tip_grading must be in (0, 1), got {cfg.tip_grading}")
    if cfg.tip_layers < 0:
        bad("mesh", "tip_layers", f"tip_layers must be >= 0, got {cfg.tip_layers}")
    if cfg.n_modes < 1:
        bad("dtn", "n_modes", f"n_modes must be >= 1, got {cfg.n_modes}")
    if not cfg.Z_offset > 0.0:
        bad("dtn", "Z_offset", f"Z_offset must be > 0, got {cfg.Z_offset}")
    if (cfg.bracket_lo is not None and cfg.bracket_hi is not None
            and not cfg.bracket_lo < cfg.bracket_hi):
        bad("resonance", "bracket_lo",
            f"bracket_lo={cfg.bracket_lo} must be < bracket_hi={cfg.bracket_hi}")
    if not cfg.tol > 0.0:
        bad("resonance", "tol", f"tol must be > 0, got {cfg.tol}")
    if cfg.field_part not in ("real", "imag", "scattered_real", "scattered_imag"):
        bad("output", "field_part", f"unknown field part {cfg.field_part!r}")
    for side in ("holes_left", "holes_right"):
        pairs = getattr(cfg, side)
        if not pairs:
            continue
        for c, w in pairs:
            half = 0.5 * w * cfg.epsilon
            if c - half <= 0.0 or c + half >= 1.0:
                bad("geometry", side,
                    f"hole at {c} with width {w}*epsilon leaves (0, 1)")


# ----------------------------------------------------------------------------
# sweeping
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One sweep grid point; ``error`` holds a message for failed solves."""

    L: float
    R: complex
    T: complex
    energy_residual: float
    amplitude_mid: complex
    error: str = ""


def _resonator(config: RunConfig):
    """Return ``evaluate(L) -> ScatteringResult`` for the configured layout.

    The S-matrix of each distinct hole layout is built on first use and
    lives as long as ``evaluate``; a failed build raises for every L that
    needs it.  Below the section half-width d the cascade does not apply
    and the full strip is solved, with its ports at the same distance d
    from the screens.
    """
    opts = dict(h=config.h, n_modes=config.n_modes,
                tip_grading=config.tip_grading, tip_layers=config.tip_layers)

    @functools.cache
    def screen(holes):
        return screen_smatrix(holes, config.kappa, **opts)

    def evaluate(L):
        geom = config.geometry(L, L + SECTION_HALF_WIDTH)
        if L < SECTION_HALF_WIDTH:
            return solve_scattering(geom, config.kappa, **opts)
        return cascade(screen(geom.holes_left), screen(geom.holes_right), L)

    return evaluate


def run_sweep(config: RunConfig) -> list:
    """Evaluate every L grid point; write CSV/locus when paths are configured.

    A failed point is recorded in its row's ``error`` and the sweep goes on.
    """
    if config.L_min is None or config.L_max is None:
        raise ConfigError("sweep needs both bounds", key="sweep.L_min")
    evaluate = _resonator(config)
    rows = []
    for L in np.linspace(config.L_min, config.L_max, config.n_steps):
        L = float(L)
        try:
            r = evaluate(L)
            rows.append(SweepRow(L, r.R, r.T, r.energy_residual, r.amplitude_mid))
        except Exception as exc:  # recorded per row; the sweep must go on
            log.warning("L=%.6g failed: %s", L, exc)
            rows.append(SweepRow(L, complex("nan"), complex("nan"), float("nan"),
                                 complex("nan"), f"{type(exc).__name__}: {exc}"))
    if config.csv:
        with open(config.csv, "w", newline="\n") as fh:
            write_sweep_csv(rows, fh)
    if config.locus:
        with open(config.locus, "w", newline="\n") as fh:
            write_locus(rows, fh)
    return rows


def _g(x):
    return f"{x:.12g}"


def write_sweep_csv(rows, stream) -> None:
    """Fixed-format CSV: 12 significant digits, LF endings, error column."""
    stream.write("L,Re_R,Im_R,abs_R,Re_T,Im_T,abs_T,energy_residual,error\n")
    for r in rows:
        err = r.error.replace(",", ";").replace("\n", " ")
        stream.write(",".join([
            _g(r.L), _g(r.R.real), _g(r.R.imag), _g(abs(r.R)),
            _g(r.T.real), _g(r.T.imag), _g(abs(r.T)),
            _g(r.energy_residual), err,
        ]) + "\n")


def write_locus(rows, stream) -> None:
    """Complex-plane trajectory of (R, T); failed rows are skipped."""
    stream.write("Re_R,Im_R,Re_T,Im_T\n")
    for r in rows:
        if r.error:
            continue
        stream.write(",".join([_g(r.R.real), _g(r.R.imag),
                               _g(r.T.real), _g(r.T.imag)]) + "\n")


# ----------------------------------------------------------------------------
# resonance localization
# ----------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ResonanceResult:
    L_star: float
    T_at_star: complex
    R_at_star: complex
    n_evaluations: int


def find_resonance(config: RunConfig, _evaluator=None) -> ResonanceResult:
    """Golden-section maximization of |T|(L) inside the configured bracket.

    Every evaluation stays strictly inside [bracket_lo, bracket_hi]; the
    total count is bounded by ceil(log(bracket/tol)/log(1/0.618)) + 3.
    Raises BracketError when the maximum sits at a bracket endpoint (the
    bracket does not enclose the peak).
    """
    if config.bracket_lo is None or config.bracket_hi is None:
        raise ConfigError("resonance needs a bracket", key="resonance.bracket_lo")
    lo, hi = config.bracket_lo, config.bracket_hi
    tol = config.tol
    solve = _evaluator if _evaluator is not None else _resonator(config)
    cache = {}

    def evaluate(L):
        if L not in cache:
            cache[L] = solve(L)
        return cache[L]

    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = abs(evaluate(x1).T)
    f2 = abs(evaluate(x2).T)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = abs(evaluate(x2).T)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = abs(evaluate(x1).T)
    L_star, f_star = (x1, f1) if f1 >= f2 else (x2, f2)

    # the peak collapsed onto an endpoint -> the bracket never enclosed it
    for end in (lo, hi):
        if abs(L_star - end) <= 2.0 * tol:
            if abs(evaluate(end).T) >= f_star - 1e-12:
                raise BracketError(
                    f"|T| is maximal at bracket endpoint L={end:.6g}; "
                    "no interior maximum")
    best = evaluate(L_star)
    log.info("resonance at L*=%.6f, |T|=%.6f (%d evaluations)",
             L_star, abs(best.T), len(cache))
    return ResonanceResult(L_star=float(L_star), T_at_star=best.T,
                           R_at_star=best.R, n_evaluations=len(cache))
