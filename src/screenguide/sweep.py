"""Batch runs: config parsing, L-sweeps, and resonance localization.

The configuration format is a flat INI-style text with typed sections; each
``RunConfig`` field declares its ``section.key``, caster, default and check.
Hole lists are given as ``center:width`` pairs separated by semicolons,
where the width is a multiplier of the global aperture scale epsilon (so
``0.5:1`` is a hole of width epsilon centred on the guide axis).  The
literals ``closed`` and ``none`` stand for a solid screen and no screen at
all.

Sweeps and resonance searches never mesh the whole resonator.  Each call
builds the multimodal S-matrix of every distinct screen layout once (one
mesh and one LU of a short section around a perforated screen; a closed
screen or none is exact without either) and evaluates each L as an
analytic cascade of the two screens through the uniform guide between them,
a few N x N operations; only an L where the two sections would overlap
falls back to the strip solve, on sections of half-width L.  When both
layouts are mirror-symmetric about y = 1/2, as the default centred holes
are, the S-matrices are those of the lower half of the guide: the piston
wave excites no mode odd about y = 1/2, so half the mesh and about half the
modes give the same R and T.  The strip solve, like ``solve`` and
``field``, always solves the whole height.  ``run_sweep`` writes a CSV
table plus a complex-plane locus file of the (R, T) trajectory;
``find_resonance`` maximizes |T|(L) by golden-section search inside a user
bracket.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (BracketError, ConfigError, NumericalError,
                     UnsupportedRegimeError)
from .meshing import H, WaveguideGeometry2D, _check_holes, _mirror_symmetric
from .scattering import (FIELD_PARTS, SECTION_HALF_WIDTH, _EnergyBalance, cascade,
                         screen_smatrix, solve_scattering)

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
    if "x" not in text:
        raise ValueError(f"grid {text!r} is not NXxNY")
    a, b = text.split("x", 1)
    nx, ny = int(a), int(b)
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    return (nx, ny)


def _parse_floats(text):
    vals = tuple(float(p) for p in text.replace(";", ",").split(",") if p.strip())
    if not vals:
        raise ValueError("empty number list")
    return vals


def _key(key, caster, default, check=None):
    """A ``RunConfig`` field read from config ``key`` (``section.name``).

    ``default`` is ``_REQUIRED`` for mandatory keys; ``check`` is an optional
    ``(predicate, requirement)`` pair that the parsed value must satisfy.
    """
    return field(metadata={"key": key, "caster": caster, "default": default,
                           "check": check})


_POSITIVE = (lambda v: v > 0.0, "> 0")


def _at_least(n):
    return (lambda v: v >= n, f">= {n}")


@dataclass(frozen=True)
class RunConfig:
    """Validated batch-run parameters; each field declares its config key."""

    kappa: float = _key("problem.kappa", float, _REQUIRED, _POSITIVE)
    epsilon: float = _key("problem.epsilon", float, _REQUIRED, _POSITIVE)
    L: Optional[float] = _key("problem.L", float, None,
                              (lambda v: v is None or v > 0.0, "> 0"))
    holes_left: Optional[tuple] = _key("geometry.holes_left", _parse_holes,
                                       _parse_holes("0.5:1"))
    holes_right: Optional[tuple] = _key("geometry.holes_right", _parse_holes,
                                        _parse_holes("0.5:1"))
    h: float = _key("mesh.h", float, 0.04, _POSITIVE)
    n_modes: int = _key("dtn.n_modes", int, 15, _at_least(1))
    L_min: Optional[float] = _key("sweep.L_min", float, None)
    L_max: Optional[float] = _key("sweep.L_max", float, None)
    n_steps: int = _key("sweep.n_steps", int, 21, _at_least(2))
    bracket_lo: Optional[float] = _key("resonance.bracket_lo", float, None)
    bracket_hi: Optional[float] = _key("resonance.bracket_hi", float, None)
    tol: float = _key("resonance.tol", float, 1e-5, _POSITIVE)
    csv: Optional[str] = _key("output.csv", str, None)
    locus: Optional[str] = _key("output.locus", str, None)
    field_grid: tuple = _key("output.field_grid", _parse_grid, (201, 41))
    field: Optional[str] = _key("output.field", str, None)
    field_part: str = _key("output.field_part", str, "real",
                           (lambda v: v in FIELD_PARTS, f"one of {FIELD_PARTS}"))
    capacity_shape: str = _key("capacity.shape", str, "disk")
    capacity_params: tuple = _key("capacity.params", _parse_floats, (1.0,))
    capacity_n_panels: int = _key("capacity.n_panels", int, 1024, _at_least(4))
    asym_q: int = _key("asymptotic.q", int, 1, _at_least(1))
    asym_beta: float = _key("asymptotic.beta", float, 0.0)
    asym_capa_left: tuple = _key("asymptotic.capa_left", _parse_floats,
                                 (2.0 / math.pi,))
    asym_capa_right: tuple = _key("asymptotic.capa_right", _parse_floats,
                                  (2.0 / math.pi,))
    asym_area_left: float = _key("asymptotic.area_left", float, 1.0)
    asym_area_right: float = _key("asymptotic.area_right", float, 1.0)
    asym_area_resonator: float = _key("asymptotic.area_resonator", float, 1.0)

    def _apertures(self, side: str):
        """The (lo, hi) apertures of ``side``, "holes_left" or "holes_right",
        at this epsilon; None for no screen."""
        pairs = getattr(self, side)
        if pairs is None:
            return None
        return tuple((c - 0.5 * w * self.epsilon, c + 0.5 * w * self.epsilon)
                     for c, w in pairs)

    def geometry(self, L: float, Z: float) -> WaveguideGeometry2D:
        """Concrete geometry at screen half-distance L, truncation Z."""
        return WaveguideGeometry2D(L, Z, self._apertures("holes_left"),
                                   self._apertures("holes_right"))


# dotted config key -> RunConfig field
_FIELDS = {f.metadata["key"]: f for f in fields(RunConfig)}
_SECTIONS = {key.partition(".")[0] for key in _FIELDS}


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
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]",
                                  key=section, line=lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}",
                              line=lineno)
        if section is None:
            raise ConfigError("key outside any [section]", line=lineno)
        key, _, value = stripped.partition("=")
        dotted = f"{section}.{key.strip()}"
        if dotted not in _FIELDS:
            raise ConfigError(f"unknown key {key.strip()!r} in section [{section}]",
                              key=dotted, line=lineno)
        raw[dotted] = (value.strip(), lineno)

    for ov in overrides:
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override {ov!r} is not section.key=value",
                              key=ov)
        dotted, _, value = ov.partition("=")
        section, _, key = dotted.strip().partition(".")
        key = f"{section}.{key.strip()}"
        if key not in _FIELDS:
            raise ConfigError(f"unknown override key {dotted.strip()!r}",
                              key=dotted.strip())
        raw[key] = (value.strip(), None)

    values = {}
    for key, f in _FIELDS.items():
        default = f.metadata["default"]
        if key in raw:
            text_value, lineno = raw[key]
            try:
                values[f.name] = f.metadata["caster"](text_value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(str(exc), key=key, line=lineno) from exc
        elif default is _REQUIRED:
            raise ConfigError("required key missing", key=key)
        else:
            values[f.name] = default

    def bad(key, msg):
        raise ConfigError(msg, key=key, line=raw.get(key, (None, None))[1])

    for key, f in _FIELDS.items():
        check = f.metadata["check"]
        if check and not check[0](values[f.name]):
            bad(key, f"{f.name} must be {check[1]}, got {values[f.name]!r}")
    cfg = RunConfig(**values)
    _validate(cfg, bad)
    return cfg


def _validate(cfg, bad):
    """The rules that tie keys together; single-key checks sit on the fields."""
    if cfg.L_min is not None and cfg.L_max is not None and not cfg.L_min < cfg.L_max:
        bad("sweep.L_min", f"L_min={cfg.L_min} must be < L_max={cfg.L_max}")
    if (cfg.bracket_lo is not None and cfg.bracket_hi is not None
            and not cfg.bracket_lo < cfg.bracket_hi):
        bad("resonance.bracket_lo",
            f"bracket_lo={cfg.bracket_lo} must be < bracket_hi={cfg.bracket_hi}")
    for side in ("holes_left", "holes_right"):
        # the rule the geometry applies: inside (0, 1), neither overlapping
        # nor touching
        try:
            _check_holes(cfg._apertures(side), f"{side} at epsilon={cfg.epsilon:g}")
        except ValueError as exc:
            bad(f"geometry.{side}", str(exc))


# ----------------------------------------------------------------------------
# sweeping
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow(_EnergyBalance):
    """One sweep grid point; ``error`` holds a message for failed solves,
    whose R, T and amplitude_mid (and so energy residual) are NaN."""

    L: float
    R: complex
    T: complex
    amplitude_mid: complex
    error: str = ""


def _resonator(config: RunConfig):
    """Return ``evaluate(L) -> ScatteringResult`` for the configured layout.

    The S-matrix of each distinct hole layout is built on first use and
    lives as long as ``evaluate``; a failed build raises for every L.  When
    both layouts are mirror-symmetric about y = 1/2 (closed and no screen
    are), the piston wave excites only the modes even about y = 1/2, and
    both S-matrices are built on the lower half of the guide
    (``screen_smatrix``'s ``lower_half``).  If either half-section has no
    node row at y = 1/2 to cut it along, both are built on the whole height.
    The two screens cascade wherever their sections fit, 2L >= d_A + d_B (a
    screen without apertures has d = 0).  Below that the strip is solved
    (:func:`solve_scattering`) on the whole height, on sections of
    half-width L, and agrees with the cascade to rounding where both apply,
    at L = d.
    """
    opts = dict(h=config.h, n_modes=config.n_modes)

    @functools.cache
    def screen(holes, lower_half):
        return screen_smatrix(holes, config.kappa, lower_half=lower_half, **opts)

    def screens(geom):
        sides = (geom.holes_left, geom.holes_right)
        pair = [screen(holes, all(map(_mirror_symmetric, sides))) for holes in sides]
        if pair[0].basis.height != pair[1].basis.height:   # a mesh not cut at y = 1/2
            pair = [s if s.basis.height == H else screen(holes, False)
                    for s, holes in zip(pair, sides)]
        return pair

    def evaluate(L):
        geom = config.geometry(L, L + SECTION_HALF_WIDTH)
        left, right = screens(geom)
        if 2.0 * L < left.d + right.d:
            return solve_scattering(geom, config.kappa, **opts)
        return cascade(left, right, L)

    return evaluate


def run_sweep(config: RunConfig) -> list:
    """Evaluate every L grid point; write CSV/locus when paths are configured.

    A point that fails with a numerical, regime or value error is recorded
    in its row's ``error`` and the sweep goes on; any other exception is a
    bug and propagates.
    """
    if config.L_min is None or config.L_max is None:
        raise ConfigError("sweep needs both bounds", key="sweep.L_min")
    evaluate = _resonator(config)
    rows = []
    for L in np.linspace(config.L_min, config.L_max, config.n_steps):
        L = float(L)
        try:
            r = evaluate(L)
            rows.append(SweepRow(L, r.R, r.T, r.amplitude_mid))
        except (NumericalError, UnsupportedRegimeError, ValueError) as exc:
            log.warning("L=%.6g failed: %s", L, exc)
            rows.append(SweepRow(L, complex("nan"), complex("nan"), complex("nan"),
                                 f"{type(exc).__name__}: {exc}"))
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


def find_resonance(config: RunConfig) -> ResonanceResult:
    """Golden-section maximization of |T|(L) inside the configured bracket.

    The search evaluates strictly inside [bracket_lo, bracket_hi]; only when
    it has collapsed within 2 tol of an endpoint does it evaluate that
    endpoint too, and it raises BracketError when the maximum sits there (the
    bracket does not enclose the peak).  The total count is bounded by
    ceil(log(bracket/tol)/log(1/0.618)) + 3.
    """
    if config.bracket_lo is None or config.bracket_hi is None:
        raise ConfigError("resonance needs a bracket", key="resonance.bracket_lo")
    lo, hi = config.bracket_lo, config.bracket_hi
    tol = config.tol
    solve = _resonator(config)
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
