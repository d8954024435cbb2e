"""The benchmark's traced composition still holds for the package as it is.

``bench/spans.py`` (``STAGES``) and ``bench/run.py`` (``composition_check``)
require :func:`solve_scattering` to call the strip's stages one by one:
``build_mesh``, ``assemble``, ``attach_dtn_and_rhs``, ``solve_linear`` and
``amplitude_at_center``.  A change that routes the strip another way breaks
every traced benchmark run; this test shows it before the benchmark does.
The benchmark files are loaded, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import screenguide

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: dataclasses look their module up there
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_composition_check_passes(monkeypatch):
    spans, run = load("spans", monkeypatch), load("run", monkeypatch)
    monkeypatch.setattr(run, "sg", screenguide)
    tally = run.Tally()
    tracer = spans.Tracer().install()
    try:
        run.composition_check(tally)
    finally:
        tracer.restore()
    assert tally.attempted == 1 and tally.failed == 0
    solve = "scattering.solve_scattering"
    assert tracer.count(solve) == 1
    assert not [m for m in tracer.missing_stages() if m.startswith(solve)]
