"""What each layer loads: the limit model and the capacity BEM start without
scipy, and the FEM imports it at its first solve.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import screenguide
import screenguide.cli
from screenguide import (CrackShape, DetuningParam, ResonatorSpec, ScreenSide3D,
                         WaveguideGeometry2D, eval_far_field, limit_scattering,
                         panelize, solve_capacity, solve_scattering)

side = ScreenSide3D(hole_capacities=(0.2, 0.3), cross_section_area=1.0)
limit_scattering(ResonatorSpec(kappa=2.0, q=1, resonator_area=1.0, left=side, right=side),
                 DetuningParam(0.0))
for shape in (CrackShape.disk(1.0),
              CrackShape.polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.3, 0.8)))):
    panels = panelize(shape, 200)
    result = solve_capacity(panels)
    eval_far_field(result, panels, (0.0, 0.0, 10.0 * shape.diameter))
before = scipy_modules()

geom = WaveguideGeometry2D(0.6, 1.6, ((0.49, 0.51),), ((0.49, 0.51),))
solve_scattering(geom, 2.5, h=0.3)
print(json.dumps([before, scipy_modules()]))
"""


def test_limit_model_and_capacity_load_no_scipy_and_the_fem_loads_it():
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout)
    assert before == []
    # the probe sees a load: the first FEM solve brings in SuperLU
    assert "scipy.sparse.linalg" in after
