"""screenguide: piston-mode transmission through screened acoustic waveguides.

The package combines three layers:

* an exact limit model for the scattering coefficients of a two-screen
  resonator with small holes (:mod:`screenguide.asymptotic`),
* a boundary element solver for the harmonic capacity of a flat crack,
  feeding the limit model (:mod:`screenguide.capacity`),
* a 2D P2 finite element solver with modal transparent boundaries for the
  companion waveguide experiment (:mod:`screenguide.meshing`,
  :mod:`screenguide.fem`, :mod:`screenguide.scattering`), plus a batch
  driver (:mod:`screenguide.sweep`, :mod:`screenguide.cli`).

Importing the package loads every layer's module but not scipy: the limit
model needs the standard library, the capacity BEM numpy, and the FEM
numpy plus scipy's sparse matrices and SuperLU, which :mod:`screenguide.fem`
and :mod:`screenguide.scattering` import at their first use.
"""

from .asymptotic import (
    DetuningParam,
    LimitScattering,
    ResonatorSpec,
    ScreenSide3D,
    critical_length,
    first_order_shift,
    is_complete_transmission_possible,
    limit_scattering,
    reflection_floor,
    side_coupling_K,
)
from .capacity import CapacityResult, CrackPanels, CrackShape, eval_far_field, panelize, refine, solve_capacity
from .errors import BracketError, ConfigError, NumericalError, UnsupportedRegimeError
from .fem import SparseComplexSystem, assemble, assemble_stiffness_mass, solve_linear
from .meshing import Mesh, ScreenSection, WaveguideGeometry2D, build_mesh, validate_mesh
from .scattering import (
    ModalBasis,
    ScatteringResult,
    ScreenSMatrix,
    attach_dtn_and_rhs,
    cascade,
    export_field,
    modal_rates,
    screen_smatrix,
    solve_scattering,
    write_field_table,
)
from .sweep import (
    ResonanceResult,
    RunConfig,
    SweepRow,
    find_resonance,
    parse_config,
    run_sweep,
    write_locus,
    write_sweep_csv,
)

__version__ = "0.1.0"
