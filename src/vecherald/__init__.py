"""Heralded single photons in structured polarization modes.

Simulates the full bench: topological-charge plate pump shaping, two-crystal
parametric down-conversion, polarization heralding of the signal photon,
rotating-quarter-wave-plate Stokes polarimetry, and classification of the
resulting polarization topography.
"""

__version__ = "0.1.0"

from .fields import GridSpec, VectorField, make_grid, lg_mode, overlap, power, translate
from .kets import (
    PolKet, BiphotonKet, PumpSpec, SpdcConfig,
    basis_change, pump_state, spdc_state, project_idler_oam0, herald,
    ket_to_field, rotate_ket, coincidence_probability,
)
from .qplate import QPlateParams, qplate_apply_ket, qplate_apply_field
from .polarimetry import (
    StokesMap, PolarimeterConfig, EllipseMap,
    stokes_of_field, simulate_frames, response_matrix, reconstruct_stokes,
    ellipse_map, stokes_homogeneity,
)
from .topology import (
    SingularityReport, find_singularities, disclination_index,
    radial_line_count, classify, rotation_between,
)
from .scenarios import ScenarioConfig, ScenarioResult, run_scenario, run_figure_suite
