"""Numerical laboratory for diffuse-interface energy measures.

Solves the stationary forced interface equation on uniform grids and
computes the geometric-measure diagnostics of its energy: equidistribution
of Dirichlet and potential energy, ball and slab monotonicity identities,
density ratios, the first-variation identity, and integer quantization of
layer energy.
"""

import os

__version__ = "0.1.0"

# numpy's bundled OpenBLAS starts its thread pool when numpy is imported.
# The package makes no BLAS call large enough to gain from threads, and the
# pool's start-up, its threaded 64x64 `eigh` (`phasefield.InterfaceSpace`)
# and its spinning cost more than that. So it defaults to one thread, set
# here, ahead of the package's first numpy import; a thread count the user
# sets wins, and where numpy was imported first this has no effect.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .fields import (Grid, PERIODIC, RegionError, ScalarField, VectorField,
                     ZERO_FLUX, interpolate, line_sample, radial_derivative)
from .measures import (AnalysisParams, NormReport, SmoothTestField,
                       corollary_holder_check, density_fields,
                       diffuse_mean_curvature_norm, first_variation_identity,
                       norm_report, smooth_test_field)
from .monotonicity import (MonotonicityReport, SlabReport,
                           density_ratio_profile, monotonicity_report,
                           sheet_separation_integral, slab_report)
from .phasefield import (Constants, LayerSpec, PhaseFieldState, SolverError,
                         build_layer_stack, build_radial_layer, constants,
                         double_well, double_well_prime, make_state,
                         manufactured_forcing, solve_stationary)
from .proofdevices import GDeltaLedger, GDeltaParams, g_delta, g_delta_ledger
from .quantization import (Line, QuantizationReport, detect_layers,
                           quantization_check)
from .scenarios import (ConstantProfile, RadialProfile, Scenario,
                        ScenarioError, SolvedBubbleProfile,
                        SolvedFromForcingProfile, build, standard_corpus)
