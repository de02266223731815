"""priorscan: hyperparameter surfaces from a single MCMC run.

Estimates the marginal-likelihood surface B_n(h) (up to a constant) and
posterior-expectation surfaces I_g(h) over a compact hyperparameter rectangle
by importance reweighting of one chain, and attaches frequentist-valid
uncertainty: a confidence ellipse for the empirical-Bayes argmax via
regenerative tour statistics, and globally valid confidence bands via batching.

Importing priorscan before numpy sets OPENBLAS_NUM_THREADS to 1 unless the
environment already sets it: every BLAS call here is small (chunked grid
products, 2x2 to 12x12 solves and factors), so a pool of BLAS worker threads
costs start-up time and never pays for itself.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from priorscan.prior_family import (
    HyperRect,
    ExpFamilySpec,
    EnvelopeSet,
    ExpFamilyRatio,
    envelope_corners,
    check_envelope,
)
from priorscan.chain_runtime import (
    ChainTrace,
    TourIndex,
    TourSums,
    simulate,
    segment_tours,
    tour_sums,
)
from priorscan.estimators import (
    SurfaceEstimate,
    FunctionalEstimate,
    estimate_B,
    weights,
    estimate_I,
    ess,
    pointwise_se_B,
    pointwise_se_I,
    cov_I_pair,
    surface_on_grid,
    functional_on_grid,
)
from priorscan.argmax_inference import (
    ArgmaxReport,
    maximize_surface,
    hessian_Jn,
    tau_n_sq,
    v_n_sq,
    confidence_ellipse,
    batch_argmax_cov,
)
from priorscan.band_inference import BandReport, global_band
from priorscan.serial_tempering import (
    STGrid,
    MixtureRatio,
    st_step,
    tune_zeta,
    run_st,
)

__version__ = "0.1.0"
