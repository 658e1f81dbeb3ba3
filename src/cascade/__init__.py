"""Leave-one-out estimation toolkit.

The common move: hold out each observation in turn, ask whether the
reduced sample would still have "covered" it, and average.  That single
fraction estimates missing mass, convex-hull volume defect, order-ideal
size, coincidence-ball coverage, and prediction-interval coverage, each
with a finite-sample mean-squared-error guarantee checked by the
``sim_harness`` subpackage.
"""

from .coincidence_test import (
    SequenceRecord,
    ad_two_sample,
    ad_two_sample_normalized,
    coincidence_mse_bound,
    coverage_fraction,
    kimura2p,
    kimura_matrix,
    nn_loo_distances,
    nn_test_pvalue,
)
from .convex_volume import (
    HullSummary,
    VolumeEstimate,
    consecutive_defect_bound,
    conv_mse_bound,
    hull_summary,
    in_hull,
    volume_ci,
    volume_interval,
)
from .coverage_predict import (
    OlsFit,
    PredictionInterval,
    holdout_coverage,
    loo_coverage,
    ols_fit,
    predict_interval,
)
from .loo_core import BoundInputs, LooEstimate, loo_estimate, loo_mse_bound
from .poset_estimators import (
    Antichain,
    ProductOrder,
    ReversedNaturals,
    TreeAncestor,
    convex_closure_size,
    convex_sandwiched_count,
    count_and_closure,
    estimate_convex_size,
    estimate_upset_size,
    poset_convex_mse_bound,
    upset_closure_size,
    upset_dominated_count,
    upset_mse_bound,
)
from .unseen_species import (
    good_turing,
    missing_mass,
    unseen_bound,
    unseen_bound_finite_N,
    unseen_bound_general,
)

__version__ = "0.1.0"

__all__ = [
    "Antichain",
    "BoundInputs",
    "HullSummary",
    "LooEstimate",
    "OlsFit",
    "PredictionInterval",
    "ProductOrder",
    "ReversedNaturals",
    "SequenceRecord",
    "TreeAncestor",
    "VolumeEstimate",
    "ad_two_sample",
    "ad_two_sample_normalized",
    "coincidence_mse_bound",
    "consecutive_defect_bound",
    "conv_mse_bound",
    "convex_closure_size",
    "convex_sandwiched_count",
    "count_and_closure",
    "coverage_fraction",
    "estimate_convex_size",
    "estimate_upset_size",
    "good_turing",
    "holdout_coverage",
    "hull_summary",
    "in_hull",
    "kimura2p",
    "kimura_matrix",
    "loo_coverage",
    "loo_estimate",
    "loo_mse_bound",
    "missing_mass",
    "nn_loo_distances",
    "nn_test_pvalue",
    "ols_fit",
    "poset_convex_mse_bound",
    "predict_interval",
    "unseen_bound",
    "unseen_bound_finite_N",
    "unseen_bound_general",
    "upset_closure_size",
    "upset_dominated_count",
    "upset_mse_bound",
    "volume_ci",
    "volume_interval",
]
