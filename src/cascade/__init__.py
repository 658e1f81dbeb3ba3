"""Leave-one-out estimation toolkit.

The common move: hold out each observation in turn, ask whether the
reduced sample would still have "covered" it, and average.  That single
fraction estimates missing mass, convex-hull volume defect, order-ideal
size, coincidence-ball coverage, and prediction-interval coverage, each
with a finite-sample mean-squared-error guarantee checked by the
``sim_harness`` subpackage.
"""

from . import (
    coincidence_test,
    convex_volume,
    coverage_predict,
    loo_core,
    poset_estimators,
    unseen_species,
)
from .coincidence_test import *
from .convex_volume import *
from .coverage_predict import *
from .loo_core import *
from .poset_estimators import *
from .unseen_species import *

__version__ = "0.1.0"

# Each module lists its public names once, in its own __all__.
__all__ = sorted(
    coincidence_test.__all__
    + convex_volume.__all__
    + coverage_predict.__all__
    + loo_core.__all__
    + poset_estimators.__all__
    + unseen_species.__all__
)
