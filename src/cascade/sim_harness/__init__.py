"""Seeded Monte Carlo verification of the estimators' error bounds."""

from . import report, scenarios, seeding
from .report import *
from .scenarios import *
from .seeding import *

# Each module lists its public names once, in its own __all__.
__all__ = sorted(report.__all__ + scenarios.__all__ + seeding.__all__)
