"""Dwell-time stability certificates, hybrid L1-gain bounds and
interval-observer synthesis for linear positive impulsive systems,
computed through piecewise-linear relaxations solved as linear programs.
"""

__version__ = "0.1.0"

# ``cli`` is left out so that ``python -m posimp.cli`` does not find it
# already imported; ``from posimp import cli`` still works.
from . import core, pwl, lp, certify, delay, observer, sim  # noqa: F401
