"""Quadratic-Lyapunov scheduling with Lagrange-multiplier structure.

The library simulates slot-based stochastic queueing networks under
greedy drift-plus-penalty control, exposes the dual of the underlying
deterministic problem (evaluation, subgradient methods, multiplier
search, geometry probes), implements the delay-reduced variants built on
place-holder backlog, and verifies the attraction and sandwich
properties empirically.  The package exports each module's ``__all__``.
"""

from . import dual, model, scenarios, sched, sim
from .dual import *
from .model import *
from .scenarios import *
from .sched import *
from .sim import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *scenarios.__all__, *dual.__all__, *sched.__all__, *sim.__all__,
           "__version__"]
