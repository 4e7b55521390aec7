"""Self-synchronizing coupled integrators over directed sensor networks.

Simulation, closed-form rate prediction, and two-step debiased estimation
for networks of integrators that couple through delayed, one-directional
links.  See the module docstrings for conventions; the hearing orientation
(``Edge(dst, src, ...)`` means ``dst`` hears ``src``) is used throughout.
"""
# Each module's __all__ is its public surface; the package re-exports them.
from . import consensus, digraph, dynamics, experiments, netgen
from .consensus import *
from .digraph import *
from .dynamics import *
from .experiments import *
from .netgen import *

__version__ = "0.1.0"

__all__ = [name for module in (consensus, digraph, dynamics, experiments, netgen)
           for name in module.__all__]
