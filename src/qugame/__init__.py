"""Numerical toolkit for non-cooperative games with classical or quantum strategies.

The package covers finite games in normal form, games whose strategies are
pure qudit states routed through a referee unitary, equilibrium search and
verification for both, the sphere picture of the qubit strategy space with
its convex-geometry tooling, and ready-made games built from state
preparation, search, and annealing tasks.
"""
from .config import *
from .linalg import *
from .classical import *
from .quantum import *
from .geometry import *
from .builders import *
from .gamedoc import *

__version__ = "0.1.0"
