"""Exact mod-2 cohomology and diffeomorphism classification for
projectivized sums of real line bundles over real projective space."""

from . import arithmetic, cohomology, gf2poly, oracle
from .arithmetic import *
from .cohomology import *
from .gf2poly import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*gf2poly.__all__, *cohomology.__all__, *oracle.__all__, *arithmetic.__all__]
