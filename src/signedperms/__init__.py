"""Signed permutations avoiding 2-letter signed patterns.

Exact enumeration of the 2^n n! signed permutations of order n that avoid
a chosen set of the eight length-2 signed patterns, with a polynomial-time
transfer engine answering all 256 sets at once, three oracle engines to
check it against, the order-8 symmetry group acting on pattern sets, a registry of
closed forms, and a census of all 256 pattern sets reduced to their 58
symmetry orbits.
"""

__version__ = "0.1.0"

# census imports __version__, so it is bound before the submodules load
from . import census, core, enumeration, formulas, symmetry
from .census import *
from .core import *
from .enumeration import *
from .formulas import *
from .symmetry import *

__all__ = [
    *core.__all__, *symmetry.__all__, *enumeration.__all__, *formulas.__all__,
    *census.__all__, "__version__",
]
