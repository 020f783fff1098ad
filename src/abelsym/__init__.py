"""Exact symbol modules over finite abelian groups.

The package computes presentations of the symbol modules attached to a
finite abelian group (plain, sign-twisted, and symmetrized variants), their
ranks and torsion over Z, the matching Manin symbol spaces for a family of
congruence subgroups, and the structure maps connecting the two sides.

Each library module's `__all__` is its public API, and the package
re-exports their union.  A new public name goes into its module's
`__all__`, and nowhere else.
"""

from . import abelian, congruence, exactla, relations, structmaps, symbols
from .abelian import *
from .exactla import *
from .symbols import *
from .relations import *
from .congruence import *
from .structmaps import *

__all__ = (abelian.__all__ + exactla.__all__ + symbols.__all__
           + relations.__all__ + congruence.__all__ + structmaps.__all__)

__version__ = "0.1.0"
