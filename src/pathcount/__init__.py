"""Exact counting of lattice paths below a bounding path: every module's ``__all__``, re-exported."""

from .counting import *
from .exactmath import *
from .identities import *
from .paths import *
from .symbolic import *

__version__ = "0.1.0"

# each star import also binds its submodule here
__all__ = [*counting.__all__, *exactmath.__all__, *identities.__all__, *paths.__all__, *symbolic.__all__]
