"""Numerical toolkit for asymptotic L_p spaces.

Functions live on rational grids with optional power-law tails; the
central quantity is the clamped norm ``||min(|f|, 1)||_p``, which metrizes
a complete, non-locally-convex function space containing every L_p.  The
package provides exact quadrature for piecewise-constant data, translation
and truncation operators, checkable total-boundedness conditions with
witness search, constructive covering nets, and certificates for the
bounded-domain corollary.
"""

# Each module's __all__ is its one list of public names.  A star import
# also binds the submodule itself, whose __all__ the lines below add in
# the same order.
from .grid import *
from .quadrature import *
from .norms import *
from .operators import *
from .families import *
from .criteria import *
from .nets import *
from .bounded import *
from .io import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += grid.__all__
__all__ += quadrature.__all__
__all__ += norms.__all__
__all__ += operators.__all__
__all__ += families.__all__
__all__ += criteria.__all__
__all__ += nets.__all__
__all__ += bounded.__all__
__all__ += io.__all__
