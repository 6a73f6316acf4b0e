"""Column-observation flux estimation toolkit.

Forward transport of a tracer in a vertical column, the adjoint
eigensystem of its observation dynamics, Bayesian/variational surface-flux
estimation from weighted column averages, and the information-geometry
diagnostics (gain directions, monotonicity, blind directions) that say
what such observations can and cannot see.
"""

from . import assimilate, errors, model, numerics, observe, posterior, spectral, transport
from .assimilate import *
from .errors import *
from .model import *
from .numerics import *
from .observe import *
from .posterior import *
from .spectral import *
from .transport import *

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [
    "__version__",
    *assimilate.__all__,
    *errors.__all__,
    *model.__all__,
    *numerics.__all__,
    *observe.__all__,
    *posterior.__all__,
    *spectral.__all__,
    *transport.__all__,
]
