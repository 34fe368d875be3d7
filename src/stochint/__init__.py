"""Mean-square approximation of iterated Ito and Stratonovich integrals.

The package constructs series expansions of iterated stochastic
integrals with polynomial time weights (multiplicities 1 to 5) from
orthonormal Legendre and trigonometric bases, computes their exact
mean-square truncation errors in rational arithmetic, selects minimal
truncation orders for a target accuracy, and validates everything
against an independent path-level Monte Carlo oracle.

Each layer's ``__all__`` is its list of public names; the package
re-exports them all, and lists none of its own but ``__version__``.
"""

from . import basis, coeffs, errors, expansion, oracle, qselect, tables
from .basis import *  # noqa: F401,F403
from .coeffs import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .expansion import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .qselect import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *dict.fromkeys(
        name
        for layer in (basis, coeffs, errors, expansion, oracle, qselect, tables)
        for name in layer.__all__
    ),
]
