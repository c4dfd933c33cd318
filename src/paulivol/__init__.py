"""Region classification and volumes for qubit Pauli maps.

The package classifies Pauli maps by geometric region in eigenvalue
space (positivity, complete positivity, entanglement breaking,
time-local-generator reachability, P- and CP-divisibility), computes
exact rational Hilbert-Schmidt volumes of the polytopal regions,
estimates Hilbert-Schmidt and Fisher-Rao volumes by seeded Monte
Carlo, and evolves eigenvalues under piecewise-constant generator
rates.  The command-line front end lives in :mod:`paulivol.cli`.

numpy is imported inside the functions that build or read an array, so
importing the package, the exact volume and mesh commands, ``classify``
and ``evolve --t`` do not load it.
"""

from . import channel, dynamics, exact_volume, mc_volume, regions
from .channel import *
from .dynamics import *
from .exact_volume import *
from .mc_volume import *
from .regions import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = ["__version__", *channel.__all__, *regions.__all__, *exact_volume.__all__,
           *mc_volume.__all__, *dynamics.__all__]
