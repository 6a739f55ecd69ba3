"""elastocloak: transformation elastodynamics for the time-harmonic
Lame system.

Builds ideal and regularized (lossy-layer) elastic cloaks on concentric
disks, constructs cloak-busting resonant inclusions, and verifies the
near-cloaking convergence rate through per-mode Neumann-to-Dirichlet
computations and boundary-integral kernels.
"""

__version__ = "0.1.0"

# the public names are each module's __all__
from .tensors import *
from .maps import *
from .cloaks import *
from .modesolver import *
from .kernels import *
from .harness import *
from .wavefields import *
