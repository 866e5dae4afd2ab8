"""blockten: compression of structured block matrices via weighted tensors.

A matrix built from ``p`` distinct blocks repeated across a block grid is
mapped isometrically onto an ``m x p x n`` tensor, compressed with standard
tensor factorizations (HOSVD / partial Tucker / CP / randomized bases), and
mapped back to structured formats -- Kronecker sums or block-low-rank
factors -- whose approximation error equals the tensor error exactly.
"""

# the package exports each module's public names: those its __all__ lists
from .blocks import *  # noqa: F403
from .decomp import *  # noqa: F403
from .errors import *  # noqa: F403
from .apps import *  # noqa: F403
from .container import *  # noqa: F403
from .multilevel import *  # noqa: F403
from .psd import *  # noqa: F403
from .reconstruct import *  # noqa: F403
from .tensor import *  # noqa: F403

__version__ = "0.1.0"
