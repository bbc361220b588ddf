"""Multilinear subspace learning for labeled tensor data.

The package trains discriminant projections with four related criteria:
vectorized multi-class (``lda``) and class-specific (``csda``) analysis,
and their multilinear counterparts (``mda``, ``mcsda``) that learn one
small projection matrix per tensor mode through alternating eigensolves.
Trained models score samples by inverse distance to a projected
reference mean, which feeds one-vs-rest verification (average precision)
and classification (argmax score) pipelines.

The public names are each module's ``__all__``; this package re-exports
them unchanged.
"""

from . import datasets, discriminant, linalg, metrics, model_io, tensor_ops
from .datasets import *  # noqa: F403
from .discriminant import *  # noqa: F403
from .linalg import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model_io import *  # noqa: F403
from .tensor_ops import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (tensor_ops, linalg, datasets, discriminant, metrics, model_io)
        for name in module.__all__
    ),
]
