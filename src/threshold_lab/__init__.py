"""Numerical laboratory for three-body eigenvalue absorption at threshold.

The package builds the constructive side of a zero-energy threshold
experiment: two-body Birman-Schwinger operators with an independent
shooting oracle (``twobody``), Faddeev channel operators with certified norm
bounds (``faddeev_ops``), an explicit IMS partition of unity (``ims``), and a
correlated-Gaussian variational solver for the three-body sweep
(``threebody``), driven by ``cli``.  The modules are the API; the package
root re-exports only the two names reached through it.
"""

from .model import jacobi_frame
from .threebody import critical_coupling_3body

__all__ = ["critical_coupling_3body", "jacobi_frame"]

__version__ = "0.1.0"
