"""Bulk eigenvalue spacing statistics for invariant random-matrix ensembles.

Samplers for the orthogonal/unitary/symplectic symmetry classes, the
universal nearest-neighbour spacing laws computed from the limiting kernels
(Painleve, Fredholm and series routes), and the localized empirical spacing
machinery needed to verify their agreement at finite matrix size.

The modules are the API (``ensembles``, ``kernels``, ``gaps``, ``spacings``,
``experiment``, ``cli``); importing the package only sets the BLAS default.
"""

import os

__version__ = "0.1.0"

# One BLAS thread per process, set before numpy loads: the package runs in
# parallel by processes, one per worker, and its largest dense matrix is the
# 60x60 Fredholm matrix, too small for a thread pool to pay for the threads
# numpy's and scipy's OpenBLAS each start.  A value the user exported wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
