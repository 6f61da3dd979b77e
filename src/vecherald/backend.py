"""Kernel backend report.

The grid kernels in kernels.py are vectorized numpy; there is no other
implementation to select.  HAS_NUMBA only records whether numba happens to be
importable, for run metadata.
"""

import importlib.util

BACKEND = "numpy"
HAS_NUMBA = importlib.util.find_spec("numba") is not None
