"""One state's (p, E) as the zero-padded state rows that the row kernels take."""

import numpy as np


def state_rows(p, energies, n):
    """``n`` rows of the state (p, energies): one per time, start or bracket of a kernel call."""
    return np.tile(p, (n, 1)), np.tile(energies, (n, 1))
