"""The raw inner objective F(y), the tests' reference for what ``bounds.max_F_over_q`` resolves."""

import numpy as np


def F_of_y(y, rho, sigma):
    """The inner objective at the circle point (rho, sigma) as a function of the tangency abscissa.

    Defined on the closed interval [y_minus, y_plus], for one y or an array; at
    y_plus the rho coefficient vanishes identically and the value equals
    -sigma/cos(y_plus).
    """
    cy, sy = np.cos(y), np.sin(y)
    return (rho * (sy - y * cy) + sigma * (1.0 - cy - y * sy)) / (1.0 - cy)
