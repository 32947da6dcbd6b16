"""Quadrature rules on triangles and edges.

The volume rule is given in barycentric coordinates with weights that sum
to one (multiply by the cell area); the edge rule is given on the unit
interval.
"""

import numpy as np

# Six-point degree-4 rule (two symmetric orbits), used for integrands that
# carry a non-polynomial weight such as |u|.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
TRI_D4_BARY = np.array(
    [
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
TRI_D4_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

# Two-point Gauss rule on [0, 1], exact for degree <= 3.
EDGE_G2_S = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
EDGE_G2_W = np.array([0.5, 0.5])

