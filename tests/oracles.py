"""Reference quantities the tests check the package against, built only
from its public, shape-checked kernels."""

import numpy as np


def jac_state(family, x, theta):
    """(d, d) Jacobian of f(., theta) at one (d,) state, row i being
    [d_x f]^T e_i from ``vjp_state``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (family.state_dim,):
        raise ValueError("jac_state takes a single (d,) state")
    return np.array([family.vjp_state(x, theta, e) for e in np.eye(family.state_dim)])
