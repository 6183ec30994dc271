"""Finite-difference gradient checking.

The checker is deliberately independent of the autodiff engine: it only
calls a user-supplied scalar loss function repeatedly while nudging raw
parameter arrays, so it can serve as the oracle for the analytic path.
"""

import numpy as np


def relative_error(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise.

    The max(1, .) floor turns the comparison absolute for tiny gradients,
    which keeps finite-difference noise from dominating near zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.abs(a - b) / denom


def central_difference(loss_fn, array, flat_index, h=1e-5):
    """d loss / d array[flat_index] by central differences.

    Mutates array in place around the evaluation and restores it.
    """
    flat = array.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + h
    up = float(loss_fn())
    flat[flat_index] = orig - h
    down = float(loss_fn())
    flat[flat_index] = orig
    return (up - down) / (2.0 * h)


def check_param_gradients(loss_fn, store, analytic, h=1e-5, max_coords_per_param=None, rng=None):
    """Compare analytic grads against central differences for every parameter.

    loss_fn: zero-argument callable returning the scalar loss as a float,
        reading the current contents of `store`.
    analytic: the gradient vector, laid out like store.vector (from
        autodiff.gradients); each parameter's part is read at its offset.
    max_coords_per_param: if set, check at most that many randomly chosen
        coordinates per parameter tensor (all coordinates otherwise).

    Returns the worst relative error observed.
    """
    worst, offset = 0.0, 0
    for _, p in store.items():
        size = p.data.size
        if max_coords_per_param is None or size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        a_flat = analytic[offset: offset + size]
        for idx in coords:
            numeric = central_difference(loss_fn, p.data, int(idx), h=h)
            err = float(relative_error(a_flat[int(idx)], numeric))
            if err > worst:
                worst = err
        offset += size
    return worst
