"""Whole-grid stencil references shared by the tests.

These are the stencil formulas written with whole-grid shifted copies,
`np.roll` on a closed grid and a clipped index on an open one, so that
a test checks the package's `transforms.halo` stencils against a form
that does not run them.
"""

import numpy as np


def ref_shift(arr, k, closed, twist=1):
    """out[i] = arr[i + k] along the first axis: closed grids wrap, the
    wrapped rows times twist, and open grids repeat their end sample."""
    if not closed:
        return arr[np.clip(np.arange(len(arr)) + k, 0, len(arr) - 1)]
    out = np.roll(arr, -k, axis=0)
    if twist == -1:
        out[slice(len(arr) - k, None) if k > 0 else slice(None, -k)] *= -1.0
    return out


def ref_five_point_derivative(arr, h, closed, twist=1):
    """Five-point central difference along the first axis, wrapped as by
    ref_shift."""
    return (ref_shift(arr, -2, closed, twist) - 8.0 * ref_shift(arr, -1, closed, twist)
            + 8.0 * ref_shift(arr, 1, closed, twist) - ref_shift(arr, 2, closed, twist)) / (12.0 * h)


def ref_stencil_ok(good, closed):
    """Samples whose five-point stencil lies on good samples; open grids
    also lose their two end samples on each side."""
    out = good.copy()
    for k in (-2, -1, 1, 2):
        out &= ref_shift(good, k, closed)
    if not closed:
        out[:2] = False
        out[-2:] = False
    return out
