"""Finite-difference helpers shared by the tests (not collected: no ``test_`` prefix)."""

from redint.phase import shift


def fd_directional(F_value, x, a, b, h):
    """Central finite difference of a scalar- or array-valued point function
    along the chart curve of each direction of the stacks ``(a, b)``.

    ``F_value`` takes a stack of points; it is called once, on the
    :func:`~redint.phase.shift` of ``x`` by the steps ``[h, -h]``.
    """
    v = F_value(shift(x, a, b, [h, -h]))
    return (v[0] - v[1]) / (2.0 * h)
