"""su(n) / SU(n) substrate: inner product, brackets, exponential, centralizers.

Conventions used throughout the package:

* algebra elements are traceless anti-Hermitian complex ``n x n`` arrays,
* group elements are special unitary complex ``n x n`` arrays,
* the invariant inner product is ``<X, Y> = -Re tr(XY)``, which is positive
  definite on su(n) and proportional to the Killing form,
* all randomness flows through an explicit seed or ``numpy.random.Generator``.

Matrices are plain numpy arrays; the functions below never mutate their
arguments and callers are expected to treat returned arrays as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible matrix sizes."""


class StructureError(ValueError):
    """A matrix violates a structural invariant (anti-Hermiticity, unitarity, ...)."""


# Numerical thresholds shared by every certificate in the package.
TAU_STRUCT = 1e-10  # structural residual bound (anti-Hermiticity, unitarity)
TAU_RANK = 1e-8  # relative singular-value cutoff for numerical ranks
H_FD = 1e-5  # finite-difference step
TAU_FD = 1e-6  # bound for analytic-vs-finite-difference gradient agreement
TAU_CONS = 1e-10  # conservation bound along exact flows
TAU_EIG = 1e-8  # eigenvalue-gap threshold below which an element counts as non-regular


@dataclass(frozen=True)
class GroupContext:
    """The ambient group SU(n) together with its derived integer dimensions."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("matrix size n must be at least 2")

    @property
    def dim_g(self) -> int:
        """Real dimension of su(n)."""
        return self.n * self.n - 1

    @property
    def rank(self) -> int:
        """Rank of su(n), the dimension of a maximal torus."""
        return self.n - 1

    @property
    def dim_phase(self) -> int:
        """Real dimension of the phase space SU(n) x su(n)."""
        return 2 * self.dim_g


def _require_square(mat, stack=False):
    """``mat`` as an ``(n, n)`` array, or with ``stack`` also ``(..., n, n)``."""
    mat = np.asarray(mat)
    if mat.ndim < 2 or (mat.ndim > 2 and not stack) or mat.shape[-1] != mat.shape[-2]:
        raise ShapeError(f"matrix must be square, got shape {mat.shape}")
    return mat


def _require_same_size(X, Y):
    X = _require_square(X, stack=True)
    Y = _require_square(Y, stack=True)
    if X.shape[-1] != Y.shape[-1]:
        raise ShapeError(f"size mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def inner(X, Y):
    """Invariant inner product ``-Re tr(XY)``.

    Symmetric, bilinear, Ad-invariant, and positive definite on su(n). A
    float, or the array of slice products of broadcasting stacks ``(..., n, n)``.
    """
    X, Y = _require_same_size(X, Y)
    out = -np.trace(X @ Y, axis1=-2, axis2=-1).real
    return float(out) if out.ndim == 0 else out


def norm(X):
    """Norm induced by :func:`inner`; equals the Frobenius norm on su(n).

    A float for one matrix; for a stack ``(..., n, n)`` the array of slice
    norms, each equal bit for bit to ``np.linalg.norm`` of the slice's C-order
    copy (of the slice itself when it is C-contiguous).
    """
    X = _require_square(X, stack=True)
    # vecdot over the strided real and imaginary views, as np.linalg.norm dots them
    f = np.ascontiguousarray(X).reshape(-1, X.shape[-1] ** 2)
    out = np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag)).reshape(X.shape[:-2])
    return float(out) if out.ndim == 0 else out


def lie_bracket(X, Y):
    """Matrix commutator ``XY - YX``, slice by slice on stacks ``(..., n, n)``."""
    X, Y = _require_same_size(X, Y)
    return X @ Y - Y @ X


def project_algebra(M):
    """Orthogonal projection of an arbitrary complex matrix onto su(n); on a
    stack ``(..., n, n)`` each slice equals its own projection, bit for bit."""
    M = _require_square(M, stack=True)
    A = 0.5 * (M - M.conj().swapaxes(-1, -2))
    n = M.shape[-1]
    diag = A.reshape(-1, n * n)[:, :: n + 1]
    diag -= diag.sum(axis=1, keepdims=True) / n
    return A


def check_algebra(X):
    """Raise :class:`StructureError` unless ``X``, shape ``(n, n)`` or a stack
    ``(..., n, n)``, is traceless anti-Hermitian in every slice."""
    X = _require_square(X, stack=True)
    # one row per slice; the diagonal of a row-major n x n matrix is every
    # (n+1)-th entry, and vecdot conjugates its first argument
    n = X.shape[-1]
    flat = X.reshape(-1, n * n)
    skew = (X + X.conj().swapaxes(-1, -2)).reshape(-1, n * n)
    bound = TAU_STRUCT * np.maximum(1.0, np.sqrt(np.vecdot(flat, flat).real))
    if np.count_nonzero(np.sqrt(np.vecdot(skew, skew).real) > bound):
        raise StructureError("matrix is not anti-Hermitian")
    if np.count_nonzero(np.abs(flat[:, :: n + 1].sum(axis=1)) > bound):
        raise StructureError("matrix is not traceless")
    return X


def check_group(g):
    """Raise :class:`StructureError` unless ``g`` is special unitary."""
    g = _require_square(g)
    n = g.shape[0]
    if np.linalg.norm(g.conj().T @ g - np.eye(n)) > TAU_STRUCT:
        raise StructureError("matrix is not unitary")
    if abs(np.linalg.det(g) - 1.0) > TAU_STRUCT:
        raise StructureError("matrix does not have unit determinant")
    return g


def group_exp(X, t=1.0):
    """``exp(tX)``, su(n) -> SU(n), from one eigendecomposition of ``iX``.

    ``X`` has shape ``(n, n)`` or is a stack ``(..., n, n)``; ``t``, one time
    or an array of times, broadcasts against its stack shape. Each slice
    equals that slice's exponential at that time alone, bit for bit. ``iX`` is
    Hermitian, so ``V exp(-itw) V^H`` is unitary to within the unitarity of
    ``V`` plus one rounding per phase, at every ``t``; a polar projection
    would move it only at roundoff, so none is taken.
    """
    X = check_algebra(X)
    w, V = np.linalg.eigh(1j * X)
    phases = np.exp(-1j * (np.asarray(t, dtype=float)[..., None] * w))
    return (V * phases[..., None, :]) @ V.conj().swapaxes(-1, -2)


def adjoint(eta, X):
    """Conjugation action ``eta X eta^{-1}`` of a unitary on the algebra,
    slice by slice on stacks ``(..., n, n)``."""
    eta, X = _require_same_size(eta, X)
    return eta @ X @ eta.conj().swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _basis_tuple(n: int):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[i, j] = 1.0 / np.sqrt(2.0)
            S[j, i] = -1.0 / np.sqrt(2.0)
            A = np.zeros((n, n), dtype=complex)
            A[i, j] = 1j / np.sqrt(2.0)
            A[j, i] = 1j / np.sqrt(2.0)
            out.append(S)
            out.append(A)
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -float(k)
        d /= np.sqrt(k * (k + 1.0))
        out.append(1j * np.diag(d).astype(complex))
    for mat in out:
        mat.flags.writeable = False
    return tuple(out)


def orthonormal_basis(ctx: GroupContext):
    """Orthonormal basis of su(n) with respect to :func:`inner`.

    The first ``n(n-1)`` elements are off-diagonal pairs, the last ``n-1``
    are diagonal. Arrays are cached and marked read-only.
    """
    return _basis_tuple(ctx.n)


@lru_cache(maxsize=None)
def basis_stack(ctx: GroupContext):
    """:func:`orthonormal_basis` as one cached, read-only ``(dim_g, n, n)`` array."""
    stack = np.array(orthonormal_basis(ctx))
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=None)
def _basis_gather(n: int):
    """``(idx, coef)``, each ``(dim_g, n)``: row ``i`` of basis element ``a``
    has its one nonzero ``coef[a, i] = e_a[i, j]`` at ``j``, and ``idx[a, i]``
    is the flat index ``j*n + i`` of ``X[j, i]`` (``coef`` is 0 on a zero row)."""
    E = np.array(_basis_tuple(n))
    cols = np.argmax(E != 0, axis=-1)
    idx, coef = cols * n + np.arange(n), np.take_along_axis(E, cols[..., None], axis=-1)[..., 0]
    idx.flags.writeable = coef.flags.writeable = False
    return idx, coef


def basis_coordinates(ctx: GroupContext, X):
    """Coordinates on :func:`orthonormal_basis` of ``X``, shape ``(n, n)`` or
    a stack ``(..., n, n)``; the result has shape ``(..., dim_g)``.

    Equals ``[inner(e, X) for e in basis]`` bit for bit: a basis row has one
    nonzero, so each diagonal entry of ``e @ X`` is one rounded product, read
    off ``X`` here and summed in the order the trace of ``inner`` sums it.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim < 2 or X.shape[-2:] != (ctx.n, ctx.n):
        raise ShapeError(f"expected (..., {ctx.n}, {ctx.n}) matrices, got shape {X.shape}")
    idx, coef = _basis_gather(ctx.n)
    # np.take is C-ordered where a fancy-index gather over a stack is not, so
    # the sum adds in the one-matrix order; the product reuses its buffer
    products = np.take(X.reshape(X.shape[:-2] + (ctx.n**2,)), idx, axis=-1)
    return -np.multiply(coef, products, out=products).sum(axis=-1).real


def from_coordinates(ctx: GroupContext, coef):
    """Inverse of :func:`basis_coordinates`, ``(..., dim_g)`` to ``(..., n, n)``:
    the running sum from zero, in basis order, of ``coef[a] * e_a``, equal bit
    for bit to a loop over the basis."""
    coef = np.asarray(coef)
    if coef.ndim < 1 or coef.shape[-1] != ctx.dim_g:
        raise ShapeError(f"expected (..., {ctx.dim_g}) coefficients, got shape {coef.shape}")
    terms = coef[..., None, None] * basis_stack(ctx)
    # the zero row keeps the sign of a zero sum, as 0 + (-0) is +0
    zero = np.zeros_like(terms[..., :1, :, :])
    return np.cumsum(np.concatenate([zero, terms], axis=-3), axis=-3)[..., -1, :, :]


def random_algebra(ctx: GroupContext, seed):
    """Random su(n) element with standard-normal basis coefficients.

    ``seed`` may be an integer or a ``numpy.random.Generator``; the draw is
    bit-reproducible for a fixed integer seed.
    """
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(ctx.dim_g)
    return from_coordinates(ctx, coef)


def random_group(ctx: GroupContext, seed):
    """Random SU(n) element, the exponential of :func:`random_algebra`."""
    return group_exp(random_algebra(ctx, seed))


def numerical_rank(M, tau_rank: float):
    """Rank of ``M`` counted as singular values above ``tau_rank * sigma_max``.

    Returns ``(rank, singular_values)``; the singular values are kept so that
    callers can attach them to reports. Over a stack ``(..., r, c)`` both carry
    its leading shape (an empty stack, empty ranks), each entry bit for bit.
    """
    if np.ndim(M) < 2:
        raise ShapeError(f"expected a matrix or a stack (..., r, c), got shape {np.shape(M)}")
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    rank = np.count_nonzero(s > tau_rank * s[..., :1], axis=-1)
    return (int(rank) if rank.ndim == 0 else rank), s


def kernel_basis(ctx: GroupContext, M, dim: int):
    """Algebra elements spanning the numerical kernel of the square matrix
    ``M`` acting on :func:`basis_coordinates`, ``(dim, n, n)``: the right
    singular vectors with singular value at most ``TAU_RANK * sigma_max``, the
    last ``dim`` as the singular values fall. Over a stack ``(..., d, d)``,
    ``(..., dim, n, n)`` bit for bit; every kernel must have dimension ``dim``,
    else :class:`StructureError`."""
    _, s, vh = np.linalg.svd(M)
    dims = np.count_nonzero(s <= TAU_RANK * s[..., :1], axis=-1)
    if np.any(dims != dim):
        raise StructureError(f"kernel dimensions {np.unique(dims)} are not all {dim}")
    return from_coordinates(ctx, vh[..., vh.shape[-2] - dim :, :])


def centralizer_basis(J, dim: int):
    """Orthonormal basis of ker ``ad_J`` on su(n), per point of a stack
    ``(..., n, n)``; every kernel must have dimension ``dim``."""
    J = _require_square(J, stack=True)[..., None, :, :]
    ctx = GroupContext(J.shape[-1])
    B = basis_stack(ctx)
    return kernel_basis(ctx, basis_coordinates(ctx, J @ B - B @ J).swapaxes(-1, -2), dim)


def joint_centralizer_dim(algebra_items=(), group_items=()):
    """Dimension of ``{Y in su(n) : [Y, J_i] = 0 and Y g_j = g_j Y for all items}``.

    Algebra and group constraints are stacked into one linear map on su(n)
    whose kernel dimension is read off a rank-revealing SVD. A value of zero
    certifies, at the Lie-algebra level, that the joint stabilizer is
    discrete. Items of one stack shape ``(..., n, n)`` give an int array over
    the stack, each entry the one-point dimension bit for bit.
    """
    algebra_items = [_require_square(J, stack=True)[..., None, :, :] for J in algebra_items]
    group_items = [_require_square(g, stack=True)[..., None, :, :] for g in group_items]
    items = algebra_items + group_items
    if not items:
        raise ValueError("at least one constraint matrix is required")
    if any(m.shape != items[0].shape for m in items):
        raise ShapeError("all constraint matrices must share one stack shape")
    ctx = GroupContext(items[0].shape[-1])
    B = basis_stack(ctx)
    blocks = [basis_coordinates(ctx, B @ J - J @ B).swapaxes(-1, -2) for J in algebra_items]
    for g in group_items:
        D = (B @ g - g @ B).reshape(g.shape[:-3] + (ctx.dim_g, ctx.n**2))
        blocks.append(np.concatenate([D.real, D.imag], axis=-1).swapaxes(-1, -2))
    rank, _ = numerical_rank(np.concatenate(blocks, axis=-2), TAU_RANK)
    return ctx.dim_g - rank


def is_regular(J):
    """Whether all eigenvalue gaps of the Hermitian matrix ``iJ`` exceed
    ``TAU_EIG``; a bool array over a stack ``(..., n, n)``."""
    w = np.linalg.eigvalsh(1j * _require_square(J, stack=True))
    regular = np.all(np.diff(np.sort(w), axis=-1) > TAU_EIG, axis=-1)
    return bool(regular) if regular.ndim == 0 else regular
