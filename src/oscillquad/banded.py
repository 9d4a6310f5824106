"""Banded LU factorization/solves, block reordering, and small dense solves.

The banded factorization is LAPACK's gbtrf (partial pivoting, fill confined
to a widened upper band); solves reuse the factorization through gbtrs so a
matrix factored once can serve many right-hand sides.  A real matrix is
factored and solved in real arithmetic (dgbtrf/dgbtrs), a complex one in
complex arithmetic (zgbtrf/zgbtrs).  An explicit pivot
screen turns numerically singular systems into a loud error instead of a
garbage solution, which is the signal the quadrature driver uses to fall
back to the dense reference path.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, lapack
from scipy.sparse.linalg import LinearOperator, onenormest

from .chebyshev import PLAN_CACHE_SIZE, BandedMatrix


def lu_factor_quiet(a):
    """scipy's lu_factor without its singular-matrix warning (we screen pivots)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        return scipy.linalg.lu_factor(a, check_finite=False)


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot fell below tolerance; carries the offending pivot index."""

    def __init__(self, message: str, pivot_index: int = -1):
        super().__init__(message)
        self.pivot_index = pivot_index


#: Pivot screen relative to the matrix max-norm.
PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class BandedLU:
    """LU factors of a banded matrix in LAPACK band storage.

    ``factors`` has lower bandwidth kl and widened upper bandwidth kl + ku
    (row-pivoting fill); ``pivots`` is the LAPACK ipiv record; ``gbtrs`` is
    the solve routine in the factors' field, looked up once.
    """

    factors: BandedMatrix
    pivots: np.ndarray
    kl: int
    ku: int
    gbtrs: object

    @property
    def n(self) -> int:
        return self.factors.n


def banded_lu_factor(a: BandedMatrix) -> BandedLU:
    """Partial-pivoting LU of a banded matrix.

    A real matrix gets float64 factors (dgbtrf), any other complex128
    factors (zgbtrf).  Raises :class:`SingularMatrixError` when a pivot
    falls below ``PIVOT_RTOL`` times the matrix max-norm (or is exactly
    zero).  A band already in gbtrf's layout, the last rows of a
    Fortran-ordered array with kl rows above them (as
    ``principal_submatrix(..., spare_rows=kl)`` makes it), is factored in
    place, and its data is overwritten; any other band is copied first.
    """
    kl, ku, n = a.lower_bw, a.upper_bw, a.n
    dtype = np.result_type(a.data, np.float64)
    ab = a.data.base
    if not (ab is not None and ab.dtype == dtype and ab.flags.f_contiguous
            and ab.shape == (2 * kl + ku + 1, n) and a.data.strides == ab.strides
            and a.data.ctypes.data == ab.ctypes.data + kl * ab.itemsize):
        ab = np.empty((2 * kl + ku + 1, n), dtype=dtype, order="F")
        ab[:kl] = 0  # the rows gbtrf fills in; it reads only the band below them
        ab[kl:] = a.data
    # max |entry|, without a band-sized temporary when the band is real
    scale = (np.max(np.abs(a.data)) if np.iscomplexobj(a.data)
             else np.maximum(a.data.max(), -a.data.min()))
    gbtrf, = lapack.get_lapack_funcs(("gbtrf",), (ab,))
    lu, ipiv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to gbtrf")
    if info > 0:
        raise SingularMatrixError(
            f"exactly singular banded matrix (pivot {info - 1})", info - 1
        )
    diag = np.abs(lu[kl + ku, :])
    worst = int(np.argmin(diag))
    if diag[worst] <= PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"banded matrix numerically singular at pivot {worst} "
            f"(|pivot| = {diag[worst]:.3e}, scale = {scale:.3e})",
            worst,
        )
    factors = BandedMatrix(n, kl, kl + ku, data=lu, dtype=lu.dtype)
    gbtrs, = lapack.get_lapack_funcs(("gbtrs",), (lu,))
    return BandedLU(factors=factors, pivots=ipiv, kl=kl, ku=ku, gbtrs=gbtrs)


def banded_solve(lu: BandedLU, b, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) from a prior factorization.

    ``b`` may be a vector or a matrix of right-hand-side columns; it is
    copied once, into the Fortran order gbtrs works in, so a Fortran-ordered
    ``b`` costs a plain copy.  Against complex factors the solve runs in
    complex128.  Against real factors a real ``b`` is solved in float64, and
    a complex ``b`` of K columns as its real and imaginary parts, in one
    real solve of 2K columns.
    """
    b = np.asarray(b)
    if b.shape[0] != lu.n:
        raise ValueError("right-hand side has wrong length")
    trans = 2 if adjoint else 0
    if np.iscomplexobj(lu.factors.data) or not np.iscomplexobj(b):
        dtype = np.result_type(lu.factors.data, b)
        return _gbtrs(lu, np.array(b, dtype=dtype, order="F"), trans)
    cols = b.reshape(lu.n, -1)
    k = cols.shape[1]
    parts = np.empty((lu.n, 2 * k), order="F")
    parts[:, :k] = cols.real
    parts[:, k:] = cols.imag
    parts = _gbtrs(lu, parts, trans)
    return (parts[:, :k] + 1j * parts[:, k:]).reshape(b.shape)


def _gbtrs(lu: BandedLU, b: np.ndarray, trans: int) -> np.ndarray:
    """gbtrs in the factors' field, in place: ``b`` must already be in that
    field, in Fortran order, and is overwritten by the solution."""
    x, info = lu.gbtrs(lu.factors.data, lu.kl, lu.ku, b, lu.pivots, trans=trans,
                       overwrite_b=1)
    if info != 0:
        raise ValueError(f"gbtrs failed with info={info}")
    return x


def reorder_block_banded(blocks) -> BandedMatrix:
    """Interleave an M x M grid of banded blocks into one banded matrix.

    ``blocks`` is an M x M nested sequence of equally sized square
    :class:`BandedMatrix` blocks.  Row M*l1 + a, column M*l2 + b of the
    result holds entry (l1, l2) of block (a, b): unknowns and equations
    interleave in the grid's own order (Hockney order; a caller that wants
    another equation order passes the block rows in it), on the half-widths
    :func:`interleaved_halfwidths` gives, in the blocks' common dtype.  For
    M = 1 the one block is returned as it is.
    """
    m = len(blocks)
    if m < 1 or any(len(row) != m for row in blocks):
        raise ValueError("blocks must form an M x M grid")
    if m == 1:
        return blocks[0][0]
    nub = blocks[0][0].n
    if any(blk.n != nub for row in blocks for blk in row):
        raise ValueError("inconsistent block sizes")
    kl, ku = interleaved_halfwidths([[blk.lower_bw for blk in row] for row in blocks], range(m),
                                    [[blk.upper_bw for blk in row] for row in blocks])
    dtype = np.result_type(*(blk.data for row in blocks for blk in row))
    out = BandedMatrix(m * nub, kl, ku, dtype=dtype)
    for a, b in np.ndindex(m, m):
        # Diagonal off of block (a, b) is diagonal M off + b - a of the
        # result, on columns b, b + M, ...; its zero slots land on zero slots.
        blk = blocks[a][b]
        top = ku + a - b - m * blk.upper_bw
        out.data[top : top + m * (blk.upper_bw + blk.lower_bw) + 1 : m, b::m] = blk.data
    return out


def interleaved_halfwidths(widths, order, upper=None) -> tuple[int, int]:
    """(kl, ku) of M x M blocks interleaved by :func:`reorder_block_banded`
    with block row order[a] in row group a, block (i, j) of half-width
    ``widths[i][j]`` below the diagonal and ``upper[i][j]`` (default the
    same) above: block (order[a], j) spans diagonals -M w + j - a to
    M u + j - a."""
    m = len(order)
    upper = widths if upper is None else upper
    kl = max(m * widths[i][j] + a - j for a, i in enumerate(order) for j in range(m))
    ku = max(m * upper[i][j] + j - a for a, i in enumerate(order) for j in range(m))
    return kl, ku


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def narrowest_equation_order(widths: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """An order of the M equations in each interleaved row group that keeps
    the band narrow, from the blocks' half-widths alone (O(M^2) work, once
    per M x M tuple of half-widths).

    Each equation goes beside the unknown of its widest block (the first
    such unknown, ties kept in equation order).  That order is taken when
    its band, kl + ku from :func:`interleaved_halfwidths`, is narrower than
    the identity's; otherwise, and for M = 1, the identity is kept.  For the
    Bessel system the two equations swap: kl = ku = 8, not 9.
    """
    m = len(widths)
    identity = tuple(range(m))
    if m == 1:
        return identity
    widest = [max(range(m), key=row.__getitem__) for row in widths]
    candidate = tuple(sorted(identity, key=widest.__getitem__))
    if sum(interleaved_halfwidths(widths, candidate)) < sum(
            interleaved_halfwidths(widths, identity)):
        return candidate
    return identity


def dense_solve(a, b) -> np.ndarray:
    """Dense LU solve with partial pivoting for the small bordering systems.

    ``b`` may be a vector or a matrix of right-hand-side columns.  The solve
    runs in float64 when both ``a`` and ``b`` are real, else in complex128.

    The singularity screen runs on the column-equilibrated matrix: the
    bordering systems are legitimately column-scaled by many orders of
    magnitude once nu exceeds omega, which must pass, while genuinely
    dependent columns (the no-unique-solution regime) must fail loudly.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    dtype = np.result_type(a, b, np.float64)
    a = a.astype(dtype, copy=False)
    b = b.astype(dtype, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] == 0:
        return np.zeros_like(b)
    scales = np.max(np.abs(a), axis=0)
    bad = np.nonzero(scales == 0)[0]
    if bad.size:
        raise SingularMatrixError(f"zero column {bad[0]} in dense system", int(bad[0]))
    lu, piv = lu_factor_quiet(a / scales)
    diag = np.abs(np.diag(lu))
    worst = int(np.argmin(diag))
    if diag[worst] <= PIVOT_RTOL:
        raise SingularMatrixError(
            f"dense system numerically singular at pivot {worst}", worst
        )
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    # Unknown j was solved for scaled by scales[j]; b may carry columns.
    return x / (scales if b.ndim == 1 else scales[:, None])


# ---------------------------------------------------------------------------
# 1-norm condition estimation (Hager/Higham style, via scipy's onenormest)
# ---------------------------------------------------------------------------

def inverse_norm1_estimate(solve, solve_adjoint, n: int) -> float:
    """Estimate ||A^-1||_1 given solve callbacks for A and A^H.

    One column (Hager's estimate from the all-ones start) draws nothing
    from numpy's global generator, so the estimate is deterministic.
    """
    op = LinearOperator((n, n), matvec=solve, rmatvec=solve_adjoint,
                        dtype=np.complex128)
    return float(onenormest(op, t=1))


def banded_condest(a: BandedMatrix) -> float:
    """1-norm condition estimate of a banded matrix (exact norm, estimated inverse)."""
    lu = banded_lu_factor(a)
    norm_a = float(np.max(np.abs(a.data).sum(axis=0)))
    inv = inverse_norm1_estimate(
        lambda v: banded_solve(lu, v),
        lambda v: banded_solve(lu, v, adjoint=True),
        a.n,
    )
    return norm_a * inv


def dense_condest(a: np.ndarray) -> float:
    """1-norm condition estimate of a dense matrix."""
    a = np.asarray(a, dtype=np.complex128)
    lu, piv = lu_factor_quiet(a)
    norm_a = float(np.max(np.abs(a).sum(axis=0)))
    inv = inverse_norm1_estimate(
        lambda v: scipy.linalg.lu_solve((lu, piv), v, check_finite=False),
        lambda v: scipy.linalg.lu_solve((lu, piv), v, trans=2, check_finite=False),
        a.shape[0],
    )
    return norm_a * inv
