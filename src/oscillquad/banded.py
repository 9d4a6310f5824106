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

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, lapack
from scipy.sparse.linalg import LinearOperator, onenormest

from .chebyshev import BandedMatrix


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
    (row-pivoting fill); ``pivots`` is the LAPACK ipiv record.
    """

    factors: BandedMatrix
    pivots: np.ndarray
    kl: int
    ku: int

    @property
    def n(self) -> int:
        return self.factors.n


def banded_lu_factor(a: BandedMatrix) -> BandedLU:
    """Partial-pivoting LU of a banded matrix.

    A real matrix gets float64 factors (dgbtrf), any other complex128
    factors (zgbtrf).  Raises :class:`SingularMatrixError` when a pivot
    falls below ``PIVOT_RTOL`` times the matrix max-norm (or is exactly
    zero).
    """
    kl, ku, n = a.lower_bw, a.upper_bw, a.n
    ab = np.zeros((2 * kl + ku + 1, n), dtype=np.result_type(a.data, np.float64),
                  order="F")
    ab[kl:, :] = a.data
    scale = np.max(np.abs(a.data)) if a.data.size else 0.0
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
    return BandedLU(factors=factors, pivots=ipiv, kl=kl, ku=ku)


def banded_solve(lu: BandedLU, b, adjoint: bool = False) -> np.ndarray:
    """Solve A x = b (or A^H x = b) from a prior factorization.

    ``b`` may be a vector or a matrix of right-hand-side columns.  Against
    complex factors the solve runs in complex128.  Against real factors a
    real ``b`` is solved in float64, and a complex ``b`` of K columns as its
    real and imaginary parts, in one real solve of 2K columns.
    """
    b = np.asarray(b)
    if b.shape[0] != lu.n:
        raise ValueError("right-hand side has wrong length")
    trans = 2 if adjoint else 0
    if np.iscomplexobj(lu.factors.data) or not np.iscomplexobj(b):
        dtype = np.result_type(lu.factors.data, b)
        return _gbtrs(lu, b.astype(dtype, copy=False), trans)
    cols = b.reshape(lu.n, -1)
    k = cols.shape[1]
    parts = _gbtrs(lu, np.hstack([cols.real, cols.imag]), trans)
    return (parts[:, :k] + 1j * parts[:, k:]).reshape(b.shape)


def _gbtrs(lu: BandedLU, b: np.ndarray, trans: int) -> np.ndarray:
    """gbtrs in the factors' field; ``b`` must already be in it."""
    gbtrs, = lapack.get_lapack_funcs(("gbtrs",), (lu.factors.data,))
    x, info = gbtrs(lu.factors.data, lu.kl, lu.ku, b, lu.pivots, trans=trans)
    if info != 0:
        raise ValueError(f"gbtrs failed with info={info}")
    return x


@dataclass(frozen=True)
class BlockPermutation:
    """Interleaving permutation for an M x M grid of nu x nu blocks.

    ``perm[new] = old`` maps interleaved indices (component varying fastest)
    to component-major indices: new = M*l + k  ->  old = k*nu + l.
    """

    m: int
    nu: int
    perm: np.ndarray

    @property
    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.shape[0])
        return inv


def hockney_permutation(m: int, nu: int) -> BlockPermutation:
    """Permutation that turns a grid of banded blocks into one banded matrix."""
    if m < 1 or nu < 1:
        raise ValueError("need m >= 1 and nu >= 1")
    idx = np.arange(m * nu)
    perm = (idx % m) * nu + idx // m
    perm.setflags(write=False)
    return BlockPermutation(m=m, nu=nu, perm=perm)


def reorder_block_banded(blocks, perm: BlockPermutation) -> BandedMatrix:
    """Assemble the reordered banded matrix D with D[i, j] = B[perm i, perm j].

    ``blocks`` is an M x M nested sequence of equally sized square
    :class:`BandedMatrix` blocks.  Row M*l1 + a, column M*l2 + b of the
    result holds entry (l1, l2) of block (a, b), so the block bandwidths
    interleave into a single band of half-width at most
    M * max_block_halfwidth + M - 1.  The result has the blocks' common
    dtype.
    """
    m = perm.m
    if len(blocks) != m or any(len(row) != m for row in blocks):
        raise ValueError("blocks must form an M x M grid")
    nub = blocks[0][0].n
    for row in blocks:
        for blk in row:
            if blk.n != nub:
                raise ValueError("inconsistent block sizes")
    if nub != perm.nu:
        raise ValueError("block size does not match permutation")
    max_lo = max(blk.lower_bw for row in blocks for blk in row)
    max_up = max(blk.upper_bw for row in blocks for blk in row)
    lo = m * max_lo + (m - 1)
    up = m * max_up + (m - 1)
    dtype = np.result_type(*(blk.data for row in blocks for blk in row))
    out = BandedMatrix(m * nub, lo, up, dtype=dtype)
    for a in range(m):
        for b in range(m):
            blk = blocks[a][b]
            for off in range(-blk.upper_bw, blk.lower_bw + 1):
                l0 = max(0, -off)
                l1 = min(nub, nub - off)
                if l0 >= l1:
                    continue
                dd = m * off + (a - b)
                cols = slice(b + m * l0, b + m * (l1 - 1) + 1, m)
                out.data[up + dd, cols] = blk.data[blk.upper_bw + off, l0:l1]
    return out


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
    """Estimate ||A^-1||_1 given solve callbacks for A and A^H."""
    op = LinearOperator((n, n), matvec=solve, rmatvec=solve_adjoint,
                        dtype=np.complex128)
    return float(onenormest(op))


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
