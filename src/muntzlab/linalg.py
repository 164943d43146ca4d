"""Small dense linear-algebra kernels at mpmath working precision.

Everything here operates on mpmath matrices of modest size (N <= ~16 in
practice) where dense O(N^3) factorizations are cheap even at 512 bits.
Operator norms are largest singular values obtained by power iteration on
A^H A; smallest singular values use inverse iteration through a reusable
LU factorization.  Symmetric positive definite blocks given as row lists
get a plain-list Cholesky kernel instead: inverse iteration on a direct
sum of blocks with a certified enclosure of its smallest eigenvalue.
Start vectors are fixed (no RNG) so results are deterministic.
"""

from __future__ import annotations

from mpmath import conj, matrix, mp, mpf, sqrt

from .config import working_precision
from .errors import ConvergenceError, DegenerateInputError, InputError, PrecisionInsufficientError

SIGMA_REL_TOL = 1e-20
MAX_POWER_ITER = 2000


def frobenius_norm(A: matrix):
    acc = mpf(0)
    for i in range(A.rows):
        for j in range(A.cols):
            acc += abs(A[i, j]) ** 2
    return sqrt(acc)


def max_abs(A: matrix):
    worst = mpf(0)
    for i in range(A.rows):
        for j in range(A.cols):
            worst = max(worst, abs(A[i, j]))
    return worst


def conj_transpose(A: matrix) -> matrix:
    B = matrix(A.cols, A.rows)
    for i in range(A.rows):
        for j in range(A.cols):
            B[j, i] = conj(A[i, j])
    return B


def _vec_norm(v):
    return sqrt(sum(abs(x) ** 2 for x in v))


def _start_vector(n):
    # fixed, mildly uneven start so it is not orthogonal to the top
    # singular vector by accident of symmetry
    return [mpf(1) + mpf(i) / (2 * n) for i in range(n)]


def sigma_max(A: matrix, rel_tol: float = SIGMA_REL_TOL, max_iter: int = MAX_POWER_ITER):
    """Largest singular value of A by power iteration on A^H A."""
    n = A.cols
    if n == 0:
        return mpf(0)
    AH = conj_transpose(A)
    v = _start_vector(n)
    nv = _vec_norm(v)
    v = [x / nv for x in v]
    sigma = mpf(0)
    for _ in range(max_iter):
        w = A * matrix(v)
        z = AH * w
        zn = _vec_norm(z)
        if zn == 0:
            return mpf(0)
        new_sigma = sqrt(zn)
        v = [z[i] / zn for i in range(n)]
        if sigma > 0 and abs(new_sigma - sigma) <= mpf(rel_tol) * new_sigma:
            return new_sigma
        sigma = new_sigma
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


class LUFactors:
    """In-place LU with partial pivoting, reusable for many solves."""

    def __init__(self, A: matrix):
        n = A.rows
        self.n = n
        self.lu = A.copy()
        self.perm = list(range(n))
        self.sign = 1
        lu = self.lu
        for col in range(n):
            pivot_row = max(range(col, n), key=lambda r: abs(lu[r, col]))
            if lu[pivot_row, col] == 0:
                raise DegenerateInputError("matrix is numerically singular")
            if pivot_row != col:
                for j in range(n):
                    lu[col, j], lu[pivot_row, j] = lu[pivot_row, j], lu[col, j]
                self.perm[col], self.perm[pivot_row] = self.perm[pivot_row], self.perm[col]
                self.sign = -self.sign
            for r in range(col + 1, n):
                f = lu[r, col] / lu[col, col]
                lu[r, col] = f
                for j in range(col + 1, n):
                    lu[r, j] -= f * lu[col, j]

    def solve(self, b):
        """Solve A x = b (b is a list or mpmath column)."""
        n, lu = self.n, self.lu
        y = [b[self.perm[i]] for i in range(n)]
        for i in range(n):
            for j in range(i):
                y[i] -= lu[i, j] * y[j]
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                y[i] -= lu[i, j] * y[j]
            y[i] /= lu[i, i]
        return y

    def solve_adjoint(self, b):
        """Solve A^H x = b using the same factorization."""
        n, lu = self.n, self.lu
        # A^H = (P^T L U)^H = U^H L^H P, so solve U^H z = b, L^H w = z, x = P^T w
        z = list(b)
        for i in range(n):
            for j in range(i):
                z[i] -= conj(lu[j, i]) * z[j]
            z[i] /= conj(lu[i, i])
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                z[i] -= conj(lu[j, i]) * z[j]
        x = [None] * n
        for i in range(n):
            x[self.perm[i]] = z[i]
        return x

    def det(self):
        d = mpf(self.sign)
        for i in range(self.n):
            d *= self.lu[i, i]
        return d


def sigma_min(A: matrix, rel_tol: float = SIGMA_REL_TOL, max_iter: int = MAX_POWER_ITER):
    """Smallest singular value via inverse iteration on (A^H A)^-1.

    Each step solves A z = v and A^H w = z through one shared LU, so the
    per-iteration cost is O(N^2).  Returns 0 when the matrix is exactly
    singular at working precision.
    """
    n = A.cols
    if n == 0:
        return mpf(0)
    try:
        lu = LUFactors(A)
    except DegenerateInputError:
        return mpf(0)
    v = _start_vector(n)
    nv = _vec_norm(v)
    v = [x / nv for x in v]
    mu = mpf(0)
    for _ in range(max_iter):
        z = lu.solve(v)
        w = lu.solve_adjoint(z)
        wn = _vec_norm(w)
        if wn == 0 or not mp.isfinite(wn):
            return mpf(0)
        new_mu = sqrt(wn)  # converges to 1/sigma_min^2 under the sqrt pairing
        v = [w[i] / wn for i in range(n)]
        if mu > 0 and abs(new_mu - mu) <= mpf(rel_tol) * new_mu:
            return 1 / new_mu
        mu = new_mu
    raise ConvergenceError(f"inverse iteration did not converge in {max_iter} steps")


def lower_triangular_inverse(L: matrix) -> matrix:
    """Inverse of a lower-triangular matrix by forward substitution."""
    n = L.rows
    inv = matrix(n, n)
    for col in range(n):
        x = [mpf(0)] * n
        x[col] = 1 / L[col, col]
        for i in range(col + 1, n):
            s = mpf(0)
            for j in range(col, i):
                s += L[i, j] * x[j]
            x[i] = -s / L[i, i]
        for i in range(n):
            inv[i, col] = x[i]
    return inv


def _cholesky_rows(B, shift=0):
    """Cholesky factor of B - shift*I for a symmetric B given as row lists.

    Returns (rows, cols, inv): row i of L up to the diagonal, column i of
    L below it and 1/L_ii; None when a pivot is not positive at working
    precision.
    """
    rows = []
    for i, b in enumerate(B):
        Li = []
        for j in range(i):
            Lj = rows[j]
            Li.append((b[j] - mp.fdot(Li, Lj)) / Lj[j])
        d = b[i] - shift - mp.fdot(Li, Li)
        if not d > 0:
            return None
        Li.append(sqrt(d))
        rows.append(Li)
    cols = [[rows[k][i] for k in range(i + 1, len(rows))] for i in range(len(rows))]
    return rows, cols, [1 / Li[-1] for Li in rows]


def _cholesky_solve(factor, b):
    """Solve L L^T y = b with a factor from _cholesky_rows."""
    rows, cols, inv = factor
    n = len(rows)
    z = []
    for i in range(n):
        z.append((b[i] - mp.fdot(rows[i], z)) * inv[i])
    y = [None] * n
    for i in reversed(range(n)):
        y[i] = (z[i] - mp.fdot(cols[i], y[i + 1:])) * inv[i]
    return y


def block_diagonal_lambda_min(blocks, precision_bits: int):
    """Smallest eigenvalue of diag(B_1, B_2, ...) with a certified enclosure.

    Each block is a symmetric positive definite matrix given as a list of
    rows of mpf; empty blocks are skipped.  Returns (theta, s, iterations)
    with s < lambda_min <= theta.

    Every block is Cholesky-factored once.  Inverse iteration then runs on
    the direct sum from the fixed start vector: y = B^-1 x blockwise (one
    forward and one back substitution per block), theta = x.x / x.y (no
    matrix-vector product), x = y/|y|, until theta moves by at most
    SIGMA_REL_TOL relative (at most MAX_POWER_ITER steps).

    theta only estimates lambda_min.  The lower bound is certified: with
    r = |Bx - theta x| for the final unit x, every block is factored again
    shifted by c = theta - r - e, and s = c - e.  Here e is the largest
    over blocks of (n_b + 2) 2^(1-p) tr(B_b), p the working bits.  Demmel
    (LAPACK Working Note 14, 1989) bounds the backward error of a
    Cholesky that runs to completion by |E_ij| <= gamma_(n+1) sqrt(a_ii a_jj),
    so |E| <= gamma_(n+1) tr(B - cI); the rest of e covers forming the
    shifted diagonal and the roundings of c and s.  A complete shifted
    factorization thus proves lambda_min(B_b) > c - e for every block.  The
    first e is a margin: theta and r only place the shift, so their
    rounding can make the shifted factorization fail, never make s wrong.
    The enclosure is for the blocks as given; the factorizations read
    their lower triangles.

    Raises PrecisionInsufficientError when a block is not numerically
    positive definite, when s is not positive, or when a shifted
    factorization fails; an uncertified value is never returned.
    """
    blocks = [B for B in blocks if len(B)]
    if not blocks:
        raise InputError("no non-empty block")
    with working_precision(precision_bits):
        factors = [_cholesky_rows(B) for B in blocks]
        if any(f is None for f in factors):
            raise PrecisionInsufficientError(
                "block is not numerically positive definite", precision_bits=precision_bits)
        x = _start_vector(sum(len(B) for B in blocks))
        nx = _vec_norm(x)
        xs, start = [], 0
        for B in blocks:
            xs.append([v / nx for v in x[start:start + len(B)]])
            start += len(B)
        theta = None
        for iterations in range(1, MAX_POWER_ITER + 1):
            ys = [_cholesky_solve(f, xb) for f, xb in zip(factors, xs)]
            new_theta = (mp.fsum(mp.fdot(xb, xb) for xb in xs)
                         / mp.fsum(mp.fdot(xb, yb) for xb, yb in zip(xs, ys)))
            scale = 1 / sqrt(mp.fsum(mp.fdot(yb, yb) for yb in ys))
            xs = [[v * scale for v in yb] for yb in ys]
            done = theta is not None and abs(new_theta - theta) <= mpf(SIGMA_REL_TOL) * new_theta
            theta = new_theta
            if done:
                break
        else:
            raise ConvergenceError(f"inverse iteration did not converge in {MAX_POWER_ITER} steps")

        r = sqrt(mp.fsum((mp.fdot(row, xb) - theta * xb[i]) ** 2
                         for B, xb in zip(blocks, xs) for i, row in enumerate(B)))
        ulp = mpf(2) ** (1 - mp.prec)
        e = max((len(B) + 2) * ulp * mp.fsum(B[i][i] for i in range(len(B))) for B in blocks)
        shift = theta - r - e
        s = shift - e
        if not s > 0 or any(_cholesky_rows(B, shift) is None for B in blocks):
            raise PrecisionInsufficientError(
                f"cannot certify lambda_min above {mp.nstr(s, 5)} (estimate {mp.nstr(theta, 5)})",
                residual=r, precision_bits=precision_bits)
        return theta, s, iterations
