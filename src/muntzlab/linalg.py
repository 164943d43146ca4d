"""Small dense linear-algebra kernels at mpmath working precision.

Matrices are small (N <= ~16), so dense O(N^3) work is cheap even at 512
bits.  Two kernels on row lists enclose an extreme eigenvalue:
block_diagonal_lambda_min and hermitian_lambda_max.  They share the fixed
start vector (no RNG), the stopping rule and a shifted-Cholesky
certificate; a step limit only ends an iteration, and a value that cannot
be certified raises PrecisionInsufficientError.  Before the mpmath loop,
_float_seed runs the same iteration in plain doubles from the fixed start
vector and hands over its last vector as the start.  It only places the
start: the estimate still comes from the mpmath loop and the enclosure
from the shifted Cholesky, so a poor seed costs steps, never correctness.
"""

from __future__ import annotations

import math

from mpmath import matrix, mp, mpc, mpf, sqrt

from .config import DEFAULT_TOLERANCES, working_precision
from .errors import DegenerateInputError, InputError, PrecisionInsufficientError

# the kernels stop on the default; a --config override is only recorded
SIGMA_REL_TOL = DEFAULT_TOLERANCES["singular_value_rel"]
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


def _vec_norm(v):
    return sqrt(sum(abs(x) ** 2 for x in v))


def _start_vector(n):
    # fixed, mildly uneven unit start, not orthogonal to the extreme
    # eigenvector by accident of symmetry
    x = [mpf(1) + mpf(i) / (2 * n) for i in range(n)]
    nx = _vec_norm(x)
    return [v / nx for v in x]


def _float_seed(mats, step):
    """Start vector for an mpmath loop: the same iteration run in doubles.

    mats holds row lists of mpf (ragged rows are fine), one row per entry
    of the vector they act on.  They are rounded to double after one
    common power-of-two scale to unit largest entry, so no entry overflows
    and their relative sizes survive.  From the fixed start vector,
    x = step(mats, x) normalised runs until x moves by at most 2^-50,
    moves no less than the step before (rounding noise), or
    MAX_POWER_ITER steps have run.  Only + - * / and math.sqrt touch the
    values, summed left to right, so the seed is the same on every
    platform and Python version.  The fixed start vector comes back when
    the largest entry is 0, a step returns None or a value is not finite.
    """
    n = sum(map(len, mats))
    big = max((abs(v) for rows in mats for row in rows for v in row), default=0)
    if not big:
        return _start_vector(n)
    k = mp.frexp(big)[1]
    mats = [[[float(mp.ldexp(v, -k)) for v in row] for row in rows] for rows in mats]
    # the direction of _start_vector(n); the first step normalises it
    x = [1 + i / (2 * n) for i in range(n)]
    moved = math.inf
    for _ in range(MAX_POWER_ITER):
        y = step(mats, x)
        if y is None or not all(map(math.isfinite, y)):
            return _start_vector(n)
        top = max(map(abs, y))
        if not top:
            return _start_vector(n)
        y = [v / top for v in y]
        ny = math.sqrt(_float_dot(y, y))
        y = [v / ny for v in y]
        step_moved = max(abs(a - b) for a, b in zip(x, y))
        x = y
        if step_moved <= 2.0 ** -50 or step_moved >= moved:
            break
        moved = step_moved
    return [mpf(v) for v in x]


def _float_dot(a, b):
    # left to right: builtin sum() adds floats differently across Python versions
    acc = 0.0
    for u, v in zip(a, b):
        acc += u * v
    return acc


def _float_block_solve(factors, x):
    """y = B^-1 x on a direct sum, B_b = L_b L_b^T with L_b as double rows."""
    y = []
    for L in factors:
        n, at = len(L), len(y)
        if not all(L[i][i] for i in range(n)):
            return None
        z = []
        for i, row in enumerate(L):
            acc = x[at + i]
            for j in range(i):
                acc -= row[j] * z[j]
            z.append(acc / row[i])
        yb = [0.0] * n
        for i in reversed(range(n)):
            acc = z[i]
            for j in range(i + 1, n):
                acc -= L[j][i] * yb[j]
            yb[i] = acc / L[i][i]
        y += yb
    return y


def _float_matvec(mats, x):
    return [_float_dot(row, x) for row in mats[0]]


class LUFactors:
    """In-place LU with partial pivoting, reusable for many solves.

    No kernel in the package solves with it; the tests keep it as a
    reference solver for square systems.
    """

    def __init__(self, A: matrix):
        n = A.rows
        self.n = n
        self.lu = A.copy()
        self.perm = list(range(n))
        lu = self.lu
        for col in range(n):
            pivot_row = max(range(col, n), key=lambda r: abs(lu[r, col]))
            if lu[pivot_row, col] == 0:
                raise DegenerateInputError("matrix is numerically singular")
            if pivot_row != col:
                for j in range(n):
                    lu[col, j], lu[pivot_row, j] = lu[pivot_row, j], lu[col, j]
                self.perm[col], self.perm[pivot_row] = self.perm[pivot_row], self.perm[col]
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


def _settled(old, new):
    """The stopping rule: the estimate moved by at most SIGMA_REL_TOL relative."""
    return old is not None and abs(new - old) <= mpf(SIGMA_REL_TOL) * new


def _margin(n, trace):
    """Rounding margin e = (n + 2) 2^(1-p) trace for an n x n Cholesky at p bits.

    Demmel (LAPACK Working Note 14, 1989) bounds the backward error of a
    Cholesky of A that runs to completion by |E_ij| <= gamma_(n+1)
    sqrt(a_ii a_jj), so |E| <= gamma_(n+1) tr A.  With trace >= tr A, e is
    about twice that: the rest covers forming a shifted diagonal and the
    roundings of the shift and of the certified end.
    """
    return (n + 2) * mpf(2) ** (1 - mp.prec) * trace


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

    Every block is Cholesky-factored once.  _float_seed runs inverse
    iteration on the direct sum in doubles, on those factors rounded after
    one common power-of-two scale (the factors, not the blocks: kappa(L) is
    the root of kappa(B)), and its last vector starts the mpmath loop:
    y = B^-1 x blockwise, theta = x.x / x.y, x = y/|y|, until theta settles
    (_settled) or MAX_POWER_ITER steps have run.  With r = |Bx - theta x|
    for the final unit x, read off the last solve (B x = x_old/|y|), every
    block is factored again shifted by c = theta - r - e, and
    s = c - e, with e the largest _margin(n_b, tr B_b) (tr(B_b - cI) < tr B_b).
    A complete shifted factorization proves lambda_min(B_b) > c - e for
    every block.  The first e is a margin: the seed, theta and r only place
    the shift, so their rounding can make the shifted factorization fail,
    never make s wrong.  The enclosure is for the blocks as given (their lower
    triangles).  PrecisionInsufficientError when a block is not numerically
    positive definite, s is not positive, or a shifted factorization fails.
    """
    blocks = [B for B in blocks if len(B)]
    if not blocks:
        raise InputError("no non-empty block")
    with working_precision(precision_bits):
        factors = [_cholesky_rows(B) for B in blocks]
        if any(f is None for f in factors):
            raise PrecisionInsufficientError(
                "block is not numerically positive definite", precision_bits=precision_bits)
        x = iter(_float_seed([f[0] for f in factors], _float_block_solve))
        xs = [[next(x) for _ in B] for B in blocks]
        theta = None
        for iterations in range(1, MAX_POWER_ITER + 1):
            ys = [_cholesky_solve(f, xb) for f, xb in zip(factors, xs)]
            new_theta = (mp.fsum(mp.fdot(xb, xb) for xb in xs)
                         / mp.fsum(mp.fdot(xb, yb) for xb, yb in zip(xs, ys)))
            scale = 1 / sqrt(mp.fsum(mp.fdot(yb, yb) for yb in ys))
            old, xs = xs, [[v * scale for v in yb] for yb in ys]
            done = _settled(theta, new_theta)
            theta = new_theta
            if done:
                break

        # B x = scale * old for the final unit x, so no product with B is needed
        r = sqrt(mp.fsum((scale * u - theta * v) ** 2
                         for ob, xb in zip(old, xs) for u, v in zip(ob, xb)))
        e = max(_margin(len(B), mp.fsum(B[i][i] for i in range(len(B)))) for B in blocks)
        shift = theta - r - e
        s = shift - e
        if not s > 0 or any(_cholesky_rows(B, shift) is None for B in blocks):
            raise PrecisionInsufficientError(
                f"cannot certify lambda_min above {mp.nstr(s, 5)} (estimate {mp.nstr(theta, 5)})",
                residual=r, precision_bits=precision_bits)
        return theta, s, iterations


def hermitian_lambda_max(H, precision_bits: int):
    """Largest eigenvalue of a Hermitian positive semidefinite H, certified.

    H is a list of rows of mpf or mpc.  Returns (lower, theta, upper) with
    lower <= lambda_max < upper.  _float_seed runs plain power iteration in
    doubles on H scaled by a power of two to unit largest entry, and its
    last vector starts the mpmath loop: theta = x.Hx / x.x, x = Px/|Px|,
    until theta settles or MAX_POWER_ITER steps have run.  P is H for n
    steps, then squared every step, so a near-tie at the top costs a few
    dozen steps, not thousands.  The seed only places the start.

    theta is a Rayleigh quotient and lower = theta - e.  With r = |Hx - theta x|
    for the final unit x, a complete Cholesky of cI - H at c = theta + r + e
    proves lambda_max < upper = c + e (block_diagonal_lambda_min from the
    other side), with e = _margin(n, n (theta + r) + tr H): tr(cI - H) <= n c,
    and tr H also covers the rounding of theta.  The enclosure is for H as
    given.  PrecisionInsufficientError when Px = 0 or that Cholesky fails.
    """
    if not len(H):
        raise InputError("empty matrix")
    with working_precision(precision_bits):
        if any(isinstance(h, mpc) for row in H for h in row):
            # [[A, -B], [B, A]] for H = A + iB: real symmetric, each eigenvalue twice
            A, B = [[mp.re(h) for h in row] for row in H], [[mp.im(h) for h in row] for row in H]
            H = [a + [-v for v in b] for a, b in zip(A, B)] + [b + a for a, b in zip(A, B)]
        n = len(H)
        x = _float_seed([H], _float_matvec)
        theta, P = None, H
        for step in range(MAX_POWER_ITER):
            Hx = [mp.fdot(row, x) for row in H]
            new_theta = mp.fdot(x, Hx) / mp.fdot(x, x)
            done = _settled(theta, new_theta) or step == MAX_POWER_ITER - 1
            theta = new_theta
            if done:
                break
            if step >= n:
                P = [[mp.fdot(a, b) for b in P] for a in P]
            y = Hx if P is H else [mp.fdot(row, x) for row in P]
            ny = _vec_norm(y)
            if not ny > 0:
                raise PrecisionInsufficientError("the iterate lies in the kernel of H",
                                                 precision_bits=precision_bits)
            x = [v / ny for v in y]

        r = _vec_norm([v - theta * u for v, u in zip(Hx, x)])
        e = _margin(n, n * (theta + r) + mp.fsum(H[i][i] for i in range(n)))
        shift = theta + r + e
        if _cholesky_rows([[-h for h in row] for row in H], -shift) is None:
            raise PrecisionInsufficientError(
                f"cannot certify lambda_max below {mp.nstr(shift + e, 5)} "
                f"(estimate {mp.nstr(theta, 5)})", residual=r, precision_bits=precision_bits)
        return theta - e, theta, shift + e
