"""Small dense linear-algebra kernels at mpmath working precision.

Matrices are small (N <= ~16), so dense O(N^3) work is cheap even at 512
bits.  Two kernels on row lists enclose an extreme eigenvalue:
block_diagonal_lambda_min (the smallest of a direct sum of SPD blocks)
and pencil_lambda_max (the largest of a definite pencil (A, B); B = I is
the standard problem).  They share the fixed start vector (no RNG), the
stopping rule and a shifted-Cholesky certificate; a step limit only ends
an iteration, and a value that cannot be certified raises
PrecisionInsufficientError.  Before the mpmath loop, _float_seed runs the
same iteration in plain doubles from the fixed start vector and hands
over its last vector as the start.  It only places the start: the
estimate still comes from the mpmath loop and the enclosure from the
shifted Cholesky, so a poor seed costs steps, never correctness.
"""

from __future__ import annotations

import math

from mpmath import matrix, mp, mpc, mpf, sqrt

from .config import DEFAULT_TOLERANCES, working_precision
from .errors import DegenerateInputError, InputError, PrecisionInsufficientError

# the kernels stop on the default; a --config override is only recorded
SIGMA_REL_TOL = DEFAULT_TOLERANCES["singular_value_rel"]
MAX_POWER_ITER = 2000


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

    mats holds matrices as row lists of mpf (ragged rows are fine); the
    first has one row per entry of the vector.  Each is rounded to double
    after its own power-of-two scale to unit largest entry, so no entry
    overflows and the relative sizes inside a matrix survive (a direct sum
    comes as one matrix).  From the fixed start vector, x = step(mats, x)
    normalised runs until x moves by at most 2^-50, moves no less than the
    step before (rounding noise), or MAX_POWER_ITER steps have run.  Only
    + - * / and math.sqrt touch the values, summed left to right, so the
    seed is the same on every platform and Python version.  The fixed
    start vector comes back when a matrix is zero, a step returns None or
    a value is not finite.
    """
    n = len(mats[0])
    scaled = []
    for rows in mats:
        big = max((abs(v) for row in rows for v in row), default=0)
        if not big:
            return _start_vector(n)
        k = mp.frexp(big)[1]
        scaled.append([[float(mp.ldexp(v, -k)) for v in row] for row in rows])
    # the direction of _start_vector(n); the first step normalises it
    x = [1 + i / (2 * n) for i in range(n)]
    moved = math.inf
    for _ in range(MAX_POWER_ITER):
        y = step(scaled, x)
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


def _float_block_solve(rows, sizes, x):
    """y = B^-1 x on a direct sum, B_b = L_b L_b^T; rows lists every L_b's rows in turn."""
    y = []
    for n in sizes:
        at = len(y)
        L = rows[at:at + n]
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


def _float_pencil_step(mats, x):
    """y = B_inv (A x) for mats = (A, B_inv) as double rows."""
    A, B_inv = mats
    Ax = [_float_dot(row, x) for row in A]
    return [_float_dot(row, Ax) for row in B_inv]


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


def _settled(old, new):
    """The stopping rule: the estimate moved by at most SIGMA_REL_TOL relative."""
    return old is not None and abs(new - old) <= mpf(SIGMA_REL_TOL) * new


def _margin(n, trace):
    """Rounding margin e = (n + 2) 2^(1-p) trace for an n x n Cholesky at p bits.

    Demmel (LAPACK Working Note 14, 1989) bounds the backward error of a
    Cholesky of A that runs to completion by |E_ij| <= gamma_(n+1)
    sqrt(a_ii a_jj), so |E| <= gamma_(n+1) tr A.  With trace >= tr A, e is
    about twice that: the rest covers forming the matrix (a shifted
    diagonal, or cB - A entry by entry) and the roundings of the shift and
    of the certified end.
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
        sizes = [len(B) for B in blocks]
        x = iter(_float_seed([[row for f in factors for row in f[0]]],
                             lambda mats, x: _float_block_solve(mats[0], sizes, x)))
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


def _real_form(H):
    """[[X, -Y], [Y, X]] for H = X + iY: real symmetric for Hermitian H, each eigenvalue twice."""
    X, Y = [[mp.re(h) for h in row] for row in H], [[mp.im(h) for h in row] for row in H]
    return [a + [-v for v in b] for a, b in zip(X, Y)] + [b + a for a, b in zip(X, Y)]


def pencil_lambda_max(A, B, B_inv, precision_bits: int):
    """Largest eigenvalue of the definite pencil (A, B), certified.

    A is Hermitian positive semidefinite, B Hermitian positive definite,
    both lists of rows of mpf or mpc, and B_inv approximates B^-1.
    lambda_max is the largest lambda with A x = lambda B x (Parlett, The
    Symmetric Eigenvalue Problem, ch. 15), the largest eigenvalue of
    B^-1 A; B = B_inv = I is the standard problem.  Complex pencils go
    through their real symmetric forms.  Returns (lower, theta, upper) with
    lower <= lambda_max < upper.

    _float_seed runs x = B_inv (A x) in doubles, A and B_inv each scaled
    by a power of two, and its last vector starts the mpmath loop:
    theta = x.Ax / x.Bx, x = Px/|Px|, until theta settles or
    MAX_POWER_ITER steps have run.  P is B_inv A for n steps, then squared
    every step, so a near-tie at the top costs a few dozen steps, not
    thousands.

    theta, a generalized Rayleigh quotient, is at most lambda_max, and
    lower = theta - 2^(3-p) (a + theta b) / x.Bx with a = sum |x_i (Ax)_i|
    and b = sum |x_i (Bx)_i| covers the rounding of both quadratic forms
    and of the quotient.  A complete Cholesky of cB - A shifted by
    e = _margin(n, c tr B + tr A) (tr(cB - A) <= c tr B + tr A) proves
    lambda_max < upper = c.  c = theta + |r|_(B^-1) / |x|_B plus a margin
    for the shift, r = Ax - theta Bx, only places that Cholesky: B_inv and
    the seed never enter the enclosure, which is for A and B as given.
    PrecisionInsufficientError when Px = 0 or the Cholesky fails.
    """
    if not len(A):
        raise InputError("empty matrix")
    with working_precision(precision_bits):
        if any(isinstance(h, mpc) for M in (A, B) for row in M for h in row):
            A, B, B_inv = _real_form(A), _real_form(B), _real_form(B_inv)
        n = len(A)
        x = _float_seed([A, B_inv], _float_pencil_step)
        theta, P = None, None
        for step in range(MAX_POWER_ITER):
            Ax = [mp.fdot(row, x) for row in A]
            Bx = [mp.fdot(row, x) for row in B]
            xBx = mp.fdot(x, Bx)
            new_theta = mp.fdot(x, Ax) / xBx
            done = _settled(theta, new_theta) or step == MAX_POWER_ITER - 1
            theta = new_theta
            if done:
                break
            if step >= n:
                if P is None:
                    # A is symmetric, so its rows are its columns
                    P = [[mp.fdot(row, a) for a in A] for row in B_inv]
                P = [[mp.fdot(row, c) for c in zip(*P)] for row in P]
                y = [mp.fdot(row, x) for row in P]
            else:
                y = [mp.fdot(row, Ax) for row in B_inv]
            ny = _vec_norm(y)
            if not ny > 0:
                raise PrecisionInsufficientError("the iterate lies in the kernel of A",
                                                 precision_bits=precision_bits)
            x = [v / ny for v in y]

        a, b = (mp.fsum(abs(u * v) for u, v in zip(x, Mx)) for Mx in (Ax, Bx))
        lower = theta - mpf(2) ** (3 - mp.prec) * (a + theta * b) / xBx
        r = [v - theta * w for v, w in zip(Ax, Bx)]
        spread = sqrt(abs(mp.fdot(r, [mp.fdot(row, r) for row in B_inv])) / xBx)
        trA, trB, tr_inv = (mp.fsum(M[i][i] for i in range(n)) for M in (A, B, B_inv))
        # cB - A >= (c - lambda_max) B and lambda_min(B) >= 1/tr B^-1: room for the shift
        c = theta + spread + 4 * abs(tr_inv) * _margin(n, theta * trB + trA)
        e = _margin(n, c * trB + trA)
        if _cholesky_rows([[c * v - u for u, v in zip(ra, rb)] for ra, rb in zip(A, B)], e) is None:
            raise PrecisionInsufficientError(
                f"cannot certify lambda_max below {mp.nstr(c, 5)} (estimate {mp.nstr(theta, 5)})",
                residual=spread, precision_bits=precision_bits)
        return lower, theta, c
