"""Small dense linear-algebra kernels at mpmath working precision.

Matrices are small (N <= ~16), so dense O(N^3) work is cheap even at 512
bits.  Two kernels on row lists enclose an extreme eigenvalue by power
iteration: perron_lambda_max (the largest of a direct sum of nonnegative
symmetric blocks) and pencil_lambda_max (the largest of a definite pencil
(A, B); B = I is the standard problem).  They share the fixed start vector
(no RNG) and the stopping rule; a step limit only ends an iteration, and a
value that cannot be certified raises PrecisionInsufficientError.
_float_seed first runs the same iteration in plain doubles and hands over
its last vector as the start.  It only places the start: the estimate comes
from the mpmath loop and the enclosure from a certificate (Collatz-Wielandt
or a shifted Cholesky), so a poor seed costs steps, never correctness.
"""

from __future__ import annotations

import math

from mpmath import matrix, mp, mpc, mpf, sqrt
from mpmath.libmp import mpf_shift, round_nearest, to_float

from .config import working_precision
from .errors import DegenerateInputError, InputError, PrecisionInsufficientError

# relative stopping rule of the eigenvalue kernels
SIGMA_REL_TOL = 1e-20
MAX_POWER_ITER = 2000


def _vec_norm(v):
    return sqrt(sum(abs(x) ** 2 for x in v))


def _start_vector(n):
    # fixed, mildly uneven unit start, not orthogonal to the extreme
    # eigenvector by accident of symmetry
    x = [mpf(1) + mpf(i) / (2 * n) for i in range(n)]
    nx = _vec_norm(x)
    return [v / nx for v in x]


def _doubles(rows):
    """rows of mpf rounded to double after a power-of-two scale to unit
    largest entry (v = man 2^exp with a bc-bit man lies below 2^(exp+bc)),
    so no entry overflows and the relative sizes survive; on the raw
    tuples, the doubles of float(mp.ldexp(v, -k))."""
    raw = [[v._mpf_ for v in row] for row in rows]
    k = max((t[2] + t[3] for row in raw for t in row if t[1]), default=0)
    return [[to_float(mpf_shift(t, -k), rnd=round_nearest) for t in row] for row in raw]


def _float_seed(mats, step):
    """Start vector for an mpmath loop: the same iteration run in doubles.

    mats holds matrices as row lists of doubles from _doubles (ragged rows
    are fine); the first has one row per entry of the vector.  From the
    fixed start vector, x = step(mats, x) normalised runs until x moves by
    at most 2^-50, moves no less than the step before (rounding noise), or
    MAX_POWER_ITER steps have run.  Only + - * / and math.sqrt touch the
    values, summed left to right, so the seed is the same on every
    platform and Python version.  The fixed start vector comes back when a
    step returns zero or a value that is not finite.
    """
    n = len(mats[0])
    # the direction of _start_vector(n); the first step normalises it
    x = [1 + i / (2 * n) for i in range(n)]
    moved = math.inf
    for _ in range(MAX_POWER_ITER):
        y = step(mats, x)
        if not all(map(math.isfinite, y)):
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


def _float_matvec(mats, x):
    """y = P x for mats = (P,) as double rows."""
    return [_float_dot(row, x) for row in mats[0]]


def _float_pencil_step(mats, x):
    """y = B_inv (A x) for mats = (A, B_inv) as double rows."""
    A, B_inv = mats
    return _float_matvec([B_inv], _float_matvec([A], x))


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
    """Rows of the Cholesky factor of B - shift*I for a symmetric B given as
    row lists, each up to the diagonal; None when a pivot is not positive at
    working precision."""
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
    return rows


def _grow(roundings):
    """1 + 2u (roundings + 5) >= (1 - u)^-(roundings + 5), u = 2^(1-p)."""
    return 1 + (roundings + 5) * mpf(2) ** (2 - mp.prec)


def perron_lambda_max(blocks, roundings: int, precision_bits: int):
    """Largest eigenvalue of diag(P_1, P_2, ...), certified from above.

    Blocks are symmetric, nonnegative and not zero, given as lists of rows
    of mpf (empty ones are skipped), and each entry is within `roundings`
    roundings of an exact one: exact <= given (1 - u)^-roundings with
    u = 2^(1-p) at p bits.  Returns (theta, upper, iterations): lambda_max
    of the exact blocks is at most upper, and theta, the largest Rayleigh
    quotient, is at most lambda_max up to rounding.

    Each block runs y = P x, theta_b = x.y / x.x, x = y in mpmath from
    _float_seed's vector until theta_b settles or MAX_POWER_ITER steps
    have run; iterations counts the most steps a block took.  The seed (the
    start vector, or a product with the block's doubles) is nonnegative and
    positive on a nonzero column of P, so y never vanishes.

    No factorization enters the upper end: for P >= 0 and x > 0,
    lambda_max(P) <= max_i (Px)_i / x_i (Collatz-Wielandt; Horn and
    Johnson, Matrix Analysis, Thm 8.1.26), taken at the final x and y.
    Every term is positive; fdot sums exact products and rounds once after
    dropping terms below 2^(-2p) of its running sum (two roundings), and
    the quotient rounds once, so the exact bound is at most
    max_i y_i / x_i (1 - u)^-(roundings + 3).  upper = max_i y_i / x_i
    (1 + 2u (roundings + 5)) covers it with its own two roundings, as
    (1 - u)^-m <= 1 + 2mu for mu <= 1/2.  InputError for no non-empty
    block, a zero block or a negative entry; PrecisionInsufficientError
    when the final x is not positive.
    """
    blocks = [B for B in blocks if len(B)]
    if not blocks:
        raise InputError("no non-empty block")
    with working_precision(precision_bits):
        grow = _grow(roundings)
        ends = []
        for B in blocks:
            doubles = _doubles(B)
            # doubles keep each sign (-0.0 on underflow) and all vanish only for a zero block
            if (not any(map(any, doubles))
                    or any(math.copysign(1, v) < 0 for row in doubles for v in row)):
                raise InputError("a block is zero or has a negative entry")
            x = _float_seed([doubles], _float_matvec)
            theta = None
            for steps in range(1, MAX_POWER_ITER + 1):
                y = [mp.fdot(row, x) for row in B]
                new_theta = mp.fdot(x, y) / mp.fdot(x, x)
                done = _settled(theta, new_theta) or steps == MAX_POWER_ITER
                theta = new_theta
                if done:
                    break
                # theta and the bound are scale-free and mpf exponents never overflow
                x = y
            if not all(v > 0 for v in x):
                raise PrecisionInsufficientError(
                    "the final iterate is not positive", precision_bits=precision_bits)
            ends.append((theta, max(v / w for v, w in zip(y, x)) * grow, steps))
        return tuple(max(end) for end in zip(*ends))


def _real_form(H):
    """[[X, -Y], [Y, X]] for H = X + iY: real symmetric for Hermitian H, each eigenvalue twice."""
    X, Y = [[mp.re(h) for h in row] for row in H], [[mp.im(h) for h in row] for row in H]
    return [a + [-v for v in b] for a, b in zip(X, Y)] + [b + a for a, b in zip(X, Y)]


def pencil_lambda_max(A, B, B_inv, precision_bits: int, B_inv_doubles=None):
    """Largest eigenvalue of the definite pencil (A, B), certified.

    A is Hermitian positive semidefinite, B Hermitian positive definite,
    both lists of rows of mpf or mpc, and B_inv approximates B^-1.
    lambda_max is the largest lambda with A x = lambda B x (Parlett, The
    Symmetric Eigenvalue Problem, ch. 15), the largest eigenvalue of
    B^-1 A; B = B_inv = I is the standard problem.  Complex pencils go
    through their real symmetric forms.  Returns (lower, theta, upper) with
    lower <= lambda_max < upper.

    _float_seed runs x = B_inv (A x) in doubles (_doubles of A, and of a
    real B_inv unless B_inv_doubles holds it already), and its last vector
    starts the mpmath loop: theta = x.Ax / x.Bx, x = Px/|Px|, until theta
    settles or MAX_POWER_ITER steps have run.  P is B_inv A for n steps,
    then squared every step, so a near-tie at the top costs a few dozen
    steps, not thousands.

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
            B_inv_doubles = None
        n = len(A)
        if B_inv_doubles is None:
            B_inv_doubles = _doubles(B_inv)
        x = _float_seed([_doubles(A), B_inv_doubles], _float_pencil_step)
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
