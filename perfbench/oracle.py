"""Reference computations made apart from muntzlab, on plain mpmath.

Every function takes plain numbers (exponents, coefficients) and a
precision in bits, and works inside ``mp.workprec``. None of them calls
the package under test, so a fault in muntzlab cannot hide in its own
reference value.
"""

from __future__ import annotations

from mpmath import mp, mpf, mpc, matrix


def gram(lams, prec):
    """G_jk = 1/(lambda_j + lambda_k + 1) at ``prec`` bits."""
    with mp.workprec(prec):
        x = [mpf(v) for v in lams]
        n = len(x)
        G = matrix(n, n)
        for j in range(n):
            for k in range(n):
                G[j, k] = 1 / (x[j] + x[k] + 1)
        return G


def identity_residual(lams, coeffs, prec):
    """max |G C - I| with G built here and C the program's dual coefficients."""
    with mp.workprec(prec):
        G = gram(lams, prec)
        n = len(lams)
        worst = mpf(0)
        for i in range(n):
            for j in range(n):
                acc = mpf(0)
                for k in range(n):
                    acc += G[i, k] * coeffs[k][j]
                worst = max(worst, abs(acc - (1 if i == j else 0)))
        return worst


def det_distances(lams, prec):
    """D_{n,N} for every n from D^2 = det G_N / det G_N^(n), by mpmath.det."""
    with mp.workprec(prec):
        G = gram(lams, prec)
        full = mp.det(G)
        n = len(lams)
        out = []
        for skip in range(n):
            keep = [i for i in range(n) if i != skip]
            minor = matrix(n - 1, n - 1)
            for a, i in enumerate(keep):
                for b, j in enumerate(keep):
                    minor[a, b] = G[i, j]
            out.append(mp.sqrt(full / mp.det(minor)) if keep else mp.sqrt(full))
        return out


def monomial_distance(mu, lams, prec):
    """Distance from t^mu to span{t^lambda_k}: the Cauchy product formula.

    (2 mu + 1)^(-1/2) prod_k |mu - lambda_k| / (mu + lambda_k + 1).
    """
    with mp.workprec(prec):
        mu = mpf(mu)
        d = 1 / mp.sqrt(2 * mu + 1)
        for v in lams:
            v = mpf(v)
            d *= abs(mu - v) / (mu + v + 1)
        return d


def normal_equations(lams, moments, prec):
    """Solve G a = b by mpmath.lu_solve: the projection coefficients."""
    with mp.workprec(prec):
        G = gram(lams, prec)
        b = matrix([mpf(m) if not isinstance(m, mpc) else m for m in moments])
        a = mp.lu_solve(G, b)
        return [a[i] for i in range(len(lams))]


def series_moments(series_lams, series_coeffs, lams, prec):
    """b_k = <f, t^lambda_k> for a finite series f, by the exact kernel."""
    with mp.workprec(prec):
        return [sum(mpf(c) / (mpf(m) + mpf(v) + 1) for m, c in zip(series_lams, series_coeffs))
                for v in lams]


def gram_form(lams_a, ca, lams_b, cb, prec):
    """sum_jk ca_j conj(cb_k) / (a_j + b_k + 1) as a matrix product."""
    with mp.workprec(prec):
        H = matrix(len(lams_a), len(lams_b))
        for j, a in enumerate(lams_a):
            for k, b in enumerate(lams_b):
                H[j, k] = 1 / (mpf(a) + mpf(b) + 1)
        u = matrix([mpc(c) for c in ca]).T
        w = matrix([mp.conj(mpc(c)) for c in cb])
        return (u * H * w)[0]


class MixedSystems:
    """sigma_min of mixed systems from X^H X = diag(G[N1,N1], G^-1[N2,N2]).

    G and its inverse are built once per exponent set; the smallest
    eigenvalue of each block comes from mpmath.eigsy, and the smaller of
    the two is sigma_min squared.
    """

    def __init__(self, lams, prec):
        self.prec = prec
        with mp.workprec(prec):
            self.G = gram(lams, prec)
            self.Ginv = mp.inverse(self.G)

    def sigma_min(self, n1, n2):
        with mp.workprec(self.prec):
            mins = []
            for idx, A in ((sorted(n1), self.G), (sorted(n2), self.Ginv)):
                if not idx:
                    continue
                B = matrix(len(idx), len(idx))
                for a, i in enumerate(idx):
                    for b, j in enumerate(idx):
                        B[a, b] = A[i - 1, j - 1]
                mins.append(min(mp.eigsy(B, eigvals_only=True)))
            return mp.sqrt(min(mins))


def direct_series_value(lams, coeffs, z, prec):
    """sum c_n z^lambda_n on the principal branch, summed term by term."""
    with mp.workprec(prec):
        z = mpc(z)
        return sum(mpc(c) * mp.exp(mpf(v) * mp.log(z)) for v, c in zip(lams, coeffs))


def radial_closed_form(coeffs, lams, theta, a, prec):
    """Integral over [0, a] of |sum c_n (t e^(i theta))^lambda_n|^2 dt.

    With v_n = c_n e^(i theta lambda_n) a^(lambda_n + 1/2) the integral is
    the quadratic form sum_nm v_n conj(v_m) / (lambda_n + lambda_m + 1);
    for real c_n its terms are w_n w_m cos(theta (lambda_n - lambda_m)).
    """
    with mp.workprec(prec):
        a = mpf(a)
        th = mpf(theta)
        x = [mpf(v) for v in lams]
        w = [mpf(c) * a ** (v + mpf(1) / 2) for c, v in zip(coeffs, x)]
        # cos(th (x_n - x_m)) = cos(th x_n) cos(th x_m) + sin(th x_n) sin(th x_m)
        cw = [wn * mp.cos(th * xn) for wn, xn in zip(w, x)]
        sw = [wn * mp.sin(th * xn) for wn, xn in zip(w, x)]
        total = mpf(0)
        for n in range(len(x)):
            total += w[n] * w[n] / (2 * x[n] + 1)
            for m in range(n + 1, len(x)):
                total += 2 * (cw[n] * cw[m] + sw[n] * sw[m]) / (x[n] + x[m] + 1)
        return total
