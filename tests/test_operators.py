import hashlib
from types import SimpleNamespace

import mpmath
import pytest
from mpmath import matrix, mp, mpc, mpf, sqrt

from muntzlab import (
    InputError,
    MuntzOperator,
    ParameterError,
    apply_operator,
    dilation_operator,
    dual_family,
    finite_rank_error,
    finite_series,
    generate_exponents,
    normality_defect,
    synthesis_certificate,
    working_precision,
)
from muntzlab import completeness
from muntzlab.config import DEFAULT_TOLERANCES, RunConfig
from muntzlab.gram import gram_form
from muntzlab.operators import _norm_enclosure, _tail_enclosure

from conftest import commutator_norm, gram_product, operator_norm, orthonormal_matrix

LAM_12 = generate_exponents("integers", {"values": [1, 2]}, 2)
LAM_SQ = generate_exponents("power", {"p": 2}, 12)


def test_dilation_eigenvalues():
    op = dilation_operator(LAM_12, 0.5, 2)
    assert abs(op.u[0] - mpf("0.5")) < 1e-70
    assert abs(op.u[1] - mpf("0.25")) < 1e-70
    op4 = dilation_operator(LAM_SQ, 0.5, 4)
    expected = [mpf(1) / 2, mpf(1) / 16, mpf(1) / 512, mpf(1) / 65536]
    assert max(abs(u - e) for u, e in zip(op4.u, expected)) < 1e-70


@pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.25])
def test_dilation_rho_domain(rho):
    with pytest.raises(ParameterError):
        dilation_operator(LAM_12, rho, 2)


@pytest.mark.parametrize("N", [0, 3])
def test_dilation_truncation_domain(N):
    with pytest.raises(InputError):
        dilation_operator(LAM_12, 0.5, N)


def test_no_mpmath_matrix_on_the_certificate_path(monkeypatch):
    # G and G^-1 are rows from gram_matrix through the certificate and the
    # mixed checks; only the coeffs view builds an mpmath.matrix
    calls = []
    setitem = matrix.__setitem__

    def counting(self, key, value):
        calls.append(key)
        setitem(self, key, value)

    monkeypatch.setattr(matrix, "__setitem__", counting)
    fam = dual_family(LAM_SQ, 8, 256)
    op = dilation_operator(fam.lam, 0.5, 8)
    assert synthesis_certificate(op, fam).status == "pass"
    completeness.mixed_completeness_check(completeness.Partition.from_monomial_set({1, 4}, 8), fam)
    assert calls == []
    assert fam.coeffs[3, 5] == fam.inverse_rows[3][5] and len(calls) == 64


def test_operator_invariants_enforced():
    with pytest.raises(ParameterError):
        MuntzOperator(LAM_12, (mpf("0.5"), mpf("0.5")), 0.5, 2)      # duplicate
    with pytest.raises(ParameterError):
        MuntzOperator(LAM_12, (mpf("0.5"), mpf(0)), 0.5, 2)          # zero
    with pytest.raises(ParameterError):
        MuntzOperator(LAM_12, (mpf("0.9"), mpf("0.25")), 0.5, 2)     # exceeds rho^lambda
    with pytest.raises(InputError):
        MuntzOperator(LAM_12, (mpf("0.5"),), 0.5, 2)                 # length mismatch
    # complex eigenvalues under the same modulus bound are fine
    op = MuntzOperator(LAM_12, (mpc(0, "0.5"), mpc("0.2", "0.1")), 0.5, 2)
    assert op.truncation == 2


def test_apply_is_substitution_for_dilation(fam_12):
    f = finite_series(LAM_12, [1, 1])
    op = dilation_operator(LAM_12, 0.5, 2)
    Tf = apply_operator(op, f, fam_12)
    assert abs(Tf.coeffs[0] - mpf("0.5")) < 1e-40
    assert abs(Tf.coeffs[1] - mpf("0.25")) < 1e-40


def test_apply_eigenrelation(fam_12):
    e1 = finite_series(LAM_12, [1, 0])
    op = MuntzOperator(LAM_12, (mpc("0.3", "0.2"), mpf("0.1")), 0.8, 2)
    Te1 = apply_operator(op, e1, fam_12)
    assert abs(Te1.coeffs[0] - mpc("0.3", "0.2")) < 1e-40
    assert abs(Te1.coeffs[1]) < 1e-40


def test_apply_black_box(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    Tf = apply_operator(op, lambda t: t ** 3, fam_12)
    assert abs(Tf.coeffs[0] - (-mpf(1) / 5)) < 1e-10
    assert abs(Tf.coeffs[1] - mpf(1) / 3) < 1e-10


def test_apply_dilation_coefficientwise_property(fam_squares_10):
    op = dilation_operator(fam_squares_10.lam, 0.75, 10)
    coeffs = tuple((-1) ** k * mpf(2 + k) / 7 for k in range(10))
    f = finite_series(fam_squares_10.lam, coeffs)
    Tf = apply_operator(op, f, fam_squares_10)
    with working_precision(256):
        for k in range(10):
            want = coeffs[k] * mpf("0.75") ** fam_squares_10.lam.values[k]
            assert abs(Tf.coeffs[k] - want) < 1e-40


def test_matrix_representation_hand_values(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    M = orthonormal_matrix(fam_12, op.u)
    assert abs(M[0, 0] - mpf("0.5")) < 1e-40
    assert abs(M[1, 1] - mpf("0.25")) < 1e-40
    assert abs(M[1, 0]) < 1e-60
    assert abs(M[0, 1] - (-sqrt(mpf(15)) / 4)) < 1e-40
    # the certificate's norms on the same matrix: ||M|| and sigma_min(M)
    with mp.workprec(512):
        sv = sorted(mpmath.svd_r(M, compute_uv=False))
    lo, _, hi = _norm_enclosure(op.u, fam_12)
    assert lo <= sv[-1] <= hi
    cert = synthesis_certificate(op, fam_12)
    assert cert.item("kernel_trivial").value <= sv[0] <= cert.kernel_min_singular * (1 + mpf(2) ** -128)


def test_matrix_representation_n1():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    fam = dual_family(lam1, 1, 256)
    op = dilation_operator(lam1, 0.5, 1)
    M = orthonormal_matrix(fam, op.u)
    assert M.rows == 1 and abs(M[0, 0] - mpf("0.5")) < 1e-60
    lo, _, hi = _norm_enclosure(op.u, fam)
    assert lo <= M[0, 0] <= hi


def test_spectrum_matches_eigenvalues(fam_squares_10):
    # the spectrum item reports u; the diagonal of the triangular
    # representation holds the same numbers, its strict lower triangle is 0
    op = dilation_operator(fam_squares_10.lam, 0.5, 10)
    M = orthonormal_matrix(fam_squares_10, op.u)
    item = synthesis_certificate(op, fam_squares_10).item("spectrum")
    assert item.passed is True
    eigs = item.value
    for n in range(10):
        assert abs(eigs[n] - M[n, n]) / abs(M[n, n]) < 1e-20
        assert abs(eigs[n] - op.u[n]) / abs(op.u[n]) < 1e-20
        assert all(abs(M[n, j]) < mpf(10) ** -100 for j in range(n))


def test_spectrum_rests_on_the_eigen_relations(fam_12):
    # with no room for rounding in the eigen bound, item 2 is open (the
    # relations hold for the exact family, so rounding never refutes them)
    # and the spectrum report loses its footing with it
    op = dilation_operator(LAM_12, 0.5, 2)
    strict = RunConfig(precision_bits=256,
                       tolerances=dict(DEFAULT_TOLERANCES, eigen_residual=1e-300))
    cert = synthesis_certificate(op, fam_12, strict)
    assert cert.item("eigen_relations").passed is None
    assert cert.item("spectrum").passed is None
    assert cert.status == "inconclusive"


def test_relations_are_never_refuted_by_rounding():
    # squares, rho = 0.5, N = 6: at 128 bits the bounds on items 2 and 3 lie
    # above 1e-40, so the items are open, not failed; from 192 bits on they
    # pass.  Each bound lies above the relation's residual computed from the
    # oracle's B = G C at the family's bits
    op = dilation_operator(LAM_SQ, 0.5, 6)
    for bits in (128, 192, 256):
        fam = dual_family(LAM_SQ, 6, bits)
        cert = synthesis_certificate(op, fam)
        items = [cert.item("eigen_relations"), cert.item("adjoint_relations")]
        assert all(it.passed is not False for it in items)
        assert cert.status == ("inconclusive" if bits == 128 else "pass")
        with working_precision(bits):
            B = gram_product(fam.gram.entries, fam.inverse_rows)
            u = [mpf(v) for v in op.u]
            eig = max(mp.sqrt(gram_form(fam.lam.values, [B[k][n] * u[n] - (u[k] if n == k else 0)
                                                         for n in range(6)])[0])
                      for k in range(6))
            adj = max(abs(mp.fsum(u[n] * B[j][n] * B[n][k] for n in range(6)) - (u[k] if j == k else 0))
                      for j in range(6) for k in range(6))
        assert eig <= cert.eigen_residual and adj <= cert.adjoint_residual


def test_spectrum_against_general_eigensolver(fam_12):
    # independent oracle: mpmath's dense eigensolver on the representation
    op = dilation_operator(LAM_12, 0.5, 2)
    M = orthonormal_matrix(fam_12, op.u)
    eigs = synthesis_certificate(op, fam_12).item("spectrum").value
    with working_precision(128):
        E, _ = mpmath.eig(matrix([[M[i, j] for j in range(2)] for i in range(2)]), left=False, right=True)
        got = sorted([abs(e) for e in E])
        want = sorted([abs(u) for u in eigs])
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-25


def test_normality_defect_hand_value(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    defect = normality_defect(op, fam_12)
    assert abs(defect - sqrt(mpf(15) / 8)) < 1e-40
    assert abs(float(defect) - 1.36931) < 1e-4


def test_normality_defect_scalar_is_zero():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    fam = dual_family(lam1, 1, 256)
    op = dilation_operator(lam1, 0.5, 1)
    assert normality_defect(op, fam) == 0


def test_normality_defect_identity_gram_is_zero():
    # test mode: orthonormal monomials (fake identity Gram and inverse) make
    # the representation diagonal, hence normal
    with working_precision(256):
        eye = [[mpf(int(i == j)) for j in range(3)] for i in range(3)]
    fake = SimpleNamespace(truncation=3, precision_bits=256, gram=SimpleNamespace(entries=eye),
                           inverse_rows=eye)
    op = MuntzOperator._unchecked(None, (mpf("0.5"), mpf("0.25"), mpf("0.125")), 0.5, 3)
    assert normality_defect(op, fake) == 0


def test_normality_defect_against_the_representation(fam_squares_10_512):
    # the trace identity against the commutator of the orthonormal matrix
    for rho in (0.3, 0.8):
        op = dilation_operator(fam_squares_10_512.lam, rho, 10)
        want = commutator_norm(orthonormal_matrix(fam_squares_10_512, op.u, exact=True), 1024)
        with mp.workprec(1024):
            assert abs(normality_defect(op, fam_squares_10_512) - want) <= mpf(10) ** -128 * want


def test_finite_rank_error_hand_value(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    computed, bound = finite_rank_error(op, fam_12, 1)
    assert abs(computed - 1) < 1e-6
    assert computed <= bound
    computed, _ = finite_rank_error(op, fam_12, 2)
    assert computed == 0
    with pytest.raises(InputError):
        finite_rank_error(op, fam_12, 3)


def test_finite_rank_sweep_decreasing_under_envelope(fam_squares_10):
    op = dilation_operator(fam_squares_10.lam, 0.5, 10)
    values = []
    for m in range(1, 7):
        computed, bound = finite_rank_error(op, fam_squares_10, m)
        assert computed <= bound
        values.append(computed)
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


def test_tail_norm_enclosure_hand_value(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    lo, est, hi = _tail_enclosure(op, fam_12, 1)
    with working_precision(256):
        assert lo <= est <= hi
        assert abs(est - 1) < mpf(10) ** -70
        assert hi - lo < mpf(10) ** -70
    assert _tail_enclosure(op, fam_12, 2) == (0, 0, 0)


def test_complex_operator_enclosures_against_eighe(fam_12):
    op = MuntzOperator(LAM_12, (mpc(0, "0.5"), mpc("0.2", "0.1")), 0.5, 2)
    with working_precision(256):
        weights = [[0] * m + list(op.u[m:]) for m in range(2)] + [[1 / u for u in op.u]]
    for w in weights:
        lo, est, hi = _norm_enclosure(w, fam_12)
        want = operator_norm(orthonormal_matrix(fam_12, w), 512)
        with mp.workprec(512):
            assert lo <= want <= hi
            # theta settles to 1e-20, the residual r only to about its root
            assert hi - lo < mpf(10) ** -9 * want
    assert synthesis_certificate(op, fam_12).status == "pass"


def test_certificate_two_by_two(fam_12):
    op = dilation_operator(LAM_12, 0.5, 2)
    cert = synthesis_certificate(op, fam_12)
    assert cert.status == "pass"
    assert all(item.passed for item in cert.items)
    assert abs(float(cert.normality_defect) - 1.36931) < 1e-4
    assert cert.simplicity_flag
    spectrum = sorted(abs(s) for s in cert.spectrum)
    assert [float(s) for s in spectrum] == pytest.approx([0.0, 0.25, 0.5])


def test_certificate_duplicate_eigenvalues_fails_simplicity(fam_12):
    bad = MuntzOperator._unchecked(LAM_12, (mpf("0.25"), mpf("0.25")), 0.5, 2)
    cert = synthesis_certificate(bad, fam_12)
    assert cert.status == "fail"
    assert cert.item("simple_eigenvalues").passed is False


def test_simplicity_is_decided_at_the_family_bits(fam_12):
    # u_1 and u_2 differ by 1e-30: one double apart from nothing at the
    # ambient 53 bits, clearly apart at the family's 256
    with working_precision(256):
        u = (mpf("0.5"), mpf("0.5") + mpf(10) ** -30)
    op = MuntzOperator(LAM_12, u, 0.9999, 2)
    with mp.workprec(53):
        item = synthesis_certificate(op, fam_12).item("simple_eigenvalues")
    assert item.passed is True
    with mp.workprec(256):
        assert abs(item.value - mpf(10) ** -30) < mpf(10) ** -70


def test_certificate_scalar_truncation_is_inconclusive():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    fam = dual_family(lam1, 1, 256)
    op = dilation_operator(lam1, 0.5, 1)
    cert = synthesis_certificate(op, fam)
    # a 1x1 truncation cannot witness non-normality
    assert cert.item("not_normal").passed is None
    assert cert.status == "inconclusive"


def test_certificate_rho_08_decay_is_a_certified_fail():
    # the two largest singular values of the m = 0 tail differ by 5e-5
    # relative (about 5e5 plain power steps); the enclosures still settle
    # every item.  ||T - T_1|| < ||T - T_2||, so the tail norms are not
    # strictly decreasing from m = 1 on at rho = 0.8
    sq = generate_exponents("power", {"p": 2}, 10)
    fam = dual_family(sq, 10, 512)
    op = dilation_operator(sq, 0.8, 10)
    cert = synthesis_certificate(op, fam)
    for (m, est, bound), (m2, lo, hi) in zip(cert.finite_rank_errors, cert.finite_rank_enclosures):
        assert m == m2
        want = operator_norm(orthonormal_matrix(fam, [0] * m + list(op.u[m:])), 1024) if m < 10 else 0
        with mp.workprec(1024):
            assert lo <= want <= hi and lo <= est <= hi
            assert hi <= bound
    lo1, hi1 = cert.finite_rank_enclosures[1][1:]
    lo2, hi2 = cert.finite_rank_enclosures[2][1:]
    assert hi1 < lo2
    assert abs(hi1 - mpf("3.7885")) < 1e-4 and abs(lo2 - mpf("9.8842")) < 1e-4
    assert cert.item("finite_rank_decay").passed is False
    assert all(it.passed for it in cert.items if it.name != "finite_rank_decay")
    assert cert.status == "fail"


def _oracle_min_singular(op, fam, prec):
    """sqrt of the smallest eigenvalue of M^H M from mpmath.eigsy at prec bits."""
    M = orthonormal_matrix(fam, op.u)
    with mp.workprec(prec):
        return sqrt(min(mpmath.eigsy(M.H * M, eigvals_only=True)))


@pytest.mark.parametrize("seed", [28, 44, 51])
def test_certificate_custom_set_at_ambient_53_bits(custom_set, seed):
    # these seeds crashed the kernel item when it ran at the ambient 53 bits
    lam = custom_set(seed)
    fam = dual_family(lam, 8, 256)
    op = dilation_operator(fam.lam, 0.3, 8)
    with mp.workprec(53):
        cert = synthesis_certificate(op, fam)
    want = _oracle_min_singular(op, fam, 512)
    with mp.workprec(512):
        assert abs(cert.kernel_min_singular - want) <= mpf(10) ** -40 * want
    assert cert.item("kernel_trivial").passed
    assert cert.status == "pass"


def test_certificate_squares_kernel_at_ambient_53_bits(fam_squares_10_512):
    op = dilation_operator(fam_squares_10_512.lam, 0.5, 10)
    with mp.workprec(53):
        cert = synthesis_certificate(op, fam_squares_10_512)
    want = _oracle_min_singular(op, fam_squares_10_512, 1024)
    with mp.workprec(1024):
        assert abs(cert.kernel_min_singular - want) <= mpf(10) ** -40 * want
        assert cert.item("kernel_trivial").value <= want <= cert.kernel_min_singular * (1 + mpf(2) ** -256)
    assert cert.status == "pass"


def test_certificate_mixed_item_is_the_floor(fam_squares_10_512):
    op = dilation_operator(fam_squares_10_512.lam, 0.5, 10)
    item = synthesis_certificate(op, fam_squares_10_512).item("mixed_system_sample")
    _, lower, _ = completeness.mixed_system_floor(fam_squares_10_512)
    assert item.passed is True
    assert repr(item.value) == repr(lower)
    assert "all 1024 partitions" in item.detail


# SHA-256 of repr((finite_rank_enclosures, kernel_trivial value, kernel_min_singular))
# at 1024 bits, certificate computed at a 53-bit ambient precision
ENCLOSURE_DIGESTS = {
    ("squares", 0.3): "eb64998e88ad2c8d5b33e18132bc003b84c22e8e4289779672f9a1d254339850",
    ("squares", 0.5): "fce0e4c99fb357fc05c9f6b0da5f14d3e1894fbc77de6d69aadcf91120804781",
    ("squares", 0.8): "2c5ef4259077570b1fe396d7a1ff2637d4e2775c0b0543b641da5761cddc9faf",
    ("custom", 0.2): "3a59a36cea307bb6df65efa94934ec41b0d951f194d7de194949bc3ea7afec14",
}


@pytest.mark.parametrize("kind, rho", list(ENCLOSURE_DIGESTS))
def test_norm_enclosures_are_pinned_to_the_bit(kind, rho, fam_squares_10_512, custom_set):
    # every pencil's float seed takes C through the family's inverse_doubles,
    # rounded once; each seed, and so each tail and kernel enclosure, must be
    # the one a per-pencil rounding of C gives (squares: N = 10 at 512 bits;
    # custom: the benchmark's set for seed 7, N = 8 at 256 bits)
    fam = fam_squares_10_512 if kind == "squares" else dual_family(custom_set(7), 8, 256)
    op = dilation_operator(fam.lam, rho, fam.truncation)
    with mp.workprec(53):
        cert = synthesis_certificate(op, fam)
    with mp.workprec(1024):
        text = repr((cert.finite_rank_enclosures, cert.item("kernel_trivial").value,
                     cert.kernel_min_singular))
    assert hashlib.sha256(text.encode()).hexdigest() == ENCLOSURE_DIGESTS[(kind, rho)]


@pytest.mark.parametrize("N", [6, 10])
def test_certificate_makes_one_floor_call(N, monkeypatch):
    # item 8 covers every partition with one kernel call on the inverses of
    # G and G^-1; a per-partition sample would show up here as more calls.
    # The trace of G lies far below lambda_max(G^-1), so that call iterates
    # the N x N inverse of G alone
    fam = dual_family(LAM_SQ, N, 256)
    op = dilation_operator(fam.lam, 0.5, N)
    kernel = completeness.perron_lambda_max
    sizes = []

    def counting(blocks, roundings, bits):
        sizes.append([len(B) for B in blocks])
        return kernel(blocks, roundings, bits)

    monkeypatch.setattr(completeness, "perron_lambda_max", counting)
    cert = synthesis_certificate(op, fam)
    assert sizes == [[N]]
    assert cert.item("mixed_system_sample").passed is True
