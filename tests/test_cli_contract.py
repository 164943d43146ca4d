"""Byte contract of the CLI artifacts.

Each command runs on the README exponents (squares, N = 10; a 16-term file
for the 64-bit run that escalates to 128 bits) and the README series, and
its artifact must hash to the recorded SHA-256 digest, so a change in any
printed digit, field or layout fails. The digests come from fresh
``muntz`` processes (53-bit ambient precision), which the in-process runs
below reproduce.

The operator certificate (squares, N = 10, 512 bits) is held to the digest
of the fields that do not rest on an iteration's last digits: the status,
every item's name, verdict and tolerance, the eigen and adjoint residuals,
the envelope bounds, the reported spectrum and the mixed-system floor.

The printed sigma_min of ``hereditary`` and the certificate's floor do
hold an iteration's last digits, so they are also checked against an
oracle at twice the bits (mpmath.eigsy on the exact blocks): a change of
the kernel behind them moves their digests but must keep these checks.
"""

import hashlib
import json

from mpmath import mp, mpf

from muntzlab.cli import main

from conftest import mixed_sigma_oracle

DIGESTS = {
    "lambda.json": "c3ae84d1d1693db6b8e56a218bfba8842fbcbe15c60aa5144187570ddae5ef49",
    "lambda16.json": "fc7902a9d6f885d85fb54a0372c975009931ee3aedfb900bacc71db5e9a59dfd",
    "gram.json": "f214a669a344efd09e7abf14239018827b189051bcb92f7f7db3a9919efbdece",
    "dist.jsonl": "df0ce83000471b419c415e9a7d2538b67a11bcdc49357f0ec9bcc7c67ddaa8b4",
    "dist_eps.jsonl": "448130dc0d42a899b3edd474b9ea75924614d3dd75dcd64c68370f8cd3cdcbda",
    "duals.json": "99fe621ce799a5e450983423fd76d44b22cc778e6bb190a7fee6b5c7a629493c",
    "duals64.json": "b4611421ca23ef9884f13c14d515566ba0bd18aee73dede851df581487140c14",
    "duals512.json": "6513cc7bc1275860fe69f736defa0eacfd171cadbdbee57fff18b93bf77a115c",
    "duals16_64.json": "20a4c3831080057814ffaff7c68b118f08e79732686dba1fb399a29e89fe8a47",
}

COMMANDS = [
    ["gen-exponents", "--kind", "power", "--p", "2", "--n", "10", "--out", "lambda.json"],
    ["gen-exponents", "--kind", "power", "--p", "2", "--n", "16", "--out", "lambda16.json"],
    ["gram", "--lambda", "lambda.json", "--n", "10", "--bits", "256", "--format", "json",
     "--out", "gram.json"],
    ["distance", "--lambda", "lambda.json", "--n", "10", "--all", "--out", "dist.jsonl"],
    ["distance", "--lambda", "lambda.json", "--n", "10", "--all", "--eps", "0.5",
     "--out", "dist_eps.jsonl"],
    ["biorthogonal", "--lambda", "lambda.json", "--n", "10", "--bits", "256", "--out", "duals.json"],
    ["biorthogonal", "--lambda", "lambda.json", "--n", "10", "--bits", "64", "--out", "duals64.json"],
    ["biorthogonal", "--lambda", "lambda.json", "--n", "10", "--bits", "512", "--out", "duals512.json"],
    ["biorthogonal", "--lambda", "lambda16.json", "--n", "16", "--bits", "64",
     "--out", "duals16_64.json"],
]


def test_gram_algebra_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    with mp.workprec(53):  # the ambient precision of a fresh muntz process
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS


SERIES = {"lambda_ref": "lambda.json", "coeffs": [[1, 0], [0.5, 0]], "rule": {"name": "inv_n"}}

SERIES_DIGESTS = {
    "proj.json": "07d076b185b5343f4ad0f4a8080fe90076dc17d81cde8a2db140512672e8dc29",
    "rec.jsonl": "ca2bb1b95eb15abcadb7c7f1df6fe54444573b332f6a5fa947e4c225a4aca1cf",
    "eval.json": "5821b0b57463afea9811180248e8cdfcb38e8bd4272f1aef96a14e638de2cd3a",
    "mixed.csv": "b296ac87fc8ffc77899048484a635a37713e4bb9c05e09e6204c1073e5612ad2",
    "hardy.json": "186694a3aa5dcc64567cd55ba58fdbde01f211b9562e226d5da6f89bb309d355",
    "radial.json": "5588d7e94d078a9a98e820cfade16f5137d402d3da5d8bce95ea7db44d591f9d",
}

SERIES_COMMANDS = [
    ["gen-exponents", "--kind", "power", "--p", "2", "--n", "10", "--out", "lambda.json"],
    ["project", "--f", "series.json", "--n", "10", "--out", "proj.json"],
    ["recover", "--f", "series.json", "--n", "10", "--all", "--out", "rec.jsonl"],
    ["eval", "--f", "series.json", "--z", "0.5+0i", "--out", "eval.json"],
    ["hereditary", "--lambda", "lambda.json", "--n", "8", "--partitions", "all", "--out", "mixed.csv"],
    ["hardy", "--lambda", "lambda.json", "--rule", "inv_n", "--k", "1000", "--out", "hardy.json"],
    ["hardy", "--lambda", "lambda.json", "--rule", "inv_n", "--k", "100", "--theta", "0",
     "--out", "radial.json"],
]

CERTIFICATE_DIGESTS = {
    "0.3": "eaf7ef8c7a58296a94f981dd11f45f2e20b42363ab02f6513843a2d312ef56e4",
    "0.5": "0793eca2d101241540defb28e7561ef840b0811084f1c9f2485e0e689707a910",
    "0.8": "b03a44e0253ca218fa75e8d466e9db3aaad41a73a97582c98e4826eeed035b2a",
}


def _certificate_contract(data):
    floor = next(it["value"] for it in data["items"] if it["name"] == "mixed_system_sample")
    kept = {"status": data["status"],
            "items": [[it["name"], it["passed"], it["tolerance"]] for it in data["items"]],
            "eigen_residual": data["eigen_residual"], "adjoint_residual": data["adjoint_residual"],
            "envelope": [b for _, _, b in data["finite_rank_errors"]],
            "spectrum": data["spectrum"], "floor": floor}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()


def test_series_and_verdict_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    (tmp_path / "series.json").write_text(json.dumps(SERIES))
    with mp.workprec(53):
        for argv in SERIES_COMMANDS:
            assert main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in SERIES_DIGESTS}
    assert got == SERIES_DIGESTS


def test_hereditary_rows_hold_against_the_oracle(tmp_path, monkeypatch):
    # every printed sigma_min within 1e-20 of the oracle, every system invertible
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    with mp.workprec(53):
        assert main(SERIES_COMMANDS[0]) == 0
        assert main(SERIES_COMMANDS[4]) == 0
    # the monomial indices are an unquoted comma list: split from the right
    rows = [line.rsplit(",", 3) for line in (tmp_path / "mixed.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == ["monomial_indices", "monomial_count", "sigma_min", "invertible"]
    oracle = mixed_sigma_oracle([k * k for k in range(1, 9)], 512)
    assert len(rows) == 257
    for key, _, sigma, invertible in rows[1:]:
        n1 = set() if key == "-" else {int(k) for k in key.split(",")}
        want = oracle(n1, set(range(1, 9)) - n1)
        with mp.workprec(512):
            assert abs(mpf(sigma) - want) <= mpf(10) ** -20 * want, key
        assert invertible == "1"


def test_certificate_verdicts_and_exact_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    got, floors = {}, []
    with mp.workprec(53):
        assert main(COMMANDS[0]) == 0
        for rho in CERTIFICATE_DIGESTS:
            assert main(["operator", "certify", "--lambda", "lambda.json", "--rho", rho,
                         "--n", "10", "--bits", "512", "--out", "cert.json"]) == 0
            data = json.loads((tmp_path / "cert.json").read_text())
            assert data["status"] == ("fail" if rho == "0.8" else "pass")
            got[rho] = _certificate_contract(data)
            floors.append(next(it["value"] for it in data["items"]
                               if it["name"] == "mixed_system_sample"))
    # the floor is the certified lower end of min(sigma_min) over all partitions
    everything = set(range(1, 11))
    oracle = mixed_sigma_oracle([k * k for k in range(1, 11)], 1024)
    want = min(oracle(everything, set()), oracle(set(), everything))
    with mp.workprec(1024):
        assert all(mpf(floor) <= want for floor in floors)
    assert got == CERTIFICATE_DIGESTS
