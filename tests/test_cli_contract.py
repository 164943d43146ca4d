"""Byte contract of the CLI artifacts.

Each command runs on the README exponents (squares, N = 10; 16-term files
for two 64-bit runs: squares, which meet the residual target at 64 bits,
and p = 1.5, which escalates to 128 bits) and the README series, and
its artifact must hash to the recorded SHA-256 digest, so a change in any
printed digit, field or layout fails. The digests come from fresh
``muntz`` processes (53-bit ambient precision), which the in-process runs
below reproduce.

The operator certificate (squares, N = 10, 512 bits) is held to the digest
of the fields that do not rest on an iteration's last digits: the status,
every item's name, verdict and tolerance, the eigen and adjoint bounds,
the envelope bounds, the reported spectrum and the mixed-system floor.

The printed sigma_min of ``hereditary`` and the certificate's floor do
hold an iteration's last digits, so they are also checked against an
oracle at twice the bits (mpmath.eigsy on the exact blocks): a change of
the kernel behind them moves their digests but must keep these checks.
"""

import hashlib
import json

from mpmath import mp, mpf

from muntzlab import dual_family, working_precision
from muntzlab.cli import main
from muntzlab.reports import load_exponents

from conftest import identity_residual, mixed_sigma_oracle

# the duals files' biorthogonality_residual is the certified bound on
# G*M - I (pinned when it replaced the computed residual; no other byte
# moved), and lies above the oracle's residual (below)
DIGESTS = {
    "lambda.json": "c3ae84d1d1693db6b8e56a218bfba8842fbcbe15c60aa5144187570ddae5ef49",
    "lambda16.json": "fc7902a9d6f885d85fb54a0372c975009931ee3aedfb900bacc71db5e9a59dfd",
    "lambda15.json": "fd7baac3d580e0b35846c10e398ef0cf32744c7013babf119a6c7e58c810efee",
    "gram.json": "f214a669a344efd09e7abf14239018827b189051bcb92f7f7db3a9919efbdece",
    "dist.jsonl": "707994154972c6b5ce2961d6c0f6060739056f81eb827abe667aecc94f509ffe",
    "dist_eps.jsonl": "95671a832c6d4b26dad31060655320067f792a60e0a315acce0ff98397223fdf",
    "duals.json": "989fc1a90b6128af799cd52e895449f7b066d2501c6915a034d52cd488c313f7",
    "duals64.json": "4bc9951c97c35a28ebc97e1a0c2f4832b98270f0b5eb1bbb411e4e2ff85778fa",
    "duals512.json": "7dc9862b4e7eebeac8fad4ce3d09119e85bc1c147f69bd06a5b4086b7424a968",
    "duals16_64.json": "bcee934f9bf0f4f2594a408bb2c0eeb0cf6f2f3e40322c40b5d95814f8cc39ae",
    "duals15_64.json": "ba8a36db8add758d5d9cc6e8d6e2feae4af9d3c4df5382a0e74fe3d22ac3c588",
}

# bits each 16-term 64-bit run ends at: squares stay, p = 1.5 escalates once
BITS_USED = {"duals16_64.json": 64, "duals15_64.json": 128}

COMMANDS = [
    ["gen-exponents", "--kind", "power", "--p", "2", "--n", "10", "--out", "lambda.json"],
    ["gen-exponents", "--kind", "power", "--p", "2", "--n", "16", "--out", "lambda16.json"],
    ["gen-exponents", "--kind", "power", "--p", "1.5", "--n", "16", "--out", "lambda15.json"],
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
    ["biorthogonal", "--lambda", "lambda15.json", "--n", "16", "--bits", "64",
     "--out", "duals15_64.json"],
]


def test_gram_algebra_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    with mp.workprec(53):  # the ambient precision of a fresh muntz process
        for argv in COMMANDS:
            assert main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS}
    assert got == DIGESTS
    for name, bits in BITS_USED.items():
        assert json.loads((tmp_path / name).read_text())["precision_bits_used"] == bits
    for argv in COMMANDS:
        if argv[0] == "biorthogonal":
            opt = dict(zip(argv[1::2], argv[2::2]))
            fam = dual_family(load_exponents(opt["--lambda"]), int(opt["--n"]), int(opt["--bits"]))
            with working_precision(fam.precision_bits):
                assert identity_residual(fam.gram.entries, fam.inverse_rows) <= \
                    fam.biorthogonality_residual


SERIES = {"lambda_ref": "lambda.json", "coeffs": [[1, 0], [0.5, 0]], "rule": {"name": "inv_n"}}

SERIES_DIGESTS = {
    "proj.json": "25ec28cb1747f497bccc47b107e851ca95d4561093a8af78ab558bbcda5b68a4",
    "rec.jsonl": "173048362f1a045560ed5567a8e181781b27f7c3ec9fc16483aaaed87a2dbcad",
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

# pinned when the eigen and adjoint residuals became bounds from the
# family's certified G*M - I bound: of these fields only those two moved,
# each up (above the residuals the parent computed); every verdict kept
CERTIFICATE_DIGESTS = {
    "0.3": "6eed7c543132e2b87de78fd1c6b7c3074ce72baea1d0c52ec43e8632186e60c3",
    "0.5": "1af430bb6942b90b031b87419a43acd3e1496b96f70ed97e7e2e15a4dcf11040",
    "0.8": "8c136bef808d77bd4429c44611a6dde4a3b5d97b7fcf99272988c0f338785c30",
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
