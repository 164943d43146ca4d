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
# moved), and lies above the oracle's residual (below).  Every digest but
# the lambda files' was re-pinned when the config block came down to
# precision_bits and seed: each parent artifact with its config's
# tolerances and output_format deleted, re-serialised by the same dumper,
# hashes to the digest here
DIGESTS = {
    "lambda.json": "c3ae84d1d1693db6b8e56a218bfba8842fbcbe15c60aa5144187570ddae5ef49",
    "lambda16.json": "fc7902a9d6f885d85fb54a0372c975009931ee3aedfb900bacc71db5e9a59dfd",
    "lambda15.json": "fd7baac3d580e0b35846c10e398ef0cf32744c7013babf119a6c7e58c810efee",
    "gram.json": "28faaa4a018f4784aff0a8e44a9c49db802ffb033a0294317634db115d8e0812",
    "dist.jsonl": "186d11efb4070524ae3cc06b88b15d873876ef941b3d5ba93331483f838a2cf6",
    "dist_eps.jsonl": "c64dec454edd2cdcef1be31e07aed419e17b193ae82e081fddd2f02a1ef2b0fb",
    "duals.json": "1f9df3b6a45c917405a1fc41fa405998d4f65d0f1d2132d2d4f3da20d57d97e2",
    "duals64.json": "0966469beb091c065e4f6e4eca13e642bb12298ef2c7039fe815a57eae0836ba",
    "duals512.json": "c99b4d97e1dba65cb9f0252997deede9516ff69a472b0c8202970ce2456e3780",
    "duals16_64.json": "47e4ce0ae84664f596fca7bfa1b27596db69027fece882ff071f0897e0ddac8a",
    "duals15_64.json": "de56f7009379640c4ec7f2283e7728c41929b9fa2810db4d063c37da87bc70b8",
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
    "proj.json": "78c7d2090aa40be85ce28cd2e236fdba269506a130bded01e7fd3031e1b215ab",
    "rec.jsonl": "9b6c2ae9eb9e57fe22830ea740f03abc914431e6efd8c2f6c2841613cbec4d26",
    "eval.json": "776e58b9ccd2313113612569c21b00d4bcd7d5a532eab6231517be25cbed4d85",
    "mixed.csv": "728b4b11fc02f320b3504ec7c265876ee4c5f6508b21f65ce57d1b0390e7978b",
    "hardy.json": "8cf4fa909cfeebb8013f07ef59ccfacfe65dfbc84153e303ed92b0a86de57518",
    "radial.json": "17a8dd765ed086d0d546a731024d3796e9bac0acaa94662214984b6dd173e9bb",
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
# each up (above the residuals the parent computed); every verdict kept.
# Re-pinned when items 2 and 3 took the tolerance 10^(-bits/8) in place of
# the fixed 1e-40: the parent's contract with those two tolerances set to
# 1e-64 (512 bits) hashes to the digest here; no verdict moved.
# Re-pinned when the verdicts came to rest on certified ends alone: the
# parent's contract with the kernel_trivial and mixed_system_sample
# tolerances set to 0.0 and, at rho = 0.8 only, finite_rank_decay and the
# status set to pass hashes to the digest here; no value moved
CERTIFICATE_DIGESTS = {
    "0.3": "86acd81c5ed2cfab573ebf8e933902fde1218e6a5631d563a1cccc3e2f2b153d",
    "0.5": "e2034915440884f8ed0fcb4abe5c0d0d536a4a9202548df8d49ce06e36392cb9",
    "0.8": "9877b65e2636af12aa36b79345e674d12a7daa809ae4b394da3dbc58ca92e2c5",
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
            assert data["status"] == "pass"
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


def test_every_config_block_holds_bits_and_seed_alone(tmp_path, monkeypatch):
    # the run config is precision_bits and seed; no threshold or format is
    # recorded.  The exponent files carry no config block
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MUNTZ_PRECISION_BITS", raising=False)
    (tmp_path / "series.json").write_text(json.dumps(SERIES))
    with mp.workprec(53):
        for argv in COMMANDS + SERIES_COMMANDS + [
                ["operator", "certify", "--lambda", "lambda.json", "--rho", "0.5",
                 "--n", "10", "--bits", "512", "--out", "cert.json"]]:
            assert main(argv) == 0, argv
    names = list(DIGESTS) + list(SERIES_DIGESTS) + ["cert.json"]
    for name in names:
        text = (tmp_path / name).read_text()
        if name.startswith("lambda"):
            assert "config" not in json.loads(text), name
            continue
        if name.endswith(".csv"):
            configs = [json.loads(text.splitlines()[0][len("# config "):])]
        elif name.endswith(".jsonl"):
            configs = [json.loads(line)["config"] for line in text.splitlines()]
        else:
            configs = [json.loads(text)["config"]]
        assert configs and all(set(c) == {"precision_bits", "seed"} for c in configs), name
