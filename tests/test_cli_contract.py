"""Byte contract of the Gram-algebra artifacts.

Each command runs on the README exponents (squares, N = 10; a 16-term file
for the 64-bit run that escalates to 128 bits) and its artifact must hash
to the recorded SHA-256 digest, so a change in any printed digit, field or
layout fails. The digests come from fresh ``muntz`` processes (53-bit
ambient precision), which the in-process runs below reproduce.
"""

import hashlib

from mpmath import mp

from muntzlab.cli import main

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
