import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from muntzlab import cli, dual_family, project, working_precision
from muntzlab.cli import main
from muntzlab.reports import load_series

LAMBDA_SQUARES = None


@pytest.fixture()
def lambda_file(tmp_path):
    path = tmp_path / "lambda.json"
    assert main(["gen-exponents", "--kind", "power", "--p", "2", "--n", "10",
                 "--out", str(path)]) == 0
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_gen_exponents_values(lambda_file):
    data = read_json(lambda_file)
    assert data["values"] == [1, 4, 9, 16, 25, 36, 49, 64, 81, 100]
    assert data["kind"] == "power"
    assert data["delta"] == 3.0


def test_gen_exponents_bad_params_exit_code(tmp_path, capsys):
    rc = main(["gen-exponents", "--kind", "power", "--p", "1", "--n", "3",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_format_flag_belongs_to_gram_alone(lambda_file, tmp_path):
    # only gram writes CSV or JSON on request; elsewhere --format is a usage
    # error.  Likewise only hereditary samples, so --seed is its flag alone
    for flag in (["--format", "csv"], ["--seed", "5"]):
        with pytest.raises(SystemExit) as info:
            main(["biorthogonal", "--lambda", str(lambda_file), "--n", "3", *flag,
                  "--out", str(tmp_path / "duals.json")])
        assert info.value.code == 2
        assert not (tmp_path / "duals.json").exists()
    out = tmp_path / "mixed.csv"
    assert main(["hereditary", "--lambda", str(lambda_file), "--n", "3",
                 "--partitions", "sample:4", "--seed", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text().splitlines()[0][len("# config "):])["seed"] == 5


def test_gram_csv_decimal_strings(lambda_file, tmp_path):
    out = tmp_path / "gram.csv"
    assert main(["gram", "--lambda", str(lambda_file), "--n", "3", "--bits", "256",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "g1,g2,g3"
    first = lines[2].split(",")[0]
    assert abs(mpf(first) - mpf(1) / 3) < mpf(10) ** -70
    assert len(first) > 60  # full-precision decimal, not a float repr


@pytest.mark.parametrize("flag, suffix, written", [
    (["--format", "json"], ".csv", "json"),
    (["--format", "csv"], ".json", "csv"),
    ([], ".csv", "csv"),
    ([], ".json", "json"),
], ids=["json_flag_csv_path", "csv_flag_json_path", "csv_path", "json_path"])
def test_gram_writes_and_records_one_format(lambda_file, tmp_path, flag, suffix, written):
    # --format if given, else CSV for a .csv --out path, else JSON; the
    # config records the bits and seed alone, in either format
    out = tmp_path / ("gram" + suffix)
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2", *flag, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    if written == "csv":
        assert lines[0].startswith("# config ") and lines[1] == "g1,g2"
        config = json.loads(lines[0][len("# config "):])
    else:
        data = json.loads("\n".join(lines))
        assert len(data["entries"]) == 2
        config = data["config"]
    assert set(config) == {"precision_bits", "seed"}


@pytest.mark.parametrize("text", [
    '{"precision_bits": "256"}',
    '[1, 2]',
    '{bad',
    '{"seed": "x"}',
    '{"precision_bits": 128.5}',
    '{"tolerances": {"eigen_residual": 1e-300}}',
    '{"output_format": "csv"}',
], ids=["bits_string", "list", "not_json", "seed_string", "bits_float", "tolerances",
        "output_format"])
def test_malformed_config_is_typed_error(lambda_file, tmp_path, capsys, text):
    # a --config file holds precision_bits and seed, both integers, and
    # nothing else; anything more or other is a ParameterError, no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "g.json"
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2", "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
    assert not out.exists()


def test_distance_json_lines(lambda_file, tmp_path):
    out = tmp_path / "dist.jsonl"
    assert main(["distance", "--lambda", str(lambda_file), "--n", "4", "--all",
                 "--eps", "0.5", "--out", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert abs(mpf(r["distance"]) * mpf(r["dual_norm"]) - 1) < mpf(10) ** -25
        assert r["epsilon"] == 0.5
        assert r["config"]["precision_bits"] == 256


def test_biorthogonal_artifact_round_trip(lambda_file, tmp_path):
    out = tmp_path / "duals.json"
    assert main(["biorthogonal", "--lambda", str(lambda_file), "--n", "4",
                 "--out", str(out)]) == 0
    data = read_json(out)
    assert data["truncation"] == 4
    assert mpf(data["biorthogonality_residual"]) < mpf(10) ** -40
    coeffs = data["coefficients"]
    # <e_1, r_1> = sum_k coeffs[k][0] / (lambda_k + lambda_1 + 1) = 1
    lam = data["lambda"]["values"]
    pairing = sum(mpf(coeffs[k][0]) / (lam[k] + lam[0] + 1) for k in range(4))
    assert abs(pairing - 1) < mpf(10) ** -40


def test_project_and_recover(lambda_file, tmp_path):
    series = tmp_path / "series.json"
    series.write_text(json.dumps({
        "lambda_ref": "lambda.json",
        "coeffs": [[1, 0], [0, 0], [2, 0]],
    }))
    out = tmp_path / "proj.json"
    assert main(["project", "--f", str(series), "--n", "5", "--out", str(out)]) == 0
    proj = read_json(out)
    assert mpf(proj["residual"]) < mpf(10) ** -40
    assert abs(mpf(proj["coefficients"][0][0]) - 1) < mpf(10) ** -40
    assert abs(mpf(proj["coefficients"][2][0]) - 2) < mpf(10) ** -40

    rec = tmp_path / "rec.jsonl"
    assert main(["recover", "--f", str(series), "--n", "5", "--all", "--out", str(rec)]) == 0
    rows = [json.loads(line) for line in rec.read_text().splitlines()]
    assert len(rows) == 5
    assert abs(mpf(rows[2]["coefficient"][0]) - 2) < mpf(10) ** -40


@pytest.mark.parametrize("index", ["0", "-1", "7"])
def test_index_outside_the_truncation_is_typed_error(lambda_file, tmp_path, capsys, index,
                                                    monkeypatch):
    # checked on every path: picked by position, 0 and -1 would name the last
    # report or coefficient.  recover checks it before building any dual
    def no_family(*args):
        pytest.fail("dual_family called on a bad --index")

    monkeypatch.setattr(cli.biorthogonal, "dual_family", no_family)
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"lambda_ref": "lambda.json", "coeffs": [[1, 0], [0, 0], [2, 0]]}))
    out = tmp_path / "rows.jsonl"
    for argv in (["distance", "--lambda", str(lambda_file), "--n", "6", "--eps", "0.5"],
                 ["distance", "--lambda", str(lambda_file), "--n", "6"],
                 ["recover", "--f", str(series), "--n", "6"]):
        capsys.readouterr()
        assert main(argv + ["--index", index, "--out", str(out)]) == 1, argv
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError", argv
        assert "outside 1..6" in err["message"], argv
        assert not out.exists()


def test_recover_keeps_the_error_of_a_bad_n(lambda_file, tmp_path, capsys):
    # --index is checked against --n only when --n is a valid truncation
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"lambda_ref": "lambda.json", "coeffs": [[1, 0]]}))
    for n, error in (("0", "ParameterError"), ("99", "InputError")):
        capsys.readouterr()
        assert main(["recover", "--f", str(series), "--n", n, "--index", "7"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error and "--index" not in err["message"], n


def test_project_artifact_carries_full_precision(lambda_file, tmp_path):
    # t + t^16 projected onto span{t, t^4, t^9}: coefficients no double holds
    series = tmp_path / "series.json"
    series.write_text(json.dumps({
        "lambda_ref": "lambda.json",
        "coeffs": [[1, 0], [0, 0], [0, 0], [1, 0]],
    }))
    out = tmp_path / "proj.json"
    with mp.workprec(53):  # the ambient precision of a fresh muntz process
        assert main(["project", "--f", str(series), "--n", "3", "--bits", "256",
                     "--out", str(out)]) == 0
    got = read_json(out)["coefficients"]
    f = load_series(str(series))
    want = project(f, dual_family(f.lam, 3, 256)).coeffs
    with working_precision(256):
        for (re, im), w in zip(got, want):
            assert abs(mpc(mpf(re), mpf(im)) - mpc(w)) < mpf(10) ** -64


def test_eval_complex_point(lambda_file, tmp_path):
    series = tmp_path / "series.json"
    series.write_text(json.dumps({"lambda_ref": "lambda.json", "coeffs": [[1, 0], [1, 0]]}))
    out = tmp_path / "eval.json"
    assert main(["eval", "--f", str(series), "--z", "0.5+0i", "--out", str(out)]) == 0
    value = read_json(out)["value"]
    assert abs(mpf(value[0]) - (mpf("0.5") + mpf("0.5") ** 4)) < mpf(10) ** -40
    assert mpf(value[1]) == 0


def test_operator_certify_artifact(lambda_file, tmp_path):
    lam12 = tmp_path / "lam12.json"
    assert main(["gen-exponents", "--kind", "integers", "--values", "1,2", "--n", "2",
                 "--out", str(lam12)]) == 0
    out = tmp_path / "cert.json"
    assert main(["operator", "certify", "--lambda", str(lam12), "--rho", "0.5",
                 "--n", "2", "--out", str(out)]) == 0
    cert = read_json(out)
    assert cert["status"] == "pass"
    assert abs(float(mpf(cert["normality_defect"])) - 1.36931) < 1e-4
    names = [item["name"] for item in cert["items"]]
    assert len(names) == 8 and len(set(names)) == 8
    moduli = sorted(abs(mpf(s[0])) for s in cert["spectrum"])
    assert [float(m) for m in moduli] == pytest.approx([0.0, 0.25, 0.5])


def test_hereditary_sweep(lambda_file, tmp_path):
    out = tmp_path / "mixed.csv"
    assert main(["hereditary", "--lambda", str(lambda_file), "--n", "4",
                 "--partitions", "all", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 16
    assert all(r[-1] == "1" for r in rows)

    rc = main(["hereditary", "--lambda", str(lambda_file), "--n", "4",
               "--partitions", "sample:bad", "--out", str(out)])
    assert rc == 1


def test_hardy_report(lambda_file, tmp_path):
    out = tmp_path / "hardy.json"
    assert main(["hardy", "--lambda", str(lambda_file), "--rule", "inv_n",
                 "--k", "200", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["member"] == "yes"
    assert data["certificate"] == "convergent"
    ks = [k for k, _ in data["quadratic_form_partial_sums"]]
    assert ks[-1] == 200

    assert main(["hardy", "--lambda", str(lambda_file), "--rule", "inv_sqrt_n",
                 "--k", "200", "--out", str(out)]) == 0
    assert read_json(out)["member"] == "no"


def test_hardy_radial_report(lambda_file, tmp_path):
    out = tmp_path / "hardy.json"
    assert main(["hardy", "--lambda", str(lambda_file), "--rule", "inv_n", "--k", "100",
                 "--theta", "0.5", "--bits", "64", "--out", str(out)]) == 0
    radial = read_json(out)["radial"]["0.5"]
    with working_precision(64):
        assert mpf(radial["integral"]) + mpf(radial["remainder"]) <= mpf(radial["bound"])
        assert 0 < mpf(radial["quad_error"]) < 1e-10


def test_hardy_radial_integers_kind_is_typed_error(tmp_path, capsys):
    lam = tmp_path / "ints.json"
    assert main(["gen-exponents", "--kind", "integers", "--values", "1,4,9,16", "--n", "4",
                 "--out", str(lam)]) == 0
    capsys.readouterr()
    rc = main(["hardy", "--lambda", str(lam), "--rule", "inv_n", "--k", "4", "--theta", "0.5"])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"


def test_hardy_short_integers_file(tmp_path):
    # the default --k 1000 runs past a 5-value file that cannot be extended
    lam = tmp_path / "ints.json"
    assert main(["gen-exponents", "--kind", "integers", "--values", "1,4,9,16,25", "--n", "5",
                 "--out", str(lam)]) == 0
    out = tmp_path / "hardy.json"
    assert main(["hardy", "--lambda", str(lam), "--rule", "inv_n", "--out", str(out)]) == 0
    data = read_json(out)
    assert [k for k, _ in data["quadratic_form_partial_sums"]] == [1, 2, 5]
    assert data["l2_coefficient_partial_sums"][-1][0] == 5


@pytest.mark.parametrize("k", ["0", "-3"])
def test_hardy_nonpositive_k_is_typed_error(lambda_file, tmp_path, capsys, k):
    out = tmp_path / "hardy.json"
    rc = main(["hardy", "--lambda", str(lambda_file), "--rule", "inv_n", "--k", k,
               "--out", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InputError"
    assert not out.exists()


def test_decimal_inputs_carry_the_stated_bits(tmp_path):
    lam = tmp_path / "lam1.json"
    assert main(["gen-exponents", "--kind", "integers", "--values", "1", "--n", "1",
                 "--out", str(lam)]) == 0
    series = tmp_path / "series.json"
    series.write_text('{"lambda_ref": "lam1.json", "coeffs": [[0.1, 0]]}')
    out = tmp_path / "eval.json"
    with mp.workprec(53):  # the ambient precision of a fresh muntz process
        assert main(["eval", "--f", str(series), "--z=0.3+0.4i", "--bits", "256",
                     "--out", str(out)]) == 0
    data = read_json(out)
    with mp.workprec(320):
        tol = mpf(2) ** -256
        z = mpc(mpf(data["z"][0]), mpf(data["z"][1]))
        assert abs(z - mpc("0.3", "0.4")) < tol
        # 0.1 * z = 0.03 + 0.04i: neither the coefficient nor z went through a double
        value = mpc(mpf(data["value"][0]), mpf(data["value"][1]))
        assert abs(value - mpc("0.03", "0.04")) < tol
        assert abs(load_series(str(series), 256).coeffs[0] - mpf("0.1")) < tol / 10


def test_determinism_byte_identical(lambda_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["operator", "certify", "--lambda", str(lambda_file), "--rho", "0.5", "--n", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_var_default_precision(lambda_file, tmp_path, monkeypatch):
    monkeypatch.setenv("MUNTZ_PRECISION_BITS", "128")
    out = tmp_path / "g.json"
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2", "--out", str(out)]) == 0
    assert read_json(out)["config"]["precision_bits"] == 128
    monkeypatch.setenv("MUNTZ_PRECISION_BITS", "banana")
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2", "--out", str(out)]) == 1


def test_config_file_with_flag_override(lambda_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"precision_bits": 128, "seed": 9}))
    out = tmp_path / "g.json"
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2",
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out)["config"]["precision_bits"] == 128
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2",
                 "--config", str(cfg), "--bits", "192", "--out", str(out)]) == 0
    data = read_json(out)
    assert data["config"]["precision_bits"] == 192
    assert data["config"]["seed"] == 9


def test_bits_below_64_is_typed_error(lambda_file, tmp_path, capsys):
    # --bits 0 is refused like any other value below 64, not read as unset
    out = tmp_path / "g.json"
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2", "--bits", "0",
                 "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
    assert not out.exists()


def test_missing_file_is_reported(tmp_path, capsys):
    rc = main(["gram", "--lambda", str(tmp_path / "nope.json"), "--n", "2"])
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().err)


def test_stdout_when_no_out_flag(lambda_file, capsys):
    assert main(["gram", "--lambda", str(lambda_file), "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "entries" in payload and "config" in payload


def test_cli_import_leaves_numpy_out():
    # numpy is imported only by the float paths (approximate_in_span,
    # quadratic_form_partial_sums), not on the command line's import path
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, muntzlab.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
