import csv
import json

import numpy as np
import pytest

from causalprod import cli
from causalprod.config import VERIFY_IDENTITY_CAP, RunConfig


def _run(argv):
    return cli.main(argv)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_coeffs_degree_one(tmp_path):
    out = tmp_path / "t.json"
    assert _run(["coeffs", "--s-max", "1", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert payload["schema"] == 1
    assert payload["all_match"] is True
    rows = payload["rows"]
    assert len(rows) == 2
    by_q = {row["q"]: row for row in rows}
    assert by_q[1]["D_closed"] == by_q[1]["D_brute"] == 1
    assert by_q[0]["E_closed"] == by_q[0]["E_brute"] == 1


def test_coeffs_reproduces_degree_three_tables(tmp_path):
    out = tmp_path / "t.json"
    assert _run(["coeffs", "--s-max", "3", "--out", str(out)]) == 0
    rows = _read_json(out)["rows"]
    d_table = {(r["m"], r["n"], r["p"], r["q"]): r["D_closed"] for r in rows if r["D_closed"]}
    assert d_table == {
        (0, 0, 0, 1): 1,
        (0, 0, 1, 1): 1, (1, 0, 0, 1): 1, (0, 1, 0, 2): 1,
        (0, 2, 0, 2): 1, (0, 2, 0, 3): 1, (0, 1, 1, 2): 1, (1, 1, 0, 2): 1, (1, 0, 1, 1): 1,
    }
    e_table = {(r["m"], r["n"], r["p"], r["q"]): r["E_closed"] for r in rows if r["E_closed"]}
    assert e_table == {(0, 0, 0, 0): 1, (1, 0, 1, 1): 1}


def test_coeffs_cap_refusal(tmp_path, capsys):
    assert _run(["coeffs", "--s-max", "9", "--out", str(tmp_path / "t.json")]) == 2
    assert "8" in capsys.readouterr().err


def test_coeffs_mismatch_sets_exit_status(tmp_path, monkeypatch):
    from causalprod import coefficients

    orig = coefficients.forward_count_closed

    def corrupted(m, n, p, q):
        val = orig(m, n, p, q)
        return val + 1 if (m, n, p, q) == (0, 0, 0, 1) else val

    monkeypatch.setattr(coefficients, "forward_count_closed", corrupted)
    assert _run(["coeffs", "--s-max", "1", "--out", str(tmp_path / "t.json")]) == 1


def test_coeffs_csv_headers(tmp_path):
    out = tmp_path / "t.csv"
    assert _run(["coeffs", "--s-max", "2", "--format", "csv", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "n", "p", "q", "D_closed", "D_brute", "E_closed", "E_brute", "match"]
    assert all(row[-1] == "1" for row in rows[1:])


def test_verify_report(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["verify", "--s-max", "4", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert payload["schema"] == 1
    assert payload["all_pass"] is True
    names = {row["name"] for row in payload["rows"]}
    assert names == {"catalan_recurrence", "unitarity_coefficient_identity",
                     "isometry_identity", "lommel_integral", "sonine_gegenbauer_integral"}
    assert all(row["pass"] == 1 for row in payload["rows"])


def test_verify_zero_parameter_exact(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["verify", "--lambda", "0", "--mu", "0", "--s-max", "3",
                 "--out", str(out)]) == 0
    payload = _read_json(out)
    iso = next(r for r in payload["rows"] if r["name"] == "isometry_identity")
    assert iso["residual"] == 0.0


def test_verify_detects_corrupted_table(tmp_path):
    from causalprod.coefficients import forward_count_closed

    def corrupted(m, n, p, q):
        val = forward_count_closed(m, n, p, q)
        return val + 1 if (m, n, p, q) == (1, 0, 1, 1) else val

    cfg = RunConfig(s_max=3, out=str(tmp_path / "r.json"))
    assert cli.cmd_verify(cfg, forward_count=corrupted) == 1
    payload = _read_json(tmp_path / "r.json")
    bad = next(r for r in payload["rows"] if r["name"] == "unitarity_coefficient_identity")
    assert bad["pass"] == 0 and bad["residual"] > 0


# q = -5 is read only as the right-hand factor; q = 10 = s_max + 2 is the window's top
@pytest.mark.parametrize("at", [(0, 0, 0, -5), (0, 8, 0, 10)])
def test_verify_detects_corruption_at_window_edges(tmp_path, at):
    from series_oracle import corrupted_count

    cfg = RunConfig(s_max=8, out=str(tmp_path / "r.json"))
    assert cli.cmd_verify(cfg, forward_count=corrupted_count(at)) == 1
    payload = _read_json(tmp_path / "r.json")
    bad = next(r for r in payload["rows"] if r["name"] == "unitarity_coefficient_identity")
    assert bad["pass"] == 0 and bad["residual"] > 0


def test_verify_cap_refusal(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert _run(["verify", "--s-max", str(VERIFY_IDENTITY_CAP + 1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refusing:") and err.count("\n") == 1
    assert str(VERIFY_IDENTITY_CAP) in err
    assert not out.exists()


def test_converge_artifact(tmp_path):
    out = tmp_path / "study.csv"
    assert _run(["converge", "--n-list", "10,20,40", "--format", "csv",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "max_error", "fitted_rate"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]


def test_converge_zero_parameter(tmp_path):
    out = tmp_path / "study.json"
    assert _run(["converge", "--lambda", "0", "--mu", "0", "--n-list", "10,20",
                 "--out", str(out)]) == 0
    payload = _read_json(out)
    assert [row["max_error"] for row in payload["rows"]] == [0.0, 0.0]


def test_converge_validation(tmp_path, capsys):
    assert _run(["converge", "--n-list", "40,20", "--out", str(tmp_path / "s.json")]) == 2
    assert _run(["converge", "--n-list", "10,4097", "--out", str(tmp_path / "s.json")]) == 2
    assert "4096" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--n-list", "1,2"],
    ["--n-list", ","],
    ["--lambda", "nan"],
    ["--tol", "inf"],
    ["--a=-inf"],
    ["--b", "inf"],
    ["--mu", "nan"],
    ["--a=-1e308", "--b", "1e308"],
    ["--lambda", "1e200", "--b", "1e200"],
    ["--lambda", "1e308", "--mu", "1e308"],
])
def test_converge_invalid_input_refused(tmp_path, capsys, args):
    assert _run(["converge", *args, "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--a=-1e308", "--b", "1e308", "--n", "3", "--s-max", "0"],
    ["verify", "--a=-1e308", "--b", "1e308", "--s-max", "2"],
])
def test_out_of_range_interval_refused(tmp_path, capsys, argv):
    # b - a overflows to inf; the kernel grid and the verify points would be inf
    out = tmp_path / "a.json"
    assert _run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert not out.exists()


def test_converge_non_finite_estimate_fails(tmp_path, capsys, monkeypatch):
    from causalprod import product

    monkeypatch.setattr(product, "apply_product",
                        lambda n, iv, nu, block: np.full(block.shape, np.nan, dtype=complex))
    assert _run(["converge", "--n-list", "10,20", "--out", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and err.count("\n") == 1
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv", [
    ["kernel", "--lambda", "1000", "--n", "3", "--s-max", "0"],
    ["verify", "--lambda", "1000", "--s-max", "2"],
])
def test_unsettled_series_fails_in_one_line(tmp_path, capsys, argv):
    out = tmp_path / "a.json"
    assert _run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and err.count("\n") == 1
    assert not out.exists()


def test_unwritable_out_refused_in_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert _run(["coeffs", "--s-max", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifact:") and err.count("\n") == 1
    assert not out.exists()


def test_kernel_grid(tmp_path):
    out = tmp_path / "grid.json"
    assert _run(["kernel", "--n", "7", "--s-max", "20", "--out", str(out)]) == 0
    payload = _read_json(out)
    rows = payload["rows"]
    assert len(rows) == 49
    for row in rows:
        if row["x"] == row["y"]:
            assert row["re"] == 0.0 and row["im"] == 0.0
    assert payload["max_series_diff"] < 1e-10


def test_kernel_grid_without_series_column(tmp_path):
    out = tmp_path / "grid.csv"
    assert _run(["kernel", "--n", "5", "--s-max", "0", "--format", "csv",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "y", "re", "im"]


def test_artifacts_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert _run(["kernel", "--n", "5", "--s-max", "8", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        assert _run(["converge", "--n-list", "10,20", "--format", "csv",
                     "--out", str(path)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_invalid_configuration_rejected(capsys):
    assert _run(["verify", "--a", "2", "--b", "1"]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--s-max", "x"],
    ["converge", "--seed", "1"],
    [],
])
def test_argument_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments:") and err.count("\n") == 1


def test_help_is_not_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["verify", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: causalprod verify") and "--s-max" in out and err == ""


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(fmt="xml")
    with pytest.raises(ValueError):
        RunConfig(s_max=99)
