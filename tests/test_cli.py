import csv
import json
import re

import numpy as np
import pytest

from causalprod import cli, kernel
from causalprod.config import KERNEL_GRID_CAP, QUADRATURE_CELLS, VERIFY_IDENTITY_CAP, RunConfig


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


def test_coeffs_mismatch_sets_exit_status(tmp_path, capsys, monkeypatch):
    from causalprod import coefficients

    orig = coefficients.forward_count_closed

    def corrupted(m, n, p, q):
        val = orig(m, n, p, q)
        return val + 1 if (m, n, p, q) == (0, 0, 0, 1) else val

    monkeypatch.setattr(coefficients, "forward_count_closed", corrupted)
    assert _run(["coeffs", "--s-max", "1", "--out", str(tmp_path / "t.json")]) == 1
    # one line, after the artifact, naming the mismatch
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and err.count("\n") == 1
    assert "(0, 0, 0, 1)" in err
    assert _read_json(tmp_path / "t.json")["all_match"] is False


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


@pytest.mark.parametrize("s", [1e7, 1e-6])
def test_verify_isometry_residual_is_scale_free(tmp_path, s):
    # nu -> s nu, (a, b) -> (a/s, b/s) keeps every kernel argument; the defect
    # scales by s, and (b - a) times it, which verify reports, does not
    def residual(lam, mu, b):
        out = tmp_path / "report.json"
        assert _run(["verify", "--lambda", repr(lam), "--mu", repr(mu), "--a", "0",
                     "--b", repr(b), "--s-max", "1", "--out", str(out)]) == 0
        return next(r["residual"] for r in _read_json(out)["rows"]
                    if r["name"] == "isometry_identity")

    assert abs(residual(0.6 * s, 0.8 * s, 1.0 / s) - residual(0.6, 0.8, 1.0)) < 1e-14


def test_verify_zero_parameter_exact(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["verify", "--lambda", "0", "--mu", "0", "--s-max", "3",
                 "--out", str(out)]) == 0
    payload = _read_json(out)
    iso = next(r for r in payload["rows"] if r["name"] == "isometry_identity")
    assert iso["residual"] == 0.0


def test_verify_detects_corrupted_table(tmp_path, capsys, monkeypatch):
    from causalprod import coefficients
    from series_oracle import corrupted_count

    cfg = RunConfig("verify", s_max=3, out=str(tmp_path / "r.json"))
    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "forward_count_closed", corrupted_count((1, 0, 1, 1)))
        assert cli.cmd_verify(cfg) == 1
    payload = _read_json(tmp_path / "r.json")
    bad = next(r for r in payload["rows"] if r["name"] == "unitarity_coefficient_identity")
    assert bad["pass"] == 0 and bad["residual"] > 0
    assert capsys.readouterr().err == "check failed: unitarity_coefficient_identity\n"
    # a tolerance below every floating-point residual fails the three quadrature checks
    out = tmp_path / "tight.json"
    assert _run(["verify", "--s-max", "3", "--tol", "1e-300", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "check failed: isometry_identity; lommel_integral; sonine_gegenbauer_integral\n"
    assert [r["pass"] for r in _read_json(out)["rows"]] == [1, 1, 0, 0, 0]


# q = -5 is read only as the right-hand factor; q = 10 = s_max + 2 is the window's top
@pytest.mark.parametrize("at", [(0, 0, 0, -5), (0, 8, 0, 10)])
def test_verify_detects_corruption_at_window_edges(tmp_path, at, monkeypatch):
    from causalprod import coefficients
    from series_oracle import corrupted_count

    monkeypatch.setattr(coefficients, "forward_count_closed", corrupted_count(at))
    cfg = RunConfig("verify", s_max=8, out=str(tmp_path / "r.json"))
    assert cli.cmd_verify(cfg) == 1
    payload = _read_json(tmp_path / "r.json")
    bad = next(r for r in payload["rows"] if r["name"] == "unitarity_coefficient_identity")
    assert bad["pass"] == 0 and bad["residual"] > 0


def test_verify_refuses_identity_overflow(tmp_path, capsys, monkeypatch):
    """A count of 2**61 could carry the exact int64 sums past range: exit 1, no artifact."""
    from causalprod import coefficients

    closed = coefficients.forward_count_closed

    def huge(m, n, p, q):
        return 2 ** 61 if (m, n, p, q) == (1, 0, 1, 1) else closed(m, n, p, q)

    monkeypatch.setattr(coefficients, "forward_count_closed", huge)
    out = tmp_path / "r.json"
    assert _run(["verify", "--s-max", "6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and err.count("\n") == 1
    assert not out.exists()


def test_verify_at_its_cap(tmp_path):
    out = tmp_path / "r.json"
    assert _run(["verify", "--s-max", str(VERIFY_IDENTITY_CAP), "--out", str(out)]) == 0
    row = next(r for r in _read_json(out)["rows"] if r["name"] == "unitarity_coefficient_identity")
    assert row["params"] == f"alpha+beta+gamma <= {VERIFY_IDENTITY_CAP}"
    assert row["pass"] == 1 and row["residual"] == 0.0


def test_verify_cap_refusal(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert _run(["verify", "--s-max", str(VERIFY_IDENTITY_CAP + 1), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert str(VERIFY_IDENTITY_CAP) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, cap", [
    (["coeffs", "--s-max", "9"], 8),
    (["verify", "--s-max", "21"], 20),
    (["kernel", "--s-max", "41"], 40),
    (["converge", "--n-list", "10,4097"], 4096),
    (["kernel", "--n", "129", "--s-max", "0"], 128),
])
def test_each_command_refuses_one_past_its_limit(tmp_path, capsys, argv, cap):
    out = tmp_path / "a.json"
    assert _run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert str(cap) in err
    assert not out.exists()


def test_kernel_grid_cap_admits_the_wide_grid():
    # the kernel-wide benchmark workload runs --n 121; --n is kernel's flag only
    assert RunConfig("kernel", n=121, s_max=0).n == 121
    assert RunConfig("kernel", n=KERNEL_GRID_CAP).n == KERNEL_GRID_CAP
    assert RunConfig("verify", n=10**6).n == 10**6


def test_converge_artifact(tmp_path):
    out = tmp_path / "study.csv"
    assert _run(["converge", "--n-list", "10,20,40", "--format", "csv",
                 "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "max_error", "fitted_rate"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("s", [1e3, 1e-3])
def test_converge_fence_is_scale_free(tmp_path, s):
    # max_error is an entry of (W - I) n/(b - a); under nu -> s nu, (a, b) ->
    # (a/s, b/s) it and its fence both scale by s, so the verdict does not move
    def study(lam, mu, b):
        out = tmp_path / "study.json"
        code = _run(["converge", "--lambda", repr(lam), "--mu", repr(mu), "--a", "0",
                     "--b", repr(b), "--n-list", "64,128", "--out", str(out)])
        payload = _read_json(out)
        return (code, [row["max_error"] * b for row in payload["rows"]],
                [bound * b for bound in payload["bounds"]])

    code, errors, bounds = study(1.0, 0.5, 1.0)
    code_s, errors_s, bounds_s = study(s, 0.5 * s, 1.0 / s)
    assert code_s == code == 0
    assert errors_s == pytest.approx(errors, rel=1e-9)
    assert bounds_s == pytest.approx(bounds, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the fence fails correct products at small u")
def test_converge_passes_first_order_convergence_at_small_u(tmp_path):
    """At u = (b - a)|nu| << 1, N * max_error tends to 2|sin theta| u^2 / (b - a), theta = arg nu."""
    out = tmp_path / "s.json"
    assert _run(["converge", "--lambda", "0.01", "--mu", "0.01",
                 "--n-list", "25,50,100,200,400", "--out", str(out)]) == 0
    scaled = [r["n"] * r["max_error"] for r in _read_json(out)["rows"]]
    assert scaled == pytest.approx([2 * np.sin(np.pi / 4) * 2e-4] * 5, rel=0.01)


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
    ["--n-list", "4,x"],
    ["--a=-inf"],
    ["--b", "inf"],
    ["--mu", "nan"],
    ["--a=-1e308", "--b", "1e308"],
    ["--lambda", "1e200", "--b", "1e200"],
    ["--lambda", "1e308", "--mu", "1e308"],
    ["--n-list", "64"],
    ["--n-list", "4,,8"],
    ["--n-list", ",4"],
    ["--n-list", "4,8,"],
    # int() would take each of these tokens; a size is ASCII digits only
    ["--n-list", "1_0,20"],
    ["--n-list", "+4,20"],
    ["--n-list", " 4,20"],
])
def test_converge_invalid_input_refused(tmp_path, capsys, args):
    assert _run(["converge", *args, "--out", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, code", [
    (["verify", "--s-max", "2", "--a", "-1e0"], 0),
    (["verify", "--s-max", "2", "--a", "-3e0", "--b", "-1E0"], 0),
    (["converge", "--n-list", "4,8", "--lambda", "-1e-3"], 0),
    (["verify", "--s-max", "2", "--mu", "-2e-1"], 0),
    (["kernel", "--n", "2", "--s-max", "0", "--a", "-1E2", "--b", "0", "--lambda", "1e-3"], 0),
    (["verify", "--s-max", "2", "--tol", "-1e-3"], 2),
])
def test_negative_values_in_exponent_form(tmp_path, capsys, argv, code):
    # "--flag -1e-3" must act as "--flag=-1e-3": same exit status, message and artifact
    joined = []
    for tok in argv:
        if tok.startswith("-") and not tok.startswith("--"):
            joined[-1] += f"={tok}"
        else:
            joined.append(tok)
    results = []
    for i, form in enumerate((argv, joined)):
        out = tmp_path / f"{i}.json"
        status = _run([*form, "--out", str(out)])
        results.append((status, capsys.readouterr().err, out.exists() and out.read_bytes()))
    assert results[0][0] == code
    assert results[0] == results[1]


def test_verify_non_finite_tol_refused(tmp_path, capsys):
    assert _run(["verify", "--tol", "inf", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


# narrow for its offset: (b - a)/28,800 is below 4 ulp(1e16) = 8, (b - a)/8 is not
NARROW = ["--a", "1e16", "--b", "10000000000001600", "--lambda", "1e-10", "--mu", "0"]


@pytest.mark.parametrize("argv", [
    ["kernel", "--a=-1e308", "--b", "1e308", "--n", "3", "--s-max", "0"],
    ["verify", "--a=-1e308", "--b", "1e308", "--s-max", "2"],
    ["verify", "--a", "1e16", "--b", "1.0000000000000004e16"],
    ["kernel", "--a", "1e16", "--b", "1.0000000000000004e16", "--n", "3", "--s-max", "0"],
    ["converge", "--a", "1e16", "--b", "1.0000000000000004e16", "--n-list", "4,8"],
    ["verify", *NARROW],
])
def test_out_of_range_interval_refused(tmp_path, capsys, argv):
    # b - a overflows to inf, or is so narrow for its offset that grid points or
    # quadrature nodes would round onto a or b
    out = tmp_path / "a.json"
    assert _run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "1e7", "--b", "10000001"],
    ["converge", "--n-list", "64,4096", "--a", "1e7", "--b", "10000001"],
    # too narrow for verify's quadrature nodes, but not for these commands' own divisions
    ["kernel", "--n", "3", "--s-max", "0", *NARROW],
    ["converge", "--n-list", "4,8", *NARROW],
])
def test_narrow_interval_at_large_offset_runs(tmp_path, argv):
    assert _run([*argv, "--out", str(tmp_path / "a.json")]) == 0


def test_quadrature_cells_cover_the_check_nodes():
    # the node nearest an end of verify's shortest isometry panel, (b - a)/10 long
    nodes, _ = np.polynomial.legendre.leggauss(kernel.CHECK_NODES)
    assert QUADRATURE_CELLS >= 1 / (0.05 * (1 - nodes.max()))


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


def test_kernel_answers_where_its_order_sum_settles(tmp_path):
    # the order sum is right to rounding here, but the alternating series of B_0
    # and B_1 lose every digit to cancellation at xy ~ 5,000 (values up to ~1.6e48,
    # ROADMAP item 1); nothing refuses them, and the grid is written
    out = tmp_path / "a.json"
    assert _run(["kernel", "--lambda", "100", "--mu", "0", "--n", "3", "--s-max", "0",
                 "--out", str(out)]) == 0
    assert len(_read_json(out)["rows"]) == 9


# (b - a)|nu| is small, but nu + conj(nu) overflows inside the kernel
@pytest.mark.parametrize("argv", [
    ["kernel", "--n", "2", "--s-max", "0"],
    ["kernel", "--n", "2", "--s-max", "0", "--format", "csv"],
    ["verify", "--s-max", "2"],
])
def test_non_finite_values_are_never_written(tmp_path, capsys, argv):
    out = tmp_path / "a.out"
    huge = ["--lambda", "1e308", "--mu", "1e308", "--a", "0", "--b", "1e-307"]
    assert _run([*argv, *huge, "--out", str(out)]) == 1
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


NU_FLAGS = ["--a", "--b", "--lambda", "--mu"]


@pytest.mark.parametrize("command, flags", [
    ("coeffs", ["--s-max"]),
    ("verify", [*NU_FLAGS, "--s-max", "--tol"]),
    ("converge", [*NU_FLAGS, "--n-list"]),
    ("kernel", [*NU_FLAGS, "--n", "--s-max"]),
])
def test_help_lists_exactly_the_flags_read(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        _run([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *flags, "--format", "--out"}


@pytest.mark.parametrize("argv", [
    ["coeffs", "--lambda", "1"],
    ["converge", "--tol", "1e-3"],
    ["converge", "--s-max", "41"],
    ["kernel", "--n-list", "4,8"],
    ["verify", "--n", "3"],
])
def test_unread_flags_are_argument_errors(tmp_path, capsys, argv):
    out = tmp_path / "a.json"
    with pytest.raises(SystemExit) as exc:
        _run([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments:") and err.count("\n") == 1
    assert not out.exists()


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("verify", tol=0.0)
    with pytest.raises(ValueError):
        RunConfig("verify", fmt="xml")
    with pytest.raises(ValueError):
        RunConfig("kernel", s_max=99)
