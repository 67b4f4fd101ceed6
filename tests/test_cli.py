"""End-to-end CLI tests: JSON in, deterministic JSON/CSV out, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_jump_table
from stieltjes import Derivator, SpecValidationError, cli, solver, specio


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def jump_derivator_doc():
    return {
        "interval": [0.0, 1.0],
        "segments": [
            {"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
            {"lo": 0.5, "hi": 1.0, "profile": {"kind": "linear", "slope": 1.0}},
        ],
        "jumps": [{"at": 0.5, "delta": 2.0}],
    }


@pytest.fixture
def deriv_path(tmp_path):
    return write(tmp_path, "deriv.json", jump_derivator_doc())


@pytest.fixture
def ident_integrand_path(tmp_path):
    return write(tmp_path, "f.json", {"kind": "polynomial", "coefficients": [0.0, 1.0]})


class TestDecompose:
    def test_desk_values(self, tmp_path, deriv_path):
        out = str(tmp_path / "report.json")
        assert cli.main(["decompose", deriv_path, "-o", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["sets"]["D_plus"] == [0.5]
        assert doc["sets"]["D_minus"] == []
        assert doc["sets"]["Lambda_plus"] == [[0.0, 0.5], [0.5, 1.0]]
        assert doc["sets"]["C"] == []
        assert doc["variation"]["total"] == pytest.approx(3.0)
        assert doc["variation"]["positive"] == pytest.approx(3.0)
        assert doc["variation"]["negative"] == 0.0

    def test_output_reingests_to_the_same_derivator(self, tmp_path, deriv_path):
        out = str(tmp_path / "report.json")
        cli.main(["decompose", deriv_path, "-o", out])
        original = specio.parse_derivator(json.loads(Path(deriv_path).read_text()))
        recovered = specio.parse_derivator(json.loads(Path(out).read_text()))
        ts = np.linspace(0.0, 1.0, 1000)
        np.testing.assert_array_equal(recovered.eval(ts), original.eval(ts))
        np.testing.assert_array_equal(recovered.eval_right(ts), original.eval_right(ts))

    def test_byte_identical_reruns(self, tmp_path, deriv_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        cli.main(["decompose", deriv_path, "-o", str(a)])
        cli.main(["decompose", deriv_path, "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIntegrate:
    def test_identity_integrand_with_atom(self, tmp_path, deriv_path, ident_integrand_path):
        out = str(tmp_path / "out.json")
        code = cli.main(["integrate", deriv_path, ident_integrand_path, "-o", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        # continuous part 1/2 plus the atom 0.5 * 2
        assert doc["value"] == pytest.approx(1.5, abs=1e-9)
        assert doc["signature"] == "signed"
        assert doc["interval"] == [0.0, 1.0]

    def test_total_variation_measure(self, tmp_path, ident_integrand_path):
        doc = jump_derivator_doc()
        doc["jumps"][0]["delta"] = -2.0
        dpath = write(tmp_path, "neg.json", doc)
        out = str(tmp_path / "out.json")
        cli.main(["integrate", dpath, ident_integrand_path,
                  "--measure", "total_variation", "-o", out])
        got = json.loads(Path(out).read_text())
        assert got["value"] == pytest.approx(1.5, abs=1e-9)


    def test_step_integrand_is_cut_at_its_break(self, tmp_path):
        b = 0.7813563413389097
        dpath = write(tmp_path, "ident.json", {
            "interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "profile": {"kind": "linear", "slope": 1.0}}],
        })
        fpath = write(tmp_path, "step.json", {
            "kind": "piecewise_polynomial", "breakpoints": [0.0, b, 1.0],
            "pieces": [[0.0], [1.0]],
        })
        out = str(tmp_path / "out.json")
        assert cli.main(["integrate", dpath, fpath, "-o", out]) == 0
        value = json.loads(Path(out).read_text())["value"]
        assert value == pytest.approx(1.0 - b, rel=1e-12)

    @staticmethod
    def _one_segment(tmp_path, profile):
        return write(tmp_path, "big.json", {
            "interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "profile": profile}],
        })

    def test_huge_but_finite_integral(self, tmp_path):
        # the Kronrod error estimate of a panel this large overflowed a float power
        dpath = self._one_segment(tmp_path, {"kind": "power", "exponent": 2.5, "scale": 1e300})
        fpath = write(tmp_path, "f.json", {"kind": "polynomial", "coefficients": [1, 2, 3]})
        out = str(tmp_path / "out.json")
        assert cli.main(["integrate", dpath, fpath, "-o", out]) == 0
        # scale * (1 + 2p/(p + 1) + 3p/(p + 2)) with p = 2.5
        value = json.loads(Path(out).read_text())["value"]
        assert value == pytest.approx(1e300 * (1.0 + 5.0 / 3.5 + 7.5 / 4.5), rel=1e-9)

    def test_an_integral_that_overflows_is_a_quadrature_error(self, tmp_path, capsys):
        dpath = self._one_segment(tmp_path, {"kind": "linear", "slope": 1e308})
        fpath = write(tmp_path, "f.json", {"kind": "polynomial", "coefficients": [1, 2, 3]})
        out = str(tmp_path / "out.json")
        assert cli.main(["integrate", dpath, fpath, "-o", out]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "QuadratureError"
        assert "not finite" in err["error"]["message"]
        assert not Path(out).exists()


class TestOverflowingExponential:
    """exp(1e300 t) overflows past t = 0: exit 2 at the first such grid time,
    with nothing written before the error object and no float warning."""

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_an_exponential_that_overflows_exits_2_before_any_output(self, tmp_path, capsys,
                                                                     verify):
        dpath = write(tmp_path, "big.json", {
            "interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "profile": {"kind": "linear", "slope": 1e300}}],
        })
        cpath = write(tmp_path, "c.json", {"kind": "polynomial", "coefficients": [1.0]})
        assert cli.main(["exp", dpath, cpath, "--grid-hint", "8", *verify]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "RhsEvaluationError"
        assert err["message"] == "exponential is not finite at t=0.125; the solution overflows"


class TestOverflowingTable:
    """A slope of 1e308 over [0, 4] has a total increment of 4e308: the table
    is rejected as an input error at the derivator, with no float warning."""

    @pytest.mark.parametrize("command", ["decompose", "integrate"])
    def test_a_total_that_overflows_is_an_input_error(self, tmp_path, capsys, command):
        dpath = write(tmp_path, "big.json", {
            "interval": [0.0, 4.0],
            "segments": [{"lo": 0.0, "hi": 4.0, "profile": {"kind": "linear", "slope": 1e308}}],
        })
        fpath = write(tmp_path, "f.json", {"kind": "polynomial", "coefficients": [1, 2, 3]})
        out = tmp_path / "out.json"
        argv = [command, dpath, *([fpath] if command == "integrate" else []), "-o", str(out)]
        assert cli.main(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "SpecValidationError"
        assert err["path"] == "derivator"
        assert "not finite" in err["message"]

    @pytest.mark.parametrize("doc", [
        {"interval": [0.0, 2.0], "segments": [
            {"lo": 0.0, "hi": 1.0, "profile": {"kind": "linear", "slope": 1e308}},
            {"lo": 1.0, "hi": 2.0, "profile": {"kind": "linear", "slope": -1e308}}]},
        {"interval": [0.0, 2.0], "segments": [
            {"lo": 0.0, "hi": 1.0, "profile": {"kind": "constant"}},
            {"lo": 1.0, "hi": 2.0, "profile": {"kind": "constant"}}],
         "jumps": [{"at": 0.0, "delta": 1e308}, {"at": 1.0, "delta": -1e308}]},
    ], ids=["slopes", "jumps"])
    def test_a_total_variation_that_overflows_is_an_input_error(self, tmp_path, capsys, doc):
        # the net change is 0.0; the rise and fall add up past the largest float
        assert cli.main(["decompose", write(tmp_path, "d.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]  # the error object and nothing else
        assert (err["type"], err["path"]) == ("SpecValidationError", "derivator")
        assert "not finite" in err["message"]


class TestDerive:
    def test_repeatable_points(self, tmp_path, deriv_path, ident_integrand_path):
        out = str(tmp_path / "out.json")
        code = cli.main(["derive", deriv_path, ident_integrand_path,
                         "--at", "0.3", "--at", "0.5", "-o", out])
        assert code == 0
        pts = json.loads(Path(out).read_text())["points"]
        assert pts[0]["t"] == 0.3
        assert pts[0]["derivative"] == pytest.approx(1.0, abs=1e-6)
        # f(t) = t is continuous at the jump, so the jump quotient vanishes
        assert pts[1]["derivative"] == pytest.approx(0.0, abs=1e-9)

    def test_points_do_not_carry_over_between_calls(self, tmp_path, deriv_path,
                                                    ident_integrand_path):
        # one parser serves every call; an appended --at list must start empty
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        cli.main(["derive", deriv_path, ident_integrand_path,
                  "--at", "0.3", "--at", "0.6", "-o", first])
        cli.main(["derive", deriv_path, ident_integrand_path, "--at", "0.7", "-o", second])
        assert [p["t"] for p in json.loads(Path(first).read_text())["points"]] == [0.3, 0.6]
        assert [p["t"] for p in json.loads(Path(second).read_text())["points"]] == [0.7]

    @pytest.mark.parametrize("at", ["0.1", "0.9"])
    def test_flat_head_or_tail_is_an_input_error(self, tmp_path, ident_integrand_path,
                                                capsys, at):
        # the tabulated profile is constant before its first and after its
        # last sample, so g is locally constant at both points
        dpath = write(tmp_path, "tab.json", {
            "interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "profile": {
                "kind": "tabulated", "points": [[0.3, 0.0], [0.7, 1.0]]}}],
        })
        code = cli.main(["derive", dpath, ident_integrand_path, "--at", at])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "UndefinedPointError"
        assert "constant" in err["error"]["message"]


    def test_nan_time_is_a_domain_error(self, deriv_path, ident_integrand_path, capsys):
        code = cli.main(["derive", deriv_path, ident_integrand_path, "--at", "nan"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DomainError"
        assert err["error"]["message"] == "time nan outside [0.0, 1.0]"

    def test_junction_inside_a_run(self, tmp_path, capsys):
        # slopes 1 and 2 meet at 0.5 with no jump; t^2 has one-sided
        # g-derivatives 1.0 and 0.5 there, g itself has 1.0 on both sides
        dpath = write(tmp_path, "kink.json", {
            "interval": [0.0, 1.0],
            "segments": [
                {"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
                {"lo": 0.5, "hi": 1.0, "profile": {"kind": "linear", "slope": 2.0}},
            ],
        })
        square = write(tmp_path, "sq.json", {"kind": "polynomial", "coefficients": [0, 0, 1]})
        assert cli.main(["derive", dpath, square, "--at", "0.5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConvergenceError"
        assert err["error"]["message"] == "one-sided quotients disagree at 0.5"
        g = write(tmp_path, "g.json", {"kind": "piecewise_polynomial",
                                       "breakpoints": [0.0, 0.5, 1.0],
                                       "pieces": [[0.0, 1.0], [-0.5, 2.0]]})
        out = str(tmp_path / "out.json")
        assert cli.main(["derive", dpath, g, "--at", "0.5", "-o", out]) == 0
        assert json.loads(Path(out).read_text())["points"] == [{"t": 0.5, "derivative": 1.0}]


    def test_the_mean_of_two_one_sided_quotients_does_not_overflow(self, tmp_path, capsys):
        # slope-1 segments meet at 0.5: both one-sided quotients read 1.5e308,
        # and their sum overflows where their halves do not
        dpath = write(tmp_path, "two.json", {
            "interval": [0.0, 1.0],
            "segments": [
                {"lo": 0.0, "hi": 0.5, "profile": {"kind": "linear", "slope": 1.0}},
                {"lo": 0.5, "hi": 1.0, "profile": {"kind": "linear", "slope": 1.0}},
            ],
        })
        big = write(tmp_path, "big.json", {"kind": "polynomial", "coefficients": [0.0, 1.5e308]})
        for at in ("0.25", "0.5"):
            assert cli.main(["derive", dpath, big, "--at", at]) == 0
            out = capsys.readouterr().out
            assert "Infinity" not in out
            assert json.loads(out)["points"] == [{"t": float(at), "derivative": 1.5e308}]


@pytest.mark.parametrize("command", ["integrate", "derive"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_a_relative_tolerance_not_positive_is_an_input_error(tmp_path, capsys, deriv_path,
                                                             ident_integrand_path, command, tol):
    out = tmp_path / "r.json"
    at = ["--at", "0.25"] if command == "derive" else []
    code = cli.main([command, deriv_path, ident_integrand_path, *at, "--rel-tol", tol,
                     "-o", str(out)])
    assert code == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {
        "type": "DomainError", "message": f"rel_tol must be positive, got {float(tol)}",
        "path": None}}


class TestFtcCheck:
    def test_passes_on_a_smooth_integrand(self, tmp_path, deriv_path):
        vpath = write(tmp_path, "v.json",
                      {"kind": "polynomial", "coefficients": [0.3, -1.0, 0.5]})
        out = str(tmp_path / "out.json")
        assert cli.main(["ftc-check", deriv_path, vpath, "-o", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["passed"] is True
        assert doc["max_deviation"] < 1e-6
        assert doc["grid_points"] > 1000

    def test_a_primitive_that_overflows_exits_2_before_any_output(self, tmp_path, capsys):
        # the deviation used to come out as Infinity, which is not JSON
        dpath = write(tmp_path, "big.json", {
            "interval": [0.0, 1.0],
            "segments": [{"lo": 0.0, "hi": 1.0, "profile": {"kind": "linear", "slope": 1e300}}],
        })
        vpath = write(tmp_path, "v.json", {"kind": "polynomial", "coefficients": [1e300, 1e300]})
        assert cli.main(["ftc-check", dpath, vpath, "--grid-hint", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "RhsEvaluationError"
        assert err["message"] == "primitive is not finite at t=0.125; the integral overflows"


class TestExp:
    def test_trajectory_csv(self, tmp_path, deriv_path):
        cpath = write(tmp_path, "c.json", {"kind": "constant", "value": 1.0})
        out = tmp_path / "traj.csv"
        code = cli.main(["exp", deriv_path, cpath,
                         "--grid-hint", "64", "-o", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,value,value_right,sign,regime"
        cells = [ln.split(",") for ln in lines[1:]]
        row = next(c for c in cells if float(c[0]) == 0.5)
        # factor 1 + 1 * 2 = 3 applies at the jump
        assert float(row[2]) == pytest.approx(3.0 * float(row[1]), rel=1e-15)
        assert all(c[3] == "1" for c in cells)
        assert all(c[4] == "positive_factors" for c in cells)

    @pytest.mark.parametrize("c, signs", [(-0.5, "0"), (-1.0, "-1")])
    def test_sign_column_after_a_vanishing_or_reversing_jump(self, tmp_path, deriv_path,
                                                           c, signs):
        cpath = write(tmp_path, "c.json", {"kind": "constant", "value": c})
        out = tmp_path / "traj.csv"
        assert cli.main(["exp", deriv_path, cpath, "--grid-hint", "8", "-o", str(out)]) == 0
        cells = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        # the left value's sign; the factor 1 + c * 2 applies after t = 0.5
        assert [row[3] for row in cells] == ["1"] * 9 + [signs] * 8
        assert [row[3] for row in cells] == [str(int(np.sign(float(row[1])))) for row in cells]

    def test_verify_report(self, tmp_path, deriv_path):
        cpath = write(tmp_path, "c.json", {"kind": "constant", "value": 1.0})
        out = str(tmp_path / "verify.json")
        code = cli.main(["exp", deriv_path, cpath, "--verify", "-o", out])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["passed"] is True
        assert doc["jump_identity_exact"] is True
        assert doc["regime"] == "positive_factors"


def system_doc(coefficient=1.0, bound=None):
    doc = {
        "derivators": [jump_derivator_doc()],
        "initial": [1.0],
        "rhs": {"kind": "linear", "coefficients": [coefficient]},
    }
    if bound is not None:
        doc["bound"] = bound
    return doc


class TestSolve:
    def test_csv_rows_and_summary(self, tmp_path, capsys):
        spath = write(tmp_path, "sys.json", system_doc())
        out = tmp_path / "traj.csv"
        code = cli.main(["solve", spath, "--mesh", "256", "-o", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["method"] == "picard"
        assert summary["converged"] is True
        assert summary["jump_audit_rows"] == 1
        assert summary["jump_audit_max_ulps"] == 0.0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,side,x1"
        sides = [ln.split(",")[1] for ln in lines[1:]]
        assert sides.count("R") == 1
        r_row = next(ln for ln in lines[1:] if ln.split(",")[1] == "R")
        assert float(r_row.split(",")[0]) == 0.5

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spath = write(tmp_path, "sys.json", system_doc())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["solve", spath, "--mesh", "128", "-o", str(a)])
        cli.main(["solve", spath, "--mesh", "128", "-o", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_select_horizon(self, tmp_path, capsys):
        bound = {"radius": 1.0,
                 "dominators": [{"kind": "constant", "value": 1.0}]}
        spath = write(tmp_path, "sys.json", system_doc(bound=bound))
        out = tmp_path / "traj.csv"
        code = cli.main(["solve", spath, "--select-horizon",
                         "--mesh", "256", "-o", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # mass over [0, t) stays within 1.0 through t = 0.5; the 2.0 atom
        # pushes every later time out
        assert summary["tau_star"] == 0.5
        lines = out.read_text().splitlines()
        assert lines[-1].split(",")[0] == "0.5"

    def test_select_horizon_needs_a_bound(self, tmp_path, capsys):
        spath = write(tmp_path, "sys.json", system_doc())
        code = cli.main(["solve", spath, "--select-horizon"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecValidationError"
        assert err["error"]["path"] == "system.bound"

    def test_non_convergence_exits_2_with_partial_output(self, tmp_path, capsys):
        spath = write(tmp_path, "sys.json", system_doc(coefficient=50.0))
        out = tmp_path / "traj.csv"
        code = cli.main(["solve", spath, "--mesh", "64",
                         "--max-iter", "2", "-o", str(out)])
        assert code == 2
        assert out.exists()
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged"] is False
        assert json.loads(captured.err)["error"]["type"] == "ConvergenceError"


    @pytest.mark.parametrize("method, at", [(["--euler"], "0.5"), ([], "0.5")])
    def test_a_state_that_overflows_exits_2_before_any_row(self, tmp_path, capsys,
                                                          method, at):
        doc = system_doc()
        doc["derivators"][0]["jumps"] = [{"at": 0.5, "delta": 1.0}]
        doc["rhs"] = {"kind": "polynomial", "coefficients": [[1.7e308]]}
        spath = write(tmp_path, "sys.json", doc)
        out = tmp_path / "s.csv"
        code = cli.main(["solve", spath, "--mesh", "64", *method, "-o", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        # stderr holds the error object and nothing else: no float warning
        err = json.loads(captured.err)["error"]
        assert err["type"] == "RhsEvaluationError"
        assert err["message"] == f"state is not finite at t={at}; the solution overflows"

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_is_an_input_error(self, tmp_path, capsys, max_iter):
        spath = write(tmp_path, "sys.json", system_doc())
        out = tmp_path / "s.csv"
        code = cli.main(["solve", spath, "--mesh", "16", "--max-iter", max_iter,
                         "-o", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == "max_iter must be at least 1"

    @pytest.mark.parametrize("tol", ["0", "-1e-12", "nan"])
    def test_tolerance_not_positive_is_an_input_error(self, tmp_path, capsys, tol):
        spath = write(tmp_path, "sys.json", system_doc())
        out = tmp_path / "s.csv"
        code = cli.main(["solve", spath, "--mesh", "16", f"--tol={tol}", "-o", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == f"tol must be positive, got {float(tol)}"

    def test_plume_breakdown_exits_2_naming_the_model(self, tmp_path, capsys):
        doc = {
            "derivators": [specio.serialize_derivator(Derivator.identity(0.0, 1.0))] * 3,
            "initial": [0.05, 0.01, -0.5],
            "rhs": {"kind": "plume", "A": 0.1666, "B": 56.5056, "C": 2.8e-4},
        }
        spath = write(tmp_path, "sys.json", doc)
        for extra in ([], ["--euler"]):
            code = cli.main(["solve", spath, "--mesh", "64", *extra])
            assert code == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "RhsEvaluationError"
            assert err["message"].startswith("momentum flux -")
            assert err["message"].endswith("; the plume model has broken down")


def exit_texts(capsys, call):
    """stdout, stderr and exit code of a call that exits."""
    with pytest.raises(SystemExit) as exc:
        call()
    out, err = capsys.readouterr()
    return out, err, exc.value.code


class TestDispatch:
    """main reads argv by the fast path or else the full parser, with the full parser's texts."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["nope"], ["nope", "x.json"], ["exp", "-h"], ["derive", "-h"],
        ["derive", "d.json", "f.json", "--at", "0.5", "--bogus"],
        ["decompose", "d.json", "extra.json"], ["derive", "d.json", "f.json"],
        ["solve", "s.json", "--mesh", "x"], ["integrate", "d.json", "f.json", "--measure", "m"],
        ["--", "decompose"], ["-x", "decompose", "d.json"],
    ])
    def test_main_prints_what_the_full_parser_prints(self, capsys, argv):
        want = exit_texts(capsys, lambda: cli.build_parser().parse_args(argv))
        assert exit_texts(capsys, lambda: cli.main(argv)) == want
        assert want[2] in (0, 2) and (want[0] or want[1])

    def test_main_reads_sys_argv_without_an_argument(self, capsys, monkeypatch):
        want = exit_texts(capsys, lambda: cli.build_parser().parse_args(["exp", "-h"]))
        monkeypatch.setattr(sys, "argv", ["stieltjes", "exp", "-h"])
        assert exit_texts(capsys, lambda: cli.main()) == want
        assert want[0].startswith("usage: stieltjes exp ")

    @pytest.mark.parametrize("argv", [
        ["decompose", "d.json"],
        ["derive", "d.json", "f.json", "--at", "0.25", "--at=-1e-3", "--rel-tol", "1e-6"],
        ["integrate", "d.json", "f.json", "--measure", "total_variation", "--lo", "-0.0"],
        ["solve", "s.json", "--euler", "--select-horizon", "--mesh", "16", "-o", "x.csv"],
        ["exp", "d.json", "c.json", "--verify"], ["plume", "p.json", "--max-iter", "3"],
    ])
    def test_the_subcommand_sees_the_full_parsers_namespace(self, monkeypatch, argv):
        parser, seen = cli.build_parser(), []
        parser.commands[argv[0]].set_defaults(func=lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "_PARSER", parser)
        assert cli.main(argv) == 0
        assert seen == [vars(parser.parse_args(argv))] and seen[0]["command"] == argv[0]

    # TestDispatch's argvs, and abbreviations, = forms, repeats, negative values,
    # "--", and a missing value, choice or type
    PARITY = [
        ["decompose", "d.json"], ["decompose", "d.json", "-o", "r.json"],
        ["derive", "d.json", "f.json", "--at", "0.25", "--at", "0.5", "--rel-tol", "1e-6"],
        ["derive", "--at", "0.25", "d.json", "f.json"],
        ["integrate", "d.json", "f.json", "--measure", "total_variation", "--lo", "0.1"],
        ["solve", "s.json", "--euler", "--select-horizon", "--mesh", "16", "-o", "x.csv"],
        ["exp", "d.json", "c.json", "--verify"], ["exp", "d.json", "c.json", "--verify", "--verify"],
        ["plume", "p.json", "--max-iter", "3"], ["ftc-check", "d.json", "f.json", "--grid-hint", "8"],
        ["integrate", "d.json", "f.json", "--rel", "1e-3"],
        ["integrate", "d.json", "f.json", "--meas", "signed"],
        ["derive", "d.json", "f.json", "--at=0.25", "--at", "0.5"],
        ["derive", "d.json", "f.json", "--at", "0.25", "--at=-1e-3"],
        ["integrate", "d.json", "f.json", "--lo", "0.1", "--lo", "0.2"],
        ["integrate", "d.json", "f.json", "--lo", "-0.25"],
        ["integrate", "d.json", "f.json", "--lo", "-1e-3"],
        ["integrate", "d.json", "f.json", "--", "--lo"], ["decompose", "--", "d.json"],
        ["integrate", "d.json", "f.json", "--lo"], ["derive", "d.json", "f.json", "--at"],
        ["derive", "d.json", "f.json"], ["decompose"], ["decompose", "a.json", "b.json"],
        ["integrate", "d.json", "f.json", "--measure", "m"], ["solve", "s.json", "--mesh", "x"],
        ["solve", "s.json", "--mesh", "1.5"], ["decompose", "d.json", "-h"],
        ["decompose", "d.json", "-o"], ["decompose", "d.json", "-or.json"], ["decompose", "-"],
        ["decompose", ""], ["exp", "d.json", "c.json", "--verify=1"],
    ]

    @pytest.mark.parametrize("argv", PARITY + [
        ["derive", "d.json", "f.json", "--at", "0.5", "--bogus"],
        ["decompose", "d.json", "extra.json"],
    ])
    def test_the_fast_path_reads_argv_as_argparse_does(self, monkeypatch, capsys, argv):
        # the same namespace, or the same stdout, stderr and exit code
        parser, seen = cli.build_parser(), []
        sub = parser.commands[argv[0]]
        sub.set_defaults(func=lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(cli, "_PARSER", parser)
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit as exc:
            want, texts = None, (*capsys.readouterr(), exc.code)
        if want is None:
            assert cli._quick_args(sub, argv[1:]) is None
            assert exit_texts(capsys, lambda: cli.main(argv)) == texts
        else:
            assert cli.main(argv) == 0 and seen == [want]
            quick = cli._quick_args(sub, argv[1:])
            assert quick is None or dict(vars(quick), command=argv[0]) == want

    def test_plain_argvs_take_the_fast_path(self):
        # positionals and options spelled out in full, each value apart
        parser = cli.build_parser()
        taken = [argv for argv in self.PARITY
                 if cli._quick_args(parser.commands[argv[0]], argv[1:]) is not None]
        assert taken == self.PARITY[:10] + [["decompose", ""]]


class TestJsonWriter:
    """_json_text writes the bytes of json.dumps(doc, indent=2, sort_keys=True)."""

    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.floats().map(np.float64) | st.text())
    documents = st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)), max_leaves=25)

    @given(documents)
    @settings(max_examples=400)
    def test_random_documents(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        {}, [], (), "", {"a": {}, "b": [], "c": ()}, [[[]], {}], "\u00e9\u2028\\\"\n\x00\U0001f600",
        {"\u00e9": 1, "\n": -0.0, "": [math.nan, math.inf, -math.inf, 1e300, 5e-324]},
        {"n": 10 ** 30, "m": -(10 ** 30), "t": True, "f": False, "z": None},
        [np.float64(0.1), np.float64(math.nan), np.float64(-math.inf)],
    ])
    def test_edge_documents(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("doc", [
        np.int64(1), {"a": [np.int64(2)]}, np.float32(0.5), {"a": 1, 2: 3}, object(),
    ])
    def test_unsupported_values_raise_the_stdlibs_error(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)

    def test_a_key_that_is_no_string_raises(self):
        # the CLI's documents have string keys; json.dumps would convert this one
        with pytest.raises(TypeError):
            cli._json_text({1: "one"})

    def test_the_error_object_is_written_by_it(self, capsys):
        cli._emit_error(SpecValidationError("derivator.segments[0]", "\u00e9 \"x\""))
        doc = {"error": {"type": "SpecValidationError", "path": "derivator.segments[0]",
                         "message": "derivator.segments[0]: \u00e9 \"x\""}}
        assert capsys.readouterr().err == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestSidedRows:
    def test_jump_rows_come_from_the_report(self, monkeypatch):
        second = jump_derivator_doc()
        second["segments"] = [
            {"lo": 0.0, "hi": 0.25, "profile": {"kind": "linear", "slope": 2.0}},
            {"lo": 0.25, "hi": 0.5, "profile": {"kind": "constant"}},
            {"lo": 0.5, "hi": 1.0, "profile": {"kind": "linear", "slope": -1.0}},
        ]
        second["jumps"] = [{"at": 0.25, "delta": -0.5}, {"at": 0.5, "delta": 1.0}]
        doc = {"derivators": [jump_derivator_doc(), second], "initial": [1.0, 2.0],
               "rhs": {"kind": "linear", "coefficients": [0.5, -1.0]}}
        spec, _ = specio.parse_system(doc)
        report = solver.solve(spec, solver.SolveConfig(mesh=32))
        deltas = reference_jump_table(spec.derivators, report.grid)
        want = []
        for k, t in enumerate(report.grid.tolist()):
            want.append((t, "L", [tr.left_values[k] for tr in report.trajectories]))
            if np.any(deltas[k] != 0.0):
                want.append((t, "R", [tr.right_values[k] for tr in report.trajectories]))

        def boom(*args, **kwargs):
            raise AssertionError("the CSV rows rebuilt the jump table")

        monkeypatch.setattr(solver, "_jump_table", boom)
        times, sides, states = cli._sided_rows(report)
        assert list(zip(times.tolist(), sides, states.tolist())) == want
        assert sides.count("R") == 2


class TestCsvColumns:
    def test_columns_format_like_single_cells(self, capsys):
        values = np.array([0.0, -0.0, 0.1, 1.0 / 3.0, -2.5e-320, 1e300, np.inf,
                           -np.inf, np.nan, 4.0, 2.0 ** 53 + 2.0])
        sides = ["L", "R"] * 5 + ["L"]
        cli._emit_csv(("v", "side", "w"), (values, sides, values[::-1].copy()), None)
        want = ["v,side,w"] + [f"{float(a):.17g},{s},{float(b):.17g}"
                               for a, s, b in zip(values, sides, values[::-1])]
        assert capsys.readouterr().out == "\n".join(want) + "\n"


class TestPlume:
    def plume_doc(self):
        return {
            "params": {"entrainment": 0.0833, "mixing": 1.2},
            "ambient": {
                "interval": [0.0, 10.0],
                "anchor": 1000.0,
                "segments": [
                    {"lo": 0.0, "hi": 4.0, "profile": {"kind": "constant"}},
                    {"lo": 4.0, "hi": 10.0, "profile": {"kind": "constant"}},
                ],
                "jumps": [{"at": 4.0, "delta": -2.0}],
            },
            "initial": {"q": 0.05, "m": 0.01, "beta": 0.15},
        }

    def test_end_to_end(self, tmp_path, capsys):
        ppath = write(tmp_path, "plume.json", self.plume_doc())
        out = tmp_path / "plume.csv"
        code = cli.main(["plume", ppath, "--mesh", "512", "-o", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["jumps_exact"] is True
        assert summary["volume_continuous"] is True
        assert summary["momentum_continuous"] is True
        assert len(summary["buoyancy_jumps"]) == 1
        assert summary["buoyancy_jumps"][0]["residual_ulps"] == 0.0
        lines = out.read_text().splitlines()
        assert lines[0] == "z,side,q,m,beta,b,w,theta"
        r_rows = [ln for ln in lines[1:] if ln.split(",")[1] == "R"]
        assert len(r_rows) == 1
        assert float(r_rows[0].split(",")[0]) == 4.0

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one_is_an_input_error(self, tmp_path, capsys, max_iter):
        ppath = write(tmp_path, "plume.json", self.plume_doc())
        out = tmp_path / "plume.csv"
        code = cli.main(["plume", ppath, "--mesh", "64", "--max-iter", max_iter,
                         "-o", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == "max_iter must be at least 1"

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_tolerance_not_positive_is_an_input_error(self, tmp_path, capsys, tol):
        ppath = write(tmp_path, "plume.json", self.plume_doc())
        out = tmp_path / "plume.csv"
        code = cli.main(["plume", ppath, "--mesh", "64", "--tol", tol, "-o", str(out)])
        assert code == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "DomainError"
        assert err["message"] == f"tol must be positive, got {float(tol)}"

    def test_ambient_dipping_below_zero_is_an_input_error(self, tmp_path, capsys):
        doc = self.plume_doc()
        doc["ambient"] = {
            "interval": [0.0, 1.0],
            "anchor": 1.0,
            "segments": [
                {"lo": 0.0, "hi": 0.301, "profile": {"kind": "constant"}},
                {"lo": 0.301, "hi": 0.3015, "profile": {"kind": "constant"}},
                {"lo": 0.3015, "hi": 1.0, "profile": {"kind": "constant"}},
            ],
            "jumps": [{"at": 0.301, "delta": -1.5}, {"at": 0.3015, "delta": 1.5}],
        }
        ppath = write(tmp_path, "plume.json", doc)
        assert cli.main(["plume", ppath]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["path"] == "plume.ambient"
        assert "positive" in err["error"]["message"]

    @pytest.mark.parametrize("field, value, path", [
        ("initial", [1.0, 2.0], "plume.initial"),
        ("initial", [1.0, "x", 0.0], "plume.initial[1]"),
        ("initial", {"q": 1, "m": "x", "beta": 0}, "plume.initial.m"),
        ("initial", {"q": 1, "m": 1}, "plume.initial"),
        ("initial", [0.0, 1.0, 1.0], "plume.initial"),
        ("params", {"gravity": "g"}, "plume.params.gravity"),
        ("params", {"entrainment": -1}, "plume.params"),
        ("params", [1], "plume.params"),
        ("horizon", "h", "plume.horizon"),
        ("ambient", None, "plume"),
    ])
    def test_invalid_document_names_the_path(self, tmp_path, capsys, field, value, path):
        doc = self.plume_doc()
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        ppath = write(tmp_path, "plume.json", doc)
        assert cli.main(["plume", ppath]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecValidationError"
        assert err["error"]["path"] == path

    @pytest.mark.parametrize("horizon", [25.0, -3.0, 0.0])
    def test_horizon_outside_the_ambient_is_rejected_at_its_path(
            self, tmp_path, capsys, horizon):
        ppath = write(tmp_path, "plume.json", {**self.plume_doc(), "horizon": horizon})
        assert cli.main(["plume", ppath, "--mesh", "64"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SpecValidationError"
        assert err["path"] == "plume.horizon"
        assert err["message"].endswith(f"horizon {horizon} outside (0.0, 10.0]")

    def test_parse_plume_sets_the_horizon(self):
        spec = specio.parse_plume({**self.plume_doc(), "horizon": 6.0})
        assert spec.horizon == 6.0
        assert spec.initial.tolist() == [0.05, 0.01, 0.15]
        assert specio.parse_plume(self.plume_doc()).horizon is None

    def test_unknown_param_rejected(self, tmp_path, capsys):
        doc = self.plume_doc()
        doc["params"]["viscosity"] = 1.0
        ppath = write(tmp_path, "plume.json", doc)
        assert cli.main(["plume", ppath]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["path"] == "plume.params"


class TestErrors:
    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        code = cli.main(["decompose", str(tmp_path / "absent.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecValidationError"
        assert "file not found" in err["error"]["message"]

    @pytest.mark.parametrize("content, message", [
        (b'\xff\xfe{"interval": [0.0, 1.0]}', "cannot read {path}: 'utf-8' codec can't decode"),
        (None, "cannot read {path}: [Errno 21] Is a directory"),
        # a BOM is left for the JSON reader to reject, as a text read leaves it
        (b'\xef\xbb\xbf{}', "invalid JSON in {path}: Unexpected UTF-8 BOM"),
        # positions count a CRLF or a lone CR as one newline, as a text read does
        (b'{\r\n"a": \r\n}', "invalid JSON in {path}: Expecting value: line 3 column 1 (char 8)"),
        (b'{\r"a": \r}', "invalid JSON in {path}: Expecting value: line 3 column 1 (char 8)"),
    ])
    def test_an_unreadable_file_is_an_input_error(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        proc = subprocess.run([sys.executable, "-m", "stieltjes.cli", "decompose", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "SpecValidationError" and err["path"] == "derivator"
        assert err["message"].startswith("derivator: " + message.format(path=path))

    def test_malformed_document_names_the_path(self, tmp_path, capsys):
        dpath = write(tmp_path, "bad.json", {"interval": [0.0, 1.0]})
        code = cli.main(["decompose", dpath])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecValidationError"
        assert "segments" in err["error"]["message"]

    @pytest.mark.parametrize("where, change", [
        ("derivator.segments[1].lo", {"lo": "0.5"}),
        ("derivator.segments[1].hi", {"hi": None}),
        ("derivator.segments[1].profile", {"profile": 3}),
        ("derivator.segments[1].direction", {"direction": "sideways"}),
        ("derivator.segments[1]", {"direction": "nonincreasing"}),
        ("derivator.jumps[0].at", {"at": [0.5]}),
        ("derivator.jumps[0].delta", {"delta": "2"}),
        ("derivator.jumps[0]", {"delta": 0.0}),
        ("derivator.segments[1].profile", {"profile": {"kind": "power", "exponent": -1}}),
        ("derivator.segments[1].profile",
         {"profile": {"kind": "tabulated", "points": [[0.75, 1.0]]}}),
        ("derivator.segments[1].profile",
         {"profile": {"kind": "tabulated", "points": [[0.8, 1.0], [0.6, 2.0]]}}),
    ])
    def test_derivator_errors_name_their_path(self, where, change):
        doc = jump_derivator_doc()
        item = doc["jumps"][0] if ".jumps" in where else doc["segments"][1]
        item.update(change)
        with pytest.raises(SpecValidationError) as info:
            specio.parse_derivator(doc)
        assert info.value.path == where

    def test_huge_integer_is_not_finite(self, tmp_path, capsys):
        doc = jump_derivator_doc()
        doc["segments"][0]["profile"]["slope"] = 10 ** 400
        dpath = write(tmp_path, "huge.json", doc)
        assert cli.main(["decompose", dpath]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SpecValidationError"
        assert err["path"] == "derivator.segments[0].profile.slope"
        assert err["message"].endswith("number must be finite")

    @pytest.mark.parametrize("integrand, where", [
        ({"kind": "tabulated", "points": []}, "integrand.points"),
        ({"kind": "polynomial", "coefficients": []}, "integrand.coefficients"),
        ({"kind": "piecewise_polynomial", "breakpoints": [0.0], "pieces": []}, "integrand"),
        ({"kind": "piecewise_polynomial", "breakpoints": [1.0, 0.0], "pieces": [[1.0]]},
         "integrand"),
        ({"kind": "piecewise_polynomial", "breakpoints": [0.0, 1.0], "pieces": [[]]},
         "integrand"),
    ])
    def test_degenerate_integrand_names_its_path(self, tmp_path, deriv_path, capsys,
                                                 integrand, where):
        fpath = write(tmp_path, "f.json", integrand)
        assert cli.main(["integrate", deriv_path, fpath]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SpecValidationError"
        assert err["path"] == where

    @pytest.mark.parametrize("integrand, where", [
        ({"kind": "tabulated", "points": [[0.0, "x"]]}, "integrand.points[0][1]"),
        ({"kind": "piecewise_polynomial", "breakpoints": [0.0, "a"], "pieces": [[1.0]]},
         "integrand.breakpoints[1]"),
        ({"kind": "piecewise_polynomial", "breakpoints": [0.0, 1.0], "pieces": [[1.0, None]]},
         "integrand.pieces[0][1]"),
    ])
    def test_integrand_number_errors_name_their_field(self, integrand, where):
        with pytest.raises(SpecValidationError) as info:
            specio.parse_integrand(integrand)
        assert info.value.path == where

    @pytest.mark.parametrize("rhs, where", [
        ({"kind": "tabulated", "points": []}, "system.rhs.points"),
        ({"kind": "polynomial", "coefficients": [[]]}, "system.rhs.coefficients[0]"),
        ({"kind": "tabulated", "points": [[0.5, 1.0], [0.2, 2.0]]}, "system.rhs.points"),
        ({"kind": "tabulated", "points": [[0.5, 1.0], [0.5, 2.0]]}, "system.rhs.points"),
    ])
    def test_degenerate_rhs_names_its_path(self, tmp_path, capsys, rhs, where):
        doc = system_doc()
        doc["rhs"] = rhs
        spath = write(tmp_path, "sys.json", doc)
        assert cli.main(["solve", spath, "--euler", "--mesh", "16"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "SpecValidationError"
        assert err["path"] == where

    def test_domain_error_is_an_input_error(self, tmp_path, deriv_path, capsys):
        fpath = write(tmp_path, "f.json", {"kind": "constant", "value": 1.0})
        code = cli.main(["integrate", deriv_path, fpath,
                         "--lo", "-3.0", "--hi", "0.5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DomainError"

    def test_closed_stdout_pipe_stays_quiet(self, tmp_path):
        # a reader like `head` closing the pipe early must not dump a
        # traceback; the CSV has to exceed the pipe buffer to force the
        # broken write deterministically
        spath = write(tmp_path, "sys.json", system_doc())
        proc = subprocess.run(
            [sys.executable, "-m", "stieltjes.cli",
             "solve", spath, "--euler", "--mesh", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=False,
        )
        assert proc.returncode == 0
        shell = subprocess.run(
            f"{sys.executable} -m stieltjes.cli solve {spath}"
            " --euler --mesh 20000 | head -n 1",
            shell=True, capture_output=True, text=True,
        )
        assert shell.stdout.strip() == "t,side,x1"
        assert "Traceback" not in shell.stderr
