import configparser
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isocap import capacity, cli, masses
from isocap.cli import main
from isocap.errors import ConfigError
from isocap.geometry import ExprProfile, metric_from_spec

# a Reissner-Nordstrom slice, m = 1.3 and q = 0.6, from its outer horizon
RN_SPEC = ("expr:areal:1-2*m/r+q^2/r^2:m=1.3,q=0.6,r_min="
           + repr(1.3 + math.sqrt(1.3 ** 2 - 0.6 ** 2)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env(**extra):
    """The environment of an interpreter that imports isocap from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def check_rows(out):
    """(check, target, status) of each row of a verify or hypotheses table."""
    head, *rows = [re.split(r" {2,}", line.strip()) for line in out.splitlines()]
    assert head == ["check", "value", "target", "status"]
    return [(check, target, status) for check, _, target, status in rows]


class TestSphere:
    def test_flat(self, capsys):
        code, out, _ = run(capsys, "sphere", "--metric", "flat", "--rho", "2")
        assert code == 0
        rows = {l.split()[0]: l.split()[1] for l in out.splitlines()[1:]}
        assert float(rows["H"]) == pytest.approx(1.0)
        assert float(rows["m_H"]) == pytest.approx(0.0, abs=1e-12)

    def test_schwarzschild(self, capsys):
        code, out, _ = run(capsys, "sphere", "--metric", "schwarzschild:m=1",
                           "--rho", "10")
        assert code == 0
        rows = {l.split()[0]: l.split()[1] for l in out.splitlines()[1:]}
        assert float(rows["m_H"]) == pytest.approx(1.0, rel=1e-5)

    def test_neck_area(self, capsys):
        code, out, _ = run(capsys, "sphere", "--metric",
                           "expr:geodesic:r+1.5*exp(-4*(r-3)^2)", "--rho", "3")
        assert code == 0
        rows = {l.split()[0]: l.split()[1] for l in out.splitlines()[1:]}
        import math
        assert float(rows["area"]) == pytest.approx(4 * math.pi * 4.5 ** 2,
                                                    rel=1e-5)

    def test_json_machine_digits(self, capsys):
        code, out, _ = run(capsys, "sphere", "--metric", "flat", "--rho", "2",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["area"] == pytest.approx(50.26548245743669, rel=1e-15)

    def test_zero_area_exit_3(self, capsys):
        code, _, err = run(capsys, "sphere", "--metric", "flat", "--rho", "0")
        assert code == 3
        assert "DomainError" in err and "zero area" in err

    # f(r_min) rounds to -5.6e-17 at this outer horizon
    HORIZON = "2.4532562594670795"
    RN_HORIZON = "expr:areal:1-2*m/r+q^2/r^2:m=1.3,q=0.6,r_min=" + HORIZON

    def test_at_outer_horizon(self, capsys):
        # f rounds below 0 by less than the throat tolerance at the domain
        # start: read as 0, so H and the Willmore energy vanish
        assert ExprProfile("1-2*m/r+q^2/r^2", {"m": 1.3, "q": 0.6}).eval_d2(
            float(self.HORIZON))[0] < 0.0
        code, out, _ = run(capsys, "sphere", "--metric", self.RN_HORIZON,
                           "--rho", self.HORIZON, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["m_H"] == pytest.approx(float(self.HORIZON) / 2, rel=1e-12)
        assert obj["H"] == 0.0 and obj["willmore"] == 0.0 and obj["volume"] == 0.0
        code, out, _ = run(capsys, "flow", "--metric", self.RN_HORIZON,
                           "--rho0", self.HORIZON, "--tmax", "1", "--samples", "3")
        assert code == 0 and len(out.splitlines()) == 4

    @pytest.mark.parametrize("spec, rho", [
        ("expr:areal:1-2/r-1e-9:r_min=2", "2"),  # f = -1e-9 at the start
        ("expr:areal:(r-3)^2-1e-12:r_min=2", "3"),  # f < 0 past the start
    ])
    def test_negative_f_exit_3(self, capsys, spec, rho):
        code, _, err = run(capsys, "sphere", "--metric", spec, "--rho", rho)
        assert code == 3
        assert "EvalError" in err and "< 0" in err

    def test_expression_overflow_exit_3(self, capsys):
        code, _, err = run(capsys, "sphere", "--metric",
                           "expr:geodesic:exp(r)", "--rho", "1000")
        assert code == 3
        assert "EvalError" in err and "r=1000" in err


class TestCapacity:
    def test_flat_p2(self, capsys):
        code, out, _ = run(capsys, "capacity", "--metric", "flat",
                           "--rho0", "2", "--p", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["ncap"] == pytest.approx(2.0, rel=1e-10)

    def test_p1_routes_to_hull(self, capsys):
        code, out, _ = run(capsys, "capacity", "--metric", "schwarzschild:m=1",
                           "--rho0", "2", "--p", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["ncap"] == pytest.approx(4.0, rel=1e-10)

    def test_domain_too_short_exit_3(self, capsys, tmp_path):
        # on [1, 4] the tail probes reach 0.999 = (0.999 * 4) / 4, below
        # the domain start
        table = tmp_path / "short.csv"
        table.write_text("1,1\n2,2\n3,3\n4,4\n")
        code, _, err = run(capsys, "capacity", "--metric",
                           f"table:geodesic:{table}", "--rho0", "2", "--p", "2")
        assert code == 3
        assert "DomainError: metric domain [1.0, 4.0] too short for capacity" in err

    def test_bad_exponent_exit_3(self, capsys):
        code, _, err = run(capsys, "capacity", "--metric", "flat",
                           "--rho0", "2", "--p", "5")
        assert code == 3
        assert "BadExponent" in err


class TestFlow:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "flow", "--metric", "schwarzschild:m=1",
                           "--rho0", "2", "--tmax", "1", "--samples", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,rho,area,volume,H,m_H,willmore,R,jump_flag"
        assert len(lines) == 5

    def test_zero_area_exit_3(self, capsys):
        code, _, err = run(capsys, "flow", "--metric", "flat", "--rho0", "0",
                           "--tmax", "1", "--samples", "3")
        assert code == 3
        assert "DomainError" in err and "zero area" in err

    @pytest.mark.parametrize("args, name", [
        (("--tmax", "1", "--samples", "0"), "n_samples"),
        (("--tmax", "1", "--samples", "-3"), "n_samples"),
        (("--tmax", "nan"), "t_max"),
    ])
    def test_bad_arguments_exit_3(self, capsys, args, name):
        code, out, err = run(capsys, "flow", "--metric", "flat", "--rho0", "1",
                             *args)
        assert code == 3
        assert out == ""
        assert err.startswith("isocap: DomainError: " + name)


class TestMass:
    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "mass", "--metric", "flat",
                           "--p-grid", "2,iso",
                           "--r-grid", "1,2,4,8,16,32")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        assert reports[0]["p"] == 2.0
        assert reports[1]["p"] is None
        assert abs(reports[0]["extrapolated"]) < 1e-9

    def test_table_metric(self, capsys, schwarzschild_csv):
        code, out, err = run(capsys, "mass", "--metric",
                             f"table:areal:{schwarzschild_csv}",
                             "--p-grid", "1,1.5,2,2.5,iso")
        assert code == 0, err
        for rep in json.loads(out):
            assert rep["extrapolated"] == pytest.approx(1.0, abs=5e-3)

    def test_default_grid_from_a_pole(self, capsys):
        # flat space with its pole at rho = 2: the area is 0 at the domain
        # start, so the default grid starts there as flat's starts at 0
        code, out, err = run(capsys, "mass", "--metric",
                             "expr:geodesic:r-2:rho_min=2",
                             "--p-grid", "1,1.5,2,2.5,iso")
        assert code == 0, err
        for rep in json.loads(out):
            assert rep["verdict"] == "CONVERGED"
            assert min(rep["radii"]) > 2.0
            assert max(map(abs, rep["quasilocal"])) <= 1e-12
            assert abs(rep["extrapolated"]) <= 1e-12

    def test_unsorted_r_grid_exit_3(self, capsys):
        code, _, err = run(capsys, "mass", "--metric", "schwarzschild:m=1",
                           "--p-grid", "2", "--r-grid", "100,50,200,400,800,1600")
        assert code == 3
        assert "InsufficientData" in err

    @pytest.mark.parametrize("grids", [
        ("--p-grid", "2,x"),
        ("--p-grid", ","),
        ("--p-grid", "2", "--r-grid", ","),
        ("--p-grid", "1", "--r-grid", ","),
        ("--p-grid", "2", "--r-grid", "100,x"),
    ])
    def test_bad_grid_exit_2(self, capsys, grids):
        code, _, err = run(capsys, "mass", "--metric", "flat", *grids)
        assert code == 2
        assert "bad grid" in err

    @pytest.mark.parametrize("grids", [
        ("--p-grid", "2,"),
        ("--p-grid", "2", "--r-grid", "10,,20,40,80,160,320"),
    ])
    def test_empty_grid_token_exit_2(self, capsys, grids):
        code, out, err = run(capsys, "mass", "--metric", "flat", *grids)
        assert code == 2 and out == ""
        assert "bad grid" in err

    @pytest.mark.parametrize("p_grid, bad", [("1,2,3", "p=3.0"),
                                             ("iso,2,3.5,0.5", "p=3.5")])
    def test_p_grid_checked_before_any_work(self, capsys, monkeypatch,
                                            p_grid, bad):
        def refuse(*args):
            raise AssertionError("capacity work before the p check")
        monkeypatch.setattr(capacity, "_outward_hulls", refuse)
        monkeypatch.setattr(capacity, "_capacity_tails", refuse)
        code, out, err = run(capsys, "mass", "--metric", "schwarzschild:m=1",
                             "--p-grid", p_grid)
        assert code == 3 and out == ""
        assert f"BadExponent: {bad} outside" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("spec, p_grid", [
        ("schwarzschild:m=1", "1,1.5,2,2.5,iso"),
        (RN_SPEC, "1.2,2,2,iso"),
        ("cylinder", "1,2,iso"),
    ])
    def test_grid_prints_the_bytes_of_one_call_per_p(
            self, capsys, monkeypatch, spec, p_grid, fmt):
        argv = ("mass", "--metric", spec, "--p-grid", p_grid, "--format", fmt)
        code, batched, _ = run(capsys, *argv)
        assert code == 0
        one_pass = masses.total_masses
        monkeypatch.setattr(masses, "total_masses", lambda _, grid, *a: [
            one_pass(metric_from_spec(spec), [p], *a)[0] for p in grid])
        assert run(capsys, *argv) == (0, batched, "")

    def test_one_profile_pass_per_grid(self, capsys, monkeypatch):
        # one probe, one panel pass for p = 1.5, 2, 2.5, one volumes call;
        # the area scans of p = 1 are closed-form in the areal gauge
        calls = []
        values = ExprProfile.values
        monkeypatch.setattr(ExprProfile, "values",
                            lambda self, x: calls.append(x.size) or values(self, x))
        code, _, err = run(capsys, "mass", "--metric", RN_SPEC,
                           "--p-grid", "1,1.5,2,2.5,iso")
        assert code == 0, err
        assert len(calls) == 3

    @pytest.mark.parametrize("p_grid", ["iso", "1", "2", "1.5,2.5"])
    def test_zero_area_radius_exit_3(self, capsys, p_grid):
        code, _, err = run(capsys, "mass", "--metric", "flat",
                           "--p-grid", p_grid, "--r-grid", "0,1,2")
        assert code == 3
        assert "DomainError" in err and "rho=0.0" in err

    def test_zero_radius_in_grid_exit_3(self, capsys):
        # the sphere at 0 has area 4*pi here, but the extrapolation in
        # 1/radius cannot take it
        code, out, err = run(capsys, "mass", "--metric", "expr:geodesic:r+1",
                             "--p-grid", "iso", "--r-grid", "0,1,2,4,8,16")
        assert (code, out) == (3, "")
        assert err == "isocap: InsufficientData: parameters must be positive, got 0.0\n"

    def test_negative_f_at_inner_boundary_exit_3(self, capsys):
        # f = 1 - 2/r is -1 at the default areal r_min = 1
        code, out, err = run(capsys, "mass", "--metric", "expr:areal:1-2/r",
                             "--p-grid", "2,iso")
        assert code == 3
        assert out == ""
        assert "EvalError" in err and "< 0" in err


class TestVerify:
    SUITE_ROWS = {
        "equivalence": [("max pairwise mass gap", "<= 0.005")],
        "geroch": [("worst Hawking mass drop", "<= 1e-08 rel")],
        "bmx": [(f"bmx rho={rho} p={p}", ">= -1e-08 rel")
                for rho in ("2", "3", "5", "10", "100")
                for p in ("1.5", "2", "2.5")],
        "holder": [(f"holder gap p={p}", "<= 1e-08") for p in ("1.5", "2", "2.5")],
        "willmore": [("willmore limit rel error", "<= 1e-03")],
        "isoperimetric": [("isoperimetric m=1.1 threshold",
                           "finite, excess <= 1e-12 rel")],
    }

    @pytest.mark.parametrize("suite", cli._SUITES)
    def test_schwarzschild_rows(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--metric", "schwarzschild:m=1",
                             "--suite", suite)
        assert code == 0 and err == ""
        assert check_rows(out) == [(check, target, "pass")
                                   for check, target in self.SUITE_ROWS[suite]]

    def test_equivalence_fails_on_cylinder(self, capsys):
        code, out, _ = run(capsys, "verify", "--metric", "cylinder:a=2",
                           "--suite", "equivalence")
        assert code == 1
        assert "FAIL" in out


class TestHypotheses:
    def test_schwarzschild(self, capsys):
        code, out, _ = run(capsys, "hypotheses", "--metric",
                           "schwarzschild:m=1")
        assert code == 0
        assert "FAIL" not in out

    def test_failed_check_exits_1(self, capsys):
        # the neck has R < 0 and two interior minimal spheres
        code, out, err = run(capsys, "hypotheses", "--metric",
                             "expr:geodesic:r+1.5*exp(-4*(r-3)^2)")
        assert code == 1
        assert err == ""
        assert check_rows(out) == [
            ("scalar curvature >= 0", ">= -1e-10", "FAIL"),
            ("no interior minimal sphere", "0", "FAIL"),
            ("radial isoperimetric constant", "> 0", "pass")]

    @pytest.mark.parametrize("spec, code, scalar", [
        ("cylinder:a=1", 0, "pass"), ("expr:geodesic:1+r^2", 1, "FAIL")])
    def test_minimal_start_is_not_interior(self, capsys, spec, code, scalar):
        # a' = 0 at domain_start 0: the start sphere is minimal, and only
        # an interior one fails the check
        got, out, err = run(capsys, "hypotheses", "--metric", spec)
        assert (got, err) == (code, "")
        assert check_rows(out) == [
            ("scalar curvature >= 0", ">= -1e-10", scalar),
            ("no interior minimal sphere", "0", "pass"),
            ("radial isoperimetric constant", "> 0", "pass")]


class TestNonFiniteRadii:
    @pytest.mark.parametrize("args", [
        ("flow", "--rho0", "nan", "--tmax", "1"),
        ("mass", "--r-grid", "10,20,nan"),
        ("mass", "--r-grid", "10,20,inf", "--p-grid", "iso"),
        ("mass", "--r-grid", "10,nan,40,80,160,320", "--p-grid", "2"),
        ("mass", "--r-grid", "10,nan,40,80,160,320", "--p-grid", "1"),
        ("sphere", "--rho", "inf"),
        ("sphere", "--rho", "nan"),
        ("capacity", "--rho0", "inf", "--p", "2"),
    ], ids=["flow-nan", "mass-nan", "mass-iso-inf", "mass-p2-nan", "mass-p1-nan",
            "sphere-inf", "sphere-nan", "capacity-inf"])
    def test_exit_3(self, capsys, args):
        code, out, err = run(capsys, args[0], "--metric", "schwarzschild:m=1",
                             *args[1:])
        assert code == 3
        assert out == ""
        assert err.startswith("isocap: DomainError: rho=") and "not finite" in err
        assert "Traceback" not in err


class TestConfig:
    def test_missing_metric_exit_2(self, capsys):
        code, _, err = run(capsys, "sphere", "--rho", "2")
        assert code == 2
        assert "config error" in err

    def test_unknown_metric_exit_2(self, capsys):
        code, _, _ = run(capsys, "sphere", "--metric", "torus", "--rho", "2")
        assert code == 2

    def test_malformed_expression_exit_2(self, capsys):
        code, _, err = run(capsys, "sphere", "--metric", "expr:geodesic:r+",
                           "--rho", "2")
        assert code == 2
        assert "config error" in err and "offset 2" in err

    @pytest.mark.parametrize("head,bad", [
        ("r,f\nradius,value\n", "['radius', 'value']"),  # two header rows
        # numpy reprs: the first row passes for the header
        ("", "['np.float64(4.0)', ' np.float64(0.5)']"),
    ])
    def test_bad_table_rows_exit_2(self, capsys, tmp_path, head, bad):
        table = tmp_path / "t.csv"
        rows = [(2.0 + k, 1.0 - 2.0 / (2.0 + k)) for k in range(6)]
        if head:
            body = "".join(f"{r!r},{f!r}\n" for r, f in rows)
        else:
            body = "".join(f"np.float64({r!r}), np.float64({round(f, 1)!r})\n"
                           for r, f in rows[1:])
        table.write_text(head + body)
        code, _, err = run(capsys, "sphere", "--metric", f"table:areal:{table}",
                           "--rho", "3")
        assert code == 2
        assert f"bad table row {bad}" in err

    @pytest.mark.parametrize("command", [
        ("sphere", "--rho", "20"), ("hypotheses",), ("mass", "--p-grid", "2,iso")])
    @pytest.mark.parametrize("bad", ["nan,0.5", "30.0,nan", "inf,1.0"])
    def test_non_finite_table_row_exit_2(self, capsys, tmp_path, command, bad):
        # a NaN radius slipped past the increasing-radii check: a NaN or
        # infinite row printed nan, failed a check or ended in
        # NonConvergence, with exit 0, 1 or 3
        table = tmp_path / "t.csv"
        radii = np.geomspace(2.0, 1e3, 50).tolist()
        rows = [f"{r!r},{1.0 - 2.0 / r!r}\n" for r in radii]
        rows.insert(25, bad + "\n")
        table.write_text("r,f\n" + "".join(rows))
        code, out, err = run(capsys, command[0], "--metric", f"table:areal:{table}",
                             *command[1:])
        assert code == 2 and out == ""
        assert "table radii and values must be finite" in err

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[metric]\nspec = flat\n\n[output]\nformat = json\n")
        code, out, _ = run(capsys, "sphere", "--config", str(cfg), "--rho", "2")
        assert code == 0
        assert json.loads(out)["rho"] == 2.0

    def test_inline_wins_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[metric]\nspec = cylinder:a=1\n")
        code, out, _ = run(capsys, "sphere", "--config", str(cfg),
                           "--metric", "flat", "--rho", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["H"] == pytest.approx(2.0 / 3.0)

    def test_unknown_tolerance_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[metric]\nspec = flat\n\n[tolerances]\nbogus = 1\n")
        code, _, err = run(capsys, "sphere", "--config", str(cfg), "--rho", "2")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("ini, word", [
        ("[metric]\nspec = flat\n\n[output]\nformat = xml\n", "xml"),
        ("[metric]\nspec = flat\n\n[output]\nformt = json\n", "formt"),
        ("[metric]\nspec = flat\nspce = flat\n", "spce"),
        ("[metric]\nspec = flat\n\n[tolerence]\nroot_tol = 1e-9\n",
         "tolerence"),
    ], ids=["format", "output-key", "metric-key", "section"])
    def test_bad_config_entry_exit_2(self, capsys, tmp_path, ini, word):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        code, out, err = run(capsys, "sphere", "--config", str(cfg),
                             "--rho", "2")
        assert code == 2
        assert out == "" and err.startswith("isocap: config error:")
        assert word in err

    def test_config_format_and_path(self, capsys, tmp_path):
        target = tmp_path / "sphere.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[metric]\nspec = flat\n\n[output]\nformat = csv\n"
                       f"path = {target}\n")
        code, out, _ = run(capsys, "sphere", "--config", str(cfg), "--rho", "2")
        assert code == 0 and out == ""
        assert target.read_text().startswith("rho,")

    @pytest.mark.parametrize("budget", ["0", "-3", "2.5"])
    def test_bad_budget_exit_2(self, capsys, tmp_path, budget):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[tolerances]\nmax_subdivisions = {budget}\n")
        code, out, err = run(capsys, "sphere", "--metric", "flat", "--rho", "2",
                             "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("isocap: config error:")
        assert "max_subdivisions" in err

    @pytest.mark.parametrize("terms, word", [("2000", "largest float"),
                                             ("3.5", "extrap_terms")])
    def test_bad_extrap_terms_exit_2(self, capsys, tmp_path, terms, word):
        # 2000 raised OverflowError from the default radius grid (exit 1)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[tolerances]\nextrap_terms = {terms}\n")
        code, out, err = run(capsys, "mass", "--metric", "flat",
                             "--config", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("isocap: config error:")
        assert word in err

    @pytest.mark.parametrize("command, metric, tolerance", [
        ("hypotheses", "expr:geodesic:r:rho_min=nan", None),
        ("mass", "schwarzschild:m=nan", None),
        ("mass", "expr:geodesic:k*r:k=inf", None),
        ("mass", "flat", "root_tol = nan"),
        ("mass", "flat", "quad_abs_tol = nan"),
        ("mass", "flat", "cutoff_radius = inf"),
    ])
    def test_non_finite_exit_2(self, capsys, tmp_path, command, metric,
                               tolerance):
        argv = [command, "--metric", metric]
        if tolerance:
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[tolerances]\n{tolerance}\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("isocap: config error:") and "finite" in err

    @pytest.mark.parametrize("spec, word", [
        ("schwarzschild:mass=2", "'mass'"),
        ("cylinder:radius=3", "'radius'"),
        ("flat:m=2", "'m'"),
        ("expr:geodesic:r:rho_min=1,r_min=2", "not both"),
        ("expr:areal:1-2*m/r:m=1,r_mn=5", "'r_mn'"),
        ("expr:areal:1:r_min=-1", ">= 0"),
        ("expr:geodesic:r:rho_min=-1", ">= 0"),
        ("schwarzschild:m=2,m=3", "twice"),
        ("expr:areal:1-2*m/r:m=1:r_min=3", "expr:<gauge>"),
    ], ids=["schwarzschild-key", "cylinder-key", "flat-key", "both-starts",
            "expr-key", "negative-areal-start", "negative-geodesic-start",
            "repeated-key", "extra-part"])
    def test_bad_spec_key_exit_2(self, capsys, spec, word):
        code, out, err = run(capsys, "sphere", "--metric", spec, "--rho", "5")
        assert code == 2
        assert out == "" and err.startswith("isocap: config error:")
        assert word in err

    @pytest.mark.parametrize("spec, start", [
        ("expr:areal:1", 1.0), ("expr:areal:1:r_min=0", 0.0),
        ("expr:areal:1:rho_min=0.5", 0.5), ("expr:geodesic:r", 0.0),
        ("expr:geodesic:r:r_min=2", 2.0), ("expr:geodesic:r:rho_min=-1", None)])
    def test_spec_domain_start(self, spec, start):
        # a start below 0 is refused in either gauge (None)
        if start is None:
            with pytest.raises(ConfigError, match=">= 0"):
                metric_from_spec(spec)
        else:
            assert metric_from_spec(spec).domain_start == start

    def test_missing_config_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "sphere", "--config", "/no/such.ini",
                         "--rho", "2")
        assert code == 2

    @pytest.mark.parametrize("ini", ["spec = flat\n", "[metric]\nspec = flat%x\n",
                                     "[metric]\nspec = flat\n[metric]\n"],
                             ids=["no-section", "interpolation", "twice"])
    def test_unreadable_config_file_exit_2(self, capsys, tmp_path, ini):
        # configparser's own errors, raised as tracebacks before
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        code, out, err = run(capsys, "sphere", "--config", str(cfg), "--rho", "2")
        assert code == 2
        assert out == "" and err.startswith("isocap: config error: bad config file")

    def test_config_parser_only_with_a_file(self, capsys, tmp_path, monkeypatch):
        # without --config no parser is built; a file that says what the
        # options say gives the same bytes
        built, parser = [], configparser.ConfigParser
        monkeypatch.setattr(configparser, "ConfigParser",
                            lambda *a: built.append(1) or parser(*a))
        argv = ("mass", "--p-grid", "2,iso", "--r-grid", "50,100,200,400,800,1600")
        code, inline, _ = run(capsys, *argv, "--metric", "schwarzschild:m=1",
                              "--format", "csv")
        assert code == 0 and built == []
        cfg = tmp_path / "run.ini"
        cfg.write_text("[metric]\nspec = schwarzschild:m=1\n\n[output]\nformat = csv\n")
        code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and built == [1] and from_file == inline

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sphere.json"
        code, out, _ = run(capsys, "sphere", "--metric", "flat", "--rho", "2",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rho"] == 2.0


    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "sphere", "--metric", "flat", "--rho", "2",
                             "--out", str(target))
        assert code == 2
        assert out == ""
        assert "cannot write" in err


class TestOptionPlacement:
    """Options follow their subcommand, and --format goes only to sphere,
    capacity and mass; anything else is a usage error, not an option taken
    and then ignored."""

    def exits(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("option", [
        ("--metric", "flat"), ("--config", "run.ini"), ("--out", "x.json"),
        ("--format", "json")], ids=["metric", "config", "out", "format"])
    def test_before_the_subcommand_exit_2(self, capsys, tmp_path, monkeypatch,
                                          option):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text("[metric]\nspec = flat\n")
        code, out, err = self.exits(capsys, *option, "sphere", "--metric",
                                    "flat", "--rho", "1")
        assert code == 2 and out == ""
        assert err.startswith("usage: isocap ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]

    @pytest.mark.parametrize("argv", [
        ("flow", "--rho0", "3", "--tmax", "1"), ("verify", "--suite", "holder"),
        ("hypotheses",)], ids=["flow", "verify", "hypotheses"])
    def test_format_where_unread_exit_2(self, capsys, argv):
        code, out, err = self.exits(capsys, *argv, "--metric", "flat",
                                    "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("usage: isocap ")
        assert "unrecognized arguments: --format json" in err


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_reader_leaves_early(self, unbuffered):
        # 2000 flow samples are about 270 kB, past any pipe buffer, so the
        # writer meets the closed pipe in a write or in the last flush
        env = src_env(PYTHONUNBUFFERED="1" if unbuffered else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "isocap", "flow", "--metric",
             "schwarzschild:m=1", "--rho0", "3", "--tmax", "2",
             "--samples", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert first == b"t,rho,area,volume,H,m_H,willmore,R,jump_flag\n"
        assert err == b""

    @pytest.mark.parametrize("argv", [("--help",), ("mass", "--help")],
                             ids=["top", "mass"])
    def test_help_into_closed_pipe(self, argv):
        # block-buffered standard output whose reader is gone before the
        # start: the help text meets the closed pipe in main's flush
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "isocap", *argv],
                                  stdout=write, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestModuleEntry:
    def test_python_m_isocap(self):
        proc = subprocess.run([sys.executable, "-m", "isocap", "sphere",
                               "--metric", "flat", "--rho", "2",
                               "--format", "json"],
                              capture_output=True, text=True, env=src_env(),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["rho"] == 2.0


class TestScipyOnDemand:
    """No path imports scipy: the package needs numpy only."""

    def test_mass_and_flow_leave_scipy_unloaded(self, run_isolated):
        out = run_isolated(
            "import contextlib, io, json, sys\n"
            "import isocap\n"
            "from isocap import cli\n"
            "mass, track = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(mass):\n"
            "    assert cli.main(['mass', '--metric', 'schwarzschild:m=1',\n"
            "                     '--p-grid', '1,1.5,2,2.5,iso']) == 0\n"
            "with contextlib.redirect_stdout(track):\n"
            "    assert cli.main(['flow', '--metric', 'schwarzschild:m=1',\n"
            "                     '--rho0', '3', '--tmax', '2',\n"
            "                     '--samples', '8']) == 0\n"
            "verdicts = [r['verdict'] for r in json.loads(mass.getvalue())]\n"
            "print(verdicts, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert out.strip() == "['CONVERGED', 'CONVERGED', 'CONVERGED', " \
            "'CONVERGED', 'CONVERGED'] []"

    def test_fallback_panels_run_without_it(self, run_isolated):
        # each of these sends panels that fail the fixed rule's check to
        # the adaptive refinement numerics._refine, which is in-repo (the
        # flow on the generated metric reads its volumes off a series, so
        # there its capacity refines); the neck fails two of the
        # hypothesis checks, so that command exits 1
        out = run_isolated(
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from isocap import cli, flow, geometry, numerics, p_capacity\n"
            "calls = []\n"
            "adaptive = numerics._refine\n"
            "numerics._refine = lambda *a: calls.append(a[1:3]) or adaptive(*a)\n"
            "neck = 'expr:geodesic:r+1.5*exp(-4*(r-3)^2)'\n"
            "for args, code in ((['flow', '--metric', neck, '--rho0', '2',\n"
            "                     '--tmax', '3'], 0),\n"
            "                   (['hypotheses', '--metric', neck], 1)):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(args) == code\n"
            "    print(len(calls) > 0)\n"
            "    calls.clear()\n"
            "M = geometry.tanh_step_mass_metric(1.0, 5.0, 1.0)\n"
            "for p in (1.01, 1.1, 1.5, 2.0, 2.5, 2.9):\n"
            "    for r0 in (0.5, 3.0, 10.0):\n"
            "        assert p_capacity(M, r0, p).ncap > 0.0\n"
            "print(len(calls) > 0)\n"
            "calls.clear()\n"
            "M = geometry.tanh_step_mass_metric(1.3760246384543378,\n"
            "                                   5.7577886649501675,\n"
            "                                   0.5186770010559407)\n"
            "track = flow.weak_imcf(M, 0.5, 6.0, n_samples=40)\n"
            "assert p_capacity(M, 3.0, 1.5).ncap > 0.0\n"
            "print(len(calls) > 0, len(track.samples))\n")
        assert out.split() == ["True"] * 4 + ["40"]

    def test_exit_codes_without_it(self, tmp_path, run_isolated):
        # a 400-row areal Schwarzschild table on [2, 1e4], without header;
        # the neck fails two of the hypothesis checks, so that command exits 1
        table = tmp_path / "schwarzschild.csv"
        r = np.geomspace(2.0, 1e4, 400)
        table.write_text("".join(f"{x!r},{1.0 - 2.0 / x!r}\n"
                                 for x in r.tolist()))
        spec = f"table:areal:{table}"
        neck = "expr:geodesic:r+1.5*exp(-4*(r-3)^2)"
        commands = [["mass", "--metric", spec, "--p-grid", "1,2,iso"],
                    ["flow", "--metric", spec, "--rho0", "3", "--tmax", "2"],
                    ["hypotheses", "--metric", "schwarzschild:m=1"],
                    ["hypotheses", "--metric", neck]]
        out = run_isolated(
            "import contextlib, io, sys\n"
            "sys.modules['scipy'] = None\n"
            "from isocap import cli\n"
            "codes = []\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(cli.main(argv))\n"
            "print(codes)\n")
        assert out.strip() == "[0, 0, 0, 1]"

    def test_no_path_loads_it(self, schwarzschild_csv, tmp_path, run_isolated):
        # every family through every CLI entry point, and the library-only
        # families through the library, with scipy unimportable: each
        # command exits 0, 1 or 3 and none ends in a traceback
        geodesic_csv = tmp_path / "schwarzschild_geodesic.csv"
        r = 2.0 + np.concatenate(([0.0], np.geomspace(1e-8, 1e6, 1500)))
        rho = np.sqrt(r * (r - 2.0)) + 2.0 * np.log(
            (np.sqrt(r) + np.sqrt(r - 2.0)) / np.sqrt(2.0))
        geodesic_csv.write_text("".join(
            f"{x!r},{y!r}\n" for x, y in zip(rho.tolist(), r.tolist())))
        families = ["flat", "schwarzschild:m=1", "cylinder:a=2",
                    "expr:geodesic:r+1.5*exp(-4*(r-3)^2)",
                    "expr:areal:1-2*m/r+q^2/r^2:m=1,q=0.5,"
                    "r_min=1.8660254037844386",
                    f"table:areal:{schwarzschild_csv}",
                    f"table:geodesic:{geodesic_csv}"]
        commands = [["sphere", "--rho", "3"],
                    ["capacity", "--rho0", "3", "--p", "1"],
                    ["capacity", "--rho0", "3", "--p", "2"],
                    ["flow", "--rho0", "3", "--tmax", "2", "--samples", "20"],
                    ["mass", "--p-grid", "1,2,iso"], ["hypotheses"]]
        commands += [["verify", "--suite", s] for s in cli._SUITES]
        out = run_isolated(
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from isocap import cli, geometry, numerics\n"
            "from isocap import p_capacity, sphere_data, total_mass, weak_imcf\n"
            f"families, commands = {families!r}, {commands!r}\n"
            "codes = []\n"
            "for spec in families:\n"
            "    for argv in commands:\n"
            "        err = io.StringIO()\n"
            "        with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "                contextlib.redirect_stderr(err):\n"
            "            code = cli.main(argv[:1] + ['--metric', spec] + argv[1:])\n"
            "        codes.append((spec, argv[0], code, err.getvalue()))\n"
            "S = geometry.schwarzschild(1.0)\n"
            "for M in (geometry.scaled(S, 2.0),\n"
            "          geometry.tanh_step_mass_metric(1.0, 5.0, 1.0),\n"
            "          geometry.to_geodesic(S)):\n"
            "    rho = M.domain_start + 3.0\n"
            "    assert sphere_data(M, rho).area > 0.0\n"
            "    assert p_capacity(M, rho, 2.0).ncap > 0.0\n"
            "    assert total_mass(M, 2.0).verdict == 'CONVERGED'\n"
            "    assert len(weak_imcf(M, rho, 2.0, n_samples=20).samples) == 20\n"
            "loaded = [m for m, mod in sys.modules.items()\n"
            "          if m.startswith('scipy') and mod is not None]\n"
            "print(json.dumps([codes, loaded]))\n")
        codes, loaded = json.loads(out)
        assert len(codes) == len(families) * len(commands)
        for spec, command, code, err in codes:
            assert code in (0, 1, 3), (spec, command, code, err)
            assert "Traceback" not in err
            assert code != 3 or err.startswith("isocap: "), (spec, command, err)
        assert loaded == []


class TestDeterminism:
    def test_one_parser_per_process(self, capsys):
        def exits(*argv):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            out = capsys.readouterr()
            return exc.value.code, out.out, out.err
        cases = [("--help",), ("flow", "--help"), ("flow", "--metric", "flat"),
                 ("nope",)]
        first = [exits(*argv) for argv in cases]
        assert [code for code, _, _ in first] == [0, 0, 2, 2]
        assert run(capsys, "sphere", "--metric", "flat", "--rho", "2")[0] == 0
        assert [exits(*argv) for argv in cases] == first
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser.__wrapped__().format_help() == first[0][1]

    def test_cached_code_keeps_mass_bytes(self, run_isolated):
        # m=1.7 after m=1.3 in one process binds the code compiled for the
        # Reissner-Nordstrom text; a fresh process compiles it anew
        def last_output(*specs):
            return run_isolated(
                "import contextlib, io, sys\n"
                "from isocap.cli import main\n"
                f"for spec in {list(specs)!r}:\n"
                "    buf = io.StringIO()\n"
                "    with contextlib.redirect_stdout(buf):\n"
                "        assert main(['mass', '--metric', spec, '--p-grid',\n"
                "                     '1,1.5,2,2.5,iso']) == 0\n"
                "sys.stdout.write(buf.getvalue())\n")
        rn = "expr:areal:1-2*m/r+q^2/r^2"
        fresh = last_output(rn + ":m=1.7,q=0.6,r_min=3.2905973720586865")
        assert last_output(rn + ":m=1.3,q=0.6,r_min=2.4532562594670795",
                           rn + ":m=1.7,q=0.6,r_min=3.2905973720586865") == fresh
        assert len(json.loads(fresh)) == 5

    def test_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "flow", "--metric",
                            "expr:geodesic:r+1.5*exp(-4*(r-3)^2)",
                            "--rho0", "2", "--tmax", "2", "--samples", "10")
            outs.append(out)
        assert outs[0] == outs[1]
