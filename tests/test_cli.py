import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statgeo
from statgeo.cli import main
from statgeo.frame import sample_points

FLAT_2D = {
    "dim": 2,
    "coords": ["x", "y"],
    "frame": [["1", "0"], ["0", "1"]],
    "metric": [["1", "0"], ["0", "1"]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_check_builtin_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "--builtin", "dacko-variant-1", "--points", "6")
    code2, out2, _ = run(capsys, "check", "--builtin", "dacko-variant-1", "--points", "6")
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    rep = json.loads(out1)
    assert rep["summary"]["fail"] == 0
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    assert rep["classification_summary"] == "almost cosymplectic, non-normal"
    assert rep["sampling"] == {
        "points": 6, "seed": 42, "box": [[-1.0, 1.0]] * 3, "tolerance": 1e-9,
    }
    assert any("endpoint identities" in n for n in rep["notes"])


def test_check_flat_all_residuals_tiny(capsys):
    code, rep, _ = run_json(
        capsys, "check", "--builtin", "flat-cosymplectic", "--points", "5", "--tol", "1e-12"
    )
    assert code == 0
    for c in rep["checks"]:
        if c["status"] == "pass" and c["max_residual"] is not None:
            assert c["max_residual"] <= 1e-12


def test_report_roundtrips_through_json(capsys):
    _, out, _ = run(capsys, "check", "--builtin", "flat-cosymplectic", "--points", "4")
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep


def test_corrupted_star_fails_stat1(capsys, tmp_path):
    zeros = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    doc = {
        "dim": 3,
        "coords": ["t", "x", "y"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "connections": {"nabla": zeros, "nabla_star": copy.deepcopy(zeros)},
    }
    doc["connections"]["nabla_star"][1][1][1] = "0.25"
    code, rep, _ = run_json(capsys, "check", write_spec(tmp_path, doc), "--points", "5")
    assert code == 1
    failed = {c["name"] for c in rep["checks"] if c["status"] == "fail"}
    assert "DUAL-STAT1" in failed


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--builtin", "no-such-fixture"),
        ("check",),
        ("check", "missing-file.json"),
        ("table", "--builtin", "flat-kaehler-r2", "A"),
        ("product", "--builtin", "heisenberg-hermitian", "--lam", "0", "--out", "x.json"),
        ("product", "--builtin", "flat-kaehler-r2", "--lam", "sin(", "--out", "x.json"),
        ("check", "--builtin", "dacko-variant-1", "--box", "1,-1"),
        ("check", "--builtin", "dacko-variant-1", "--points", "0"),
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_spec_and_builtin_together_rejected(capsys, tmp_path):
    path = write_spec(tmp_path, FLAT_2D)
    code, _, err = run(capsys, "check", path, "--builtin", "flat-cosymplectic")
    assert code == 2 and "not both" in err


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("coords"), "coords"),
        (lambda d: d.update(coords=["x"]), "coords"),
        (lambda d: d.update(frame=[["1", "0"]]), "shape"),
        (lambda d: d.update(connections={"nabla_star": []}), "without nabla"),
        (lambda d: d.update(connections={"random_K_seed": 1, "nabla": []}), "combined"),
        (lambda d: d.update(connections={"wat": 1}), "unknown"),
        (lambda d: d.update(structure={"xi": ["1", "0"]}), "phi"),
        (lambda d: d.update(structure={"phi": [["0", "1"], ["-1", "0"]], "xi": ["1", "0"]}), "both xi and eta"),
        (lambda d: d.update(sampling={"box": [[1, -1], [0, 1]]}), "box"),
        (lambda d: d.update(frame=[["1", "junk("], ["0", "1"]]), "junk"),
        (lambda d: d.update(connections={"random_K_seed": True}), "random_K_seed"),
        (lambda d: d.update(connections={"random_K_seed": -3}), "random_K_seed"),
        (lambda d: d.update(connections={"nabla": [[["0"]]]}), "cubical"),
        (lambda d: d.update(coords=["x", "x"]), "distinct"),
        (lambda d: d.update(dim=True, coords=["x"], frame=[["1"]], metric=[["1"]]), "'dim'"),
        (lambda d: d.update(metric=[[["1"], "0"], ["0", "1"]]), "not an expression"),
        (lambda d: d.update(structure={"phi": [["0"]], "xi": ["1"], "eta": ["1"]}), "phi must be"),
        (lambda d: d.update(structure={"phi": [["0", "-1", "0"]] * 3}), "J must be"),
        (lambda d: d.update(frame=[["(" * 3000 + "x" + ")" * 3000, "0"], ["0", "1"]]), "nests"),
        (lambda d: d.update(metric=[[" + ".join(["x"] * 20000), "0"], ["0", "1"]]), "nests"),
    ],
)
def test_spec_validation_errors(capsys, tmp_path, mangle, fragment):
    doc = copy.deepcopy(FLAT_2D)
    mangle(doc)
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert fragment in err


@pytest.mark.parametrize(
    "sampling,fragment",
    [
        ({"points": "5"}, "sampling.points"),
        ({"seed": "x"}, "sampling.seed"),
        ({"tolerance": "1e-9"}, "sampling.tolerance"),
        ({"points": True}, "sampling.points"),
        ({"tolerance": False}, "sampling.tolerance"),
        ({"seed": -1}, "seed"),
        ({"box": [[0], [0, 1]]}, "sampling.box"),
        ({"points": 10**12}, "sampling.points must be between 1 and 10000"),
    ],
)
def test_sampling_block_errors_exit_2(capsys, tmp_path, sampling, fragment):
    doc = copy.deepcopy(FLAT_2D)
    doc["sampling"] = sampling
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert fragment in err


def test_spec_odd_dim_phi_without_xi(capsys, tmp_path):
    doc = {
        "dim": 3,
        "coords": ["t", "x", "y"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "structure": {"phi": [["0"] * 3] * 3},
    }
    code, _, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and "even dimension" in err


def test_spec_even_dim_phi_read_as_complex_structure(capsys, tmp_path):
    doc = copy.deepcopy(FLAT_2D)
    doc["structure"] = {"phi": [["0", "-1"], ["1", "0"]]}
    doc["flags"] = {"kaehler": True}
    code, rep, _ = run_json(capsys, "check", write_spec(tmp_path, doc), "--points", "4")
    assert code == 0
    by_name = {c["name"]: c["status"] for c in rep["checks"]}
    assert by_name["STRUCT-J-SQ"] == "pass"
    assert by_name["HERM-AZIZ1"] == "pass"
    assert by_name["STRUCT-PHI-SQ"] == "skipped"
    assert rep["classification_summary"] == "Kaehler"


def test_spec_random_k_seed_and_defaults(capsys, tmp_path):
    doc = copy.deepcopy(FLAT_2D)
    doc["connections"] = {"random_K_seed": 3}
    doc["sampling"] = {"points": 7, "seed": 5, "tolerance": 1e-8}
    code, rep, _ = run_json(capsys, "check", write_spec(tmp_path, doc))
    assert code == 0
    assert rep["sampling"]["points"] == 7
    assert rep["sampling"]["seed"] == 5
    assert rep["sampling"]["tolerance"] == 1e-8
    assert {c["name"] for c in rep["checks"] if c["status"] == "pass"} >= {
        "DUAL-STAT1", "DUAL-K-SYMM"
    }


def test_flag_beats_spec_sampling_and_env(capsys, tmp_path, monkeypatch):
    doc = copy.deepcopy(FLAT_2D)
    doc["sampling"] = {"tolerance": 1e-4}
    path = write_spec(tmp_path, doc)
    monkeypatch.setenv("STATGEO_TOL", "1e-5")
    code, rep, _ = run_json(capsys, "check", path)
    assert rep["sampling"]["tolerance"] == 1e-4  # spec beats env
    code, rep, _ = run_json(capsys, "check", path, "--tol", "1e-11")
    assert rep["sampling"]["tolerance"] == 1e-11  # flag beats all
    monkeypatch.setenv("STATGEO_TOL", "badnumber")
    code, _, err = run(capsys, "check", "--builtin", "flat-cosymplectic")
    assert code == 2 and "STATGEO_TOL" in err


def test_env_tol_applies_to_builtin(capsys, monkeypatch):
    monkeypatch.setenv("STATGEO_TOL", "1e-3")
    code, rep, _ = run_json(
        capsys, "check", "--builtin", "flat-cosymplectic", "--points", "4"
    )
    assert code == 0 and rep["sampling"]["tolerance"] == 1e-3


def test_box_flag(capsys):
    code, rep, _ = run_json(
        capsys, "check", "--builtin", "dacko-variant-1", "--points", "4",
        "--box=-0.5,0.5",
    )
    assert rep["sampling"]["box"] == [[-0.5, 0.5]] * 3
    code, rep, _ = run_json(
        capsys, "check", "--builtin", "dacko-variant-1", "--points", "4",
        "--box=-0.5,0.5;0,1;-2,-1",
    )
    assert rep["sampling"]["box"] == [[-0.5, 0.5], [0.0, 1.0], [-2.0, -1.0]]


def test_classify_summaries(capsys):
    cases = {
        "dacko-variant-2": "almost cosymplectic, non-normal",
        "flat-cosymplectic": "cosymplectic",
        "sasakian-r3": "Sasakian",
        "flat-kaehler-r2": "Kaehler",
        "heisenberg-almost-kaehler": "almost Kaehler",
    }
    for name, want in cases.items():
        code, doc, _ = run_json(capsys, "classify", "--builtin", name, "--points", "6")
        assert code == 0
        assert doc["summary"] == want, name
    code, doc, _ = run_json(capsys, "classify", "--builtin", "kenmotsu-model", "--points", "6")
    assert doc["classification"]["contact"]["flags"]["almost_kenmotsu"] is True
    assert "Kenmotsu" in doc["summary"]


def test_table_difference_tensor(capsys):
    code, out, _ = run(capsys, "table", "--builtin", "dacko-variant-1", "K")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K for dacko-variant-1 at t = 0, x = 0, y = 0"
    assert lines[1:] == [
        "K_{E_0} E_0 = E_0",
        "K_{E_0} E_1 = E_2",
        "K_{E_0} E_2 = E_1",
        "K_{E_1} E_0 = E_2",
        "K_{E_1} E_1 = E_2",
        "K_{E_1} E_2 = E_0 + E_1",
        "K_{E_2} E_0 = E_1",
        "K_{E_2} E_1 = E_0 + E_1",
        "K_{E_2} E_2 = E_2",
    ]


def test_table_shape_operator_and_h(capsys):
    code, out, _ = run(capsys, "table", "--builtin", "dacko-variant-2", "A")
    assert out.strip().splitlines()[1:] == ["A E_0 = 0", "A E_1 = -E_1", "A E_2 = E_2"]
    code, out, _ = run(capsys, "table", "--builtin", "dacko-variant-2", "h")
    assert out.strip().splitlines()[1:] == ["h E_0 = 0", "h E_1 = E_2", "h E_2 = E_1"]


def test_table_levi_civita_flat_spec(capsys, tmp_path):
    code, out, _ = run(capsys, "table", write_spec(tmp_path, FLAT_2D), "levi-civita")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.endswith("= 0")


def test_table_nonconstant_coefficient_formatting(capsys, tmp_path):
    doc = copy.deepcopy(FLAT_2D)
    zeros = [[["0"] * 2 for _ in range(2)] for _ in range(2)]
    zeros[0][0][0] = "0.1 + x"
    doc["connections"] = {"nabla": zeros}
    doc["sampling"] = {"box": [[0.2, 0.2001], [0, 1]]}
    code, out, _ = run(capsys, "table", write_spec(tmp_path, doc), "nabla")
    # midpoint x = 0.20005 -> coefficient 0.30005, printed to 12 significant digits
    assert "nabla_{E_0} E_0 = 0.30005 E_0" in out


def test_table_domain_error_names_the_midpoint_as_sample_point_0(capsys, tmp_path):
    # the table is a batch of one point, the box midpoint (0, 0.5), where 1/t
    # divides by zero
    doc = {
        "dim": 2,
        "coords": ["t", "x"],
        "frame": [["1/t", "0"], ["0", "1"]],
        "metric": [["1", "0"], ["0", "1"]],
        "connections": {"random_K_seed": 1},
        "sampling": {"box": [[-1, 1], [0, 1]]},
    }
    code, out, err = run(capsys, "table", write_spec(tmp_path, doc), "nabla")
    assert code == 2 and out == ""
    assert err == "error: division by zero at sample point 0 (0, 0.5)\n"


def test_product_lambda_zero_matches_flat_builtin(capsys, tmp_path):
    out_path = tmp_path / "prod.json"
    code, msg, _ = run(
        capsys, "product", "--builtin", "flat-kaehler-r2", "--lam", "0",
        "--out", str(out_path),
    )
    assert code == 0 and str(out_path) in msg
    doc = json.loads(out_path.read_text())
    assert doc["dim"] == 3 and doc["coords"] == ["t", "x", "y"]
    assert doc["frame"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert doc["metric"] == doc["frame"]
    assert all(v == "0" for plane in doc["connections"]["nabla"] for row in plane for v in row)
    assert doc["structure"]["xi"] == ["1", "0", "0"]
    assert doc["structure"]["phi"][2][1] == "1" and doc["structure"]["phi"][1][2] == "-1"
    code, rep, _ = run_json(capsys, "check", str(out_path), "--points", "6", "--tol", "1e-12")
    assert code == 0 and rep["summary"]["fail"] == 0
    assert rep["classification_summary"] == "cosymplectic"


def test_product_lambda_t_prints_symbolically(capsys, tmp_path):
    out_path = tmp_path / "prod_t.json"
    code, _, _ = run(
        capsys, "product", "--builtin", "flat-kaehler-r2", "--lam", "t",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["connections"]["nabla"][0][0][0] == "t"
    code, rep, _ = run_json(capsys, "check", str(out_path), "--points", "6")
    assert code == 0 and rep["classification_summary"] == "cosymplectic"


@pytest.mark.parametrize("lam", ["1e200^2", "1e200*1e200"])
def test_product_overflowing_lambda_exits_2(capsys, tmp_path, lam):
    out_path = tmp_path / "prod.json"
    code, out, err = run(
        capsys, "product", "--builtin", "flat-kaehler-r2", "--lam", lam,
        "--out", str(out_path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out_path.exists()


CHECK_ARGV = ("check", "--builtin", "flat-cosymplectic", "--points", "4")


def run_python(*argv):
    """Run `python *argv` in a fresh interpreter that imports the statgeo
    package under test, whether it is installed or not."""
    pkg_parent = str(Path(statgeo.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (pkg_parent, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_entry_point():
    # Run the target that [project.scripts] declares, the way an installed
    # `statgeo` script would, so a renamed or dangling declaration fails here.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["statgeo"]
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name='statgeo', value={target!r}, group='console_scripts').load()\n"
        "sys.exit(main())\n"
    )
    r = run_python("-c", launcher, *CHECK_ARGV)
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"]["fail"] == 0


def test_python_m_statgeo():
    r = run_python("-m", "statgeo", *CHECK_ARGV)
    assert r.returncode == 0
    assert json.loads(r.stdout)["summary"]["fail"] == 0


def test_domain_error_names_first_offending_point(tmp_path):
    doc = {
        "dim": 2,
        "coords": ["t", "x"],
        "frame": [["1", "0"], ["log(t)", "1"]],
        "metric": [["1", "0"], ["0", "1"]],
    }
    pts = sample_points(2, [(-1.0, 1.0)] * 2, 20, 42)
    i = next(k for k, p in enumerate(pts) if p[0] <= 0)
    assert i > 0  # the message must locate the point, not default to the first
    where = "(" + ", ".join(f"{v:.4g}" for v in pts[i]) + ")"
    r = run_python("-m", "statgeo", "check", write_spec(tmp_path, doc))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: log of non-positive value")
    assert r.stderr.splitlines() == [r.stderr.strip()]
    assert f"at sample point {i} {where}" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def test_tiny_well_conditioned_metric_is_accepted(capsys, tmp_path):
    # det(1e-5 I) = 1e-15 in dim 3; singularity is judged relative to scale
    doc = {
        "dim": 3,
        "coords": ["t", "x", "y"],
        "frame": [["1", "0", "0"], ["0", "exp(-t)", "0"], ["0", "0", "exp(t)"]],
        "metric": [["1e-5", "0", "0"], ["0", "1e-5", "0"], ["0", "0", "1e-5"]],
        "connections": {"random_K_seed": 2},
    }
    code, rep, err = run_json(capsys, "check", write_spec(tmp_path, doc))
    assert code == 0 and err == ""
    assert rep["summary"]["fail"] == 0 and rep["summary"]["pass"] > 0


FLAT_KAEHLER_2D = {
    **FLAT_2D,
    "structure": {"phi": [["0", "-1"], ["1", "0"]]},
}


@pytest.mark.parametrize("value", ["no", "true", 1, 0, None, [True]])
def test_flags_must_be_booleans(capsys, tmp_path, value):
    # a string flag used to read as true and grade the Kaehler-gated checks
    doc = {**FLAT_KAEHLER_2D, "flags": {"kaehler": value}}
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "flags.kaehler must be true or false" in err


@pytest.mark.parametrize("value,status", [(True, "pass"), (False, "hypothesis-unmet")])
def test_boolean_flags_gate_the_kaehler_checks(capsys, tmp_path, value, status):
    doc = {**FLAT_KAEHLER_2D, "flags": {"kaehler": value}}
    code, rep, _ = run_json(capsys, "check", write_spec(tmp_path, doc), "--points", "4")
    assert code == 0
    statuses = {c["name"]: c["status"] for c in rep["checks"]}
    assert statuses["HERM-AZIZ10"] == statuses["HOLO-EQUIV"] == status


CANONICAL_CONTACT = {
    "phi": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
    "xi": ["1", "0", "0"],
    "eta": ["1", "0", "0"],
}


def test_indefinite_metric_exits_2_naming_the_point(capsys, tmp_path):
    doc = {
        "dim": 3,
        "coords": ["t", "x", "y"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]],
        "structure": CANONICAL_CONTACT,
    }
    pts = sample_points(3, [(-1.0, 1.0)] * 3, 20, 42)
    where = "(" + ", ".join(f"{v:.4g}" for v in pts[0]) + ")"
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == f"error: metric is not positive definite at sample point 0 {where}\n"


def test_metric_definiteness_is_judged_per_point(capsys, tmp_path):
    doc = {
        "dim": 3,
        "coords": ["t", "x", "y"],
        "frame": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "metric": [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "1"]],
    }
    pts = sample_points(3, [(-1.0, 1.0)] * 3, 20, 42)
    i = next(k for k, p in enumerate(pts) if p[0] < 0)
    assert i > 0  # the message must locate the point, not default to the first
    where = "(" + ", ".join(f"{v:.4g}" for v in pts[i]) + ")"
    code, out, err = run(capsys, "check", write_spec(tmp_path, doc))
    assert code == 2 and out == ""
    assert err == f"error: metric is not positive definite at sample point {i} {where}\n"
