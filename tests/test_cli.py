import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from khintchine_lab import cli, ifs, scan
from khintchine_lab.cli import ConfigError, build_config


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def small_excursions_config(tmp_path, name, workers=1, seed=3):
    doc = {
        "system": "cantor:1",
        "seed": seed,
        "output_dir": str(tmp_path / name),
        "parameters": {"points": 3, "n_max": 60, "level": 2.5, "grid_refine": 2},
    }
    return build_config("excursions", doc, {"workers": workers})


def test_build_config_precedence():
    doc = {"seed": 7, "parameters": {"steps": 500, "walks": 9}}
    cfg = build_config("simulate", doc, {"steps": "200"})
    assert cfg.parameters["steps"] == 200
    assert cfg.parameters["walks"] == 9
    assert cfg.parameters["level"] == 3.0
    assert cfg.seed == 7
    assert cfg.system == "cantor:1"
    assert cfg.output_dir == "runs_simulate"


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="colour"):
        build_config("simulate", {"colour": "red"}, {})
    with pytest.raises(ConfigError, match="stepz"):
        build_config("simulate", {"parameters": {"stepz": 5}}, {})
    with pytest.raises(ConfigError, match="simulate"):
        build_config("dani", {"command": "simulate"}, {})


def test_build_config_value_validation():
    with pytest.raises(ConfigError, match="steps"):
        build_config("simulate", None, {"steps": "abc"})
    with pytest.raises(ConfigError, match="seed"):
        build_config("simulate", None, {"seed": -1})
    with pytest.raises(ConfigError, match="workers"):
        build_config("simulate", None, {"workers": 0})
    cfg = build_config("simulate", None, {})
    assert cfg.parameters["delta"] is None


def test_grid_flag_and_env_workers(monkeypatch):
    cfg = build_config("dani", None, {"grid": "5,15"})
    assert [float(v) for v in cfg.parameters["grid"]] == [5.0, 15.0]
    monkeypatch.setenv("KHINTCHINE_LAB_WORKERS", "3")
    assert build_config("dani", None, {}).workers == 3
    assert build_config("dani", None, {"workers": 2}).workers == 2


# one flag value per caster, and the parameter value it must arrive as
FLAG_VALUES = {int: ("7", 7), float: ("0.25", 0.25), str: ("3/7", "3/7"), list: ("5,15", ["5", "15"])}


def test_every_spec_parameter_is_a_flag(monkeypatch, tmp_path, capsys):
    captured = []

    def fake_run(config):
        captured.append(config)
        return cli.RunManifest(config.command, "", {}, "", "", {}, {})

    monkeypatch.setattr(cli, "run", fake_run)
    out = str(tmp_path / "out")
    common = ["--seed", "5", "--workers", "2", "--out", out, "--system", "cantor:2"]
    for command, spec in cli._PARAM_SPECS.items():
        for name, (caster, default) in spec.items():
            flag, expected = FLAG_VALUES[caster]
            argv = [command, "--" + name.replace("_", "-"), flag] + common
            assert cli.main(argv) == 0, argv
            cfg = captured.pop()
            assert cfg.command == command
            assert cfg.parameters[name] == expected, argv
            others = {k: v for k, v in cfg.parameters.items() if k != name}
            assert others == {k: d for k, (_, d) in spec.items() if k != name}
            assert (cfg.seed, cfg.workers, cfg.output_dir, cfg.system) == (5, 2, out, "cantor:2")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--colour", "red"])
    assert exc.value.code == 2
    assert "colour" in capsys.readouterr().err


def test_resolve_system_builtin_and_file(tmp_path):
    assert cli.resolve_system("cantor:2").dimension == 2
    path = str(tmp_path / "sys.json")
    ifs.save_system(ifs.cantor_product(1), path)
    assert cli.resolve_system(path).dimension == 1


def test_run_is_deterministic_across_dirs_and_workers(tmp_path, monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    # cli imports the pool class when it starts a pool, so it gets this one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    m1 = cli.run(small_excursions_config(tmp_path, "a", workers=1))
    m2 = cli.run(small_excursions_config(tmp_path, "b", workers=2))
    assert pools == [2]  # the second run went through a real pool
    assert m1.outputs == m2.outputs
    assert m1.verdicts == m2.verdicts
    header, rows = read_csv(tmp_path / "a" / "excursions.csv")
    assert header == ["seed", "n", "tau", "sigma", "nu"]
    assert rows
    for row in rows:
        assert int(row[1]) >= 0 and int(row[2]) >= 0 and int(row[3]) >= 0
        assert float(row[4]) >= 0.0


def test_manifest_digests_match_files(tmp_path):
    manifest = cli.run(small_excursions_config(tmp_path, "c"))
    run_dir = tmp_path / "c"
    with open(run_dir / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["outputs"] == manifest.outputs
    assert doc["config"]["seed"] == 3
    for name, digest in manifest.outputs.items():
        assert cli._digest(os.path.join(run_dir, name)) == digest


def test_main_approx_end_to_end(tmp_path, capsys):
    out = str(tmp_path / "approx")
    code = cli.main(
        ["approx", "--x", "1/2", "--q-max", "50", "--out", out, "--system", "cantor:1"]
    )
    assert code == 0
    assert "output file" in capsys.readouterr().out
    header, rows = read_csv(os.path.join(out, "hits.csv"))
    qs = [int(r[header.index("q")]) for r in rows]
    assert qs == [1] + list(range(2, 51, 2))
    with open(os.path.join(out, "manifest.json")) as fh:
        verdicts = json.load(fh)["verdicts"]
    assert verdicts["direct_violations"] == 0
    assert verdicts["converse_violations"] == 0
    skipped = verdicts["degenerate_skipped"] + verdicts["below_domain_skipped"]
    assert verdicts["hits"] == verdicts["hits_checked"] + skipped


def test_approx_verdicts_count_below_domain_skips(tmp_path):
    # with x0 = 5 the witness time of the hit at q = 3 lies below t0: it is
    # skipped and counted, not lost
    doc = {
        "output_dir": str(tmp_path),
        "parameters": {"x": "golden", "q_max": 1000, "psi_x0": 5.0},
    }
    verdicts = cli.run(build_config("approx", doc, {})).verdicts
    assert verdicts["below_domain_skipped"] == 1
    skipped = verdicts["degenerate_skipped"] + verdicts["below_domain_skipped"]
    assert verdicts["hits"] == verdicts["hits_checked"] + skipped == 13


def test_main_approx_without_checked_hits_exits_1(tmp_path, capsys):
    # every hit of 3/7 under psi frozen at psi(50) is exact: the direct check
    # would judge nothing
    argv = ["approx", "--x", "3/7", "--q-max", "200", "--psi-x0", "50",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "no hit checked" in capsys.readouterr().err
    assert not (tmp_path / "hits.csv").exists()


def test_main_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"colour": "red"}')
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert "colour" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    assert cli.main(["simulate", "--config", str(mangled)]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_main_non_finite_level_exits_1(tmp_path, capsys, level):
    argv = ["excursions", "--system", "cantor:1", "--level", level, "--points", "2",
            "--n-max", "10", "--workers", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--psi-x0", "--psi-a", "--psi-c", "--alpha"])
def test_main_dani_non_finite_psi_exits_1(tmp_path, capsys, flag):
    # a nan psi parameter makes every balance residual nan, and a nan alpha
    # passes "alpha <= 0": the run must fail
    argv = ["dani", "--alpha", "0.5", flag, "nan", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dani", "--alpha", "inf"], "alpha must be finite and positive"),
        (["dani", "--d", "0"], "d must be at least 1"),
        (["dani", "--d", "-1"], "d must be at least 1"),
        (["approx", "--x", "1/2", "--tol", "nan"], "tol must be finite and positive"),
        (["approx", "--x", "1/2", "--tol", "inf"], "tol must be finite and positive"),
        (["approx", "--x", "1/2", "--tol", "-1"], "tol must be finite and positive"),
        (["approx", "--x", "1e17", "--q-max", "200"], "below 2^63"),
        (["approx", "--x", "1e400"], "too large for a float"),
        (["constants", "--n-max", "340"], "n = 340 is too large"),
        (["constants", "--n-max", "680"], "n = 340 is too large"),
        (["dani", "--grid", ""], "truncation grid is empty"),
        (["dani", "--grid", "1e6"], "past the limit of 20000"),
        (["excursions", "--system", "cantor:6", "--points", "1", "--n-max", "3"],
         "dimension 7 above certified range 6"),
        (["simulate", "--system", "cantor:6", "--walks", "1", "--steps", "3"],
         "dimension 7 above certified range 6"),
        (["excursions", "--system", "nan-weight.json", "--points", "2", "--n-max", "10"],
         "weights must be strictly positive"),
    ],
    ids=" ".join,
)
def test_main_bad_argument_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    # each of these either passed vacuously or ended in a traceback (a nan
    # weight failed only inside numpy's sampler)
    monkeypatch.chdir(tmp_path)
    doc = ifs.system_to_json(ifs.cantor_product(1))
    doc["weights"][0] = float("nan")
    Path("nan-weight.json").write_text(json.dumps(doc))
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "manifest.json").exists()


def test_main_excursions_without_records_exits_1(tmp_path, capsys):
    # heights are never negative, so no window visit and no record to judge
    argv = ["excursions", "--system", "cantor:1", "--level", "-1", "--points", "2",
            "--n-max", "50", "--workers", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "no excursion record" in capsys.readouterr().err


def test_main_survey_without_points_exits_1(tmp_path, capsys):
    # a survey of no sample point would report no band at all
    argv = ["survey", "--count", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "sample_count >= 1" in capsys.readouterr().err
    assert not (tmp_path / "survey.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_approx_scans_once(tmp_path, monkeypatch):
    # hits.csv and the cross-check verdicts come from one scan of q = 1..q_max
    calls = []
    original = scan.scan_hits

    def counted(*args, **kwargs):
        calls.append(args[3] if len(args) > 3 else kwargs.get("x_exact"))
        return original(*args, **kwargs)

    for module in (scan, cli):  # every module-level binding of the scan
        if hasattr(module, "scan_hits"):
            monkeypatch.setattr(module, "scan_hits", counted)
    for name, x, exact in (("exact", "3/7", True), ("float", "golden", False)):
        calls.clear()
        doc = {"output_dir": str(tmp_path / name), "parameters": {"x": x, "q_max": 200}}
        manifest = cli.run(build_config("approx", doc, {}))
        assert len(calls) == 1, name
        assert (calls[0] is not None) == exact
        _, rows = read_csv(tmp_path / name / "hits.csv")
        assert len(rows) == manifest.verdicts["hits"] > 0


def test_main_report_missing_manifest_exit_1(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "nope")]) == 1
    assert "missing manifest" in capsys.readouterr().err


def test_report_aggregates_digests(tmp_path, capsys):
    manifest = cli.run(small_excursions_config(tmp_path, "d"))
    rep_dir = str(tmp_path / "rep")
    assert cli.main(["report", str(tmp_path / "d"), "--out", rep_dir]) == 0
    capsys.readouterr()
    with open(os.path.join(rep_dir, "report.md")) as fh:
        text = fh.read()
    assert manifest.outputs["excursions.csv"] in text
    assert "## excursions" in text
    for key in manifest.verdicts:
        assert key in text
    with pytest.raises(ConfigError):
        cli.run(build_config("report", None, {}))


def test_run_survey_and_dani(tmp_path):
    doc = {
        "system": "cantor:1",
        "output_dir": str(tmp_path / "sv"),
        "parameters": {"count": 40, "q_max": 64},
    }
    m = cli.run(build_config("survey", doc, {}))
    header, rows = read_csv(tmp_path / "sv" / "survey.csv")
    assert header == ["band", "fraction", "n_uncertain"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)
    doc = {"output_dir": str(tmp_path / "dn"), "parameters": {"grid": [5, 9]}}
    m = cli.run(build_config("dani", doc, {}))
    assert "dani.json" in m.outputs
    with open(tmp_path / "dn" / "dani.json") as fh:
        payload = json.load(fh)
    assert payload["agree"] is True
    assert abs(payload["closed_form_residual"]) < 1e-9


def test_run_constants_small(tmp_path):
    doc = {
        "system": "cantor:2",
        "output_dir": str(tmp_path / "ct"),
        "parameters": {"n_max": 2, "samples": 4000, "search_budget": 20},
    }
    m = cli.run(build_config("constants", doc, {"workers": 2}))
    header, rows = read_csv(tmp_path / "ct" / "constants.csv")
    assert header[:4] == ["d", "l", "n", "lower"]
    assert {int(r[1]) for r in rows} == {1, 2}
    for r in rows:
        assert float(r[3]) <= float(r[4])  # axis sandwich present for cantor
    assert m.verdicts["varpi_exact"] == pytest.approx(cli.cantor_varpi(2))


def test_run_constants_on_a_system_file(tmp_path):
    # a JSON system has no closed forms: NaN sandwich bounds, no varpi_exact
    # and no covering certificate; the sampled columns are the builtin's
    path = str(tmp_path / "cantor1.json")
    ifs.save_system(ifs.cantor_product(1), path)
    params = {"n_max": 3, "samples": 4000, "search_budget": 20}
    runs = {}
    for name, system in (("file", path), ("builtin", "cantor:1")):
        doc = {"system": system, "output_dir": str(tmp_path / name), "parameters": params}
        manifest = cli.run(build_config("constants", doc, {"workers": 1}))
        runs[name] = manifest.verdicts, read_csv(tmp_path / name / "constants.csv")[1]
    verdicts, rows = runs["file"]
    assert rows and all(r[3] == r[4] == "nan" for r in rows)
    assert "varpi_exact" not in verdicts
    assert not any(key.startswith("certificate_") for key in verdicts)
    builtin_verdicts, builtin_rows = runs["builtin"]
    assert [r[:3] + r[5:] for r in rows] == [r[:3] + r[5:] for r in builtin_rows]
    assert verdicts["varpi_hat"] == builtin_verdicts["varpi_hat"]


NO_SCIPY = """
import json, math, sys

import khintchine_lab.cli as cli

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"importing the command line loaded {loaded}"


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
assert cli.main(["simulate", "--system", "cantor:1", "--walks", "4", "--steps", "300",
                 "--level", "2.0", "--out", "simulate"]) == 0
with open("simulate/manifest.json") as fh:
    assert math.isfinite(json.load(fh)["verdicts"]["fitted_rate_ci"][0])
assert cli.main(["dani", "--d", "2", "--psi-b", "1.0", "--out", "dani"]) == 0
"""


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_runs_without_scipy(tmp_path):
    # importing the command line must not load scipy, and simulate (tail
    # statistics) and dani (partial integrals) must run with scipy blocked
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_multiprocessing(tmp_path):
    # a --workers 1 run starts no pool, so importing the command line must
    # not load the pool's multiprocessing modules
    code = ("import sys, khintchine_lab.cli; print(sorted(m for m in sys.modules "
            "if m.lstrip('_').split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


LAZY_IMPORTS = """
import json, math, sys

import khintchine_lab.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("mpmath", "argparse"))

assert loaded() == [], f"importing the command line loaded {loaded()}"
assert cli.main(["simulate", "--system", "cantor:1", "--walks", "4", "--steps", "300",
                 "--level", "2.0", "--out", "simulate"]) == 0
with open("simulate/manifest.json") as fh:
    ci = json.load(fh)["verdicts"]["fitted_rate_ci"]
assert len(ci) == 2 and all(map(math.isfinite, ci)), ci
assert {"mpmath", "argparse"} <= set(sys.modules)
"""


def test_import_loads_no_mpmath_or_argparse(tmp_path):
    # mpmath serves only simulate's t quantile and argparse only main, so
    # importing the command line loads neither; a simulate through main then
    # loads both and still writes a finite confidence interval
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
