"""Tests for the command-line experiment runner."""

import json
from pathlib import Path

import pytest

from regraph import cli
from regraph.errors import InvalidInputError


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(kind, cfg, out, *extra):
    return cli.main([kind, "--config", str(cfg), "--out", str(out), *extra])


def test_parse_config_values(tmp_path):
    cfg = _write(tmp_path, "a.cfg", """
# a comment
model = permutation   # trailing comment
n = 10
T = 1.5
grid = 0.0, 0.5, 1.5
flag = true
name = hello
""")
    params = cli.parse_config_file(cfg)
    assert params == {"model": "permutation", "n": 10, "T": 1.5,
                      "grid": [0.0, 0.5, 1.5], "flag": True, "name": "hello"}


def test_parse_error_reports_line_number(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "model = permutation\nnonsense line\n")
    with pytest.raises(InvalidInputError, match=":2"):
        cli.parse_config_file(cfg)


def test_validate_examples():
    ok = cli.ExperimentConfig("cycles", {"model": "permutation", "n": 10, "d": 2, "r": 3})
    assert cli.validate(ok) == []
    # a simple d-regular graph on n vertices needs n*d even and d < n
    bad_parity = cli.ExperimentConfig("sample", {"model": "uniform", "n": 7, "d": 3})
    v = cli.validate(bad_parity)
    assert len(v) == 1 and "uniform" in v[0]
    bad_r = cli.ExperimentConfig("cycles", {"model": "permutation", "n": 10, "d": 2, "r": 0})
    v = cli.validate(bad_r)
    assert len(v) == 1 and "r" in v[0]


def test_missing_field_exits_2_and_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", "model = permutation\nn = 10\n")
    assert _run("sample", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # single-line error
    assert "'d'" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_poisson_test_smoke(tmp_path):
    cfg = _write(tmp_path, "p.cfg",
                 "model = permutation\nd = 1\nr = 3\nn_values = 40, 80\nsamples = 500\n")
    assert _run("poisson-test", cfg, tmp_path / "out", "--seed", "3") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    rows = report["body"]["rows"]
    assert [row["n"] for row in rows] == [40, 80]
    assert all(0 <= row["tv"] <= 1 for row in rows)
    assert all("tv_bias_bound" in row for row in rows)
    csv_text = (tmp_path / "out" / "rows.csv").read_text()
    assert csv_text.splitlines()[0].split(",")[0] == "model"
    assert "tv" in csv_text.splitlines()[0].split(",")


def test_sample_cycles_spectrum_smoke(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "model = permutation\nn = 12\nd = 2\ncount = 2\n")
    assert _run("sample", cfg, tmp_path / "s") == 0
    report = json.loads((tmp_path / "s" / "report.json").read_text())
    assert len(report["body"]["graphs"]) == 2
    assert report["body"]["graphs"][0]["model"] == "permutation"

    cfg = _write(tmp_path, "c.cfg", "model = uniform\nn = 12\nd = 2\nr = 4\n")
    assert _run("cycles", cfg, tmp_path / "c") == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert set(report["body"]["rows"][0]["by_length"]) == {"1", "2", "3", "4"}

    cfg = _write(tmp_path, "e.cfg", "model = permutation\nn = 20\nd = 2\n")
    assert _run("spectrum", cfg, tmp_path / "e") == 0
    lines = (tmp_path / "e" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "unit"
    assert len(lines) == 21
    eigs = [float(v) for v in lines[1:]]
    assert eigs == sorted(eigs, reverse=True)
    assert eigs[0] == pytest.approx(4 / (2 * 3 ** 0.5))  # Perron eigenvalue, unit scale


def test_grow_and_limit_smoke(tmp_path):
    cfg = _write(tmp_path, "g.cfg",
                 "d = 2\ns = 0.5\nT = 1.0\ngrid = 0.0, 1.0\nr = 3\nreplicas = 3\n")
    assert _run("grow", cfg, tmp_path / "g", "--seed", "2") == 0
    lines = (tmp_path / "g" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "run_id,t,key_type,key,count,source"
    assert lines[1].endswith("growth")
    assert (tmp_path / "g" / "events.csv").exists()

    cfg = _write(tmp_path, "l.cfg",
                 "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 1.0\nreplicas = 5\n")
    assert _run("limit-sim", cfg, tmp_path / "l", "--seed", "2") == 0
    lines = (tmp_path / "l" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "run_id,t,key_type,key,count,source"
    assert lines[1].endswith("limit")


def test_gff_check_smoke(tmp_path):
    cfg = _write(tmp_path, "f.cfg", "jmax = 2\nkmax = 2\nlags = 0.0, 0.3\n")
    assert _run("gff-check", cfg, tmp_path / "f") == 0
    report = json.loads((tmp_path / "f" / "report.json").read_text())
    pairs = report["body"]["pairs"]
    assert len(pairs) == 8
    assert all(p["abs_err"] < 1e-4 for p in pairs)
    assert set(pairs[0]) == {"j", "k", "lag", "numeric", "closed_form", "abs_err"}


def test_report_body_independent_of_workers(tmp_path):
    cfg = _write(tmp_path, "g.cfg",
                 "d = 2\ns = 0.5\nT = 0.5\ngrid = 0.0, 0.5\nr = 3\nreplicas = 4\n")
    bodies = []
    for i, workers in enumerate((1, 3)):
        out = tmp_path / f"out{i}"
        assert _run("grow", cfg, out, "--seed", "11", "--workers", str(workers)) == 0
        report = json.loads((out / "report.json").read_text())
        bodies.append(json.dumps(report["body"], sort_keys=True))
        bodies.append((out / "trajectory.csv").read_text())
    assert bodies[0] == bodies[2]
    assert bodies[1] == bodies[3]


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "s.cfg", "model = permutation\nn = 8\nd = 1\nseed = 1\n")
    monkeypatch.setenv("REGRAPH_SEED", "42")
    assert _run("sample", cfg, tmp_path / "out", "--seed", "7") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 42
    monkeypatch.setenv("REGRAPH_SEED", "not-a-number")
    assert _run("sample", cfg, tmp_path / "out2") == 2


def test_rerun_same_seed_identical_body(tmp_path):
    cfg = _write(tmp_path, "p.cfg",
                 "model = permutation\nd = 1\nr = 3\nn_values = 30\nsamples = 200\n")
    bodies = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("poisson-test", cfg, out, "--seed", "4") == 0
        report = json.loads((out / "report.json").read_text())
        bodies.append(json.dumps(report["body"], sort_keys=True))
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("kind, text, code", [
    ("sample", "model = uniform\nn = 4\nd = 2\n", 0),  # the 4-cycle
    ("sample", "model = uniform\nn = 7\nd = 3\n", 2),  # n*d odd
    ("poisson-test", "model = uniform\nd = 3\nr = 3\nn_values = 8, 7\nsamples = 5\n", 2),
    ("poisson-test", "model = uniform\nd = 3\nr = 3\nn_values = 8\nsamples = 20000\n", 2),
], ids=["sample-valid", "sample-odd-degree-sum", "poisson-test-n-values",
        "poisson-test-sample-cap"])
def test_uniform_model_validation_matches_sampler(tmp_path, capsys, kind, text, code):
    cfg = _write(tmp_path, "u.cfg", text)
    assert _run(kind, cfg, tmp_path / "out") == code
    if code == 2:
        assert "uniform" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_failed_run_leaves_no_output_directory(tmp_path):
    # valid config whose product-Poisson box exceeds the pmf budget at run time
    cfg = _write(tmp_path, "p.cfg",
                 "model = permutation\nd = 2\nr = 7\nn_values = 8\nsamples = 10\n")
    assert _run("poisson-test", cfg, tmp_path / "new" / "out") == 3
    assert not (tmp_path / "new").exists()
    # a directory the run did not create is left in place
    (tmp_path / "mine").mkdir()
    assert _run("poisson-test", cfg, tmp_path / "mine") == 3
    assert (tmp_path / "mine").is_dir()
