"""Tests for the command-line experiment runner."""

import csv
import dataclasses
import gc
import io
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import regraph
from regraph import cli, errors, growth, limitproc, poissonlab, walks, words
from regraph.errors import InvalidInputError, ResourceLimitError


def _write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(kind, cfg, out, *extra):
    return cli.main([kind, "--config", str(cfg), "--out", str(out), *extra])


def _with(text: str, line: str) -> str:
    """The config text with ``line`` in place of the line that sets its key."""
    key = line.split(" =")[0]
    return "".join(f"{kept}\n" for kept in text.splitlines()
                   if kept.split(" =")[0] != key) + line + "\n"


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


def test_cycles_of_a_long_uniform_two_regular_graph(tmp_path):
    # a 2-regular graph is disjoint cycles covering every vertex, so at r = n
    # the census accounts for all n of them, however long its cycles are
    cfg = _write(tmp_path, "c.cfg", "model = uniform\nn = 1500\nd = 2\nr = 1500\n")
    assert _run("cycles", cfg, tmp_path / "c") == 0
    by_length = json.loads((tmp_path / "c" / "report.json").read_text())["body"]["rows"][0][
        "by_length"]
    assert sum(int(k) * count for k, count in by_length.items()) == 1500


def test_uniform_cycles_past_the_step_budget_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(errors, "SEARCH_STEPS", 10)
    cfg = _write(tmp_path, "c.cfg", "model = uniform\nn = 20\nd = 3\nr = 6\n")
    assert _run("cycles", cfg, tmp_path / "c") == 3
    assert not (tmp_path / "c").exists()


def test_cycles_of_a_permutation_with_long_cycles(tmp_path):
    # at d = 1 the graph is the cycles of one permutation, covering every
    # vertex, so at r = n the labelled census accounts for all n of them
    cfg = _write(tmp_path, "c.cfg", "model = permutation\nn = 3000\nd = 1\nr = 3000\n")
    assert _run("cycles", cfg, tmp_path / "c") == 0
    by_length = json.loads((tmp_path / "c" / "report.json").read_text())["body"]["rows"][0][
        "by_length"]
    assert sum(int(k) * count for k, count in by_length.items()) == 3000


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


def test_grow_outputs_do_not_depend_on_block_or_workers(tmp_path, monkeypatch):
    # blocks of one run, of two, and of all five, each at one and two workers
    text = "d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nr = 4\nreplicas = 5\n"
    cfg = _write(tmp_path, "g.cfg", text)
    per_run = walks.census_vertex_bytes(2, 4) * sum(math.exp(1.0 + t) for t in (0.0, 0.5, 1.0))
    outputs = set()
    for block_bytes, block in ((1, 1), (2.5 * per_run, 2), (2**62, 5)):
        monkeypatch.setattr(growth, "GROWTH_BLOCK_BYTES", block_bytes)
        assert min(5, growth.block_replicas(2, 4, [1.0, 1.5, 2.0])) == block
        for workers in (1, 2):
            out = tmp_path / f"out{block}-{workers}"
            assert _run("grow", cfg, out, "--seed", "17", "--workers", str(workers)) == 0
            report = json.loads((out / "report.json").read_text())
            outputs.add((json.dumps(report["body"], sort_keys=True),
                         (out / "trajectory.csv").read_bytes(),
                         (out / "events.csv").read_bytes()))
    assert len(outputs) == 1
    assert next(iter(outputs))[2].count(b"\n") > 5 * 10  # the events file holds real rows


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
], ids=["sample-valid", "sample-odd-degree-sum", "poisson-test-n-values"])
def test_uniform_model_validation_matches_sampler(tmp_path, capsys, kind, text, code):
    cfg = _write(tmp_path, "u.cfg", text)
    assert _run(kind, cfg, tmp_path / "out") == code
    if code == 2:
        assert "uniform" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, code", [
    ("model = uniform\nn = 4\nd = 1\n", 2),  # the default unit scale
    ("model = uniform\nn = 4\nd = 1\nscale = half\n", 2),
    ("model = permutation\nn = 4\nd = 1\nscale = bogus\n", 2),
    ("model = uniform\nn = 4\nd = 1\nscale = raw\n", 0),
    ("model = permutation\nn = 4\nd = 1\nscale = half\n", 0),  # degree 2
], ids=["uniform-d1-unit", "uniform-d1-half", "unknown-scale", "uniform-d1-raw",
        "permutation-d1-half"])
def test_spectrum_scale_validation(tmp_path, capsys, text, code):
    cfg = _write(tmp_path, "e.cfg", text)
    assert _run("spectrum", cfg, tmp_path / "out") == code
    if code == 2:
        assert "scale" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    elif "uniform" in text:
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "raw"
        assert [float(v) for v in lines[1:]] == pytest.approx([1.0, 1.0, -1.0, -1.0])


@pytest.mark.parametrize("kind, text", [
    ("grow", "d = 2\ns = 1.0\nT = 1.0\ngrid = 0, x\nr = 3\n"),
    ("grow", "d = 2\ns = 1.0\nT = abc\ngrid = 0.0, 0.5\nr = 3\n"),
    ("gff-check", "jmax = 2\nkmax = 2\nlags = foo\n"),
], ids=["grow-grid", "grow-T", "gff-check-lags"])
def test_non_numeric_value_exits_2(tmp_path, capsys, kind, text):
    cfg = _write(tmp_path, "n.cfg", text)
    assert _run(kind, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", ["permutation", "uniform"])
def test_poisson_test_empty_n_values_exits_2(tmp_path, capsys, model):
    cfg = _write(tmp_path, "p.cfg", f"model = {model}\nd = 2\nr = 3\nn_values = ,\nsamples = 4\n")
    assert cli.parse_config_file(cfg)["n_values"] == []
    assert _run("poisson-test", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "n_values" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, text, name", [
    ("grow", "d = 2\ns = 0.5, 1.0\nT = 1.0\ngrid = 0.0\nr = 3\n", "s"),
    ("grow", "d = 2\ns = 1.0\nT = 1, 2\ngrid = 0.0\nr = 3\n", "T"),
    ("limit-sim", "d = 2\nK = 3\nT = 1, 2\ngrid = 0.0\n", "T"),
], ids=["grow-s", "grow-T", "limit-sim-T"])
def test_list_valued_s_or_T_exits_2(tmp_path, capsys, kind, text, name):
    cfg = _write(tmp_path, "l.cfg", text)
    assert _run(kind, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {name} must be a number") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# one valid config a kind; a line appended to it overrides the field it names
_VALID = {
    "sample": "model = permutation\nn = 10\nd = 2\n",
    "cycles": "model = permutation\nn = 10\nd = 2\nr = 3\n",
    "poisson-test": "model = permutation\nd = 2\nr = 3\nn_values = 10, 20\nsamples = 4\n",
    "limit-sim": "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 1.0\n",
    "gff-check": "jmax = 1\nkmax = 1\nlags = 0.5\n",
}


@pytest.mark.parametrize("kind, line", [
    ("sample", "n = true"),
    ("sample", "d = true"),
    ("cycles", "r = true"),
    ("sample", "count = true"),
    ("poisson-test", "samples = true"),
    ("poisson-test", "n_values = 10, true"),
    ("limit-sim", "K = true"),
    ("limit-sim", "replicas = true"),
    ("gff-check", "jmax = true"),
    ("gff-check", "kmax = true"),
    ("sample", "seed = true"),
    ("sample", "workers = true"),
])
def test_boolean_in_integer_field_exits_2(tmp_path, capsys, kind, line):
    assert cli.validate(cli.ExperimentConfig(kind, cli.parse_config_file(
        _write(tmp_path, "ok.cfg", _VALID[kind])))) == []
    cfg = _write(tmp_path, "b.cfg", _with(_VALID[kind], line))
    assert _run(kind, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and line.split(" =")[0] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["2024", "2.5", "true", "a, b", "a#b"])
def test_out_in_config_keeps_its_text(tmp_path, capsys, monkeypatch, value):
    # a number, a boolean or a list would parse as one; out is a path as
    # written, and a # starts a comment only at a line's start or after whitespace
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "o.cfg", _VALID["sample"] + f"out = {value}  # here\n")
    assert cli.main(["sample", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == str(Path(value) / "report.json") + "\n"
    assert sorted(path.name for path in (tmp_path / value).iterdir()) == ["report.json"]


@pytest.mark.parametrize("case", ["config-not-utf-8", "out-is-a-file", "out-below-a-file",
                                  "out-name-too-long", "out-name-too-long-in-existing-dir",
                                  "out-null-byte-in-config"])
def test_unreadable_config_or_unusable_out_exits_2(tmp_path, capsys, case):
    (tmp_path / "file").write_text("kept\n")
    cfg = _write(tmp_path, "ok.cfg", _VALID["sample"])
    out = {"out-is-a-file": tmp_path / "file",
           "out-below-a-file": tmp_path / "file" / "out",
           "out-name-too-long": tmp_path / "new" / ("a" * 300),
           "out-name-too-long-in-existing-dir": tmp_path / ("a" * 300),
           }.get(case, tmp_path / "new" / "out")
    argv = ["sample", "--config", str(cfg), "--out", str(out)]
    if case == "config-not-utf-8":
        cfg.write_bytes(b"\xff" + _VALID["sample"].encode())
    elif case == "out-null-byte-in-config":
        cfg.write_text(_VALID["sample"] + f"out = {tmp_path / 'new' / 'a'}\0b\n")
        argv = argv[:3]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "kept\n"


def test_report_version_is_the_package_version(tmp_path):
    # a source checkout is not installed, and its reports still name its version
    cfg = _write(tmp_path, "ok.cfg", _VALID["sample"])
    assert _run("sample", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["version"] == "v" + regraph.__version__


def test_uniform_poisson_test_past_ten_thousand_samples_runs(tmp_path):
    # a uniform poisson-test is bounded by its byte estimate alone
    cfg = _write(tmp_path, "u.cfg", "model = uniform\nd = 3\nr = 3\nn_values = 8\nsamples = 10001\n")
    assert cli.validate(cli.ExperimentConfig("poisson-test", cli.parse_config_file(cfg))) == []
    assert _run("poisson-test", cfg, tmp_path / "out") == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["body"]["rows"]
    assert [(row["n"], row["samples"]) for row in rows] == [(8, 10001)]


def test_config_key_set_twice_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "twice.cfg", "n = 10\nmodel = permutation\nd = 2\n# again\n n = 20\n")
    with pytest.raises(InvalidInputError, match=r"\.cfg:5: key 'n' is set again, first at line 1"):
        cli.parse_config_file(cfg)
    assert _run("sample", cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: parse error at") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("kind, text, message", [
    ("cycles", _VALID["cycles"] + "replicas = 0\n", "unknown field 'replicas' for kind cycles"),
    ("grow", "d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0\nr = 3\nreplica = 1000000000000\n",
     "unknown field 'replica' for kind grow"),
], ids=["cycles-replicas", "grow-replica"])
def test_unknown_field_exits_2(tmp_path, capsys, kind, text, message):
    cfg = _write(tmp_path, "u.cfg", text)
    assert cli.validate(cli.ExperimentConfig(kind, cli.parse_config_file(cfg))) == [message]
    assert _run(kind, cfg, tmp_path / "new" / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("kind, text, name", [
    ("grow", "d = 2\ns = 1.0\nT = 1.0\ngrid = ,\nr = 3\n", "grid"),
    ("grow", "d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0, inf\nr = 3\n", "grid"),
    ("grow", "d = 2\ns = inf\nT = 1.0\ngrid = 0.0\nr = 3\n", "s"),
    ("grow", "d = 2\ns = 1.0\nT = nan\ngrid = 0.0\nr = 3\n", "T"),
    ("limit-sim", "d = 2\nK = 3\nT = 1.0\ngrid = ,\n", "grid"),
    ("limit-sim", "d = 2\nK = 3\nT = inf\ngrid = 0.0\nreplicas = 2\n", "T"),
    ("limit-sim", "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 1e400\n", "grid"),
    ("gff-check", "jmax = 1\nkmax = 1\nlags = inf\n", "lags"),
    ("gff-check", "jmax = 1\nkmax = 1\nlags = ,\n", "lags"),
    ("gff-check", "jmax = 1\nkmax = 1\nlags = 0.5, nan\n", "lags"),
    # e^lag past the float range
    ("gff-check", "jmax = 1\nkmax = 1\nlags = 710\n", "lags"),
    ("gff-check", "jmax = 1\nkmax = 1\nlags = 0.3, 1e308\n", "lags"),
], ids=["grow-grid-empty", "grow-grid-inf", "grow-s-inf", "grow-T-nan", "limit-sim-grid-empty",
        "limit-sim-T-inf", "limit-sim-grid-overflow", "gff-check-lags-inf",
        "gff-check-lags-empty", "gff-check-lags-nan", "gff-check-lags-710",
        "gff-check-lags-1e308"])
def test_non_finite_or_empty_value_exits_2(tmp_path, capsys, monkeypatch, kind, text, name):
    for body in cli._BODIES:
        monkeypatch.setitem(cli._BODIES, body, lambda config: pytest.fail("it ran"))
    cfg = _write(tmp_path, "n.cfg", text)
    assert _run(kind, cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {name} must be") and err.count("\n") == 1
    assert not (tmp_path / "new").exists()


def test_gff_check_at_the_largest_lag_runs(tmp_path):
    # a lag just under log(largest float) = 709.7827 runs, and its covariances are finite
    cfg = _write(tmp_path, "g.cfg", "jmax = 2\nkmax = 2\nlags = 709.78\n")
    assert _run("gff-check", cfg, tmp_path / "out") == 0
    with open(tmp_path / "out" / "pairs.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4 and all(abs(float(row["numeric"])) < 1e-12 for row in rows)


def test_an_int_past_the_float_range_is_no_number(tmp_path):
    text = "d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0\nr = 3\n"
    big = "1" + "0" * 400
    for line in (f"s = {big}", f"T = {big}"):
        params = cli.parse_config_file(_write(tmp_path, "b.cfg", _with(text, line)))
        assert cli.validate(cli.ExperimentConfig("grow", params)) == [
            f"{line.split(' =')[0]} must be a number >= 0, not inf or nan; got {int(big)}"]


def test_failed_run_leaves_no_output_directory(tmp_path):
    # valid config whose warm-up to s = 20 passes the 10^6-vertex cap of
    # growth.poissonized_times at run time
    cfg = _write(tmp_path, "g.cfg", "d = 2\ns = 20\nT = 0\ngrid = 0\nr = 3\n")
    assert _run("grow", cfg, tmp_path / "new" / "out") == 3
    assert not (tmp_path / "new").exists()
    # a directory the run did not create is left in place
    (tmp_path / "mine").mkdir()
    assert _run("grow", cfg, tmp_path / "mine") == 3
    assert (tmp_path / "mine").is_dir()


def test_limit_sim_replicas_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 10^7 replicas at the perfbench limit-sim shape would hold about 28 GB
    text = "d = 2\nK = 4\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nreplicas = {}\n"
    assert cli.validate(cli.ExperimentConfig("limit-sim", cli.parse_config_file(
        _write(tmp_path, "ok.cfg", text.format(4096))))) == []
    monkeypatch.setitem(cli._BODIES, "limit-sim", lambda config: pytest.fail("limit-sim ran"))
    cfg = _write(tmp_path, "l.cfg", text.format(10**7))
    assert _run("limit-sim", cfg, tmp_path / "new" / "out") == 2
    assert "replicas" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_poisson_test_census_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    text = "model = permutation\nd = 2\nr = 3\nn_values = 10, {}\nsamples = 4\n"
    monkeypatch.setattr(errors, "BYTE_CAP",
                        poissonlab.cycle_sample_bytes("permutation", 1000, 2, 3, 4))
    assert cli.validate(cli.ExperimentConfig("poisson-test", cli.parse_config_file(
        _write(tmp_path, "ok.cfg", text.format(1000))))) == []
    monkeypatch.setitem(cli._BODIES, "poisson-test", lambda config: pytest.fail("it ran"))
    cfg = _write(tmp_path, "p.cfg", text.format(1001))
    assert _run("poisson-test", cfg, tmp_path / "new" / "out") == 2
    assert "n_values" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_uniform_poisson_test_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 10^4 graphs at n = 10^5 would hold about 64 GB of pairings and tables
    text = "model = uniform\nd = 3\nr = 4\nn_values = 10, {}\nsamples = 10000\n"
    assert cli.validate(cli.ExperimentConfig("poisson-test", cli.parse_config_file(
        _write(tmp_path, "ok.cfg", text.format(1000))))) == []
    monkeypatch.setitem(cli._BODIES, "poisson-test", lambda config: pytest.fail("it ran"))
    cfg = _write(tmp_path, "u.cfg", text.format(100_000))
    assert _run("poisson-test", cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert "10000 uniform graphs with n=100000" in err and "lower n_values, r or samples" in err
    assert not (tmp_path / "new").exists()


def test_poisson_test_with_large_means_runs(tmp_path):
    # seven target means up to 156, whose product has no small truncation box
    cfg = _write(tmp_path, "p.cfg",
                 "model = permutation\nd = 2\nr = 7\nn_values = 8\nsamples = 10\n")
    assert _run("poisson-test", cfg, tmp_path / "out") == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["body"]["rows"]
    assert all(0 <= row["tv"] <= 1 for row in rows)


def test_grow_without_events_writes_events_header(tmp_path):
    cfg = _write(tmp_path, "g.cfg", "d = 2\ns = 0.5\nT = 0\ngrid = 0\nr = 3\n")
    assert _run("grow", cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "events.csv").read_text() == "run_id,time,kind,word,parent\n"


# The dict-per-row CSV path the CLI used before it streamed row tuples; the
# streamed files must match it byte for byte.

def _trajectory_rows(run_id, source, grid, classes, counts, by_length):
    rows = []
    counts = np.asarray(counts)
    by_length = np.asarray(by_length)
    for ti, t in enumerate(grid):
        for ci, name in enumerate(classes):
            rows.append({"run_id": run_id, "t": repr(float(t)), "key_type": "word",
                         "key": name, "count": int(counts[ti, ci]),
                         "source": source})
        for k in range(1, by_length.shape[1] + 1):
            rows.append({"run_id": run_id, "t": repr(float(t)), "key_type": "length",
                         "key": str(k), "count": int(by_length[ti, k - 1]),
                         "source": source})
    return rows


def _dict_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("seed", [5, 6])
def test_streamed_csvs_match_dict_row_oracle(tmp_path, seed):
    d, K, horizon, grid, replicas = 2, 3, 1.0, [0.0, 0.5, 1.0], 1100  # two chunks
    cfg = _write(tmp_path, "l.cfg",
                 f"d = {d}\nK = {K}\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nreplicas = {replicas}\n")
    assert _run("limit-sim", cfg, tmp_path / "l", "--seed", str(seed)) == 0
    pieces = []
    for idx in range(math.ceil(replicas / cli._LIMIT_CHUNK)):
        size = min(cli._LIMIT_CHUNK, replicas - idx * cli._LIMIT_CHUNK)
        counts, model = limitproc.simulate_limit(
            d, K, horizon, grid, True, np.random.default_rng([seed, idx]), replicas=size)
        pieces.append(counts)
    counts = np.concatenate(pieces)
    by_len = words.counts_by_length(counts, model.classes, model.K)
    classes = [str(wc) for wc in model.classes]
    rows = []
    for run_id in range(replicas):
        rows.extend(_trajectory_rows(run_id, "limit", grid, classes,
                                     counts[run_id], by_len[run_id]))
    assert (tmp_path / "l" / "trajectory.csv").read_bytes() == _dict_csv(rows)

    s, r, replicas = 0.5, 3, 3
    cfg = _write(tmp_path, "g.cfg",
                 f"d = {d}\ns = {s}\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nr = {r}\n"
                 f"replicas = {replicas}\n")
    assert _run("grow", cfg, tmp_path / "g", "--seed", str(seed)) == 0
    traj_rows, event_rows = [], []
    for run_id in range(replicas):
        traj = growth.simulate_growth(d, s, horizon, grid, r,
                                      np.random.default_rng([seed, run_id]),
                                      track_events=True)
        traj_rows.extend(_trajectory_rows(run_id, "growth", grid,
                                          [str(wc) for wc in traj.classes],
                                          traj.counts,
                                          words.counts_by_length(traj.counts, traj.classes, r)))
        for ev in traj.events:
            event_rows.append({"run_id": run_id, "time": repr(float(ev.time)),
                               "kind": ev.kind, "word": str(ev.word),
                               "parent": "" if ev.parent is None else str(ev.parent)})
    assert event_rows  # the events file is checked on real rows
    assert (tmp_path / "g" / "trajectory.csv").read_bytes() == _dict_csv(traj_rows)
    assert (tmp_path / "g" / "events.csv").read_bytes() == _dict_csv(event_rows)


def test_limit_sim_independent_of_workers(tmp_path):
    # 1100 replicas span two RNG chunks, so two workers take one each
    cfg = _write(tmp_path, "l.cfg",
                 "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nreplicas = 1100\n")
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert _run("limit-sim", cfg, out, "--seed", "13", "--workers", str(workers)) == 0
        report = json.loads((out / "report.json").read_text())
        outputs.append((json.dumps(report["body"], sort_keys=True),
                        (out / "trajectory.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_write_csv_round_trips_quoted_fields(tmp_path):
    header = ("plain", "comma,name")
    rows = [("a, b", 'say "hi"'), ("two\nlines", 3), ("", 0.1)]
    path = tmp_path / "q.csv"
    cli._write_csv(path, header, iter(rows))
    with path.open(newline="") as fh:
        read = list(csv.reader(fh))
    assert read == [list(header), ["a, b", 'say "hi"'], ["two\nlines", "3"], ["", "0.1"]]


def test_failed_stream_leaves_no_csv_or_output_directory(tmp_path, monkeypatch):
    def failing_body(config):
        def rows():
            for i in range(5000):
                yield (i, "x" * 20)
            raise ResourceLimitError("row source failed midway")
        return {}, {"pairs.csv": (("i", "x"), rows())}

    monkeypatch.setitem(cli._BODIES, "gff-check", failing_body)
    cfg = _write(tmp_path, "f.cfg", "jmax = 1\nkmax = 1\nlags = 0.0\n")
    assert _run("gff-check", cfg, tmp_path / "new" / "out") == 3
    assert not (tmp_path / "new").exists()
    (tmp_path / "mine").mkdir()
    assert _run("gff-check", cfg, tmp_path / "mine") == 3
    assert list((tmp_path / "mine").iterdir()) == []


def test_report_json_is_streamed_in_the_dumps_format(tmp_path):
    cfg = _write(tmp_path, "s.cfg", "model = permutation\nn = 8\nd = 2\ncount = 3\n")
    assert _run("sample", cfg, tmp_path / "out", "--seed", "5") == 0
    raw = (tmp_path / "out" / "report.json").read_bytes()
    assert raw == (json.dumps(json.loads(raw), sort_keys=True, indent=1) + "\n").encode()


def test_failed_report_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def dump_then_fail(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:50])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", dump_then_fail)
    cfg = _write(tmp_path, "s.cfg", "model = permutation\nn = 8\nd = 2\ncount = 3\n")
    with pytest.raises(OSError):
        _run("sample", cfg, tmp_path / "new" / "out")
    assert not (tmp_path / "new").exists()
    (tmp_path / "mine").mkdir()
    with pytest.raises(OSError):
        _run("sample", cfg, tmp_path / "mine")
    assert list((tmp_path / "mine").iterdir()) == []


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps
    in this process, so no worker process starts."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_worker_pool_is_capped_by_jobs_and_cores(tmp_path, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    jobs = [(i, 3) for i in range(10)]
    assert cli._run_indexed(divmod, jobs, 100_000) == [divmod(i, 3) for i in range(10)]
    assert cli._run_indexed(divmod, jobs[:3], 100_000) == [divmod(i, 3) for i in range(3)]
    assert cli._run_indexed(divmod, jobs, 2) == [divmod(i, 3) for i in range(10)]
    assert _InlinePool.sizes == [4, 3, 2]
    # one core, or none known, runs every job in this process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._run_indexed(divmod, jobs, 100_000) == [divmod(i, 3) for i in range(10)]
    assert _InlinePool.sizes == [4, 3, 2]

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    cfg = _write(tmp_path, "s.cfg", "model = permutation\nn = 8\nd = 2\ncount = 6\n")
    bodies = []
    for workers in (1, 100_000):
        out = tmp_path / f"out{workers}"
        assert _run("sample", cfg, out, "--seed", "5", "--workers", str(workers)) == 0
        bodies.append(json.loads((out / "report.json").read_text())["body"])
    assert bodies[0] == bodies[1]
    assert _InlinePool.sizes == [4, 3, 2, 4]


# The row-by-row trajectory.csv of before the line template: every row a
# tuple of cells through the csv writer.  The template must match it byte
# for byte.

def _row_trajectory_csv(source, grid, classes, counts, by_length):
    lengths = [str(k) for k in range(1, by_length.shape[2] + 1)]
    columns = [(repr(t), key_type, key) for t in grid
               for key_type, keys in (("word", classes), ("length", lengths))
               for key in keys]
    table = np.concatenate([counts, by_length], axis=2).reshape(len(counts), -1)
    rows = ((run_id, t, key_type, key, count, source)
            for run_id, values in enumerate(table)
            for (t, key_type, key), count in zip(columns, values.tolist()))
    return ("run_id", "t", "key_type", "key", "count", "source"), rows


@pytest.mark.parametrize("kind, text", [
    ("limit-sim", "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nreplicas = 1100\n"),  # two chunks
    ("grow", "d = 2\ns = 0.5\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nr = 3\nreplicas = 3\n"),
], ids=["limit-sim", "grow"])
def test_trajectory_template_matches_row_oracle(tmp_path, monkeypatch, kind, text):
    cfg = _write(tmp_path, "t.cfg", text)
    assert _run(kind, cfg, tmp_path / "template", "--seed", "9") == 0
    monkeypatch.setattr(cli, "_trajectory_csv", _row_trajectory_csv)
    assert _run(kind, cfg, tmp_path / "rows", "--seed", "9") == 0
    assert ((tmp_path / "template" / "trajectory.csv").read_bytes()
            == (tmp_path / "rows" / "trajectory.csv").read_bytes())


def test_trajectory_template_quotes_and_escapes(tmp_path):
    # keys holding csv metacharacters and the template's own: the csv module
    # still decides the quoting, and % and braces come out as they went in
    classes = ["a,b", 'say "hi"', "{0}", "}{", "100%", "%s%d%%", "two\nlines"]
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 10**6, size=(4, 2, len(classes)))
    by_length = rng.integers(0, 10**6, size=(4, 2, 3))
    args = ("lim%s{}", [0.0, 0.1], classes, counts, by_length)
    cli._write_csv(tmp_path / "template.csv", *cli._trajectory_csv(*args))
    cli._write_csv(tmp_path / "rows.csv", *_row_trajectory_csv(*args))
    assert (tmp_path / "template.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    with (tmp_path / "template.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[3] for row in rows[:len(classes)]] == classes
    assert {row[5] for row in rows} == {"lim%s{}"}
    assert len(rows) == 4 * 2 * (len(classes) + 3)


def test_grow_replicas_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 10^7 replicas at the perfbench grow shape would need about 24 GB
    text = "d = 2\ns = 1.0\nT = 1.0\ngrid = 0.0, 0.5, 1.0\nr = 4\nreplicas = {}\n"
    assert cli.validate(cli.ExperimentConfig("grow", cli.parse_config_file(
        _write(tmp_path, "ok.cfg", text.format(30))))) == []
    monkeypatch.setitem(cli._BODIES, "grow", lambda config: pytest.fail("grow ran"))
    cfg = _write(tmp_path, "g.cfg", text.format(10**7))
    assert _run("grow", cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert "grow needs about" in err and "replicas" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("grid", ["0.0", "0.0, 0.0, 0.0"])
def test_grow_byte_estimate_bounds_tracemalloc_peak(tmp_path, grid):
    # event-free runs (T = 0), so the estimate covers all that a run holds
    params = cli.parse_config_file(_write(
        tmp_path, "g.cfg", f"d = 2\ns = 0\nT = 0\ngrid = {grid}\nr = 4\nreplicas = 1500\n"))
    config = cli.ExperimentConfig("grow", params, seed=3, out=tmp_path / "out")
    need = cli._grow_bytes(params)
    tracemalloc.start()
    try:
        cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "events.csv").read_text() == "run_id,time,kind,word,parent\n"
    assert need / 2 < peak <= need


def test_grow_byte_estimate_bounds_one_replica_peak(tmp_path):
    # one replica: the run in progress (tower, clock, census snapshot and its
    # events) and the csv writer's buffer are most of the peak
    text = "d = 2\ns = 3.0\nT = 1.0\ngrid = 0.0\nr = 4\nreplicas = 1\n"
    params = cli.parse_config_file(_write(tmp_path, "g.cfg", text))
    cli.run(cli.ExperimentConfig("grow", params, seed=3, out=tmp_path / "warm"))
    need = cli._grow_bytes(params)
    tracemalloc.start()
    try:
        cli.run(cli.ExperimentConfig("grow", params, seed=3, out=tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "events.csv").read_text().count("\n") > 20
    assert need / 2 < peak <= need


def test_grow_byte_estimate_bounds_the_largest_run(tmp_path):
    # a run from the empty graph has about e^t W vertices, W ~ Exp(1): at seed
    # 3 the largest of these 40 runs has 29,759 vertices, 6.1 times the mean,
    # and its tower held 1.8 times an estimate that charged the mean tower
    text = "d = 2\ns = 8.5\nT = 0.0\ngrid = 0.0\nr = 1\nreplicas = 40\n"
    params = cli.parse_config_file(_write(tmp_path, "g.cfg", text))
    config = cli.ExperimentConfig("grow", params, seed=3, out=tmp_path / "out")
    assert _traced_peak(config) <= cli._grow_bytes(params)


def test_grow_events_share_one_string_per_class():
    _counts, [events] = cli._grow_block(2, 3.0, 1.0, (0.0,), 4, 3, 0, 1)
    names: dict[str, set[int]] = {}
    for _time, _kind, word, parent in events:
        for name in (word, parent):
            names.setdefault(name, set()).add(id(name))
    assert len(events) > len(names) > 2
    assert all(len(ids) == 1 for ids in names.values())


def test_grow_byte_estimate_with_events_bounds_tracemalloc_peak(tmp_path):
    # at s = 3 a replica has about 54 events a unit of time, against the
    # stationary birth rate of 64 at d = 2, r = 4 that the estimate charges;
    # 50 replicas' held events outweigh the tower of the run in progress
    text = "d = 2\ns = 3.0\nT = 1.0\ngrid = 0.0\nr = 4\nreplicas = {}\n"
    cli.run(cli.ExperimentConfig("grow", cli.parse_config_file(_write(  # first-call set-up
        tmp_path, "warm.cfg", text.format(1))), seed=3, out=tmp_path / "warm"))
    params = cli.parse_config_file(_write(tmp_path, "g.cfg", text.format(50)))
    config = cli.ExperimentConfig("grow", params, seed=3, out=tmp_path / "out")
    need = cli._grow_bytes(params)
    # a collection empties CPython's tuple free lists, which would otherwise
    # serve the event tuples untraced after earlier tests freed a block of tuples
    gc.collect()
    tracemalloc.start()
    try:
        cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    events = (tmp_path / "out" / "events.csv").read_text().count("\n") - 1
    assert events > 50 * 40
    # the events are most of the peak: the estimate without them falls short
    assert cli._grow_bytes({**params, "T": 0.0}) < need / 2 < peak <= need


def test_spectrum_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the adjacency and the solver's copy, 8 bytes an entry each, pass 2 GiB
    # from n = 11,586 on
    text = "model = permutation\nn = {}\nd = 2\n"
    configs = {n: cli.ExperimentConfig("spectrum", cli.parse_config_file(
        _write(tmp_path, f"{n}.cfg", text.format(n)))) for n in (11_585, 11_586)}
    assert cli.validate(configs[11_585]) == []
    assert cli.validate(configs[11_586]) != []
    monkeypatch.setitem(cli._BODIES, "spectrum", lambda config: pytest.fail("spectrum ran"))
    cfg = _write(tmp_path, "e.cfg", text.format(20_000))
    assert _run("spectrum", cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert "eigen-solve at n=20000" in err and "lower n" in err
    assert not (tmp_path / "new").exists()


def test_permutation_poisson_test_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the draw and its argsort at n = 10^6 (about 8.2 GB), and the counts and
    # pmf of 10^9 samples, are refused before anything runs
    monkeypatch.setitem(cli._BODIES, "poisson-test", lambda config: pytest.fail("it ran"))
    text = "model = permutation\nd = 2\nr = 3\nn_values = {}\nsamples = {}\n"
    for n, samples in ((1_000_000, 256), (100, 10**9)):
        cfg = _write(tmp_path, "p.cfg", text.format(n, samples))
        assert _run("poisson-test", cfg, tmp_path / "new" / "out") == 2
        err = capsys.readouterr().err
        assert f"{samples} permutation graphs with n={n}" in err
        assert "lower n_values or samples" in err
        assert not (tmp_path / "new").exists()


def _traced_peak(config):
    cli.run(dataclasses.replace(config, out=config.out.with_name("warm")))  # first-call set-up
    tracemalloc.start()
    try:
        cli.run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", [
    "model = permutation\nn = 10\nd = 2\n",
    "model = permutation\nn = 1000\nd = 2\ncount = 20\n",
    "model = permutation\nn = 100\nd = 5\ncount = 50\n",
    "model = uniform\nn = 10\nd = 3\n",
    "model = uniform\nn = 2000\nd = 3\n",
    "model = uniform\nn = 200\nd = 4\ncount = 50\n",
], ids=["perm-1", "perm-20", "perm-d5", "uniform-1", "uniform-big", "uniform-50"])
def test_sample_byte_estimate_bounds_tracemalloc_peak(tmp_path, text):
    params = cli.parse_config_file(_write(tmp_path, "s.cfg", text))
    config = cli.ExperimentConfig("sample", params, seed=3, out=tmp_path / "out")
    need = cli._byte_estimate("sample", cli._read("sample", params)[0])[0]
    assert need / 2 < _traced_peak(config) <= need


@pytest.mark.parametrize("text", [
    "model = permutation\nn = 10\nd = 2\nr = 3\n",
    "model = permutation\nn = 1000\nd = 2\nr = 4\ncount = 5\n",
    "model = permutation\nn = 200\nd = 2\nr = 6\ncount = 4\n",
    "model = permutation\nn = 12\nd = 2\nr = 12\ncount = 3\n",
    "model = permutation\nn = 3000\nd = 1\nr = 3000\n",
    "model = uniform\nn = 1000\nd = 3\nr = 5\ncount = 5\n",
    "model = uniform\nn = 12\nd = 3\nr = 12\ncount = 3\n",
    "model = uniform\nn = 1500\nd = 2\nr = 1500\n",
], ids=["perm-small", "perm-1000", "perm-r6", "perm-r-is-n", "perm-d1-long",
        "uniform-1000", "uniform-r-is-n", "uniform-d2-long"])
def test_cycles_byte_estimate_bounds_tracemalloc_peak(tmp_path, text):
    # the rows are charged the limit mean of the cycles a graph has, a bound
    # of its mean on the permutation model, so small graphs are overcharged
    params = cli.parse_config_file(_write(tmp_path, "c.cfg", text))
    config = cli.ExperimentConfig("cycles", params, seed=3, out=tmp_path / "out")
    need = cli._byte_estimate("cycles", cli._read("cycles", params)[0])[0]
    assert _traced_peak(config) <= need


@pytest.mark.parametrize("text", [
    "jmax = 1\nkmax = 1\nlags = 0.5\n",
    "jmax = 2\nkmax = 2\nlags = 0.3, 0.6\n",
    "jmax = 3\nkmax = 1\nlags = 0.0, 0.5\n",
], ids=["one-pair", "square", "equal-times"])
def test_gff_check_byte_estimate_bounds_tracemalloc_peak(tmp_path, text):
    params = cli.parse_config_file(_write(tmp_path, "g.cfg", text))
    config = cli.ExperimentConfig("gff-check", params, seed=3, out=tmp_path / "out")
    need = cli._byte_estimate("gff-check", cli._read("gff-check", params)[0])[0]
    assert need / 2 < _traced_peak(config) <= need


def test_gff_check_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch):
    # jmax = kmax = 10^6 would hold 10^12 rows, refused before any integral
    monkeypatch.setitem(cli._BODIES, "gff-check", lambda config: pytest.fail("gff-check ran"))
    cfg = _write(tmp_path, "g.cfg", "jmax = 1000000\nkmax = 1000000\nlags = 0.5\n")
    assert _run("gff-check", cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert "gff-check of 1000000000000 pairs" in err and "lower jmax, kmax or lags" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("kind", ["sample", "cycles"])
def test_sample_or_cycles_over_byte_cap_exits_2(tmp_path, capsys, monkeypatch, kind):
    # 10^9 graphs at n = 10^6 would hold some 10^17 bytes of JSON
    monkeypatch.setitem(cli._BODIES, kind, lambda config: pytest.fail(f"{kind} ran"))
    extra = "r = 3\n" if kind == "cycles" else ""
    cfg = _write(tmp_path, "s.cfg", f"model = permutation\nn = 1000000\nd = 2\n{extra}"
                                    f"count = {10**9}\n")
    assert _run(kind, cfg, tmp_path / "new" / "out") == 2
    err = capsys.readouterr().err
    assert "1000000000 graphs with n=1000000" in err and "count" in err
    assert not (tmp_path / "new").exists()


def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch):
    # a random stream is keyed by (seed, index), and numpy takes no negative key
    cfg = _write(tmp_path, "s.cfg", _VALID["sample"])
    assert _run("sample", cfg, tmp_path / "new" / "out", "--seed", "-1") == 2
    assert _run("sample", _write(tmp_path, "n.cfg", _VALID["sample"] + "seed = -1\n"),
                tmp_path / "new" / "out") == 2
    monkeypatch.setenv("REGRAPH_SEED", "-1")
    assert _run("sample", cfg, tmp_path / "new" / "out") == 2
    assert capsys.readouterr().err.count("seed must be an integer >= 0") == 3
    assert not (tmp_path / "new").exists()


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# each config a perfbench CLI op runs, and the kind it runs it under
_PERFBENCH_CLI_CONFIGS = {
    "tv-census-r3.cfg": "poisson-test",
    "tv-census-r4.cfg": "poisson-test",
    "couplings-poisson-test-uniform.cfg": "poisson-test",
    "growth-grow.cfg": "grow",
    "limit-spectral-limit-sim.cfg": "limit-sim",
    "limit-spectral-spectrum.cfg": "spectrum",
    "limit-spectral-gff-check.cfg": "gff-check",
}


def test_perfbench_cli_ops_are_the_listed_configs():
    ops = re.findall(r'_cli_op\("([\w-]+)", "([\w.-]+)"',
                     (_PERFBENCH / "workloads.py").read_text())
    assert {config: kind for kind, config in ops} == _PERFBENCH_CLI_CONFIGS


@pytest.mark.parametrize("name", sorted(_PERFBENCH_CLI_CONFIGS))
def test_perfbench_cli_config_validates(name):
    params = cli.parse_config_file(_PERFBENCH / "configs" / name)
    assert cli.validate(cli.ExperimentConfig(_PERFBENCH_CLI_CONFIGS[name], params)) == []
