"""Tests for the command-line experiment runner."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from regraph import cli, growth, limitproc, walks
from regraph.errors import InvalidInputError, ResourceLimitError


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
    monkeypatch.setattr(walks, "CENSUS_BYTE_CAP", walks.census_graph_bytes(2, 1000))
    assert cli.validate(cli.ExperimentConfig("poisson-test", cli.parse_config_file(
        _write(tmp_path, "ok.cfg", text.format(1000))))) == []
    monkeypatch.setitem(cli._BODIES, "poisson-test", lambda config: pytest.fail("it ran"))
    cfg = _write(tmp_path, "p.cfg", text.format(1001))
    assert _run("poisson-test", cfg, tmp_path / "new" / "out") == 2
    assert "n_values" in capsys.readouterr().err
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
    by_len = limitproc.counts_by_length(counts, model)
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
                                          traj.counts, traj.by_length(r)))
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
