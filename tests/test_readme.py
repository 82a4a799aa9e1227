"""The README's library example runs as written, and its CLI contract,
outputs table, byte-capped calls and exit codes match the code."""

import ast
import re
from pathlib import Path

from regraph import cli, errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    for name in ("enumerate_cycles", "cnbw_via_nb_matrix", "eigenvalues", "simulate_limit"):
        assert name in block
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    counts, model = namespace["counts"], namespace["model"]
    assert counts.shape == (10_000, 3, len(model.classes))


def _ticked(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def test_readme_kinds_are_the_cli_kinds():
    kinds = re.search(r"^Kinds: (.*?)\. ", README.read_text(), re.S | re.M).group(1)
    assert tuple(_ticked(kinds)) == cli.KINDS


def test_readme_field_rows_are_the_field_table():
    def cell(name: str, default) -> str:  # a str default is ticked too
        if default is None:
            return f"`{name}`"
        return f"`{name}` = " + (f"`{default}`" if isinstance(default, str) else str(default))

    rows = re.findall(r"^\| `([\w-]+)` \| (`.*`(?: = \S+)?) \|$", README.read_text(), re.M)
    assert dict(rows) == {
        kind: ", ".join(cell(name, default) for name, (_type, _bound, default) in fields.items())
        for kind, fields in cli._FIELDS.items()}


def test_readme_integer_fields_are_the_tables_and_seed_and_workers():
    listed = re.search(r"Every integer field \((.*?)\)", README.read_text(), re.S).group(1)
    ints = {name for fields in cli._FIELDS.values()
            for name, (type_, _bound, _default) in fields.items() if type_ in ("int", "ints")}
    assert sorted(_ticked(listed)) == sorted(ints | {"seed", "workers"})


# a tiny config of each kind that writes a CSV
_TINY = {
    "poisson-test": "model = permutation\nd = 2\nr = 3\nn_values = 10\nsamples = 4\n",
    "spectrum": "model = permutation\nn = 4\nd = 2\n",
    "grow": "d = 2\ns = 0.5\nT = 0.5\ngrid = 0.0, 0.5\nr = 3\n",
    "limit-sim": "d = 2\nK = 3\nT = 1.0\ngrid = 0.0, 1.0\n",
    "gff-check": "jmax = 1\nkmax = 1\nlags = 0.5\n",
}


def test_readme_outputs_table_is_the_csv_headers(tmp_path, capsys):
    # each row is | file | kinds | columns | rows |; the first ticked name of
    # the columns cell is the header line (spectrum.csv's is its default scale)
    table = README.read_text().split("depending on the kind:", 1)[1].split("\n\n")[1]
    rows = [line[2:-2].split(" | ") for line in table.splitlines()[2:]]
    listed = {(kind, _ticked(name)[0]): _ticked(columns)[0]
              for name, kinds, columns, _ in rows for kind in _ticked(kinds)}
    written = {}
    for kind, text in _TINY.items():
        cfg = tmp_path / f"{kind}.cfg"
        cfg.write_text(text)
        assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / kind)]) == 0
        for path in (tmp_path / kind).glob("*.csv"):
            written[kind, path.name] = path.read_text().split("\n", 1)[0]
    capsys.readouterr()
    assert written == listed


def _check_bytes_callers() -> set[str]:
    """module.function (or module.Class.method) of the innermost def around
    each ``check_bytes(`` call in src/regraph."""
    callers = set()

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "check_bytes"):
                callers.add(name)
            visit(child, name)

    for path in sorted((README.parent / "src" / "regraph").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return callers


def test_readme_byte_capped_calls_are_the_check_bytes_callers():
    listed = re.search(r"\(the byte-capped calls: (.*?)\)", README.read_text(), re.S).group(1)
    assert len(_ticked(listed)) == len(set(_ticked(listed)))
    assert set(_ticked(listed)) == _check_bytes_callers()


def _subclasses(cls: type) -> list[type]:
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_readme_exit_codes_are_cli_main(tmp_path, monkeypatch, capsys):
    sentence = re.search(r"^Exit codes: (.*?)\. ", README.read_text(), re.S | re.M).group(1)
    assert sentence.startswith("`0` ok, ")
    codes = {name: int(code) for code, name in re.findall(r"`(\d+)` [^,(]*\(`(\w+)`\)", sentence)}
    classes = _subclasses(errors.RegraphError)
    assert sorted(codes) == sorted(cls.__name__ for cls in classes)
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("model = permutation\nn = 4\nd = 1\n")
    for cls in classes:
        def run(config, cls=cls):
            raise cls("it failed")

        monkeypatch.setattr(cli, "run", run)
        assert cli.main(["sample", "--config", str(cfg)]) == codes[cls.__name__], cls
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("it failed\n")
