"""Every name a ``regraph`` or test module imports is used by that module,
every private module-level name of ``regraph`` is used by its module, every
public function and class of ``regraph`` is named somewhere beyond its own
definition, and one that only tests use is a paper target.

No linter runs on this repository, so this keeps dead imports and left-over
private helpers out.  Exempt from the import check are ``from __future__``
imports, names listed in ``__all__`` and explicit ``import x as x``
re-exports.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regraph import gffcheck, graphs, walks

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "regraph").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))


def referenced_names(node: ast.AST) -> set[str]:
    """Names used under ``node``, also in quoted annotations such as "PermTower"."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name.split(".")[-1]:
                    continue  # explicit re-export
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    used = referenced_names(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_detector_flags_unused_and_respects_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from typing import Optional, Sequence\n"
        "from .words import counts_by_length as counts_by_length\n"
        "from .errors import RegraphError\n"
        "__all__ = ['RegraphError']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no other
    top-level statement of the module uses; a recursive call is no use."""
    body = ast.parse(source).body
    refs = [referenced_names(node) for node in body]
    unused = []
    for i, node in enumerate(body):
        elsewhere = set().union(*refs[:i], *refs[i + 1 :])
        unused += [
            f"line {node.lineno}: {name}"
            for name in bound_names(node)
            if name.startswith("_") and not name.startswith("__") and name not in elsewhere
        ]
    return sorted(unused)


def test_private_name_detector_flags_unused_and_respects_exemptions():
    source = (
        "_CAP = 3\n"
        "_SPARE: int = 4\n"
        "__all__ = ['public']\n"
        "def _helper(x):\n"
        "    return _helper(x - 1) if x else _CAP\n"
        "def _used() -> '_Kind':\n"
        "    return _Kind()\n"
        "class _Kind:\n"
        "    pass\n"
        "def public():\n"
        "    return _used()\n"
    )
    assert unused_private_names(source) == ["line 2: _SPARE", "line 4: _helper"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def dead_public_names(sources: dict[str, str], texts: dict[str, str]) -> list[str]:
    """Public module-level functions and classes of ``sources`` (path to
    source) whose name appears in none of ``texts`` (path to text) as a
    whole word, except on the line that defines it."""
    lines = [(path, i, line) for path, text in texts.items()
             for i, line in enumerate(text.splitlines(), 1)]
    dead = []
    for path, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            if not any(word.search(line) for p, i, line in lines
                       if (p, i) != (path, node.lineno)):
                dead.append(f"{path} line {node.lineno}: {node.name}")
    return sorted(dead)


def test_dead_public_name_detector_flags_unused_and_respects_exemptions():
    source = (
        "def used():\n"
        "    return 1\n"
        "def only_here():\n"
        "    return 2\n"
        "def _private():\n"
        "    return 3\n"
        "class Kind:\n"
        "    pass\n"
        "def part():\n"
        "    return 4\n"
    )
    texts = {"m.py": source, "test_m.py": "from m import Kind\nassert used() == 1\npartial = 0\n"}
    assert dead_public_names({"m.py": source}, texts) == [
        "m.py line 3: only_here", "m.py line 9: part"]


def test_every_public_name_is_used():
    # a public function or class of regraph is called, imported or named
    # somewhere in src/, tests/ or perfbench/ beyond its own def line
    texts = {str(path.relative_to(ROOT)): path.read_text()
             for path in MODULES + sorted((ROOT / "perfbench").glob("*.py"))}
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}
    assert dead_public_names(sources, texts) == []


# Public functions of regraph that may have no caller but tests: the paper's
# closed forms and statistics, which the tests hold the samplers to
PAPER_TARGETS = (
    "yule_pmf",
    "limit_covariance",
    "ou_covariance",
    "nu_rate",
    "trace_covariance",
    "chebyshev_fluctuation_series",
    "gff_closed_form",
    "mobius_cycle_poly",
    "linear_statistic",
)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def program_names(node: ast.AST) -> set[str]:
    """Names the code under ``node`` uses: loaded names, attributes, imported
    names and the parts of a string that is a dotted name, such as the traced
    layer "growth.PermTower.extend"; a docstring or comment is no use."""
    used: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                used.update(sub.value.split("."))
    return used


def names_only_tests_use(programs: dict[str, str], library: list[str],
                         exempt: tuple[str, ...]) -> list[str]:
    """Public module-level functions and classes of the ``library`` paths of
    ``programs`` (path to source) that no top-level statement of any program
    uses but their own definition, so only tests can reach them; less
    ``exempt``."""
    bodies = {path: ast.parse(text).body for path, text in programs.items()}
    uses = [((path, i), program_names(node)) for path, body in bodies.items()
            for i, node in enumerate(body)]
    found = []
    for path in library:
        for i, node in enumerate(bodies[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exempt:
                continue
            if not any(node.name in used for at, used in uses if at != (path, i)):
                found.append(f"{path} line {node.lineno}: {node.name}")
    return sorted(found)


def test_test_only_detector_flags_names_only_tests_use():
    source = (
        "def run(x: 'Shape'):\n"
        "    '''Never calls ``only_tested``.'''\n"
        "    return helper() + _private()\n"
        "def helper():\n"
        "    return 1\n"
        "def only_tested(k):\n"
        "    return only_tested(k - 1) if k else 0\n"
        "def closed_form():\n"
        "    return 2\n"
        "def _private():\n"
        "    return 3\n"
        "class Shape:\n"
        "    pass\n"
        "def traced():\n"
        "    pass\n"
    )
    programs = {"m.py": source, "bench.py": "LAYERS = ('m.traced', 'run')\n"}
    assert names_only_tests_use(programs, ["m.py"], ("closed_form",)) == [
        "m.py line 6: only_tested"]
    assert names_only_tests_use(programs, ["m.py"], ()) == [
        "m.py line 6: only_tested", "m.py line 8: closed_form"]


def test_no_public_name_is_test_only():
    # a public function or class of regraph is used by src/ or perfbench/,
    # or it is a paper target: code that only tests use belongs in tests/
    programs = {str(path.relative_to(ROOT)): path.read_text()
                for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}
    library = [str(path.relative_to(ROOT)) for path in SOURCES]
    assert names_only_tests_use(programs, library, PAPER_TARGETS) == []
    # and every paper target is a public function of regraph
    public = {node.name for path in library for node in ast.parse(programs[path]).body
              if isinstance(node, ast.FunctionDef)}
    assert set(PAPER_TARGETS) <= public


def byte_caps(source: str) -> list[str]:
    """Module-level names ending in ``BYTE_CAP`` that the module binds."""
    return [name for node in ast.parse(source).body for name in bound_names(node)
            if name.endswith("BYTE_CAP")]


def test_errors_holds_the_only_byte_cap():
    # a memory budget goes through errors.check_bytes against errors.BYTE_CAP
    found = {path.name: byte_caps(path.read_text()) for path in SOURCES}
    assert {name: caps for name, caps in found.items() if caps} == {"errors.py": ["BYTE_CAP"]}
    assert byte_caps("_CENSUS_BYTE_CAP: int = 2**31\nCHUNK_BYTES = 4\n") == ["_CENSUS_BYTE_CAP"]


# A fresh interpreter runs a small permutation poisson-test through the CLI,
# lists which of the two heavy scipy subpackages it loaded, then calls the
# GFF rule and the NB trace, prints their values and lists every scipy module
# loaded by then.
_FRESH_CLI = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from regraph import cli
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "p.cfg"
    cfg.write_text("model = permutation\\nd = 2\\nr = 3\\nn_values = 10, 20\\nsamples = 8\\n")
    code = cli.main(["poisson-test", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
loaded = [m for m in ("scipy.integrate", "scipy.sparse") if m in sys.modules]
from regraph import gffcheck, graphs, walks
g = graphs.sample_permutation_model(12, 2, np.random.default_rng(7))
print(json.dumps({"code": code, "loaded": loaded,
                  "gff": gffcheck.gff_cheb_covariance(1, 1, 0.0, 0.3),
                  "cnbw": walks.cnbw_via_nb_matrix(g, 6).tolist(),
                  "after": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cli_run_loads_neither_scipy_integrate_nor_sparse():
    done = subprocess.run([sys.executable, "-c", _FRESH_CLI, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["loaded"] == []
    assert result["after"] == []
    # and the GFF rule and the NB trace give the in-process values
    g = graphs.sample_permutation_model(12, 2, np.random.default_rng(7))
    assert result["gff"] == gffcheck.gff_cheb_covariance(1, 1, 0.0, 0.3)
    assert result["cnbw"] == walks.cnbw_via_nb_matrix(g, 6).tolist()


# A fresh interpreter runs a gff-check through the CLI and lists the scipy
# modules it loaded.
_FRESH_GFF = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from regraph import cli
with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "g.cfg"
    cfg.write_text("jmax = 3\\nkmax = 3\\nlags = 0.0, 0.3\\n")
    code = cli.main(["gff-check", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules
                                                 if m.startswith("scipy"))}))
"""


def test_gff_check_run_loads_no_scipy_integrate():
    done = subprocess.run([sys.executable, "-c", _FRESH_GFF, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert "scipy.integrate" not in result["loaded"]


def scipy_submodules(source: str) -> set[str]:
    """The scipy submodules a module imports, as ``scipy.<name>``; a bare
    ``import scipy`` reads as ``scipy``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names = ([f"scipy.{alias.name}" for alias in node.names]
                     if node.module == "scipy" else [node.module])
        else:
            continue
        found |= {".".join(name.split(".")[:2]) for name in names
                  if name.split(".")[0] == "scipy"}
    return found


def test_scipy_submodule_detector():
    source = ("import scipy.sparse as sp\nfrom scipy import integrate, stats\n"
              "from scipy.linalg.blas import dgemm\nimport scipy\nimport numpy\n"
              "from .walks import scipy_like\n")
    assert scipy_submodules(source) == {"scipy", "scipy.sparse", "scipy.integrate",
                                        "scipy.stats", "scipy.linalg"}


def test_src_imports_no_scipy():
    found = {path.name: scipy_submodules(path.read_text()) for path in SOURCES}
    assert set().union(*found.values()) == set()
