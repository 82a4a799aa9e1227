"""The README's library example runs as written."""

import re
from pathlib import Path

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
