"""The Python examples of README.md run as written and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def run_block(code: str) -> tuple[dict, list]:
    namespace, out = {"__name__": "readme"}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    return namespace, out.getvalue().splitlines()


def test_readme_has_two_python_examples():
    assert len(BLOCKS) == 2


def test_library_quick_start_prints_its_comments():
    _, lines = run_block(BLOCKS[0])
    assert lines == ["1 + Q^-1 + Q^-2", "Q^2 + Q + 1", "True", "True", "133/81", "1/7"]


def test_tame_example_builds_finite_masses():
    namespace, lines = run_block(BLOCKS[1])
    assert lines == []
    masses = namespace["masses"]
    assert masses.is_finite and masses.mass_v.dual() == masses.mass_w
