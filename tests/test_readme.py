"""The README's library example runs as written."""

import re
from importlib import resources
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library use" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library use\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    noise = resources.files("qvf") / "data" / "representative_noise.ini"
    (tmp_path / "noise.ini").write_text(noise.read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    assert (tmp_path / "grover.csv").read_text(encoding="utf-8").startswith("#")
