"""The README's documented library calls run as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    assert ns["ok"], ns["why"]
