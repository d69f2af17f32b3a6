import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(title: str) -> str:
    """The first ```python block under the README heading `## title`."""
    text = README.read_text()
    section = text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## %s" % title
    return match.group(1)


def test_library_example_runs():
    exec(compile(section_code("Library"), str(README), "exec"), {})
