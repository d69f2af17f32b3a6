import re
import shlex
from pathlib import Path

from polyosc import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(title: str, lang: str = "python") -> str:
    """The first ```lang block under the README heading `## title`."""
    text = README.read_text()
    section = text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```%s\n(.*?)```" % lang, section, re.S)
    assert match, "no %s block under ## %s" % (lang or "plain", title)
    return match.group(1)


def test_library_example_runs():
    exec(compile(section_code("Library"), str(README), "exec"), {})


def test_cli_examples_run(capsys):
    lines = section_code("Command line", lang="").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "polyosc"
        assert cli.main(argv) == 0, line
        capsys.readouterr()
