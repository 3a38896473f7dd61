"""The README's `## Library use` example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_what_its_comments_promise(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4, lines
    assert lines[0] == "[-0.5] converged 31"
    regime, ratio = ast.literal_eval(lines[1])
    assert regime == "geometric" and abs(ratio - 0.5) < 1e-3
    assert lines[2:] == ["not_contractive", "converged"]
