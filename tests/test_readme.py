"""README: the library tour runs as written, and every value or error its
comments promise is the one the code gives."""

import builtins
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_steps():
    """The README's library-tour block as steps (code, kind, expected): kind
    is "->" with the value's text for a `# -> value` comment, the exception's
    name with its message for a `# ValueError: message` one, and None for
    plain code, consecutive lines of which form one step.  An indented
    comment-only line continues the comment above it."""
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    steps = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        comment = comment.strip()
        if not code.strip():
            if comment and line.startswith(" ") and steps and steps[-1][1]:
                code, kind, expected = steps.pop()
                steps.append((code, kind, f"{expected} {comment}"))
        elif comment.startswith("->"):
            steps.append((code.strip(), "->", comment[2:].strip()))
        elif re.match(r"\w+Error: ", comment):
            kind, _, message = comment.partition(": ")
            steps.append((code.strip(), kind, message))
        elif steps and steps[-1][1] is None:
            steps[-1] = (steps[-1][0] + "\n" + line, None, None)
        else:
            steps.append((line, None, None))
    return steps


def test_library_tour_holds():
    namespace = {}
    checked = 0
    for code, kind, expected in tour_steps():
        if kind is None:
            exec(code, namespace)
        elif kind == "->":
            assert eval(code, namespace) == eval(expected, namespace), code
            checked += 1
        else:
            with pytest.raises(getattr(builtins, kind), match=f"^{re.escape(expected)}$"):
                eval(code, namespace)
            checked += 1
    assert checked == 10
