"""README's library sketch runs, and the values its comments name hold."""

import ast
import re
from pathlib import Path

from hilbertrep.dfao import dfao_equal, hilbert_dfao

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _is_expression(code: str) -> bool:
    try:
        ast.parse(code, mode="eval")
    except SyntaxError:
        return False
    return True


def test_library_sketch_runs_and_its_values_hold():
    sketch = _sketch()
    namespace: dict = {}
    exec(sketch, namespace)
    checked = []
    for line in sketch.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if code and _is_expression(code):
            assert eval(code, namespace) == eval(comment, namespace), line
            checked.append(comment.strip())
    assert checked == ["Direction.L", "(3, 2)", "Point(x=1, y=2)", "9",
                       "((0, 0), (1, 0), (1, 1), (1, 2), (2, 0))"]
    assert dfao_equal(namespace["machine"], hilbert_dfao())[0]
