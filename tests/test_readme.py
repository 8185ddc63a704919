"""The README's quick start runs, and each literal `# value` comment holds."""

import math
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> list[str]:
    text = README.read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1).splitlines()


def test_quick_start_values():
    namespace: dict = {}
    compared = 0
    for line in quick_start():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            compiled = compile(code, "README", "eval")
        except SyntaxError:  # a statement, or a blank line
            exec(code, namespace)
            continue
        value = eval(compiled, namespace)
        if comment.startswith("≈"):  # a float result, to a relative 1e-12
            expected = float(comment[1:].split()[0])
            assert math.isclose(value, expected, rel_tol=1e-12), (code, value)
        else:
            try:
                expected = eval(comment, {"Fraction": Fraction})
            except SyntaxError:  # prose, not a value: the line only has to run
                continue
            assert value == expected, (code, value)
        compared += 1
    assert compared == 5
