"""The README's library quickstart runs and returns the values it documents."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# a line of the quickstart whose expression is documented as `# -> value`
DOCUMENTED = re.compile(r"^(?P<expr>\S.*?)\s+#\s*->\s*(?P<value>\S+)")


def quickstart() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "expected exactly one python block in README.md"
    return blocks[0]


def test_quickstart_runs_and_documented_values_hold():
    code = quickstart()
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)  # runs its asserts
    documented = [
        (m["expr"], m["value"])
        for m in map(DOCUMENTED.match, code.splitlines())
        if m is not None
    ]
    assert [value for _, value in documented] == ["4", "3", "2", "3"]
    for expr, value in documented:
        assert eval(expr, namespace) == int(value), expr
