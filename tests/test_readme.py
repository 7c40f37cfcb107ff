"""The README's quickstart and command lines run and give what it
documents, and it names every public name of the package."""

import re
import shlex
from pathlib import Path

import ndsquare
from ndsquare import cli

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
    assert [value for _, value in documented] == ["4", "3", "2", "0"]
    for expr, value in documented:
        assert eval(expr, namespace) == int(value), expr


# a `VAR=value` prefix of a command line, and a documented `# -> output`
ENV_PREFIX = re.compile(r"[A-Z_][A-Z0-9_]*=\S*")
OUTPUT = re.compile(r"\s*->\s*(?P<output>.*\S)")


def readme_commands() -> list[list]:
    """``[argv, output]`` of each ``ndsquare`` line of the sh blocks.

    ``\\`` continuations are joined and environment prefixes dropped;
    a documented output stands on the command's line or alone on the
    next one, else it is None.
    """
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = []
    for line in "".join(blocks).replace("\\\n", " ").splitlines():
        code, _, comment = line.partition("#")
        words = shlex.split(code)
        while words and ENV_PREFIX.fullmatch(words[0]):
            words.pop(0)
        if words[:1] == ["ndsquare"]:
            commands.append([words[1:], None])
        documented = OUTPUT.match(comment)
        if documented and (not words or words[0] == "ndsquare"):
            commands[-1][1] = documented["output"]
    return commands


def test_command_lines_parse():
    commands = readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "sweep", "trajectories", "crossing", "bound", "assemble-dump",
        "truncation-check",
    ]
    for argv, _ in commands:
        _, unknown = cli.build_parser().parse_known_args(argv)
        assert unknown == [], argv


def test_command_outputs_hold(capsys):
    documented = [(argv, out) for argv, out in readme_commands() if out]
    assert [argv[0] for argv, _ in documented] == ["crossing", "bound"]
    for argv, output in documented:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == output + "\n"


def test_every_public_name_is_in_the_readme():
    # the package namespace holds the names the README uses
    text = README.read_text()
    missing = [
        name for name in ndsquare.__all__
        if not re.search(rf"(?<![\w-]){name}(?![\w-])", text)
    ]
    assert missing == [], "document it in README.md or drop it from __all__"
