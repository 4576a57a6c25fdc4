"""The README's examples: each shows what the program prints or returns today."""

import re
import shlex
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_block(heading: str, opening: str) -> str:
    """The first block fenced by ``opening`` after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    start = section.index(f"{opening}\n") + len(opening) + 1
    return section[start:section.index("```\n", start)]


def test_the_cli_examples_print_what_the_readme_shows(cli):
    # Each example is a ``$ powersums ...`` line and the stdout under it.
    examples = re.split(r"\n\n(?=\$ )", _fenced_block("Examples:", "```text").rstrip("\n"))
    assert len(examples) == 4
    for example in examples:
        command, _, output = example.partition("\n")
        program, *argv = shlex.split(command.removeprefix("$ "))
        assert program == "powersums", command
        assert cli(*argv) == (0, output + "\n", ""), command


# The Library lines whose comment starts with the Python literal of the
# value the line computes; any text after it follows ", " or ": ".
LITERAL_LINES = (
    "bernoulli(12)", "str(power_sum_poly_n(3))", "str(form)", "poly_eval(form.p, 6)", 'poly_eval(form.p, "1/2")',
    "check_odd_bernoulli(3)",
)


def test_the_library_comments_show_the_values():
    block = _fenced_block("## Library", "```python")
    namespace = {}
    exec(block, namespace)
    comments = {}
    for line in block.splitlines():
        code, commented, comment = line.partition("  # ")
        if commented:
            comments[code.rstrip()] = comment
    for code in LITERAL_LINES:
        shown = repr(eval(code, namespace))
        assert re.fullmatch(f"{re.escape(shown)}((, |: ).*)?", comments[code]), (code, shown)
