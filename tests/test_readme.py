"""The README's examples: every CLI line parses, without argparse too, and the Library block runs
with the values its comments state."""

import ast
import shlex
from fractions import Fraction
from importlib import import_module
from pathlib import Path

from cayleyiso import _cli_parser, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, lang):
    """The first ```lang fenced block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_parse():
    lines = [line for line in readme_block("CLI", "sh").splitlines()
             if line.startswith("cayleyiso ")]
    assert len(lines) == 14
    parser = _cli_parser.build_parser(cli._COMMANDS, cli._COMMON, cli._ONE_OF)
    for line in lines:
        # a usage error raises SystemExit, which fails the test
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)
        module, name = args.handler
        assert callable(getattr(import_module(f"cayleyiso.{module}"), name)), line
        # and every example is read without argparse, to the same namespace
        fast = cli._fast_args(argv)
        assert fast is not None and vars(fast) == vars(args), line


def test_readme_library_example_runs_and_its_comments_hold():
    code = readme_block("Library", "python")
    comments = {}
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        comments[statement.strip()] = comment.strip()
    ns, values = {}, {}
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            expression = ast.Expression(node.value)
            values[source] = eval(compile(expression, "README", "eval"), ns)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), ns)

    # (README line, what its comment states, the value read, the value stated)
    claims = [
        ("A = VertexSet(g, ball(g, (0, 0), 10))", "221", len(ns["A"]), 221),
        ("boundary(A)", "44", len(values["boundary(A)"]), 44),
        ("depth(A)", "11", values["depth(A)"], 11),
        ("varopoulos_check(A)", "(m=15, holds=True, 221, 1320)",
         tuple(values["varopoulos_check(A)"]), (15, True, 221, 1320)),
        ("classify_growth(g, 20).branch", "2",
         values["classify_growth(g, 20).branch"], 2),
        ("st.ratio", "Fraction(784, 1665) at i = k = 9",
         (values["st.ratio"], ns["params"].i, ns["params"].k),
         (Fraction(784, 1665), 9, 9)),
        ("embed_torus(GridParams(2, 5)).report.preserved", "True",
         values["embed_torus(GridParams(2, 5)).report.preserved"], True),
        ("system = cyclic_system(host)", "q=2", ns["system"].q, 2),
        ("interval_cover(system, B).holds", "slack <= 2s^2t^2k + 2stk",
         values["interval_cover(system, B).holds"], True),
    ]
    for line, stated, value, expected in claims:
        assert stated in comments[line], line
        assert value == expected, line
