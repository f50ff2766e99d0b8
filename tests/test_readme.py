"""The README's library example runs as printed, and the package exports
exactly the names that the README counts and that something uses."""
import ast
import io
import re
import tokenize
from pathlib import Path

import thicklat

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def library_example() -> str:
    """The first python block under the README's `## Library` heading."""
    section = README.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0] + "\n"


def trailing_comments(source: str) -> dict[int, str]:
    """Line number to the text of the comment ending that line."""
    return {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def test_library_example_prints_its_values():
    source = library_example()
    comments = trailing_comments(source)
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = compile(ast.Module([stmt], []), "README.md", "exec")
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments.get(stmt.end_lineno)
        try:
            expected = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            continue  # a comment in words, such as "0/1 matrices only"
        assert value == expected, (ast.unparse(stmt), value, comment)
        checked.append(comment)
    assert checked == ["14", "True", "14", "55"]


def test_readme_counts_the_exports():
    (count,) = re.findall(r"`thicklat` exports the (\d+) names", README)
    assert int(count) == len(thicklat.__all__)
    assert len(set(thicklat.__all__)) == len(thicklat.__all__)


def test_every_export_has_a_user():
    """The package docstring's rule: thicklat exports what the command
    line, the README example and perfbench/decompose.py use."""
    users = "\n".join((
        (ROOT / "src" / "thicklat" / "cli.py").read_text(encoding="utf-8"),
        library_example(),
        (ROOT / "perfbench" / "decompose.py").read_text(encoding="utf-8"),
    ))
    unused = [
        name for name in thicklat.__all__
        if not re.search(rf"\b{re.escape(name)}\b", users)
    ]
    assert unused == []
