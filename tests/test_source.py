"""The package keeps no private module-level name that nothing uses, and
its code lines are counted as ROADMAP counts them."""

import ast
import importlib.util
import re
from pathlib import Path

import fgdyn

PACKAGE = Path(fgdyn.__file__).resolve().parent


def code_without_docstrings(tree):
    """The source of ``tree`` with its comments and docstrings left out, so
    that a name only mentioned in prose does not count as used."""
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            node.body = body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def private_names(tree):
    """The ``_private`` names that ``tree`` defines at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {(module, name) for module, tree in trees.items() for name in private_names(tree)}
    code = "\n".join(code_without_docstrings(tree) for tree in trees.values())
    assert len(defined) > 40
    # the definition is one occurrence; a name that is used has another
    unused = sorted(
        f"{module}: {name}" for module, name in defined if len(re.findall(rf"\b{re.escape(name)}\b", code)) < 2
    )
    assert unused == []


def test_code_line_count_leaves_out_docstrings_comments_and_blanks(tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Module\ndocstring."""\n\n# a comment\nX = (\n    1,  # trailing\n)\n\n\n'
        'def f():\n    """One line."""\n    return """not a\ndocstring"""\n',
        encoding="utf-8",
    )
    assert module.code_lines(sample) == 6
