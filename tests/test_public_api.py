"""Every public name is reached: each entry of conemin.__all__ is used by
the package itself, by the acceptance gate, or by the README example.

References are found with ast (a Name, an attribute, or an imported
alias), so a word in a comment, a docstring or a string does not count.
"""

import ast
import re
from pathlib import Path

import conemin

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conemin"


def referenced_names(tree, skip=frozenset()):
    """Identifiers that tree uses, outside the bodies of the top-level
    functions and classes named in skip."""
    names = set()
    stack = [node for node in tree.body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name in skip)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def reaching_sources():
    """(tree, names defined at its top level) for every place allowed to
    reach a public name."""
    sources = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    sources.append(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    readme = (ROOT / "README.md").read_text()
    sources += [ast.parse(block) for block in
                re.findall(r"```python\n(.*?)```", readme, re.S)]
    return [(tree, {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))})
            for tree in sources]


def test_every_public_name_is_reached():
    sources = reaching_sources()
    unreached = [name for name in conemin.__all__
                 if not any(name in referenced_names(tree, defined & {name})
                            for tree, defined in sources)]
    assert not unreached, f"public names that nothing reaches: {unreached}"


def test_reference_finder_ignores_words_and_own_body():
    tree = ast.parse('def f():\n    return f()\n"""g is in a docstring"""\n'
                     "# h is in a comment\nx = mod.attr\n")
    assert referenced_names(tree, {"f"}) == {"x", "mod", "attr"}
