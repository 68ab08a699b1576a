"""Every public name is reached: each entry of conemin.__all__ is used by
the package itself, by the acceptance gate, or by the README example.

References are found with ast: a name that is read, an imported name, or
an attribute read off an imported conemin module (``cmp.phi_prime``).  A
word in a comment, a docstring or a string does not count, nor does a name
that is only assigned, such as a dataclass field, nor an attribute of any
other object, such as a report's field of the same name.
"""

import ast
import re
from pathlib import Path

import conemin

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conemin"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def module_aliases(tree):
    """Names that tree binds to conemin or to one of its modules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or "conemin" for a in node.names
                        if a.name.split(".")[0] == "conemin"}
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "conemin" or (node.level and not node.module)):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name in MODULES}
    return aliases


def referenced_names(tree, skip=frozenset()):
    """Identifiers that tree reaches, outside the bodies of the top-level
    functions and classes named in skip."""
    modules = module_aliases(tree)

    def is_module(node):
        if isinstance(node, ast.Name):
            return node.id in modules
        return (isinstance(node, ast.Attribute) and node.attr in MODULES
                and is_module(node.value))

    names = set()
    stack = [node for node in tree.body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name in skip)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and is_module(node.value)):
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
    assert referenced_names(tree, {"f"}) == {"mod"}
    # a dataclass field and an attribute of a non-module object do not
    # count; an attribute of an imported conemin module does
    tree = ast.parse("import conemin\n"
                     "from conemin import competitor as cmp\n"
                     "@dataclass\nclass Report:\n    ruled_area: float\n"
                     "y = report.ruled_area + cmp.phi_prime\n"
                     "z = conemin.mesh.validate\n")
    assert referenced_names(tree) == {
        "conemin", "cmp", "dataclass", "float", "report", "phi_prime",
        "mesh", "validate"}


def test_every_private_name_is_read():
    # a module-level _name that no package code reads is dead code
    trees = {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("_") and not name.startswith("__")):
                    continue
                if not any(name in referenced_names(
                        other, {name} if other is tree else frozenset())
                        for other in trees.values()):
                    unread.append(f"{module}.{name}")
    assert not unread, f"private names that nothing reads: {unread}"
