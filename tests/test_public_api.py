"""Every name that `aclab/__init__.py` re-exports is used: code in a module
of the package other than `__init__.py` refers to it, or the acceptance
criteria do. A public function that nothing reads is dead code. Only code
counts: a name, an attribute of anything but a module from outside aclab,
or an imported name, never a word in a docstring or a comment. And every
import of a package module other than `__init__.py` is read by it."""

import ast
from pathlib import Path

import aclab

PACKAGE = Path(aclab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def imported_names(tree: ast.Module, foreign: bool = False) -> set[str]:
    """The names the imports of a module bind (not `from __future__`), or
    with `foreign` only those bound by imports from outside aclab."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0]
                      for alias in node.names if not foreign
                      or alias.name.partition(".")[0] != "aclab"}
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"
              and not (foreign and (node.level or node.module == "aclab"
                                    or node.module.startswith("aclab.")))):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def code_references(path: Path) -> set[str]:
    """The names the code of a file refers to: Name nodes, Attribute nodes
    but those read from a module imported from outside aclab (the
    `integrate` of `scipy.integrate.quad`), and the names its imports
    bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = imported_names(tree, foreign=True)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def test_every_export_is_used():
    used = code_references(ACCEPTANCE).union(*(
        code_references(path) for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"))
    names = exported_names()
    assert len(names) > 40
    unused = [name for name in names if name not in used]
    assert not unused, f"exported but used nowhere: {unused}"


def test_a_docstring_word_is_not_a_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text('"""The heteroclinic profile."""\n# heteroclinic\n'
                      "from .phasefield import tanh_profile as q\n"
                      "x = q(np.pi)\n", encoding="utf-8")
    refs = code_references(module)
    assert "heteroclinic" not in refs
    assert {"tanh_profile", "q", "np", "pi", "x"} <= refs


def test_an_attribute_of_a_foreign_module_is_not_a_use(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import scipy.integrate\nimport numpy as np\n"
                      "from aclab import fields\n"
                      "x = scipy.integrate.trapezoid(np.ones(3))\n"
                      "y = fields.gradient(x).values\n", encoding="utf-8")
    refs = code_references(module)
    assert not {"integrate", "trapezoid", "ones"} & refs
    assert {"scipy", "np", "fields", "gradient", "values", "x"} <= refs


def test_every_import_is_read():
    # a name an import binds that its module never reads is dead code
    unread = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        names = sorted(imported_names(tree) - read)
        if names:
            unread[path.name] = names
    assert not unread, f"imported but never read: {unread}"
