"""Every name that `aclab/__init__.py` re-exports is used: code in a module
of the package other than `__init__.py` refers to it, or the acceptance
criteria do. A public function that nothing reads is dead code. Only code
counts: a name, an attribute or an imported name, never a word in a
docstring or a comment."""

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


def code_references(path: Path) -> set[str]:
    """The names the code of a file refers to: Name and Attribute nodes and
    the names its imports bind."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
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
