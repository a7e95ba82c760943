"""Every name that `aclab/__init__.py` re-exports is used: it appears in a
module of the package outside the line that defines it, or in the
acceptance criteria. A public function that nothing reads is dead code."""

import ast
import re
from pathlib import Path

import aclab

PACKAGE = Path(aclab.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def is_used(name: str, module_lines: list[str], acceptance: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return bool(word.search(acceptance)) or any(
        word.search(line) and not definition.match(line)
        for line in module_lines)


def test_every_export_is_used():
    module_lines = [line for path in sorted(PACKAGE.glob("*.py"))
                    if path.name != "__init__.py"
                    for line in path.read_text(encoding="utf-8").splitlines()]
    acceptance = ACCEPTANCE.read_text(encoding="utf-8")
    names = exported_names()
    assert len(names) > 40
    unused = [name for name in names
              if not is_used(name, module_lines, acceptance)]
    assert not unused, f"exported but used nowhere: {unused}"
