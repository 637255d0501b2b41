"""Source-tree layout: the package is plain Python sources only, and the
oracle kernels use nothing beyond the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arithbilliards"


def test_package_holds_only_python_sources():
    stray = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )
    assert stray == [], f"non-Python files in the package (no .c, .pyx or .so): {stray}"


def test_kernels_import_only_the_standard_library():
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    foreign = sorted(imported - set(sys.stdlib_module_names) - {"arithbilliards"})
    assert foreign == [], f"kernels imports non-stdlib modules (no numpy, no second lane): {foreign}"
