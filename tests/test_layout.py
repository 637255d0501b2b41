"""Source-tree layout: the package is plain Python sources only."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arithbilliards"


def test_package_holds_only_python_sources():
    stray = sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".py"
    )
    assert stray == [], f"non-Python files in the package (no .c, .pyx or .so): {stray}"
