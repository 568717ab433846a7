"""Production code never reaches the per-event oracles: only tests and
the legacy ``repro.bench`` harness import :mod:`repro._oracles`."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ORACLES = "repro._oracles"
#: Top-level subpackages allowed to import the oracles.
ALLOWED = ("_oracles", "bench")


def _imported_modules(path: Path) -> set[str]:
    """Every module ``path`` imports, relative imports resolved."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = [node.module] if node.module else []
            if node.level:
                parts = package[: len(package) + 1 - node.level] + parts
            module = ".".join(parts)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _imports_oracles(path: Path) -> bool:
    return any(
        name == ORACLES or name.startswith(ORACLES + ".")
        for name in _imported_modules(path)
    )


def test_no_production_module_imports_oracles():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ALLOWED
        and _imports_oracles(path)
    ]
    assert offenders == []


def test_scan_sees_the_bench_harness_import():
    assert _imports_oracles(SRC / "bench" / "harness.py")
