"""Production code never reaches the per-event oracles: only tests
import :mod:`repro._oracles`."""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ORACLES = "repro._oracles"
#: Top-level subpackages allowed to import the oracles.
ALLOWED = ("_oracles",)


def _imported_modules(path: Path, root: Path = SRC) -> set[str]:
    """Every module ``path`` imports, relative imports resolved against
    its place under ``root`` (the ``repro`` package directory)."""
    package = ["repro", *path.relative_to(root).parent.parts]
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


def _imports_oracles(path: Path, root: Path = SRC) -> bool:
    return any(
        name == ORACLES or name.startswith(ORACLES + ".")
        for name in _imported_modules(path, root)
    )


def test_no_production_module_imports_oracles():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ALLOWED
        and _imports_oracles(path)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "source",
    [
        "from repro._oracles import attribute_samples\n",
        "from ..._oracles.cache import feed_reference\n",
    ],
    ids=["absolute", "relative"],
)
def test_scan_sees_an_oracle_import(tmp_path, source):
    """Positive control: the scan must see both import spellings, or an
    empty offender list above would prove nothing."""
    module = tmp_path / "online" / "sub" / "probe.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    assert _imports_oracles(module, root=tmp_path)
