"""Production code never reaches the per-event oracles: only tests
import :mod:`repro._oracles`, and every oracle is still imported by a
test or benchmark (an oracle whose fast path is gone is dead code)."""

import ast
from pathlib import Path

import pytest

import repro
import repro._oracles

SRC = Path(repro.__file__).parent
TESTS = Path(__file__).resolve().parent
#: The suites whose imports keep an oracle alive.
SUITES = (TESTS, TESTS.parent / "benchmarks")
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
        "from ..._oracles.cache import access_stream_reference\n",
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


def _unimported(names, suites) -> list[str]:
    """The names no file under ``suites`` imports from the oracles."""
    imported = {
        module.rsplit(".", 1)[1]
        for suite in suites
        for path in suite.rglob("*.py")
        for module in _imported_modules(path, root=suite)
        if module.startswith(ORACLES + ".")
    }
    return [name for name in names if name not in imported]


def test_every_oracle_is_imported_by_a_suite():
    assert _unimported(repro._oracles.__all__, SUITES) == []


def test_scan_sees_an_unimported_oracle(tmp_path):
    """Positive control: a name no suite imports is reported."""
    (tmp_path / "test_probe.py").write_text(
        "from repro._oracles import attribute_samples\n"
    )
    assert _unimported(
        ["attribute_samples", "retired_reference"], [tmp_path]
    ) == ["retired_reference"]
