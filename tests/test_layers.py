"""The import layers of the package, read from its source with ast.

`transform` is the number layer: exact values, their rounding, the series
and expansion types and the triangular kernels.  It imports no module of the
package.  `continuation`, `conversion` and `functions` import only
`transform`, so only `cli` and `__init__` import the continuation, and only
`cli` joins it with the inputs that `functions` alone knows.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "asymser"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def package_imports(module: str) -> set:
    """The modules of the package that `module` imports, at any depth of
    its source: relative imports and absolute ones of asymser."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:  # absolute: only those of asymser count
                if parts[0] != "asymser":
                    continue
                parts = parts[1:] or [""]
            # `from . import x` and `from asymser import x` name their modules last
            found.update([parts[0]] if parts[0] else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("asymser."))
    return found


def test_modules_are_the_known_ones():
    assert MODULES == ["__init__", "__main__", "cli", "continuation", "conversion",
                       "functions", "transform"]


def test_transform_imports_no_module_of_the_package():
    assert package_imports("transform") == set()


@pytest.mark.parametrize("module", ["continuation", "conversion", "functions"])
def test_middle_layers_import_only_transform(module):
    assert package_imports(module) == {"transform"}


def test_only_cli_and_init_import_the_continuation():
    assert {m for m in MODULES if "continuation" in package_imports(m)} == {"__init__", "cli"}


def test_imports_are_read():
    """The reader sees each form of import that the package uses."""
    assert package_imports("__main__") == {"cli"}
    assert package_imports("cli") == {"continuation", "conversion", "functions", "transform"}
