"""README's Python examples import only names the package has.

The blocks are parsed, not run: the quick tour trains models for seconds.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def package_imports(block):
    """(module, name) for every ``from oversmooth... import name`` and
    (module, None) for every ``import oversmooth...`` in ``block``."""
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "oversmooth":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "oversmooth")


def resolves(module, name):
    if name is None:
        return importlib.util.find_spec(module) is not None
    found = importlib.import_module(module)
    if hasattr(found, name):
        return True
    # a submodule a package has not imported yet
    return hasattr(found, "__path__") and \
        importlib.util.find_spec(f"{module}.{name}") is not None


def test_readme_imports_resolve():
    imports = [pair for block in python_blocks() for pair in package_imports(block)]
    assert len(imports) >= 5  # the quick tour is found and parsed
    missing = [pair for pair in imports if not resolves(*pair)]
    assert not missing
