"""The package's public names and the library example and config table of the README."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import slabtrt
from slabtrt.cli_io import _PARSERS

MODULES = sorted(m.name for m in pkgutil.iter_modules(slabtrt.__path__))
SRC = Path(slabtrt.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(p.name for p in TESTS.glob("*.py"))
README = TESTS.parent / "README.md"


def test_the_modules_are_found():
    # an empty list would leave the parametrized test below with no cases
    assert len(MODULES) == 8


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale entry of __all__ fails only on `import *`, so try that too
    module = importlib.import_module(f"slabtrt.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from slabtrt.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_name_the_package_imports_is_public_in_its_module():
    tree = ast.parse(Path(slabtrt.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imports) > 20
    for module, name in imports:
        assert hasattr(slabtrt, name), name
        assert name in importlib.import_module(f"slabtrt.{module}").__all__, (module, name)


def library_blocks():
    """The fenced python blocks of the README's `## Library` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_example_runs(capsys):
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block continues the first
        exec(compile(block, str(README), "exec"), namespace)
    rank = int(capsys.readouterr().out.split()[0])
    assert 2 <= rank <= 50
    assert namespace["g"].shape == namespace["g_dense"].shape == (202, 50)
    assert np.isfinite(namespace["g"]).all() and np.isfinite(namespace["e"])


def test_readme_config_table_lists_the_parsed_keys():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Config keys\n", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `(\w+)` ", section, flags=re.M)
    assert keys == list(_PARSERS)


def imported_names_never_used(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    # a dotted use such as np.zeros reads the Name np; annotations are parsed too
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                for name in ast.literal_eval(node.value)}
    return sorted(imported - used - exported)


def test_unused_import_check_finds_one():
    source = ("import math\nimport numpy as np\nfrom os import path, sep, getcwd\n"
              "__all__ = ['getcwd']\nx = np.pi + len(sep)\n")
    assert imported_names_never_used(source) == ["math", "path"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    # __init__ imports only to re-export, so it is not among MODULES
    path = Path(slabtrt.__file__).parent / f"{name}.py"
    assert imported_names_never_used(path.read_text(encoding="utf-8")) == []


def private_names(sources: dict[str, str]) -> tuple[list[str], list[str]]:
    """The module-level private functions, classes and constants of the sources, as
    module.name, and those of them that no source reads (by name or as an attribute)."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return ([f"{m}.{n}" for m, n in defined],
            sorted(f"{m}.{n}" for m, n in defined if n not in read))


def test_private_name_check_finds_the_unread_ones():
    sources = {"a": "_TOL = 1e-3\n_SEEN: int = 2\ndef _dead(x):\n    return x * _TOL\n"
                    "class _Unused:\n    pass\n__all__ = []\n",
               "b": "from .a import _SEEN\n\ndef f():\n    return _SEEN\n"}
    assert private_names(sources) == (["a._TOL", "a._SEEN", "a._dead", "a._Unused"],
                                      ["a._Unused", "a._dead"])


def test_every_private_name_of_the_package_is_read():
    # a helper left behind after its last caller went is dead code; tests do not count
    defined, unread = private_names(
        {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")})
    assert len(defined) > 30  # else the check has nothing to look at
    assert unread == []


def test_the_test_files_are_found():
    # as for MODULES: an empty list would leave the test below with no cases
    assert len(TEST_FILES) >= 10 and "test_package.py" in TEST_FILES


@pytest.mark.parametrize("name", TEST_FILES)
def test_no_test_file_imports_a_name_it_never_uses(name):
    assert imported_names_never_used((TESTS / name).read_text(encoding="utf-8")) == []


def defs_without_two_blank_lines(source: str) -> list[str]:
    """Top-level functions and classes that follow other code by fewer than two blank
    lines (PEP 8, pycodestyle E302); decorators and the comments right above belong
    to the definition."""
    lines = source.splitlines()
    short = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
        while first and lines[first - 1].lstrip().startswith("#"):
            first -= 1
        above = lines[:first]
        blank = len(above) - len("\n".join(above).rstrip().splitlines())
        if blank < min(2, len(above)):
            short.append(node.name)
    return short


def test_blank_line_check_finds_the_short_ones():
    source = ('"""Doc."""\nimport os\n\n\ndef good():\n    pass\n\n'
              "# one line short\ndef short():\n    pass\n\n\n# kept\n@staticmethod\n"
              "def decorated():\n    pass\n\nclass Short:\n    pass\n")
    assert defs_without_two_blank_lines(source) == ["short", "Short"]
    assert defs_without_two_blank_lines("def first():\n    pass\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_top_level_definitions_follow_two_blank_lines(path):
    assert defs_without_two_blank_lines(path.read_text(encoding="utf-8")) == []
