"""No unused import, helper or export, no command loading more than it runs, and one wording of a lower bound.

No linter is assumed: each module is parsed with ``ast``, and an imported
name counts as used when it appears as a name anywhere in the module.
Imports kept only for the traced benchmark run carry ``# noqa: F401``.
A module-level ``_``-prefixed function or class counts as used when any
module of the package names it; an exported name, when a module other
than ``__init__.py`` names it or README mentions it.  A lower bound is
worded ``must be at least`` only by ``oracle.require_at_least`` and by
``cli._int_at_least``, whose message argparse prefixes with the argument,
and never ``must be non-negative``.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hilbertrep
from hilbertrep.sync import hilbert_sync, sync_to_text

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hilbertrep"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The imported names never referenced, except on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nfrom .ratmat import matrix, vector\nvector(())\n"
    assert unused_imports(source) == ["line 2: matrix"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("import os  # noqa: F401\n") == []


def unreferenced_helpers(sources) -> list[str]:
    """The module-level ``_``-prefixed functions and classes that no source names, as a name or an attribute."""
    helpers, used = [], set()
    for source in sources:
        tree = ast.parse(source)
        helpers += [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")]
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    return [name for name in helpers if name not in used]


def test_no_private_helper_is_dead():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    assert unreferenced_helpers(sources) == []


def test_a_dead_helper_is_caught():
    defining = ("def _used():\n    pass\ndef _dead():\n    pass\n"
                "class _Gone:\n    pass\ndef __getattr__(name):\n    pass\n")
    sources = [defining, "from . import a\na._used()\n"]
    assert unreferenced_helpers(sources) == ["_dead", "_Gone"]


_BOUND_WORDINGS = ("must be at least", "must be non-negative")


def bound_message_owners(sources: dict[str, str]) -> list[str]:
    """The top-level definitions, as ``module.name``, with a string wording a lower bound.

    A string in any other top-level statement counts as ``module``.
    """
    owners = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                   and any(wording in part.value for wording in _BOUND_WORDINGS) for part in ast.walk(node)):
                owners.add(f"{module}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else module)
    return sorted(owners)


def test_one_helper_words_every_lower_bound():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert bound_message_owners(sources) == ["cli._int_at_least", "oracle.require_at_least"]


def test_a_copied_lower_bound_message_is_caught():
    sources = {"a": 'def check(t):\n    if t < 0:\n        raise ValueError(f"t must be at least 0, got {t}")\n',
               "b": 'class B:\n    def f(self):\n        return "must be at least"\n',
               "c": '"""The count must be at least 1."""\n', "d": 'def quiet(t):\n    return t >= 0\n',
               "e": 'def old(n):\n    if n < 0:\n        raise ValueError(f"n must be non-negative, got {n}")\n'}
    assert bound_message_owners(sources) == ["a.check", "b.B", "c", "e.old"]


def unused_exports(exports, sources, readme: str) -> list[str]:
    """The exports that no source names, as a name, an attribute or a string constant, and ``readme`` never mentions.

    String constants count because ``cli`` resolves its machines and its hooked suites by name.
    """
    used = set(re.findall(r"\w+", readme))
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [name for name in exports if name not in used]


def test_every_export_is_used_or_documented():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unused_exports(hilbertrep.__all__, sources, (ROOT / "README.md").read_text(encoding="utf-8")) == []


def test_an_unused_export_is_caught():
    sources = ["from .a import imported, called\ncalled()\n", "_BY_NAME = ('named',)\nmodule.attribute\n"]
    exports = ["imported", "called", "named", "attribute", "documented", "dead"]
    assert unused_exports(exports, sources, "`documented(n)` is API.") == ["imported", "dead"]


def package_imports(name: str) -> set[str]:
    """The package modules ``name`` imports, directly or through other package modules."""
    found, todo = set(), [name]
    while todo:
        tree = ast.parse((PACKAGE / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                modules = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hilbertrep."):
                modules = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                modules = [alias.name.split(".")[1] for alias in node.names if alias.name.startswith("hilbertrep.")]
            else:
                continue
            todo.extend(sorted(set(modules) - found))
            found.update(modules)
    return found


def test_bitmap_imports_neither_linrep_nor_verify():
    """The bitmap derives from the sync machine only; linear representations and suites stay off its path."""
    imported = package_imports("bitmap")
    assert {"dfao", "oracle", "sync"} <= imported
    assert not imported & {"linrep", "verify"}


# Runs the command line given as arguments, or with none only imports the package, then
# prints the package modules and the number, record and introspection modules loaded
# (fractions, decimal, dataclasses, inspect); it imports nothing of the
# package itself, and runpy runs the command line as ``python -m hilbertrep.cli`` would.
_LAUNCHER = """
import runpy, sys
if len(sys.argv) > 1:
    sys.argv[0] = "hilbertrep"
    try:
        runpy.run_module("hilbertrep.cli", run_name="__main__")
    except SystemExit as stop:
        assert stop.code == 0, stop.code
else:
    import hilbertrep
shown = {"hilbertrep", "fractions", "decimal", "dataclasses", "inspect"}
print(*sorted(name for name in sys.modules if name.partition(".")[0] in shown))
"""


def loaded_modules(*argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], capture_output=True, text=True,
                            env=env, timeout=60, check=True)
    return set(result.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_module():
    assert loaded_modules() == {"hilbertrep"}


def test_render_loads_only_the_bitmap_machine(tmp_path):
    expected = {"hilbertrep"} | {f"hilbertrep.{name}" for name in ("bitmap", "dfao", "oracle")}
    assert loaded_modules("render", "1", "-o", str(tmp_path / "stage.pbm")) == expected


@pytest.mark.parametrize("argv", [("export", "sync"), ("locate", "3", "4")], ids=" ".join)
def test_sync_commands_load_neither_linrep_nor_verify(argv):
    assert not loaded_modules(*argv) & {"hilbertrep.linrep", "hilbertrep.ratmat", "hilbertrep.verify"}


@pytest.mark.parametrize("argv", [("locate", "3", "4"), ("coords", "5"), ("coords", "5", "--method", "linrep"),
                                  ("verify",), ("export", "sync"), ("export", "linrep"), ("bench", "--queries", "1")],
                         ids=" ".join)
def test_commands_that_read_no_file_load_no_text_format(argv):
    assert "hilbertrep.textfmt" not in loaded_modules(*argv)


def test_reading_a_machine_file_loads_the_text_formats(tmp_path):
    exported = tmp_path / "hilbert.sync"
    exported.write_text(sync_to_text(hilbert_sync()), encoding="ascii")
    assert "hilbertrep.textfmt" in loaded_modules("import", "sync", str(ROOT / "tests" / "data" / "fault_table.sync"))
    assert "hilbertrep.textfmt" in loaded_modules("verify", "--sync-file", str(exported))


@pytest.mark.parametrize("argv", [("render", "1", "-o", "stage.pbm"), ("verify",), ("locate", "3", "4"),
                                  ("coords", "5", "--method", "linrep"), ("export", "dfao")], ids=" ".join)
def test_commands_load_neither_dataclasses_nor_inspect(argv, tmp_path):
    """The value classes are plain records, so no command pays for importing ``inspect``."""
    argv = [str(tmp_path / arg) if arg.endswith(".pbm") else arg for arg in argv]
    assert not loaded_modules(*argv) & {"dataclasses", "inspect"}


# the names the package exports, pinned so that none is added or lost unnoticed
EXPORTS = set("""
    Bitmap bitmap_dfao render_from_walk render_generation render_pbm write_pbm
    Dfao coords_by_letters dfao_equal dfao_from_text dfao_to_text dfao_walk eval_dfao
    eval_dfao_digits from_base hilbert_dfao to_base
    GuessedLinearRep InsufficientDataError LinearRep NonFunctionalTransducerError
    StateBudgetExceededError Transducer difference_rep eval_linrep eval_linrep_digits
    guess_linrep hilbert_linrep hilbert_step_rep increment_transducer linrep_from_text
    linrep_to_text linrep_walk minimize_rep semigroup_trick transduce_rep transducer_outputs
    DEFAULT_MAX_GENERATION Coding Direction GenerationBudgetError NegativeCoordinateError
    Point STEP apply_coding generate_generation hc_prefix recode walk word_from_str word_to_str
    MultipleAcceptingPathsError NoAcceptingPathError SyncAutomaton accepts hilbert_sync
    lookup_paths sync_coords sync_from_text sync_locate sync_locate_walk sync_to_text sync_walk
    ParseError VerifyReport format_report verify_cross verify_identities verify_sync_suite
""".split())


def test_package_exports_resolve_to_their_defining_modules():
    assert len(hilbertrep.__all__) == len(EXPORTS) and set(hilbertrep.__all__) == EXPORTS
    for name in hilbertrep.__all__:
        module = importlib.import_module(f"hilbertrep.{hilbertrep._MODULE_OF[name]}")
        assert getattr(hilbertrep, name) is getattr(module, name), name
    assert EXPORTS <= set(dir(hilbertrep))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(hilbertrep, "no_such_name")
