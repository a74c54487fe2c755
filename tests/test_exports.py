import ast
import inspect
from pathlib import Path

import rashba_contact

# public functions with no caller in the package yet: resolvent_correction
# awaits the limiting-absorption check of embedded roots
NO_CALLER_YET = {"resolvent_correction"}


def test_all_names_resolve_once():
    names = rashba_contact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(rashba_contact, name), name


def test_every_public_import_is_listed():
    public = {name for name, obj in vars(rashba_contact).items()
              if not name.startswith("_")
              and (inspect.isclass(obj) or inspect.isfunction(obj))}
    assert {"xi", "krein_q", "SystemParams", "RootMethod"} <= public
    assert public <= set(rashba_contact.__all__), sorted(public - set(rashba_contact.__all__))


def test_every_public_function_has_a_caller_in_the_package():
    """Each function in __all__ is used by the solver, verify or the CLI,
    not only by its own tests: some module other than __init__ names it."""
    package = Path(rashba_contact.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    functions = {name for name in rashba_contact.__all__
                 if inspect.isfunction(getattr(rashba_contact, name))}
    assert functions - used == NO_CALLER_YET
