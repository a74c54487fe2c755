import ast
import inspect
from pathlib import Path

import rashba_contact

def test_all_names_resolve_once():
    names = rashba_contact.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(rashba_contact, name), name


def test_every_public_import_is_listed():
    public = {name for name, obj in vars(rashba_contact).items()
              if not name.startswith("_")
              and (inspect.isclass(obj) or inspect.isfunction(obj))}
    assert {"xi", "krein_q", "SystemParams", "DiscreteRoot"} <= public
    assert public <= set(rashba_contact.__all__), sorted(public - set(rashba_contact.__all__))


def _module_aliases(tree) -> set[str]:
    """Names a module binds to package modules, as in ``from . import spectrum``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names}


def test_every_public_function_has_a_caller_in_the_package():
    """Each function in __all__ is used by the solver, verify or the CLI,
    not only by its own tests: some module other than __init__ reads its
    name, bare or as an attribute of a package module (``_spectrum.x``).  A
    field of the same name (``asym.x``) is no caller."""
    used = set()
    for name, tree in _package_trees().items():
        if name == "__init__.py":
            continue
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(node.attr)
    functions = {name for name in rashba_contact.__all__
                 if inspect.isfunction(getattr(rashba_contact, name))}
    assert functions - used == set()


def test_every_public_member_is_read_in_the_package():
    """Each public method or property of a package class is read somewhere in
    the package, as an attribute (``x.member``); one only tests read is dead."""
    trees = _package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    dead = [f"{name}: {cls.name}.{member.name}"
            for name, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            and member.name not in read]
    assert not dead, dead


def _package_trees():
    package = Path(rashba_contact.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _loaded_names(tree) -> set[str]:
    """Names a module reads: bare names, attribute names and __all__ entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_import():
    unused = []
    for name, tree in _package_trees().items():
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_every_module_level_name_is_read():
    """A module-level name that no module of the package reads, and that
    __all__ does not export, is a leftover."""
    trees = _package_trees()
    used = set().union(*map(_loaded_names, trees.values()))
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            orphans += [f"{name}: {b}" for b in bound
                        if not b.startswith("__") and b not in used]
    assert not orphans, orphans
