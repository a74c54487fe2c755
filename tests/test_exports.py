import inspect

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
    assert {"xi", "krein_q", "SystemParams", "RootMethod"} <= public
    assert public <= set(rashba_contact.__all__), sorted(public - set(rashba_contact.__all__))
