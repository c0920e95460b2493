import types

import radarmag


def test_public_names_match_all():
    # every exported name resolves, and every public name is exported
    assert all(hasattr(radarmag, name) for name in radarmag.__all__)
    public = {name for name, value in vars(radarmag).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public) == sorted(radarmag.__all__)
