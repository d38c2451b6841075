"""The package's public names."""

import lfindex


def test_every_exported_name_resolves():
    missing = [name for name in lfindex.__all__ if not hasattr(lfindex, name)]
    assert not missing, f"stale __all__ entries: {missing}"
