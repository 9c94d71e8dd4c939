"""The package's public surface."""

import maskit


def test_every_exported_name_resolves():
    missing = [name for name in maskit.__all__ if not hasattr(maskit, name)]
    assert missing == []
