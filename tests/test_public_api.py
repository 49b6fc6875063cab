import lgequant


def test_every_exported_name_resolves():
    missing = [name for name in lgequant.__all__ if not hasattr(lgequant, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(set(lgequant.__all__)) == len(lgequant.__all__)
