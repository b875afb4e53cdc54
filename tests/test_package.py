import threshold_lab


def test_every_export_resolves():
    missing = [name for name in threshold_lab.__all__ if not hasattr(threshold_lab, name)]
    assert missing == []
