import dyncool

# public names taken out of the package; none may come back by accident
REMOVED = ("mc_trajectory", "TrajectoryResult", "LEAKED", "COMPLETED")


def test_every_export_resolves():
    missing = [name for name in dyncool.__all__ if not hasattr(dyncool, name)]
    assert missing == []


def test_exports_listed_once():
    assert len(set(dyncool.__all__)) == len(dyncool.__all__)


def test_removed_names_not_exported():
    assert not set(REMOVED) & set(dyncool.__all__)
    assert not [name for name in REMOVED if hasattr(dyncool, name)]
