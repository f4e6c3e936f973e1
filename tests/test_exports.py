"""The package's export list names only what exists."""
import coldgp


def test_every_export_resolves():
    missing = [name for name in coldgp.__all__ if not hasattr(coldgp, name)]
    assert missing == []
    assert len(set(coldgp.__all__)) == len(coldgp.__all__)


def test_star_import():
    namespace = {}
    exec("from coldgp import *", namespace)
    assert set(coldgp.__all__) <= set(namespace)
