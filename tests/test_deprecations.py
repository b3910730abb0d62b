"""Deprecation hygiene: expired aliases must actually be removed.

Policy (docs/API.md): a ``deprecated_alias`` lives for at least one
minor release with its warning, then is deleted at its declared
``removal_version``. This test walks every module in the package (so
every decoration registers in :data:`repro.interfaces.ALIAS_LEDGER`)
and fails the build for any alias the current package version should
already have deleted.
"""

import importlib
import pkgutil

import repro
from repro.interfaces import ALIAS_LEDGER


def _version_tuple(version: str):
    """``"v0.3"`` / ``"0.3"`` / ``"0.3.1"`` -> comparable int tuple."""
    parts = version.lstrip("v").split(".")
    return tuple(int(part) for part in parts)


def _removal_reached(current: str, removal: str) -> bool:
    """Has ``current`` reached the release that deletes the alias?

    Comparison is over the removal version's own precision, so version
    ``0.3.1`` has reached a ``v0.3`` deadline.
    """
    removal_tuple = _version_tuple(removal)
    current_tuple = _version_tuple(current)[:len(removal_tuple)]
    return current_tuple >= removal_tuple


def _import_whole_package() -> None:
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        importlib.import_module(info.name)


def test_version_comparison_helper():
    assert _removal_reached("0.3.0", "v0.3")
    assert _removal_reached("0.4.0", "v0.3")
    assert _removal_reached("0.3.1", "0.3")
    assert not _removal_reached("0.1.0", "v0.3")
    assert not _removal_reached("0.2.9", "v0.3")


def test_ledger_sees_every_alias_in_the_package():
    _import_whole_package()
    for record in ALIAS_LEDGER:
        assert record.replacement
        assert _version_tuple(record.removal_version) > (0,)


def test_no_alias_outlives_its_removal_version():
    _import_whole_package()
    expired = [record for record in ALIAS_LEDGER
               if _removal_reached(repro.__version__,
                                   record.removal_version)]
    assert not expired, (
        "aliases past their removal deadline (docs/API.md policy says"
        f" delete them): {expired}")


def test_expired_mutator_trio_is_gone():
    """The backend mutator trio reached its v0.3 removal: no backend
    class keeps the aliases, and the ledger no longer lists them."""
    from repro.exec import backends
    _import_whole_package()
    trio = ("set_hive_program", "apply_update", "seed_cache")
    for cls in (backends.SerialBackend, backends.ThreadBackend,
                backends.ProcessBackend):
        for name in trio:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert not [record for record in ALIAS_LEDGER
                if record.module == backends.__name__]
