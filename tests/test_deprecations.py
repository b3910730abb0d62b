"""Deprecation hygiene: expired aliases must actually be removed.

Policy (docs/API.md): an alias lives for at least one minor release
with its warning, then is deleted at its declared removal version, and
the suite asserts the attribute is gone so it cannot silently return.
"""


def test_expired_mutator_trio_is_gone():
    """The backend mutator trio reached its v0.3 removal: no backend
    class keeps the aliases."""
    from repro.exec import backends
    trio = ("set_hive_program", "apply_update", "seed_cache")
    for cls in (backends.SerialBackend, backends.ProcessBackend):
        for name in trio:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
