"""Nothing left but a name: the sweep runs in this process, uncached."""

__all__ = ["shutdown"]


def shutdown() -> None:
    """Nothing to tear down.

    Kept for one caller, ``benchmarks/e2e/inprocess.py``, which only a
    benchmark PR may edit; that PR deletes this module.
    """
