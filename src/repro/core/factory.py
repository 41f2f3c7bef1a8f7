"""Scheme factory: build any scheme the paper evaluates by name."""

from __future__ import annotations

from repro.core.ecc_scheme import EccMfcScheme
from repro.core.mfc import MFC_VARIANTS, MfcScheme
from repro.core.rank_scheme import RankModulationScheme
from repro.core.redundancy import RedundancyScheme
from repro.core.scheme import PageCodeScheme
from repro.core.uncoded import UncodedScheme
from repro.core.waterfall_scheme import WaterfallScheme
from repro.core.wom_scheme import WomScheme
from repro.errors import ConfigurationError

__all__ = ["make_scheme", "available_schemes"]


def available_schemes() -> list[str]:
    """Names accepted by :func:`make_scheme`."""
    return (
        ["uncoded", "redundancy-1/2", "redundancy-1/3", "wom", "waterfall"]
        + sorted(MFC_VARIANTS)
        + ["mfc-ecc", "rank-modulation"]
    )


def make_scheme(name: str, page_bits: int = 32768, **kwargs) -> PageCodeScheme:
    """Build a scheme by its paper name.

    Examples
    --------
    >>> make_scheme("mfc-1/2-1bpc", page_bits=4096).rate  # doctest: +SKIP
    0.166...

    ``redundancy-1/K`` accepts any K; MFC names accept a
    ``constraint_length`` keyword to change the trellis size.
    """
    key = name.lower()
    if key == "uncoded":
        return UncodedScheme(page_bits, **kwargs)
    if key.startswith("redundancy-1/"):
        copies = key.removeprefix("redundancy-1/")
        if not copies.isdecimal():
            raise ConfigurationError(f"scheme {name!r}: K of redundancy-1/K is no integer")
        return RedundancyScheme(page_bits, copies=int(copies), **kwargs)
    if key == "redundancy":
        return RedundancyScheme(page_bits, **kwargs)
    if key == "wom":
        return WomScheme(page_bits, **kwargs)
    if key == "waterfall":
        return WaterfallScheme(page_bits, **kwargs)
    if key in MFC_VARIANTS:
        return MfcScheme(key, page_bits, **kwargs)
    if key == "mfc-ecc":
        return EccMfcScheme(page_bits, **kwargs)
    if key == "rank-modulation":
        return RankModulationScheme(page_bits, **kwargs)
    raise ConfigurationError(
        f"unknown scheme {name!r}; available: {available_schemes()}"
    )
