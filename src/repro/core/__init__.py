"""Rewriting schemes and the paper's evaluation machinery.

This package is the library's primary public API.  A
:class:`~repro.core.scheme.PageCodeScheme` bundles a page code with the
bookkeeping the evaluation needs (name, rate, state handling); the
:class:`~repro.core.lifetime.LifetimeSimulator` reproduces the paper's
methodology (Section VII): stream pseudo-random datawords into a page,
count writes per erase cycle, and derive lifetime and aggregate gains.
"""

from repro.core.scheme import PageCodeScheme
from repro.core.uncoded import UncodedScheme
from repro.core.redundancy import RedundancyScheme
from repro.core.wom_scheme import WomScheme
from repro.core.waterfall_scheme import WaterfallScheme
from repro.core.mfc import MfcScheme, MFC_VARIANTS
from repro.core.ecc_scheme import EccMfcScheme
from repro.core.rank_scheme import RankModulationScheme
from repro.core.factory import make_scheme, available_schemes
from repro.core.lifetime import (
    LifetimeSimulator,
    LifetimeResult,
    BatchLifetimeSimulator,
)
from repro.core.metrics import SchemeSummary, summarize
from repro.core.tradeoff import (
    TradeoffRectangle,
    rectangle_for,
    cost_to_achieve,
)
from repro.core.analysis import UpdateTrace

__all__ = [
    "PageCodeScheme",
    "UncodedScheme",
    "RedundancyScheme",
    "WomScheme",
    "WaterfallScheme",
    "MfcScheme",
    "MFC_VARIANTS",
    "EccMfcScheme",
    "RankModulationScheme",
    "make_scheme",
    "available_schemes",
    "LifetimeSimulator",
    "LifetimeResult",
    "BatchLifetimeSimulator",
    "SchemeSummary",
    "summarize",
    "TradeoffRectangle",
    "rectangle_for",
    "cost_to_achieve",
    "UpdateTrace",
]
