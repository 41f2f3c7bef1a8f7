"""Workload base classes: the op-stream iterator contract.

:class:`Workload` is the abstract stream; :class:`SyntheticWorkload` adds
the pieces shared by all distribution-style generators (an LPN sampler
plus an optional read/trim mix).  Two RNG streams are kept deliberately
separate:

* ``self.rng`` (seeded with ``seed`` alone) draws **only** LPNs, exactly
  like the pre-unification iterators — so the LPN sequence of every ported
  distribution is bit-identical to the legacy ``next_lpn()`` stream (the
  golden-stream tests pin this).
* the kind mix draws from its own salted stream, consulted only when a
  nonzero ``read_fraction``/``trim_fraction`` is configured, so write-only
  streams pay nothing and stay on the golden sequence.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError
from repro.workload.ops import Op, OpKind

__all__ = ["SyntheticWorkload", "Workload"]

#: Salt for the op-kind mix stream ("KN" — kept out of the LPN stream).
_KIND_SALT = 0x4B4E


class Workload(abc.ABC):
    """An infinite iterator of :class:`~repro.workload.ops.Op` records.

    ``next(workload)`` yields the next op; workloads never raise
    ``StopIteration`` — consumers bound their own run length.  ``tenant``
    tags every emitted op (multi-tenant composition sets it per child).
    """

    def __init__(
        self, logical_pages: int, seed: int = 0, tenant: int = 0
    ) -> None:
        if logical_pages < 1:
            raise ConfigurationError("workloads need at least one logical page")
        self.logical_pages = logical_pages
        self.seed = int(seed)
        self.tenant = int(tenant)
        self.rng = np.random.default_rng(seed)
        self._versions: dict[int, int] = {}

    @abc.abstractmethod
    def next_op(self) -> Op:
        """The next host operation."""

    def __iter__(self) -> "Workload":
        return self

    def __next__(self) -> Op:
        return self.next_op()

    def write_op(self, lpn: int) -> Op:
        """A WRITE op for ``lpn`` with its deterministic payload seed.

        The seed folds in the per-LPN write version, so consumers replaying
        the same stream write identical bytes while successive writes to
        one page still change the data.
        """
        version = self._versions.get(lpn, 0)
        self._versions[lpn] = version + 1
        return Op(
            OpKind.WRITE, lpn, tenant=self.tenant,
            data_seed=(self.seed, lpn, version),
        )


class SyntheticWorkload(Workload):
    """Distribution-style generator: an LPN sampler plus an op-kind mix.

    Subclasses implement :meth:`next_lpn`.  With the default write-only
    mix the op stream is the legacy LPN stream verbatim; ``read_fraction``
    / ``trim_fraction`` shift that share of ops to READ/TRIM using a
    separate salted RNG stream, so the *LPN* sequence is unchanged by the
    mix (the same pages get touched, by different verbs).
    """

    def __init__(
        self,
        logical_pages: int,
        seed: int = 0,
        tenant: int = 0,
        read_fraction: float = 0.0,
        trim_fraction: float = 0.0,
    ) -> None:
        super().__init__(logical_pages, seed=seed, tenant=tenant)
        if not 0 <= read_fraction <= 1 or not 0 <= trim_fraction <= 1:
            raise ConfigurationError("op-mix fractions must lie in [0, 1]")
        if read_fraction + trim_fraction > 1:
            raise ConfigurationError(
                "read_fraction + trim_fraction must not exceed 1"
            )
        self.read_fraction = read_fraction
        self.trim_fraction = trim_fraction
        self._mixed = read_fraction > 0 or trim_fraction > 0
        self._kind_rng = (
            np.random.default_rng((self.seed, _KIND_SALT))
            if self._mixed else None
        )

    @abc.abstractmethod
    def next_lpn(self) -> int:
        """The next logical page to touch."""

    def next_op(self) -> Op:
        lpn = self.next_lpn()
        if self._mixed:
            draw = self._kind_rng.random()
            if draw < self.read_fraction:
                return Op(OpKind.READ, lpn, tenant=self.tenant)
            if draw < self.read_fraction + self.trim_fraction:
                return Op(OpKind.TRIM, lpn, tenant=self.tenant)
        return self.write_op(lpn)
