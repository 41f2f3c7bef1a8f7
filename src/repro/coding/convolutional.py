"""Rate ``1/m`` binary convolutional codes and their trellises.

Generators use the standard octal notation of coding textbooks: the octal
literal's most-significant bit is the coefficient of ``D^0`` (the current
input bit).  For example the classic rate-1/2, 64-state code is
``(0o133, 0o171)``.

The coset machinery requires ``g1`` to have a nonzero ``D^0`` coefficient so
that division by ``g1(D)`` is causal; every standard generator satisfies
this (the leading octal bit is 1 by convention) and the constructor checks
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.bitops import pack_values
from repro.errors import ConfigurationError

__all__ = ["ConvolutionalCode", "Trellis"]


def _octal_to_coeffs(generator: int, constraint_length: int) -> np.ndarray:
    """Coefficient array (index = power of D) from an octal-style generator.

    The literal is read as ``constraint_length`` binary digits, left-padded
    with zeros; the leftmost digit is the ``D^0`` coefficient (textbook
    convention, e.g. ``0o133`` in K=7 is ``1011011``).
    """
    if generator.bit_length() > constraint_length:
        raise ConfigurationError(
            f"generator {oct(generator)} needs more than "
            f"{constraint_length} taps"
        )
    return np.array(
        [(generator >> (constraint_length - 1 - i)) & 1 for i in range(constraint_length)],
        dtype=np.uint8,
    )


@dataclass(frozen=True)
class Trellis:
    """Precomputed trellis arrays for Viterbi processing.

    ``num_states`` is ``2^memory``.  State integer layout: bit ``i`` holds
    input ``u[t-1-i]`` (most recent input in the least-significant bit).

    Arrays
    ------
    next_state : (S, 2) int32
        State reached from ``s`` on input ``u``.
    output_values : (S, 2) int32
        The ``m`` output bits of branch ``(s, u)`` packed LSB-first
        (stream 1 in bit 0).
    prev_state, prev_input : (S, 2) int32
        The two predecessors of each state and the input consumed on each
        incoming branch, for the backward recursion.
    """

    num_states: int
    outputs_per_step: int
    next_state: np.ndarray
    output_values: np.ndarray
    prev_state: np.ndarray
    prev_input: np.ndarray


@dataclass(frozen=True)
class ConvolutionalCode:
    """A rate ``1/m`` feedforward convolutional encoder.

    Parameters
    ----------
    generators:
        Octal-notation generator polynomials, one per output stream.
    constraint_length:
        ``K = memory + 1``; the number of input bits each output depends on.
    name:
        Optional registry name, for reporting.
    """

    generators: tuple[int, ...]
    constraint_length: int
    name: str = ""
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if len(self.generators) < 2:
            raise ConfigurationError("need at least two output streams (rate <= 1/2)")
        if self.constraint_length < 1:
            raise ConfigurationError("constraint length must be >= 1")
        coeffs = np.stack(
            [_octal_to_coeffs(g, self.constraint_length) for g in self.generators]
        )
        if coeffs[0, 0] != 1:
            raise ConfigurationError(
                "g1 must have a nonzero D^0 coefficient for causal coset division"
            )
        if not coeffs.any(axis=1).all():
            raise ConfigurationError("every generator must be nonzero")
        object.__setattr__(self, "_coeffs", coeffs)

    @property
    def num_outputs(self) -> int:
        """Output bits per input bit (``m``; code rate is ``1/m``)."""
        return len(self.generators)

    @property
    def memory(self) -> int:
        """Shift-register length (``constraint_length - 1``)."""
        return self.constraint_length - 1

    @property
    def num_states(self) -> int:
        return 1 << self.memory

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """(m, K) array of generator coefficients; column ``i`` is ``D^i``."""
        view = self._coeffs.view()
        view.flags.writeable = False
        return view

    def encode(self, info_bits: np.ndarray) -> np.ndarray:
        """Encode information bits from the zero state.

        Returns ``m * len(info_bits)`` codeword bits, stream-interleaved
        (outputs of step ``t`` occupy positions ``t*m .. t*m + m - 1``).
        No termination tail is appended; see DESIGN.md.
        """
        info = np.asarray(info_bits, dtype=np.uint8)
        steps = len(info)
        streams = np.empty((steps, self.num_outputs), dtype=np.uint8)
        for j in range(self.num_outputs):
            product = np.convolve(info.astype(np.int64), self._coeffs[j].astype(np.int64))
            streams[:, j] = product[:steps] & 1
        return streams.reshape(-1)

    def build_trellis(self) -> Trellis:
        """Construct the trellis arrays used by the Viterbi coset search."""
        memory = self.memory
        num_states = self.num_states
        states = np.arange(num_states, dtype=np.int64)
        next_state = np.empty((num_states, 2), dtype=np.int32)
        output_values = np.empty((num_states, 2), dtype=np.int32)
        mask = num_states - 1
        # Past-input taps: state bit i corresponds to u[t-1-i] = D^(i+1).
        past_taps = self._coeffs[:, 1:]  # (m, memory)
        state_bits = (states[:, None] >> np.arange(max(memory, 1))) & 1
        if memory == 0:
            state_bits = np.zeros((num_states, 0), dtype=np.int64)
        else:
            state_bits = state_bits[:, :memory]
        past_parity = (state_bits @ past_taps.T.astype(np.int64)) & 1  # (S, m)
        current_taps = self._coeffs[:, 0].astype(np.int64)  # (m,)
        for u in (0, 1):
            bits = (past_parity + u * current_taps) & 1  # (S, m)
            output_values[:, u] = pack_values(bits, self.num_outputs)
            next_state[:, u] = ((states << 1) | u) & mask
        prev_state = np.empty((num_states, 2), dtype=np.int32)
        prev_input = np.empty((num_states, 2), dtype=np.int32)
        slot = np.zeros(num_states, dtype=np.int64)
        for s in range(num_states):
            for u in (0, 1):
                target = next_state[s, u]
                prev_state[target, slot[target]] = s
                prev_input[target, slot[target]] = u
                slot[target] += 1
        if not (slot == 2).all():
            raise ConfigurationError("trellis is not 2-regular; invalid generators")
        return Trellis(
            num_states=num_states,
            outputs_per_step=self.num_outputs,
            next_state=next_state,
            output_values=output_values,
            prev_state=prev_state,
            prev_input=prev_input,
        )

    def __str__(self) -> str:
        octals = ",".join(oct(g)[2:] for g in self.generators)
        label = self.name or f"({octals})"
        return (
            f"rate-1/{self.num_outputs} convolutional code {label}, "
            f"{self.num_states} states"
        )
