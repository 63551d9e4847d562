"""Vectorized Eq.-12 evaluation over stacks of allocations.

Sweep and serving workloads evaluate the same Eq. 12 arithmetic for many
allocations at once; solvers additionally need the *same* arithmetic on
incrementally maintained amplitude components (the binary-swing search
keeps per-RX signal/total amplitudes up to date across flips instead of
re-deriving them from an (N, M) swing matrix).  This module is the one
home for both views:

- :func:`received_amplitude_stack` / :func:`sinr_stack` /
  :func:`throughput_stack` / :func:`system_throughput_stack` -- Eq. 12
  for ``(..., N, M)`` channel/swing stacks in one broadcast (leading
  axes broadcast);
- :func:`sinr_from_amplitude_components` /
  :func:`utility_from_amplitude_components` -- Eq. 12 / Eq. 5 straight
  from per-RX ``(signal, total)`` amplitude components, the
  decomposition every incremental solver maintains.

It lives in the channel layer (not :mod:`repro.runtime`) so that
:mod:`repro.core` solvers evaluate candidates through the exact same
stacks the serving runtime uses.  The matching channel-side stack,
:func:`repro.channel.channel_matrix_stack`, lives in
:mod:`repro.channel.los`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ChannelError
from ..optics import LEDModel, Photodiode
from .noise import AWGNNoise
from .sinr import shannon_throughput


def received_amplitude_stack(
    channels: np.ndarray,
    swings: np.ndarray,
    led: LEDModel,
    photodiode: Photodiode,
) -> np.ndarray:
    """(..., M, M) received-amplitude stacks for allocation stacks.

    Batched :func:`repro.channel.received_amplitudes`: *channels* is
    (..., N, M) (or a single (N, M) matrix shared by the batch) and
    *swings* is (..., N, M); leading axes broadcast.
    """
    channels = np.asarray(channels, dtype=float)
    swings = np.asarray(swings, dtype=float)
    if channels.ndim < 2 or swings.ndim < 2:
        raise ChannelError("channel and swing stacks must be at least 2-D")
    if channels.shape[-2:] != swings.shape[-2:]:
        raise ChannelError(
            f"channel stack {channels.shape} does not match swing stack "
            f"{swings.shape}"
        )
    if np.any(channels < 0):
        raise ChannelError("channel gains must be non-negative")
    if np.any(swings < -1e-12):
        raise ChannelError("swing currents must be non-negative")
    scale = photodiode.responsivity * led.wall_plug_efficiency * led.dynamic_resistance
    power_per_link = (np.clip(swings, 0.0, None) / 2.0) ** 2
    # A[..., i, k] = scale * sum_j H[..., j, i] * power_per_link[..., j, k]
    return scale * np.einsum("...ji,...jk->...ik", channels, power_per_link)


def sinr_from_amplitude_components(
    signal: np.ndarray,
    total: np.ndarray,
    noise_power: float,
) -> np.ndarray:
    """Eq. 12 SINR from per-RX amplitude components, any leading axes.

    ``signal[..., i]`` is the amplitude RX ``i`` receives from its own
    beamspot; ``total[..., i]`` is the amplitude it receives from *all*
    beamspots (so the interference is ``total - signal``).  Incremental
    solvers maintain exactly these two vectors across moves -- a flip
    only adds/subtracts one TX's channel row -- and evaluate whole
    candidate stacks through this one broadcast.
    """
    signal = np.asarray(signal, dtype=float)
    total = np.asarray(total, dtype=float)
    interference = total - signal
    return signal**2 / (noise_power + interference**2)


def utility_from_amplitude_components(
    signal: np.ndarray,
    total: np.ndarray,
    noise_power: float,
    bandwidth: float,
    floor: float,
) -> np.ndarray:
    """Eq. 5 sum-log utility from per-RX amplitude components.

    Reduces the trailing (per-RX) axis: returns a scalar for ``(M,)``
    inputs and a ``(...,)`` stack of utilities for ``(..., M)`` stacks.
    Throughputs are floored at *floor* exactly like
    :meth:`repro.core.problem.AllocationProblem.utility`.
    """
    sinr = sinr_from_amplitude_components(signal, total, noise_power)
    rates = bandwidth * np.log2(1.0 + sinr)
    return np.sum(np.log(np.maximum(rates, floor)), axis=-1)


def sinr_stack(
    channels: np.ndarray,
    swings: np.ndarray,
    led: LEDModel,
    photodiode: Photodiode,
    noise: Optional[AWGNNoise] = None,
) -> np.ndarray:
    """(..., M) per-RX SINR (Eq. 12) for stacks of allocations."""
    noise_model = noise if noise is not None else AWGNNoise()
    amplitudes = received_amplitude_stack(channels, swings, led, photodiode)
    signal = np.diagonal(amplitudes, axis1=-2, axis2=-1)
    total = amplitudes.sum(axis=-1)
    return sinr_from_amplitude_components(signal, total, noise_model.power)


def throughput_stack(
    channels: np.ndarray,
    swings: np.ndarray,
    led: LEDModel,
    photodiode: Photodiode,
    noise: Optional[AWGNNoise] = None,
) -> np.ndarray:
    """(..., M) per-RX Shannon throughput [bit/s] for allocation stacks."""
    noise_model = noise if noise is not None else AWGNNoise()
    return shannon_throughput(
        sinr_stack(channels, swings, led, photodiode, noise_model),
        noise_model.bandwidth,
    )


def system_throughput_stack(
    channels: np.ndarray,
    swings: np.ndarray,
    led: LEDModel,
    photodiode: Photodiode,
    noise: Optional[AWGNNoise] = None,
) -> np.ndarray:
    """(...,) system throughput [bit/s] for allocation stacks."""
    return throughput_stack(channels, swings, led, photodiode, noise).sum(axis=-1)
