"""Channel substrate: LOS/NLOS gains, noise, SINR and estimation."""

from .blockage import (
    CylinderBlocker,
    blockage_mask,
    blocked_channel_matrix,
)
from .diffuse import (
    diffuse_channel_matrix,
    diffuse_gain,
    dominant_link_error,
    los_only_error,
)
from .estimation import (
    SNREstimate,
    m2m4_snr,
    path_loss_from_measurement,
    received_swing_estimate,
)
from .los import (
    channel_matrix,
    channel_matrix_stack,
    channel_matrix_update,
    los_gain,
    los_gain_stack,
    node_gain,
    vertical_los_gain,
)
from .mirror import (
    WallMirror,
    mirror_augmented_channel_matrix,
    mirror_channel_matrix,
    mirror_gain,
)
from .nlos import floor_reflection_gain, reflected_pilot_current
from .noise import AWGNNoise, DetailedNoise
from .sinr import (
    received_amplitudes,
    shannon_throughput,
    sinr,
    snr,
    throughput,
)
from .stacks import (
    received_amplitude_stack,
    sinr_from_amplitude_components,
    sinr_stack,
    system_throughput_stack,
    throughput_stack,
    utility_from_amplitude_components,
)

__all__ = [
    "CylinderBlocker",
    "blockage_mask",
    "blocked_channel_matrix",
    "diffuse_channel_matrix",
    "diffuse_gain",
    "dominant_link_error",
    "los_only_error",
    "SNREstimate",
    "m2m4_snr",
    "path_loss_from_measurement",
    "received_swing_estimate",
    "channel_matrix",
    "channel_matrix_stack",
    "channel_matrix_update",
    "los_gain",
    "los_gain_stack",
    "node_gain",
    "vertical_los_gain",
    "WallMirror",
    "mirror_augmented_channel_matrix",
    "mirror_channel_matrix",
    "mirror_gain",
    "floor_reflection_gain",
    "reflected_pilot_current",
    "AWGNNoise",
    "DetailedNoise",
    "received_amplitudes",
    "shannon_throughput",
    "sinr",
    "snr",
    "throughput",
    "received_amplitude_stack",
    "sinr_from_amplitude_components",
    "sinr_stack",
    "system_throughput_stack",
    "throughput_stack",
    "utility_from_amplitude_components",
]
