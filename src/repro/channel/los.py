"""Line-of-sight VLC channel gain (paper Eq. 2).

The LOS DC gain from one LED to one photodiode is

    H = (m + 1) * A_pd / (2 * pi * d^2) * cos^m(phi) * g(psi) * cos(psi)

for incidence angles ``psi`` inside the receiver's FOV and zero otherwise,
where ``phi`` is the irradiation angle at the LED and ``d`` the TX-RX
distance.  :func:`channel_matrix` evaluates the full N x M gain matrix for
a :class:`~repro.system.Scene`; :func:`channel_matrix_stack` evaluates it
for a stack of receiver placements and :func:`channel_matrix_update`
recomputes only the moved receivers' columns.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..errors import ChannelError, GeometryError
from ..optics import LEDModel, Photodiode
from ..system import ReceiverNode, Scene, TransmitterNode


def los_gain(
    tx_position: np.ndarray,
    tx_orientation: np.ndarray,
    lambertian_order: float,
    rx_position: np.ndarray,
    rx_orientation: np.ndarray,
    photodiode: Photodiode,
) -> float:
    """LOS gain between one TX and one RX -- Eq. 2.

    Both orientations must be unit vectors; the geometry layer guarantees
    this for scene nodes.  Returns 0 when the RX is behind the LED, the
    LED is behind the RX or the incidence falls outside the FOV.
    """
    delta = np.asarray(rx_position, dtype=float) - np.asarray(tx_position, dtype=float)
    distance = float(np.linalg.norm(delta))
    if distance <= 0.0:
        raise ChannelError("TX and RX positions coincide; LOS gain undefined")
    direction = delta / distance
    cos_phi = float(np.dot(tx_orientation, direction))
    cos_psi = float(np.dot(rx_orientation, -direction))
    if cos_phi <= 0.0 or cos_psi <= 0.0:
        return 0.0
    cos_psi = min(cos_psi, 1.0)
    cos_phi = min(cos_phi, 1.0)
    incidence = math.acos(cos_psi)
    gain = photodiode.gain(incidence)
    if gain == 0.0:
        return 0.0
    return (
        (lambertian_order + 1.0)
        * photodiode.area
        / (2.0 * math.pi * distance**2)
        * cos_phi**lambertian_order
        * gain
        * cos_psi
    )


def node_gain(tx: TransmitterNode, rx: ReceiverNode) -> float:
    """LOS gain between two scene nodes.

    Scalar reference implementation; :func:`channel_matrix` computes the
    same quantity for all pairs at once via :func:`los_gain_stack`.
    """
    return los_gain(
        tx.position,
        tx.orientation,
        tx.led.lambertian_order,
        rx.position,
        rx.orientation,
        rx.photodiode,
    )


def los_gain_stack(
    tx_positions: np.ndarray,
    tx_orientations: np.ndarray,
    lambertian_orders: np.ndarray,
    rx_positions: np.ndarray,
    rx_orientations: np.ndarray,
    photodiodes: "Sequence[Photodiode]",
) -> np.ndarray:
    """Eq. 2 broadcast over every TX/RX pair (and optional RX batches).

    ``rx_positions`` may carry leading batch axes: shape ``(..., M, 3)``
    yields a ``(..., N, M)`` gain stack in one NumPy broadcast, which is
    how the runtime engine evaluates many receiver placements at once.
    ``rx_orientations`` is ``(M, 3)`` (shared across the batch) or the
    same shape as ``rx_positions``.
    """
    tx_pos = np.asarray(tx_positions, dtype=float)
    tx_ori = np.asarray(tx_orientations, dtype=float)
    orders = np.asarray(lambertian_orders, dtype=float)
    rx_pos = np.asarray(rx_positions, dtype=float)
    rx_ori = np.asarray(rx_orientations, dtype=float)

    # delta[..., j, m, :] = rx_pos[..., m, :] - tx_pos[j, :]
    delta = rx_pos[..., None, :, :] - tx_pos[:, None, :]
    distance = np.linalg.norm(delta, axis=-1)
    if np.any(distance <= 0.0):
        raise ChannelError("TX and RX positions coincide; LOS gain undefined")
    cos_phi = np.einsum("...jmc,jc->...jm", delta, tx_ori) / distance
    cos_psi = -np.einsum("...jmc,...mc->...jm", delta, rx_ori) / distance
    visible = (cos_phi > 0.0) & (cos_psi > 0.0)
    cos_phi = np.where(visible, np.minimum(cos_phi, 1.0), 0.0)
    cos_psi = np.where(visible, np.minimum(cos_psi, 1.0), 0.0)
    incidence = np.arccos(np.clip(cos_psi, -1.0, 1.0))

    first = photodiodes[0]
    if all(pd is first or pd == first for pd in photodiodes):
        concentrator = first.gain_array(incidence)
        areas: "np.ndarray | float" = first.area
    else:
        concentrator = np.empty_like(incidence)
        for m, pd in enumerate(photodiodes):
            concentrator[..., m] = pd.gain_array(incidence[..., m])
        areas = np.array([pd.area for pd in photodiodes])

    orders_col = orders[:, None]
    gains = (
        (orders_col + 1.0)
        * areas
        / (2.0 * math.pi * distance**2)
        * cos_phi**orders_col
        * concentrator
        * cos_psi
    )
    return np.where(visible, gains, 0.0)


def _scene_tx_arrays(scene: Scene) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """TX pose/order arrays for a scene, memoized on the scene instance.

    Scenes are frozen (nodes never move in place; movement builds a new
    scene), so the arrays are built once and reattached -- which makes
    repeated channel evaluations on one scene (mobility steps, service
    traffic, incremental column updates) skip the per-node Python loop.
    """
    cached = getattr(scene, "_los_tx_arrays", None)
    if cached is None:
        cached = (
            scene.tx_positions(),
            np.array([tx.orientation for tx in scene.transmitters]),
            np.array([tx.led.lambertian_order for tx in scene.transmitters]),
        )
        object.__setattr__(scene, "_los_tx_arrays", cached)
    return cached


def _scene_rx_arrays(scene: Scene) -> "tuple[np.ndarray, np.ndarray, list]":
    """RX position/orientation/photodiode arrays, memoized like the TX side."""
    cached = getattr(scene, "_los_rx_arrays", None)
    if cached is None:
        cached = (
            scene.rx_positions(),
            np.array([rx.orientation for rx in scene.receivers]),
            [rx.photodiode for rx in scene.receivers],
        )
        object.__setattr__(scene, "_los_rx_arrays", cached)
    return cached


def channel_matrix(scene: Scene) -> np.ndarray:
    """The (N, M) LOS gain matrix H for a scene.

    Entry ``H[j, m]`` is the gain from TX ``j`` to RX ``m``; this is the
    ``H_{j,i}`` of the paper's Eqs. 3 and 12.  Computed in one broadcast
    over all pairs; :func:`node_gain` is the scalar reference.
    """
    if scene.num_receivers == 0:
        raise ChannelError("scene has no receivers; channel matrix is empty")
    tx_pos, tx_ori, orders = _scene_tx_arrays(scene)
    rx_pos, rx_ori, photodiodes = _scene_rx_arrays(scene)
    return los_gain_stack(tx_pos, tx_ori, orders, rx_pos, rx_ori, photodiodes)


def channel_matrix_stack(
    scene: Scene, placements_xy: "np.ndarray | list"
) -> np.ndarray:
    """(B, N, M) LOS gain matrices for B receiver placements.

    *placements_xy* has shape (B, M, 2); each placement moves the
    scene's M receivers to new XY positions (heights, orientations and
    photodiode models are taken from the scene, and no intermediate
    :class:`~repro.system.Scene` is built).  The full stack is one NumPy
    broadcast over all B * N * M links; a single placement is
    ``channel_matrix_stack(scene, xy[None])[0]``.
    """
    placements = np.asarray(placements_xy, dtype=float)
    if placements.ndim != 3 or placements.shape[2] != 2:
        raise ChannelError(
            f"expected a (B, M, 2) placement array, got shape {placements.shape}"
        )
    if placements.shape[1] != scene.num_receivers:
        raise GeometryError(
            f"expected {scene.num_receivers} receivers per placement, "
            f"got {placements.shape[1]}"
        )
    if not (
        np.all(placements[..., 0] >= 0.0)
        and np.all(placements[..., 0] <= scene.room.width)
        and np.all(placements[..., 1] >= 0.0)
        and np.all(placements[..., 1] <= scene.room.depth)
    ):
        raise GeometryError("placement outside the room footprint")
    base_pos, rx_ori, photodiodes = _scene_rx_arrays(scene)
    heights = base_pos[:, 2]
    rx_pos = np.concatenate(
        [placements, np.broadcast_to(heights[:, None], placements.shape[:2] + (1,))],
        axis=2,
    )
    tx_pos, tx_ori, orders = _scene_tx_arrays(scene)
    return los_gain_stack(tx_pos, tx_ori, orders, rx_pos, rx_ori, photodiodes)


def channel_matrix_update(
    scene: Scene,
    matrix: np.ndarray,
    moved_positions_xy: "np.ndarray | list",
    moved_indices: "Sequence[int] | Sequence[Sequence[int]] | np.ndarray",
) -> np.ndarray:
    """Channel matrices with only the moved receivers' columns recomputed.

    When a subset of receivers moves between mobility steps (or between
    service requests), only their columns of the (N, M) gain matrix
    change -- TX geometry and the other receivers are untouched.  This
    recomputes exactly those columns on top of *matrix* (which is not
    modified) and returns the updated copy.  Each recomputed column runs
    through the same :func:`los_gain_stack` arithmetic as a full rebuild,
    so the result is bit-identical to ``channel_matrix`` on a scene with
    the receivers at the new positions.

    ``moved_positions_xy`` is (K, 2): the new XY position of each entry
    of ``moved_indices``.  Heights, orientations and photodiode models
    are preserved from the scene.

    With a leading placement axis, *matrix* is a (B, N, M) stack and
    ``moved_indices`` a (K, 2) array of ``(placement, receiver)`` pairs:
    every moved column of every placement is recomputed in one broadcast
    and the updated (B, N, M) stack is returned.  The 2-D form is the
    B = 1 case.
    """
    base = np.asarray(matrix, dtype=float)
    stacked = base.ndim == 3
    bases = base if stacked else base[None]
    shape = (scene.num_transmitters, scene.num_receivers)
    if bases.ndim != 3 or bases.shape[1:] != shape:
        raise ChannelError(
            f"matrix shape {base.shape} does not match the scene's "
            f"{shape} (optionally behind a placement axis)"
        )
    moved = np.asarray(moved_indices, dtype=int)
    if not stacked:
        if moved.ndim != 1:
            raise ChannelError("need at least one moved receiver index")
        moved = np.stack((np.zeros_like(moved), moved), axis=1)
    if moved.ndim != 2 or moved.shape[1] != 2 or len(moved) == 0:
        raise ChannelError(
            "need at least one moved (placement, receiver) index pair"
        )
    placement, receiver = moved[:, 0], moved[:, 1]
    if placement.min() < 0 or placement.max() >= len(bases):
        raise ChannelError(f"placement index out of range: {placement}")
    if receiver.min() < 0 or receiver.max() >= scene.num_receivers:
        raise GeometryError(f"moved receiver index out of range: {receiver}")
    flat = placement * scene.num_receivers + receiver
    if np.unique(flat).size != flat.size:
        raise ChannelError(f"duplicate moved receiver indices: {moved.tolist()}")
    xy = np.asarray(moved_positions_xy, dtype=float)
    if xy.shape != (len(moved), 2):
        raise ChannelError(
            f"expected a ({len(moved)}, 2) array of XY positions, "
            f"got shape {xy.shape}"
        )
    inside = (
        (xy[:, 0] >= 0.0)
        & (xy[:, 0] <= scene.room.width)
        & (xy[:, 1] >= 0.0)
        & (xy[:, 1] <= scene.room.depth)
    )
    if not inside.all():
        x, y = xy[int(np.argmin(inside))]
        raise GeometryError(
            f"RX position ({x}, {y}) lies outside the room footprint"
        )
    base_pos, rx_ori, photodiodes = _scene_rx_arrays(scene)
    rx_pos = np.concatenate([xy, base_pos[receiver, 2:3]], axis=1)
    tx_pos, tx_ori, orders = _scene_tx_arrays(scene)
    columns = los_gain_stack(
        tx_pos,
        tx_ori,
        orders,
        rx_pos,
        rx_ori[receiver],
        [photodiodes[m] for m in receiver.tolist()],
    )
    updated = bases.copy()
    updated[placement, :, receiver] = columns.T
    return updated if stacked else updated[0]


def vertical_los_gain(
    led: LEDModel,
    photodiode: Photodiode,
    height: float,
    horizontal_offset: float,
) -> float:
    """LOS gain for the common down-facing TX / up-facing RX geometry.

    With coaxial orientations, ``cos(phi) = cos(psi) = h / d``.  Handy for
    closed-form checks in tests.
    """
    if height <= 0:
        raise ChannelError(f"height must be positive, got {height}")
    d = math.hypot(height, horizontal_offset)
    cos_angle = height / d
    incidence = math.acos(min(cos_angle, 1.0))
    gain = photodiode.gain(incidence)
    if gain == 0.0:
        return 0.0
    m = led.lambertian_order
    return (
        (m + 1.0)
        * photodiode.area
        / (2.0 * math.pi * d**2)
        * cos_angle**m
        * gain
        * cos_angle
    )
