"""Unit tests for repro.channel.los (Eq. 2)."""

import math

import numpy as np
import pytest

from repro.channel import (
    channel_matrix,
    channel_matrix_stack,
    los_gain,
    node_gain,
    vertical_los_gain,
)
from repro.errors import ChannelError
from repro.geometry import DOWN, UP
from repro.optics import Photodiode
from repro.system import simulation_scene


class TestLosGain:
    def test_closed_form_directly_below(self, led, photodiode):
        # Directly below: cos(phi) = cos(psi) = 1 at distance d.
        d = 2.0
        gain = los_gain(
            np.array([0.0, 0.0, d]),
            DOWN,
            led.lambertian_order,
            np.array([0.0, 0.0, 0.0]),
            UP,
            photodiode,
        )
        m = led.lambertian_order
        expected = (m + 1) * photodiode.area / (2 * math.pi * d**2)
        assert gain == pytest.approx(expected)

    def test_matches_vertical_helper(self, led, photodiode):
        gain = los_gain(
            np.array([1.0, 1.0, 2.8]),
            DOWN,
            led.lambertian_order,
            np.array([1.5, 1.0, 0.8]),
            UP,
            photodiode,
        )
        assert gain == pytest.approx(
            vertical_los_gain(led, photodiode, height=2.0, horizontal_offset=0.5)
        )

    def test_decays_with_distance(self, led, photodiode):
        gains = [
            vertical_los_gain(led, photodiode, 2.0, offset)
            for offset in (0.0, 0.25, 0.5, 1.0, 2.0)
        ]
        assert all(b < a for a, b in zip(gains, gains[1:]))

    def test_zero_behind_led(self, led, photodiode):
        gain = los_gain(
            np.array([0.0, 0.0, 2.0]),
            DOWN,
            led.lambertian_order,
            np.array([0.0, 0.0, 2.5]),  # above the LED
            UP,
            photodiode,
        )
        assert gain == 0.0

    def test_zero_outside_fov(self, led):
        narrow = Photodiode(field_of_view=math.radians(20))
        # 45-degree incidence is outside a 20-degree FOV.
        gain = los_gain(
            np.array([2.0, 0.0, 2.0]),
            DOWN,
            led.lambertian_order,
            np.array([0.0, 0.0, 0.0]),
            UP,
            narrow,
        )
        assert gain == 0.0

    def test_coincident_positions_raise(self, led, photodiode):
        point = np.array([1.0, 1.0, 1.0])
        with pytest.raises(ChannelError):
            los_gain(point, DOWN, led.lambertian_order, point, UP, photodiode)

    def test_gain_is_tiny_but_positive(self, led, photodiode):
        gain = vertical_los_gain(led, photodiode, 2.0, 0.0)
        assert 1e-8 < gain < 1e-5


class TestChannelMatrix:
    def test_shape(self, fig7_scene, fig7_channel):
        assert fig7_channel.shape == (36, 4)

    def test_non_negative(self, fig7_channel):
        assert np.all(fig7_channel >= 0.0)

    def test_best_tx_matches_paper(self, fig7_channel):
        # Sec. 4.2: TX8 serves RX1 first; TX10 serves RX2 first.
        assert int(np.argmax(fig7_channel[:, 0])) == 7
        assert int(np.argmax(fig7_channel[:, 1])) == 9

    def test_node_gain_consistency(self, fig7_scene, fig7_channel):
        tx = fig7_scene.transmitters[7]
        rx = fig7_scene.receivers[0]
        assert node_gain(tx, rx) == pytest.approx(fig7_channel[7, 0])

    def test_moved_receivers(self, fig7_scene):
        xy = np.array([(0.25, 0.25), (2.75, 2.75), (1.5, 1.5), (0.75, 2.25)])
        moved = channel_matrix_stack(fig7_scene, xy[None])[0]
        # RX1 placed exactly under TX1 now has TX1 as its best channel.
        assert int(np.argmax(moved[:, 0])) == 0

    def test_narrow_lens_localizes(self, fig7_channel):
        # With the 15-degree lens most of each column's energy comes from
        # the few nearest TXs.
        column = fig7_channel[:, 0]
        top5 = np.sort(column)[-5:].sum()
        assert top5 / column.sum() > 0.6

    def test_empty_receivers_raise(self):
        scene = simulation_scene([])
        with pytest.raises(ChannelError):
            channel_matrix(scene)

    def test_vectorized_matches_scalar_reference(self, fig7_scene, fig7_channel):
        # channel_matrix is one broadcast; node_gain is the per-pair
        # scalar reference (Eq. 2).  They must agree on every link.
        reference = np.array(
            [
                [node_gain(tx, rx) for rx in fig7_scene.receivers]
                for tx in fig7_scene.transmitters
            ]
        )
        np.testing.assert_allclose(fig7_channel, reference, rtol=1e-12, atol=0)

    def test_positions_path_matches_moved_scene(self, fig7_scene):
        xy = [(0.4, 0.6), (2.6, 2.4), (1.2, 1.8), (0.9, 2.1)]
        direct = channel_matrix_stack(fig7_scene, np.array(xy)[None])[0]
        rebuilt = channel_matrix(fig7_scene.with_receivers_at(xy))
        np.testing.assert_allclose(direct, rebuilt, rtol=1e-12, atol=0)

    def test_stack_rows_match_single_placement_calls(self, fig7_scene):
        placements = np.array(
            [
                [(0.4, 0.6), (2.6, 2.4), (1.2, 1.8), (0.9, 2.1)],
                [(0.25, 0.25), (2.75, 2.75), (1.5, 1.5), (0.75, 2.25)],
                [(3.0, 0.0), (0.0, 3.0), (1.0, 1.0), (2.0, 2.0)],
            ]
        )
        stack = channel_matrix_stack(fig7_scene, placements)
        for b, placement in enumerate(placements):
            single = channel_matrix_stack(fig7_scene, placement[None])[0]
            np.testing.assert_allclose(stack[b], single, rtol=1e-12, atol=0)

    def test_vertical_helper_validation(self, led, photodiode):
        with pytest.raises(ChannelError):
            vertical_los_gain(led, photodiode, height=0.0, horizontal_offset=1.0)
