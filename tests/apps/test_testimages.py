"""Tests for the synthetic image generators, including how the
applications respond to them (cross-cutting sanity checks)."""

import numpy as np
import pytest

from helpers import STAGED

from repro.api import run
from repro.apps import testimages
from repro.apps.harris import build_pipeline as build_harris
from repro.apps.sobel import build_pipeline as build_sobel


class TestGenerators:
    def test_constant(self):
        img = testimages.constant(6, 4, 7.0)
        assert img.shape == (4, 6)
        assert np.all(img == 7.0)

    def test_gradient_axes(self):
        horizontal = testimages.gradient(8, 4, horizontal=True)
        assert horizontal[0, 0] == 0.0 and horizontal[0, -1] == 255.0
        assert np.all(horizontal[0] == horizontal[-1])
        vertical = testimages.gradient(8, 4, horizontal=False)
        assert vertical[0, 0] == 0.0 and vertical[-1, 0] == 255.0

    def test_step_edge(self):
        edge = testimages.step_edge(10, 6, position=0.5)
        assert edge[0, 0] == 0.0 and edge[0, -1] == 200.0
        horizontal = testimages.step_edge(10, 6, vertical=False)
        assert horizontal[0, 0] == 0.0 and horizontal[-1, 0] == 200.0

    def test_checkerboard_alternates(self):
        board = testimages.checkerboard(16, 16, cell=4)
        assert board[0, 0] != board[0, 4]
        assert board[0, 0] == board[4, 4]
        assert set(np.unique(board)) == {0.0, 255.0}

    def test_gaussian_blob_peaks_at_center(self):
        blob = testimages.gaussian_blob(16, 16)
        assert blob.argmax() == np.ravel_multi_index((8, 8), (16, 16))

    def test_noise_deterministic(self):
        a = testimages.noise(8, 8, seed=3)
        b = testimages.noise(8, 8, seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, testimages.noise(8, 8, seed=4))

    def test_noise_channels(self):
        assert testimages.noise(8, 6, channels=3).shape == (6, 8, 3)

    def test_salt_and_pepper_density(self):
        img = testimages.salt_and_pepper(64, 64, density=0.1, seed=1)
        impulses = np.count_nonzero((img == 0.0) | (img == 255.0))
        assert impulses == pytest.approx(0.1 * 64 * 64, rel=0.3)

    def test_natural_like_in_range(self):
        img = testimages.natural_like(32, 32)
        assert img.min() >= 0.0 and img.max() <= 255.0


class TestApplicationsOnGenerators:
    def test_sobel_silent_on_constant(self):
        graph = build_sobel(16, 16).build()
        env = run(
            graph, {"input": testimages.constant(16, 16)},
            options=STAGED,
        )
        np.testing.assert_allclose(env["magnitude"], 0.0, atol=1e-9)

    def test_sobel_fires_on_step_edge(self):
        graph = build_sobel(16, 16).build()
        env = run(
            graph, {"input": testimages.step_edge(16, 16)},
            options=STAGED,
        )
        assert env["magnitude"].max() > 100.0

    def test_harris_loves_checkerboards(self):
        graph = build_harris(32, 32).build()
        board = run(
            graph, {"input": testimages.checkerboard(32, 32, cell=8)},
            options=STAGED,
        )["corners"]
        flat = run(
            graph, {"input": testimages.constant(32, 32)},
            options=STAGED,
        )["corners"]
        assert np.abs(board).max() > 100.0 * np.abs(flat).max() + 1e-12
