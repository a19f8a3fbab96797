"""Tests for the benchmark methods."""

import numpy as np

from viewpilot.agent import ModelDims, PilotModel
from viewpilot.evaluation import selector_only
from viewpilot.observation import SceneConfig, synth_scene
from viewpilot.selector import select_greedy

DIMS = ModelDims(appearance_dim=6, motion_bins=5, slots=4, selector_hidden=8, regressor_hidden=4)
SCENE = SceneConfig(frames=60, objects=3, slots=4, appearance_dim=6, motion_bins=5)


class TestSelectorOnly:
    def test_matches_a_per_frame_fold_of_the_selector(self):
        model = PilotModel(DIMS, np.random.default_rng(0))
        episode = synth_scene(SCENE, 1)
        h = model.selector.initial_state()
        expected, picks = [], []
        for frame in episode.frames:
            h, probs = model.selector.forward(frame.flat, h)
            picks.append(select_greedy(probs))
            expected.append(frame.objects[picks[-1]].position)
        assert len(set(picks)) > 1  # the selection moves between slots
        assert selector_only(episode, model) == expected
