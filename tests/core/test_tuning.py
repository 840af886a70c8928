"""Tests for parameter exploration (configuration and work-group sweeps)."""

import pytest

from repro.api import PerforationEngine
from repro.apps import GaussianApp, InversionApp, MedianApp
from repro.core import ROWS1_NN, STENCIL1_NN, TuningError
from repro.core.config import WORK_GROUP_CANDIDATES


@pytest.fixture()
def engine(device):
    return PerforationEngine(device=device)


class TestSweepConfigurations:
    def test_default_configs_for_stencil_app(self, natural_image_64, engine):
        sweep = engine.sweep(GaussianApp(), natural_image_64)
        labels = {p.label for p in sweep.points}
        assert labels == {"Rows1:NN", "Rows2:NN", "Rows1:LI", "Stencil1:NN"}
        assert all(p.error >= 0 for p in sweep.points)
        assert all(p.speedup > 0 for p in sweep.points)

    def test_default_configs_for_1x1_app(self, natural_image_64, engine):
        sweep = engine.sweep(InversionApp(), natural_image_64)
        labels = {p.label for p in sweep.points}
        assert "Stencil1:NN" not in labels

    def test_pareto_optimal_subset(self, natural_image_64, engine):
        sweep = engine.sweep(GaussianApp(), natural_image_64)
        front = sweep.pareto_optimal()
        assert front
        assert all(p in sweep.points for p in front)

    def test_fastest_and_most_accurate_points_are_pareto_optimal(self, natural_image_64, engine):
        sweep = engine.sweep(GaussianApp(), natural_image_64)
        front = sweep.pareto_optimal()
        assert max(p.speedup for p in front) == max(p.speedup for p in sweep.points)
        assert min(p.error for p in front) == min(p.error for p in sweep.points)

    def test_points_follow_the_given_configurations(self, natural_image_64, engine):
        """Explicit configurations restrict the sweep, and points keep their order."""
        sweep = engine.sweep(GaussianApp(), natural_image_64, [STENCIL1_NN, ROWS1_NN])
        assert [p.config for p in sweep.points] == [STENCIL1_NN, ROWS1_NN]


class TestWorkGroupSweep:
    def test_sweep_covers_admissible_shapes(self, natural_image_128, engine):
        timings = engine.sweep_work_groups(
            GaussianApp(), natural_image_128, [STENCIL1_NN, ROWS1_NN]
        )
        variants = {t.variant for t in timings}
        assert variants == {"Baseline", "Stencil1:NN", "Rows1:NN"}
        shapes = {t.work_group for t in timings if t.variant == "Baseline"}
        # 128x128 image: all ten candidate shapes divide it.
        assert shapes == set(WORK_GROUP_CANDIDATES)

    def test_wide_shapes_beat_narrow_shapes(self, natural_image_128, engine):
        """The paper's Figure 9 observation: x >= y shapes are faster."""
        timings = engine.sweep_work_groups(GaussianApp(), natural_image_128, [ROWS1_NN])
        by_shape = {
            t.work_group: t.runtime_s for t in timings if t.variant == "Rows1:NN"
        }
        assert by_shape[(128, 2)] < by_shape[(2, 128)]
        assert by_shape[(16, 16)] < by_shape[(2, 128)]

    def test_non_dividing_shapes_skipped(self, engine):
        from repro.data import generate_image
        image = generate_image("natural", size=96, seed=1)
        timings = engine.sweep_work_groups(GaussianApp(), image, [ROWS1_NN])
        shapes = {t.work_group for t in timings}
        assert (128, 2) not in shapes  # 128 does not divide 96

    def test_best_work_group(self, natural_image_128, engine):
        shape = engine.best_work_group(GaussianApp(), natural_image_128, ROWS1_NN)
        assert shape in WORK_GROUP_CANDIDATES
        assert shape[0] >= shape[1]  # the x-major observation

    def test_best_work_group_no_candidates(self, engine):
        from repro.data import generate_image
        image = generate_image("natural", size=50, seed=1)  # nothing divides 50
        with pytest.raises(TuningError):
            engine.best_work_group(GaussianApp(), image, ROWS1_NN)


class TestFullSweep:
    def test_joint_sweep_contains_shaped_configs(self, natural_image_64, engine):
        sweep = engine.full_sweep(
            MedianApp(),
            natural_image_64,
            work_groups=((16, 16), (32, 8)),
        )
        assert len(sweep.points) == 8  # 4 configs x 2 shapes
        work_groups = {p.config.work_group for p in sweep.points}
        assert work_groups == {(16, 16), (32, 8)}
