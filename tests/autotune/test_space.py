"""Search-space model: enumeration, validity filtering, signatures."""

import pytest

from repro.autotune import SearchSpace, default_space
from repro.autotune.space import (
    config_from_dict,
    config_key,
    config_to_dict,
    scheme_from_dict,
    scheme_to_dict,
)
from repro.clsim.device import get_device
from repro.core.config import FIGURE8_CONFIGS, ApproximationConfig
from repro.core.errors import ConfigurationError
from repro.core.reconstruction import NEAREST_NEIGHBOR
from repro.core.schemes import (
    ACCURATE,
    COLS1,
    ROWS1,
    ROWS2,
    STENCIL1,
    ColumnPerforation,
    RowPerforation,
)


class TestEnumeration:
    def test_default_space_is_strictly_larger_than_the_papers_ladder(self):
        space = default_space()
        configs = space.configurations(halo=2)
        # The paper's evaluation: 4 configurations x 10 work groups.
        assert len(configs) > 4 * 10
        labels = {c.label for c in configs}
        for paper_config in FIGURE8_CONFIGS:
            assert paper_config.label in labels

    def test_enumeration_order_is_deterministic(self):
        space = default_space()
        a = [config_key(c) for c in space.configurations(halo=2)]
        b = [config_key(c) for c in space.configurations(halo=2)]
        assert a == b

    def test_stencil_requires_halo(self):
        space = default_space()
        kinds = {c.scheme.kind for c in space.configurations(halo=0)}
        assert "stencil" not in kinds
        kinds = {c.scheme.kind for c in space.configurations(halo=1)}
        assert "stencil" in kinds

    def test_stencil_reconstruction_variants_collapse(self):
        space = default_space()
        stencil = [
            c for c in space.configurations(halo=2) if c.scheme.kind == "stencil"
        ]
        assert stencil  # present
        assert all(c.reconstruction == NEAREST_NEIGHBOR for c in stencil)

    def test_accurate_scheme_is_not_a_candidate(self):
        space = SearchSpace(schemes=(ACCURATE, ROWS1))
        assert all(not c.is_accurate for c in space.configurations(halo=1))

    def test_work_groups_filtered_by_global_size_and_device(self):
        space = default_space()
        device = get_device()
        configs = space.configurations(halo=2, global_size=(64, 64), device=device)
        for config in configs:
            wx, wy = config.work_group
            assert 64 % wx == 0 and 64 % wy == 0
            assert wx * wy <= device.max_work_group_size

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchSpace(schemes=())


class TestSignature:
    def test_signature_changes_with_axes(self):
        base = default_space()
        smaller = SearchSpace(
            schemes=base.schemes[:-1],
            reconstructions=base.reconstructions,
            work_groups=base.work_groups,
        )
        assert base.signature() != smaller.signature()
        assert base.signature() == default_space().signature()


class TestSerialization:
    @pytest.mark.parametrize(
        "scheme", [ACCURATE, ROWS1, ROWS2, COLS1, STENCIL1, RowPerforation(step=8)]
    )
    def test_scheme_round_trip(self, scheme):
        assert scheme_from_dict(scheme_to_dict(scheme)) == scheme

    def test_config_round_trip(self):
        for config in default_space().configurations(halo=2):
            assert config_from_dict(config_to_dict(config)) == config

    def test_config_key_distinguishes_what_labels_collapse(self):
        a = ApproximationConfig(scheme=ROWS1, work_group=(8, 8))
        b = ApproximationConfig(scheme=ROWS1, work_group=(16, 16))
        assert a.label == b.label
        assert config_key(a) != config_key(b)

    @pytest.mark.parametrize("scheme_class", [RowPerforation, ColumnPerforation])
    def test_config_key_distinguishes_scheme_parameters(self, scheme_class):
        """Steps 2 and 3 share a scheme *name* (rows1, cols1) and so a
        label; the identity key must not collide."""
        configs = [ApproximationConfig(scheme=scheme_class(step=step)) for step in (2, 3)]
        assert configs[0].scheme.name == configs[1].scheme.name
        assert configs[0].label == configs[1].label
        assert config_key(configs[0]) != config_key(configs[1])

    def test_spaces_with_step_varied_schemes_keep_all_candidates(self):
        space = SearchSpace(
            schemes=(RowPerforation(step=2), RowPerforation(step=3)),
            reconstructions=(NEAREST_NEIGHBOR,),
            work_groups=((16, 16),),
        )
        assert len(space.configurations(halo=1)) == 2


class TestNeighbors:
    def test_neighbors_change_exactly_one_axis(self):
        space = default_space()
        configs = space.configurations(halo=2, global_size=(128, 128))
        config = configs[len(configs) // 2]
        for neighbor in space.neighbors(config, halo=2, global_size=(128, 128)):
            differences = sum(
                [
                    neighbor.scheme != config.scheme,
                    neighbor.reconstruction != config.reconstruction,
                    neighbor.work_group != config.work_group,
                ]
            )
            assert differences == 1

    def test_neighbors_are_valid_and_deterministic(self):
        space = default_space()
        config = space.configurations(halo=2, global_size=(64, 64))[0]
        once = space.neighbors(config, halo=2, global_size=(64, 64))
        twice = space.neighbors(config, halo=2, global_size=(64, 64))
        assert [config_key(c) for c in once] == [config_key(c) for c in twice]
        valid = {config_key(c) for c in space.configurations(halo=2, global_size=(64, 64))}
        assert all(config_key(c) in valid for c in once)
