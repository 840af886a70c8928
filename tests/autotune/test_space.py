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
    RandomPerforation,
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
        "scheme", [ACCURATE, ROWS1, ROWS2, COLS1, STENCIL1, RowPerforation(step=8),
                   RandomPerforation(fraction=0.25, seed=7)]
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

    def test_config_key_distinguishes_random_scheme_parameters(self):
        """Random schemes share a *name* (and label) across seeds and
        nearby fractions; the identity key must not collide."""
        by_seed = [
            ApproximationConfig(scheme=RandomPerforation(fraction=0.5, seed=s))
            for s in (0, 1)
        ]
        assert by_seed[0].scheme.name == by_seed[1].scheme.name
        assert config_key(by_seed[0]) != config_key(by_seed[1])
        near = [
            ApproximationConfig(scheme=RandomPerforation(fraction=f))
            for f in (0.501, 0.504)  # both name themselves 'random50'
        ]
        assert near[0].scheme.name == near[1].scheme.name
        assert config_key(near[0]) != config_key(near[1])

    def test_spaces_with_seed_varied_random_schemes_keep_all_candidates(self):
        space = SearchSpace(
            schemes=(
                RandomPerforation(fraction=0.5, seed=0),
                RandomPerforation(fraction=0.5, seed=1),
            ),
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
