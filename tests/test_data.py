"""Synthetic universe generation and forget/retain splitting."""

import numpy as np
import pytest

from unlbench.data import (
    DownstreamSpec,
    SyntheticSpec,
    generate_universe,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
    split_random_forget,
    split_top_forget,
)
from unlbench.errors import BoundsError, ConfigError, GenerationError


def small_spec(**overrides):
    base = dict(
        ambient_dim=16, num_train_classes=6, per_class_train=10, per_class_test=5,
        class_noise_sigma=0.2, prototype_seed=3,
        downstream_specs=(
            DownstreamSpec("downA", 3, (0, 1), 0.9, per_class=8),
            DownstreamSpec("downB", 3, (2,), 0.7, per_class=8),
        ),
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestGenerateUniverse:
    def test_pure_function_of_spec(self):
        a = generate_universe(small_spec())
        b = generate_universe(small_spec())
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)
        for name in a[2]:
            assert np.array_equal(a[2][name].X, b[2][name].X)

    def test_prototypes_are_unit_and_decorrelated(self):
        _, _, _, protos = generate_universe(small_spec())
        norms = np.linalg.norm(protos.train, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        gram = protos.train @ protos.train.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.6

    def test_anchor_similarity_one_copies_prototype(self):
        spec = small_spec(downstream_specs=(DownstreamSpec("d", 2, (0,), 1.0, 6),))
        _, _, _, protos = generate_universe(spec)
        assert np.array_equal(protos.downstream["d"][0], protos.train[0])

    def test_anchor_similarity_zero_is_orthogonal(self):
        spec = small_spec(downstream_specs=(DownstreamSpec("d", 2, (0,), 0.0, 6),))
        _, _, _, protos = generate_universe(spec)
        assert abs(float(protos.downstream["d"][0] @ protos.train[0])) < 1e-9

    def test_realized_similarity_matches_request(self):
        spec = small_spec(prototype_seed=7)
        _, _, _, protos = generate_universe(spec)
        for dspec in spec.downstream_specs:
            for i, anchor in enumerate(dspec.anchor_classes):
                cos = float(protos.downstream[dspec.name][i] @ protos.train[anchor])
                assert abs(cos - dspec.anchor_similarity) < 0.02

    def test_sample_counts_and_labels(self):
        train, test, downs, _ = generate_universe(small_spec())
        assert train.n == 60 and test.n == 30
        assert np.array_equal(np.unique(train.y), np.arange(6))
        assert downs["downA"].n == 24

    def test_infeasible_decorrelation_raises(self):
        # 40 classes in 2 dimensions cannot all stay below cosine 0.6.
        spec = small_spec(ambient_dim=2, num_train_classes=40,
                          downstream_specs=())
        with pytest.raises(GenerationError, match="cosine"):
            generate_universe(spec)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(num_train_classes=3)
        with pytest.raises(ConfigError):
            SyntheticSpec(class_noise_sigma=0.0)
        with pytest.raises(ConfigError):
            DownstreamSpec("d", 2, (0, 1, 2), 0.5, 4)
        for rows in ({"per_class_train": 0}, {"per_class_test": 0},
                     {"per_class_train": -1}, {"per_class_test": -1}):
            with pytest.raises(ConfigError, match="per_class"):
                SyntheticSpec(**rows)
        for sigma in (0.0, -0.2):
            with pytest.raises(ConfigError, match="noise_sigma"):
                DownstreamSpec("d", 2, noise_sigma=sigma)


class TestSplits:
    def setup_method(self):
        self.train, self.test, _, _ = generate_universe(small_spec())

    def test_zero_forget_gives_empty_df(self):
        split = split_random_forget(self.train, self.test, 0, seed=1)
        assert split.Df.n == 0 and split.Dr.n == self.train.n
        assert split.forget_classes == ()

    def test_same_seed_same_forget_set(self):
        a = split_random_forget(self.train, self.test, 2, seed=5)
        b = split_random_forget(self.train, self.test, 2, seed=5)
        assert a.forget_classes == b.forget_classes

    def test_label_count_oracle(self):
        split = split_random_forget(self.train, self.test, 2, seed=3)
        assert split.Df.n == 2 * 10 and split.Dr.n == 4 * 10
        assert split.Df_te.n == 2 * 5 and split.Dr_te.n == 4 * 5
        for c in split.forget_classes:
            assert (self.train.y == c).sum() == (split.Df.y == c).sum()

    def test_partition_complete_and_leak_free(self):
        split = split_random_forget(self.train, self.test, 3, seed=9)
        assert split.Df.n + split.Dr.n == self.train.n
        assert split.Df_te.n + split.Dr_te.n == self.test.n
        assert not set(split.forget_classes) & set(split.retain_classes)
        assert set(split.forget_classes) | set(split.retain_classes) == set(range(6))
        assert not set(split.Df.y.tolist()) & set(split.Dr.y.tolist())

    def test_bounds_error_when_forgetting_everything(self):
        with pytest.raises(BoundsError):
            split_random_forget(self.train, self.test, 6, seed=0)

    def test_top_split_takes_ranking_prefix(self):
        split = split_top_forget(self.train, self.test, 2, [4, 1, 0, 2, 3, 5])
        assert split.forget_classes == (4, 1)

    def test_top_split_whole_ranking(self):
        split = split_top_forget(self.train, self.test, 3, [5, 0, 3])
        assert split.forget_classes == (5, 0, 3)

    def test_top_split_short_ranking_rejected(self):
        with pytest.raises(BoundsError):
            split_top_forget(self.train, self.test, 4, [1, 2])


class TestPersistence:
    def test_dataset_round_trip(self, tmp_path):
        train, _, _, _ = generate_universe(small_spec())
        save_dataset(train, tmp_path / "d", {"seed": 3})
        back = load_dataset(tmp_path / "d")
        assert np.array_equal(train.X, back.X)
        assert np.array_equal(train.y, back.y)
        assert back.num_classes == train.num_classes

    def test_split_round_trip(self, tmp_path):
        train, test, _, _ = generate_universe(small_spec())
        split = split_random_forget(train, test, 2, seed=4)
        save_split(split, tmp_path / "s")
        back = load_split(tmp_path / "s")
        assert back.forget_classes == split.forget_classes
        assert back.retain_classes == split.retain_classes
        assert np.array_equal(back.Df.X, split.Df.X)
        assert np.array_equal(back.Dr_te.y, split.Dr_te.y)

    def test_spec_dict_round_trip(self):
        spec = small_spec()
        assert SyntheticSpec.from_dict(spec.to_dict()) == spec
