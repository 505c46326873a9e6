"""Tests for datasets, loaders, transforms and the synthetic generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    Compose,
    DataLoader,
    ImageClassificationSpec,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Subset,
    SyntheticCIFAR10,
    SyntheticCIFAR100,
    SyntheticDetection,
    SyntheticImageNet,
    SyntheticMNIST,
    SyntheticSTL10,
    TransformedDataset,
    make_detection_scenes,
    make_image_classification,
    train_test_split,
)


class TestArrayDatasetAndLoader:
    def test_array_dataset_basicst(self):
        x = np.arange(12).reshape(6, 2)
        y = np.arange(6)
        ds = ArrayDataset(x, y)
        assert len(ds) == 6
        sample_x, sample_y = ds[2]
        np.testing.assert_allclose(sample_x, [4, 5])
        assert sample_y == 2

    def test_array_dataset_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            ArrayDataset()

    def test_subset_and_split(self):
        ds = ArrayDataset(np.arange(10), np.arange(10))
        sub = Subset(ds, [1, 3, 5])
        assert len(sub) == 3
        assert sub[1][0] == 3
        with pytest.raises(IndexError):
            Subset(ds, [20])
        train, test = train_test_split(ds, test_fraction=0.3, seed=0)
        assert len(train) + len(test) == 10
        assert len(test) == 3
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)

    def test_loader_batching_and_shapes(self):
        ds = ArrayDataset(np.zeros((10, 3, 4, 4)), np.arange(10))
        loader = DataLoader(ds, batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 3, 4, 4)
        assert batches[-1][0].shape == (2, 3, 4, 4)
        assert len(loader) == 3

    def test_loader_drop_last(self):
        ds = ArrayDataset(np.zeros((10, 2)), np.arange(10))
        loader = DataLoader(ds, batch_size=4, drop_last=True)
        assert len(loader) == 2
        assert all(b[0].shape[0] == 4 for b in loader)

    def test_loader_shuffle_changes_order_but_not_content(self):
        ds = ArrayDataset(np.arange(32), np.arange(32))
        loader = DataLoader(ds, batch_size=32, shuffle=True, seed=3)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)  # re-shuffled between epochs
        np.testing.assert_array_equal(np.sort(first), np.arange(32))

    def test_loader_validation(self):
        ds = ArrayDataset(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)

    @pytest.mark.parametrize("kind", ["array", "subset", "nested_subset", "transformed"])
    def test_collation_is_bytewise_the_per_sample_stack(self, kind):
        rng = np.random.default_rng(5)
        base = ArrayDataset(
            rng.standard_normal((23, 3, 4, 4)).astype(np.float32), rng.integers(0, 9, size=23)
        )
        dataset = {
            "array": base,
            "subset": Subset(base, rng.permutation(23)[:17]),
            "nested_subset": Subset(Subset(base, rng.permutation(23)[:19]), [4, 0, 7, 2, 11, 9]),
            "transformed": TransformedDataset(base, RandomHorizontalFlip(0.5), seed=2),
        }[kind]
        loader = DataLoader(dataset, batch_size=5, shuffle=True, seed=9)
        # the reference collates sample by sample, as every dataset kind can,
        # in the order a twin loader's shuffle stream gives
        twin = DataLoader(dataset, batch_size=5, shuffle=True, seed=9)
        for _epoch in range(2):
            order = twin._rng.permutation(len(dataset))
            if kind == "transformed":
                dataset._rng = np.random.default_rng(0)
            expected = []
            for start in range(0, len(order), 5):
                samples = [dataset[int(i)] for i in order[start : start + 5]]
                expected.append(tuple(np.stack(field) for field in zip(*samples)))
            if kind == "transformed":
                dataset._rng = np.random.default_rng(0)
            got = list(loader)
            assert len(got) == len(expected)
            for batch, want in zip(got, expected):
                assert [a.dtype for a in batch] == [a.dtype for a in want]
                assert [a.shape for a in batch] == [a.shape for a in want]
                assert [a.tobytes() for a in batch] == [a.tobytes() for a in want]


class TestSyntheticImages:
    def test_generator_shapes_and_determinism(self):
        spec = ImageClassificationSpec(num_classes=5, num_train=40, num_test=20, image_size=6)
        x1, y1, xt1, yt1 = make_image_classification(spec, seed=7)
        x2, y2, _, _ = make_image_classification(spec, seed=7)
        assert x1.shape == (40, 3, 6, 6)
        assert xt1.shape == (20, 3, 6, 6)
        assert y1.min() >= 0 and y1.max() < 5
        np.testing.assert_allclose(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        x3, _, _, _ = make_image_classification(spec, seed=8)
        assert not np.allclose(x1, x3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ImageClassificationSpec(num_classes=1, num_train=10, num_test=5)
        with pytest.raises(ValueError):
            ImageClassificationSpec(num_classes=5, num_train=2, num_test=5)

    @pytest.mark.parametrize(
        "cls,classes",
        [
            (SyntheticCIFAR10, 10),
            (SyntheticCIFAR100, 20),
            (SyntheticSTL10, 10),
            (SyntheticImageNet, 40),
        ],
    )
    def test_proxy_datasets(self, cls, classes):
        train, test = cls.splits(seed=0, size_scale=0.2)
        assert train.num_classes == classes
        x, y = train[0]
        assert x.shape == (train.channels, train.image_size, train.image_size)
        assert 0 <= y < classes
        assert len(test) > 0

    def test_classes_are_visually_separable(self):
        """Same-class samples must be closer (on average) than cross-class samples."""
        train = SyntheticCIFAR10("train", seed=0, size_scale=0.5)
        x, y = train.arrays
        flat = x.reshape(len(x), -1)
        same, diff = [], []
        for cls in range(3):
            members = flat[y == cls][:10]
            others = flat[y != cls][:10]
            centroid = members.mean(axis=0)
            same.append(np.linalg.norm(members - centroid, axis=1).mean())
            diff.append(np.linalg.norm(others - centroid, axis=1).mean())
        assert np.mean(diff) > np.mean(same)

    def test_invalid_split_and_scale(self):
        with pytest.raises(ValueError):
            SyntheticCIFAR10("validation")
        with pytest.raises(ValueError):
            SyntheticCIFAR10("train", size_scale=0.0)

    def test_mnist_targets_equal_inputs_in_unit_range(self):
        train, test = SyntheticMNIST.splits(seed=0, size_scale=0.2)
        x, target = train[0]
        np.testing.assert_allclose(x, target)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert x.shape[0] == 1


class TestSyntheticDetection:
    def test_scene_and_target_format(self):
        images, targets = make_detection_scenes(8, image_size=16, grid_size=4, num_classes=3, seed=0)
        assert images.shape == (8, 3, 16, 16)
        assert targets.shape == (8, 4, 4, 8)
        obj = targets[..., 4]
        assert obj.sum() >= 8  # at least one object per scene
        # box coordinates are fractions of the image
        boxes = targets[..., :4][obj > 0.5]
        assert boxes.min() >= 0.0 and boxes.max() <= 1.0
        # class one-hots only where an object exists
        assert np.all(targets[..., 5:].sum(axis=-1)[obj < 0.5] == 0)
        np.testing.assert_allclose(targets[..., 5:].sum(axis=-1)[obj > 0.5], 1.0)

    def test_grid_divisibility_check(self):
        with pytest.raises(ValueError):
            make_detection_scenes(2, image_size=15, grid_size=4)

    def test_dataset_splits_differ(self):
        train, test = SyntheticDetection.splits(seed=0, size_scale=0.1)
        assert len(train) > 0 and len(test) > 0
        assert not np.allclose(train.arrays[0][0], test.arrays[0][0])


class TestTransforms:
    def test_normalize(self):
        rng = np.random.default_rng(0)
        t = Normalize(mean=[1.0, 2.0, 3.0], std=[2.0, 2.0, 2.0])
        img = np.ones((3, 4, 4))
        out = t(img, rng)
        np.testing.assert_allclose(out[0], 0.0)
        np.testing.assert_allclose(out[2], -1.0)
        with pytest.raises(ValueError):
            t(np.ones((2, 4, 4)), rng)
        with pytest.raises(ValueError):
            Normalize(mean=[0.0], std=[0.0])

    def test_flip_and_crop_preserve_shape(self):
        rng = np.random.default_rng(0)
        img = np.random.default_rng(1).standard_normal((3, 8, 8))
        assert RandomHorizontalFlip(1.0)(img, rng).shape == img.shape
        np.testing.assert_allclose(RandomHorizontalFlip(0.0)(img, rng), img)
        assert RandomCrop(2)(img, rng).shape == img.shape
        np.testing.assert_allclose(RandomCrop(0)(img, rng), img)

    def test_flip_actually_flips(self):
        rng = np.random.default_rng(0)
        img = np.arange(12, dtype=float).reshape(1, 3, 4)
        flipped = RandomHorizontalFlip(1.0)(img, rng)
        np.testing.assert_allclose(flipped, img[:, :, ::-1])

    def test_compose_and_transformed_dataset(self):
        base = ArrayDataset(np.ones((6, 3, 8, 8)), np.arange(6))
        transform = Compose([RandomHorizontalFlip(0.5), Normalize([0.5] * 3, [0.5] * 3)])
        ds = TransformedDataset(base, transform, seed=0)
        x, y = ds[0]
        assert x.shape == (3, 8, 8)
        np.testing.assert_allclose(x, 1.0)  # (1 - 0.5) / 0.5
        assert len(ds) == 6
