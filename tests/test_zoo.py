"""Train-once zoo cache: weights and default test splits."""

import glob
import logging
import os

import numpy as np
import pytest

from repro import zoo
from repro.data import make_dataset
from repro.zoo import PAPER_BENCHMARKS, get_trained, zoo_cache_dir

TRACKED_ZOO = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".artifacts", "zoo")


@pytest.fixture
def split_cache(tmp_path, monkeypatch):
    """An empty zoo directory; the per-process split memo is emptied on
    the way in and out."""
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    zoo._memo_test_split.cache_clear()
    yield tmp_path
    zoo._memo_test_split.cache_clear()


@pytest.fixture
def mnist_zoo(split_cache):
    """The two tracked synth-mnist weight files and no cached split."""
    for name in ("deepcaps-micro__synth-mnist__n1000__e6__s3.npz",
                 "capsnet-micro__synth-mnist__n1000__e6__s3.npz"):
        os.symlink(os.path.join(TRACKED_ZOO, name), split_cache / name)
    return split_cache


def _count_make_dataset(monkeypatch) -> list:
    calls = []
    real_make_dataset = zoo.make_dataset

    def counting_make_dataset(name, *args, **kwargs):
        calls.append(name)
        return real_make_dataset(name, *args, **kwargs)

    monkeypatch.setattr(zoo, "make_dataset", counting_make_dataset)
    return calls


def _assert_same_split(split, expected) -> None:
    for got, want in ((split.images, expected.images),
                      (split.labels, expected.labels)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_paper_benchmarks_table():
    labels = [b[0] for b in PAPER_BENCHMARKS]
    assert len(PAPER_BENCHMARKS) == 5  # Table II rows
    assert "DeepCaps/CIFAR-10" in labels
    assert "CapsNet/MNIST" in labels


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    first = get_trained("capsnet-micro", "synth-mnist", num_train=120,
                        num_test=48, epochs=1, seed=9)
    assert not first.from_cache
    second = get_trained("capsnet-micro", "synth-mnist", num_train=120,
                         num_test=48, epochs=1, seed=9)
    assert second.from_cache
    assert second.test_accuracy == pytest.approx(first.test_accuracy)
    w1 = dict(first.model.named_parameters())["conv1.weight"].data
    w2 = dict(second.model.named_parameters())["conv1.weight"].data
    np.testing.assert_allclose(w1, w2)


def test_cache_key_distinguishes_configs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    get_trained("capsnet-micro", "synth-mnist", num_train=120, num_test=48,
                epochs=1, seed=9)
    other = get_trained("capsnet-micro", "synth-mnist", num_train=120,
                        num_test=48, epochs=1, seed=10)
    assert not other.from_cache  # different seed -> new training


def test_no_cache_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    entry = get_trained("capsnet-micro", "synth-mnist", num_train=120,
                        num_test=48, epochs=1, seed=11, use_cache=False)
    assert not entry.from_cache
    import os
    assert not os.listdir(tmp_path)


def test_zoo_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path / "custom"))
    assert zoo_cache_dir() == str(tmp_path / "custom")


def test_failed_weight_write_leaves_no_file(tmp_path, monkeypatch):
    """A write that dies midway must not leave a truncated ``.npz`` at
    the cache path, where a concurrent reader would load it."""
    import os

    from repro import zoo
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    real_savez = np.savez_compressed

    def dying_savez(file, **arrays):
        real_savez(file, **arrays)
        target = file if isinstance(file, str) else file.name
        with open(target, "r+b") as stream:
            stream.truncate(16)
        raise OSError("disk full")

    monkeypatch.setattr(zoo.np, "savez_compressed", dying_savez)
    with pytest.raises(OSError, match="disk full"):
        get_trained("capsnet-micro", "synth-mnist", num_train=120,
                    num_test=48, epochs=1, seed=12)
    assert not os.listdir(tmp_path)
    assert zoo.load_trained_model("capsnet-micro", "synth-mnist",
                                  num_train=120, epochs=1, seed=12) is None


def test_default_test_split_is_memoized_read_only(tmp_path, monkeypatch):
    from repro.data import make_split
    from repro.zoo import default_test_split
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    first = default_test_split("synth-fashion", num_test=24, seed=5)
    again = default_test_split("synth-fashion", num_test=24, seed=5)
    assert again is first
    assert default_test_split("synth-fashion", num_test=24, seed=6) \
        is not first
    for array in (first.images, first.labels):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    _, expected = make_split("synth-fashion", 8, 24, seed=5)
    np.testing.assert_array_equal(first.images, expected.images)
    np.testing.assert_array_equal(first.labels, expected.labels)


def _mnist_test_sets():
    from repro.api import ModelRef, ResilienceService
    service = ResilienceService(use_store=False)
    try:
        deepcaps = service.entry(ModelRef(benchmark="DeepCaps/MNIST"))
        capsnet = service.entry(ModelRef(benchmark="CapsNet/MNIST"))
        assert deepcaps is not capsnet
        return deepcaps.test_set, capsnet.test_set
    finally:
        service.close()


def test_mnist_benchmarks_share_one_synthesized_split(mnist_zoo,
                                                      monkeypatch):
    """DeepCaps/MNIST and CapsNet/MNIST evaluate on the same zoo split;
    one service resolving both on a cold split cache synthesizes
    synth-mnist once."""
    calls = _count_make_dataset(monkeypatch)
    deepcaps, capsnet = _mnist_test_sets()
    assert capsnet is deepcaps
    assert calls == ["synth-mnist"]
    assert len(glob.glob(str(mnist_zoo / "splits" / "synth-mnist__*.npz"))) \
        == 1


def test_warm_split_cache_skips_synthesis(mnist_zoo, monkeypatch):
    """A process that finds the split on disk synthesizes nothing and
    serves the same bytes, read-only."""
    cold, _ = _mnist_test_sets()
    zoo._memo_test_split.cache_clear()
    calls = _count_make_dataset(monkeypatch)
    deepcaps, capsnet = _mnist_test_sets()
    assert calls == []
    assert capsnet is deepcaps and deepcaps is not cold
    _assert_same_split(deepcaps, cold)
    for array in (deepcaps.images, deepcaps.labels):
        assert not array.flags.writeable


@pytest.mark.parametrize("dataset", ["synth-mnist", "synth-fashion",
                                     "synth-cifar10", "synth-svhn"])
def test_cached_split_is_byte_identical(split_cache, monkeypatch, dataset):
    zoo.default_test_split(dataset)
    zoo._memo_test_split.cache_clear()
    calls = _count_make_dataset(monkeypatch)
    loaded = zoo.default_test_split(dataset)
    assert calls == []
    _assert_same_split(loaded, make_dataset(
        dataset, zoo.DEFAULT_NUM_TEST, seed=zoo.DEFAULT_SEED + 10_000))


def _truncate(path):
    with open(path, "r+b") as stream:
        stream.truncate(os.path.getsize(path) // 2)


def _flip_pixel_byte(path):
    """One byte inside the stored pixels, as a disk fault would flip it."""
    with np.load(path) as archive:
        pixels = archive["images"].tobytes()
    with open(path, "rb") as stream:
        raw = bytearray(stream.read())
    middle = len(pixels) // 2
    raw[raw.index(pixels[middle:middle + 64]) + 32] ^= 0x40
    with open(path, "wb") as stream:
        stream.write(raw)


def _rewrite_one_pixel(path):
    """A well-formed archive whose pixels no longer match its CRC."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["images"].reshape(-1)[1000] += 0.25
    np.savez(path, **arrays)


@pytest.mark.parametrize("corrupt", [_truncate, _flip_pixel_byte,
                                     _rewrite_one_pixel])
def test_corrupt_split_file_is_resynthesized(split_cache, monkeypatch,
                                             corrupt):
    zoo.default_test_split("synth-mnist", num_test=32, seed=7)
    (path,) = glob.glob(str(split_cache / "splits" / "*.npz"))
    corrupt(path)
    with open(path, "rb") as stream:
        corrupted = stream.read()
    zoo._memo_test_split.cache_clear()
    calls = _count_make_dataset(monkeypatch)
    served = zoo.default_test_split("synth-mnist", num_test=32, seed=7)
    assert calls == ["synth-mnist"]
    expected = make_dataset("synth-mnist", 32, seed=7 + 10_000)
    _assert_same_split(served, expected)
    with open(path, "rb") as stream:
        assert stream.read() != corrupted
    with np.load(path) as archive:
        assert archive["images"].tobytes() == expected.images.tobytes()
        assert archive["labels"].tobytes() == expected.labels.tobytes()


def test_failed_split_write_serves_split_and_leaves_no_file(
        split_cache, monkeypatch, caplog):
    """Mirror of ``test_failed_weight_write_leaves_no_file``: a split
    that cannot be cached is still served, with one warning."""

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(zoo.os, "replace", failing_replace)
    with caplog.at_level(logging.WARNING, logger="repro.zoo"):
        served = zoo.default_test_split("synth-mnist", num_test=32, seed=8)
    _assert_same_split(served, make_dataset("synth-mnist", 32,
                                            seed=8 + 10_000))
    warnings = [record for record in caplog.records
                if record.name == "repro.zoo"
                and record.levelno == logging.WARNING]
    assert len(warnings) == 1 and "disk full" in warnings[0].getMessage()
    assert not os.listdir(split_cache / "splits")


def test_split_revision_names_the_file(split_cache, monkeypatch):
    """A different numpy (or scipy, or generator source) may synthesize
    different pixels: the split is cached under a new name and
    synthesized afresh, never served from the old file."""
    zoo.default_test_split("synth-mnist", num_test=32, seed=9)
    (old_path,) = glob.glob(str(split_cache / "splits" / "*.npz"))
    monkeypatch.setattr(zoo.np, "__version__", "0.0.0+other")
    zoo._memo_test_split.cache_clear()
    calls = _count_make_dataset(monkeypatch)
    zoo.default_test_split("synth-mnist", num_test=32, seed=9)
    assert calls == ["synth-mnist"]
    paths = sorted(glob.glob(str(split_cache / "splits" / "*.npz")))
    assert len(paths) == 2 and old_path in paths
