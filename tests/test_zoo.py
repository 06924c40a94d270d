"""Train-once zoo cache."""

import numpy as np
import pytest

from repro.zoo import PAPER_BENCHMARKS, get_trained, zoo_cache_dir


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


def test_default_test_split_is_memoized_read_only():
    from repro.data import make_split
    from repro.zoo import default_test_split
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


def test_mnist_benchmarks_share_one_synthesized_split(monkeypatch):
    """DeepCaps/MNIST and CapsNet/MNIST evaluate on the same zoo split;
    one service resolving both synthesizes synth-mnist once."""
    from repro import zoo
    from repro.api import ModelRef, ResilienceService
    calls = []
    real_make_dataset = zoo.make_dataset

    def counting_make_dataset(name, *args, **kwargs):
        calls.append(name)
        return real_make_dataset(name, *args, **kwargs)

    monkeypatch.setattr(zoo, "make_dataset", counting_make_dataset)
    zoo._memo_test_split.cache_clear()
    service = ResilienceService(use_store=False)
    try:
        deepcaps = service.entry(ModelRef(benchmark="DeepCaps/MNIST"))
        capsnet = service.entry(ModelRef(benchmark="CapsNet/MNIST"))
        assert deepcaps is not capsnet
        assert capsnet.test_set is deepcaps.test_set
    finally:
        service.close()
    assert calls == ["synth-mnist"]
