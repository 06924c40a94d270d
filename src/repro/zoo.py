"""Train-once model zoo for the experiment suite.

The resilience experiments evaluate one trained model under dozens of
noise configurations; retraining per experiment would dominate runtime.
``get_trained`` trains (model preset, dataset) pairs on demand and caches
the weights on disk (``.artifacts/zoo`` by default) keyed by every
hyper-parameter that affects the result.  :func:`default_test_split`
caches the default test splits next to them (``splits/``), keyed by
their descriptor and by a revision of the code that synthesizes them,
so a cold worker loads its split instead of synthesizing it.

The five paper benchmarks (Table II) map to these zoo entries:

====================  ==================  =========================
paper benchmark       preset (scaled)     dataset (synthetic stand-in)
====================  ==================  =========================
DeepCaps / CIFAR-10   deepcaps-micro      synth-cifar10
DeepCaps / SVHN       deepcaps-micro      synth-svhn
DeepCaps / MNIST      deepcaps-micro      synth-mnist
CapsNet / F-MNIST     capsnet-micro       synth-fashion
CapsNet / MNIST       capsnet-micro       synth-mnist
====================  ==================  =========================
"""

from __future__ import annotations

import logging
import os
import uuid
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import Dataset, dataset_image_shape, make_dataset, make_split
from .models import build_model
from .train import TrainConfig, Trainer, evaluate_accuracy

__all__ = ["ZooEntry", "PAPER_BENCHMARKS", "get_trained", "benchmark_entry",
           "benchmark_coords", "load_trained_model", "default_test_split",
           "default_test_descriptor", "model_layer_names", "zoo_cache_dir"]

logger = logging.getLogger("repro.zoo")

#: Default training/evaluation knobs shared by :func:`get_trained` and the
#: weights-only fast path (:func:`load_trained_model`).
DEFAULT_NUM_TRAIN = 1000
DEFAULT_NUM_TEST = 256
DEFAULT_EPOCHS = 6
DEFAULT_SEED = 3


#: (benchmark label, model preset, dataset name) for each Table II row.
PAPER_BENCHMARKS: tuple[tuple[str, str, str], ...] = (
    ("DeepCaps/CIFAR-10", "deepcaps-micro", "synth-cifar10"),
    ("DeepCaps/SVHN", "deepcaps-micro", "synth-svhn"),
    ("DeepCaps/MNIST", "deepcaps-micro", "synth-mnist"),
    ("CapsNet/Fashion-MNIST", "capsnet-micro", "synth-fashion"),
    ("CapsNet/MNIST", "capsnet-micro", "synth-mnist"),
)


@dataclass
class ZooEntry:
    """A trained model plus its data and provenance."""

    preset: str
    dataset_name: str
    model: object
    train_set: Dataset
    test_set: Dataset
    test_accuracy: float
    from_cache: bool


def zoo_cache_dir() -> str:
    """Directory for cached weights and test splits (override with
    ``REPRO_ZOO_DIR``)."""
    root = os.environ.get("REPRO_ZOO_DIR")
    if root is None:
        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), ".artifacts", "zoo")
    os.makedirs(root, exist_ok=True)
    return root


def _cache_path(preset: str, dataset_name: str, num_train: int,
                epochs: int, seed: int) -> str:
    key = f"{preset}__{dataset_name}__n{num_train}__e{epochs}__s{seed}"
    return os.path.join(zoo_cache_dir(), key + ".npz")


def get_trained(preset: str, dataset_name: str, *,
                num_train: int = DEFAULT_NUM_TRAIN,
                num_test: int = DEFAULT_NUM_TEST,
                epochs: int = DEFAULT_EPOCHS, seed: int = DEFAULT_SEED,
                batch_size: int = 32, learning_rate: float = 2e-3,
                use_cache: bool = True) -> ZooEntry:
    """Return a trained model for (preset, dataset), training if uncached.

    The train and test splits returned here are regenerated
    deterministically; only the weights are cached on disk.  Code that
    needs just the test split (the :mod:`repro.api` service and its
    workers) goes through :func:`default_test_split`, which loads it
    from the split cache once per process and shares it read-only.
    """
    channels, size, _ = dataset_image_shape(dataset_name)
    train_set, test_set = make_split(dataset_name, num_train, num_test,
                                     seed=seed)
    model = build_model(preset, in_channels=channels, image_size=size,
                        seed=seed)
    path = _cache_path(preset, dataset_name, num_train, epochs, seed)
    if use_cache and os.path.exists(path):
        with np.load(path) as archive:
            model.load_state_dict({k: archive[k] for k in archive.files})
        accuracy = evaluate_accuracy(model, test_set)
        return ZooEntry(preset, dataset_name, model, train_set, test_set,
                        accuracy, from_cache=True)

    config = TrainConfig(epochs=epochs, batch_size=batch_size,
                         learning_rate=learning_rate, shuffle_seed=seed)
    Trainer(model, config).fit(train_set)
    accuracy = evaluate_accuracy(model, test_set)
    if use_cache:
        _save_npz(path, model.state_dict())
    return ZooEntry(preset, dataset_name, model, train_set, test_set,
                    accuracy, from_cache=False)


def _save_npz(path: str, arrays: dict, *, compressed: bool = True) -> None:
    """Write ``arrays`` to ``path`` atomically.

    Cold workers may train the same model, or synthesize the same test
    split, at once; writing to a sibling temp file and ``os.replace``-ing
    it means a concurrent reader sees either no file or a complete one.
    """
    tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
    save = np.savez_compressed if compressed else np.savez
    try:
        with open(tmp_path, "wb") as stream:
            save(stream, **arrays)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def benchmark_entry(label: str) -> ZooEntry:
    """Trained zoo model for a paper benchmark label (e.g. 'DeepCaps/MNIST').

    This is the resolver behind ``ModelRef(benchmark=...)`` in
    :mod:`repro.api` (and the experiments' ``benchmark_entry`` re-export).
    """
    preset, dataset = benchmark_coords(label)
    return get_trained(preset, dataset)


def benchmark_coords(label: str) -> tuple[str, str]:
    """``(preset, dataset)`` zoo coordinates of a paper benchmark label."""
    for bench_label, preset, dataset in PAPER_BENCHMARKS:
        if bench_label == label:
            return preset, dataset
    known = [bench[0] for bench in PAPER_BENCHMARKS]
    raise KeyError(f"unknown benchmark {label!r}; known: {known}")


def load_trained_model(preset: str, dataset_name: str, *,
                       num_train: int = DEFAULT_NUM_TRAIN,
                       epochs: int = DEFAULT_EPOCHS,
                       seed: int = DEFAULT_SEED):
    """Weights-only fast path: the cached trained model, or ``None``.

    Skips dataset generation and the accuracy evaluation
    :func:`get_trained` performs — the :mod:`repro.api` service uses this
    to compute a model fingerprint in milliseconds when serving a request
    from the result store.  ``None`` means the weights are uncached and a
    full :func:`get_trained` (which trains) is required.
    """
    path = _cache_path(preset, dataset_name, num_train, epochs, seed)
    if not os.path.exists(path):
        return None
    channels, size, _ = dataset_image_shape(dataset_name)
    model = build_model(preset, in_channels=channels, image_size=size,
                        seed=seed)
    with np.load(path) as archive:
        model.load_state_dict({k: archive[k] for k in archive.files})
    return model


def model_layer_names(preset: str, dataset_name: str,
                      seed: int = DEFAULT_SEED) -> list[str]:
    """Layer names of a zoo model *without* training or loading weights.

    The layer topology is a pure function of (preset, input shape), so a
    fresh untrained build answers structural questions — e.g. the layer
    axis of a Fig. 10 request issued by a remote client that has no
    in-process model to inspect.
    """
    channels, size, _ = dataset_image_shape(dataset_name)
    model = build_model(preset, in_channels=channels, image_size=size,
                        seed=seed)
    return model.layer_names


def default_test_split(dataset_name: str, *,
                       num_test: int = DEFAULT_NUM_TEST,
                       seed: int = DEFAULT_SEED) -> Dataset:
    """The zoo's deterministic test split, without generating the train
    half (matches the ``make_split`` test stream exactly).

    Memoized per process on ``(dataset_name, num_test, seed)`` — the
    same values :func:`default_test_descriptor` keys the result store
    by — so models sharing a dataset resolve it once.  A memo miss
    loads the split from ``zoo_cache_dir()/splits``; only when that file
    is absent, stale or fails its CRC is the split synthesized (which
    imports scipy) and the file rewritten.  The returned
    ``images``/``labels`` are read-only because every caller shares them.
    """
    return _memo_test_split(dataset_name, num_test, seed)


@lru_cache(maxsize=None)
def _memo_test_split(dataset_name: str, num_test: int, seed: int) -> Dataset:
    path = _split_path(dataset_name, num_test, seed)
    split = _load_split(path, dataset_name, num_test)
    if split is None:
        split = make_dataset(dataset_name, num_test, seed=seed + 10_000)
        arrays = {"images": split.images, "labels": split.labels,
                  "crc": np.uint32(_split_crc(split.images, split.labels))}
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _save_npz(path, arrays, compressed=False)
        except OSError as error:
            logger.warning("could not cache test split %s: %s", path, error)
    split.images.flags.writeable = False
    split.labels.flags.writeable = False
    return split


def _split_path(dataset_name: str, num_test: int, seed: int) -> str:
    key = f"{dataset_name}__n{num_test}__s{seed}__{_split_rev():08x}"
    return os.path.join(zoo_cache_dir(), "splits", key + ".npz")


def _split_rev() -> int:
    """CRC of what decides a synthesized split's bytes: the generator
    sources and the numpy and scipy versions.  scipy's version comes
    from its installed metadata, so this never imports scipy."""
    from importlib import metadata
    data_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data")
    crc = 0
    for source in ("synth.py", "datasets.py"):
        with open(os.path.join(data_dir, source), "rb") as stream:
            crc = zlib.crc32(stream.read(), crc)
    versions = f"{np.__version__}|{metadata.version('scipy')}"
    return zlib.crc32(versions.encode(), crc)


def _split_crc(images: np.ndarray, labels: np.ndarray) -> int:
    return zlib.crc32(labels, zlib.crc32(images))


def _load_split(path: str, dataset_name: str,
                num_test: int) -> Dataset | None:
    """The split cached at ``path``, or ``None`` when there is none or
    it is not exactly what :func:`make_dataset` would synthesize."""
    channels, size, _ = dataset_image_shape(dataset_name)
    try:
        with np.load(path) as archive:
            images, labels = archive["images"], archive["labels"]
            crc = int(archive["crc"])
    except FileNotFoundError:
        return None
    except Exception as error:  # any unreadable file is a cache miss
        logger.warning("rewriting unreadable test split %s: %s", path, error)
        return None
    if (images.dtype != np.float32 or labels.dtype != np.int64
            or images.shape != (num_test, channels, size, size)
            or labels.shape != (num_test,)
            or crc != _split_crc(images, labels)):
        logger.warning("rewriting corrupt test split %s", path)
        return None
    return Dataset(images, labels, name=dataset_name)


def default_test_descriptor(dataset_name: str, *,
                            num_test: int = DEFAULT_NUM_TEST,
                            seed: int = DEFAULT_SEED) -> str:
    """Stable identity string of :func:`default_test_split`'s output.

    The synthetic splits are pure functions of these knobs, so the
    result store can key zoo-resolved datasets by descriptor instead of
    hashing regenerated pixels on every lookup.
    """
    return f"zoo-test:{dataset_name}:n{num_test}:s{seed}"
