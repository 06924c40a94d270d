"""Result-store semantics of the analysis API (ISSUE 3).

Cache *hits* must be exact replays (the JSON round trip is lossless) and
cache *misses* must happen for every result-affecting change: the NM
grid, the seed, the eval subset, the model weights (in-place mutations
included — the PR 2 CRC fingerprint), and the routing depth.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (AnalysisRequest, AnalysisResult, ExecutionOptions,
                       ModelRef, ResilienceService, SchemaError)
from repro.core import model_fingerprint

NM_VALUES = (0.5, 0.05, 0.0)


@pytest.fixture()
def service(tmp_path, trained_capsnet, mnist_splits):
    service = ResilienceService(cache_dir=str(tmp_path))
    service.register("store-test", trained_capsnet, mnist_splits[1])
    return service


@pytest.fixture()
def request_(service):
    return AnalysisRequest(
        model=ModelRef(session="store-test"),
        targets=(("mac_outputs", None), ("softmax", None)),
        nm_values=NM_VALUES, seed=3, eval_samples=48,
        options=ExecutionOptions(batch_size=48))


def _accuracies(result):
    return {key: [point.accuracy for point in curve.points]
            for key, curve in result.curves.items()}


class TestCacheSemantics:
    def test_hit_on_identical_request(self, service, request_):
        cold = service.run(request_)
        warm = service.run(request_)
        assert not cold.from_cache
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(cold)
        assert service.stats.store_hits == 1
        assert service.stats.executed == 1

    def test_hit_survives_service_restart(self, service, request_,
                                          trained_capsnet, mnist_splits):
        cold = service.run(request_)
        fresh = ResilienceService(cache_dir=service.store.root)
        fresh.register("store-test", trained_capsnet, mnist_splits[1])
        warm = fresh.run(request_)
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(cold)

    def test_miss_on_changed_nm_grid(self, service, request_):
        service.run(request_)
        other = service.run(
            dataclasses.replace(request_, nm_values=(0.2, 0.0)))
        assert not other.from_cache

    def test_miss_on_changed_seed(self, service, request_):
        service.run(request_)
        other = service.run(dataclasses.replace(request_, seed=4))
        assert not other.from_cache

    def test_miss_on_changed_eval_subset(self, service, request_):
        service.run(request_)
        other = service.run(
            dataclasses.replace(request_, eval_samples=32))
        assert not other.from_cache

    def test_session_name_does_not_key_the_store(self, service, request_,
                                                 trained_capsnet,
                                                 mnist_splits):
        """Session names are handles, not content: the same weights and
        data registered under a different name (e.g. ReDCaNe's
        collision-free per-run names) must still hit the stored entry."""
        cold = service.run(request_)
        other = ResilienceService(cache_dir=service.store.root)
        renamed = other.register("another-name", trained_capsnet,
                                 mnist_splits[1])
        warm = other.run(dataclasses.replace(request_, model=renamed))
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(cold)

    def test_ambient_hook_registry_rejected(self, service, request_):
        """Submitting inside a use_registry scope would bake the ambient
        transforms into stored curves under a clean fingerprint; the
        service must refuse instead of poisoning the store."""
        from repro.nn.hooks import HookRegistry, use_registry
        with use_registry(HookRegistry()):
            with pytest.raises(RuntimeError, match="hook"):
                service.run(request_)
        assert service.run(request_) is not None  # clean scope works

    def test_result_invariant_knobs_share_one_entry(self, service, request_):
        """naive↔cached are bit-identical streams, so they must map to
        the same store key (and the entry written by one must serve the
        other)."""
        naive = dataclasses.replace(
            request_,
            options=dataclasses.replace(request_.options, strategy="naive"))
        cached = dataclasses.replace(
            request_,
            options=dataclasses.replace(request_.options, strategy="cached"))
        cold = service.run(naive)
        warm = service.run(cached)
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(cold)


class TestFingerprintInvalidation:
    """Reuses the PR 2 stale-cache scenario: in-place weight mutations are
    invisible to object identity but must invalidate stored results."""

    def test_weight_mutation_invalidates(self, service, request_,
                                         trained_capsnet):
        before = service.run(request_)
        param = trained_capsnet.conv1.weight
        original = param.data.copy()
        try:
            param.data[:] = 0.0  # in-place: invisible without fingerprinting
            mutated = service.run(request_)
            assert not mutated.from_cache
            assert _accuracies(mutated) != _accuracies(before)
        finally:
            param.data = original
        # Restoring the weights restores the original fingerprint — the
        # first entry serves again, untouched by the interlude.
        restored = service.run(request_)
        assert restored.from_cache
        assert _accuracies(restored) == _accuracies(before)

    def test_routing_depth_invalidates(self, service, request_,
                                       trained_capsnet):
        """Routing depth is a plain attribute (not a parameter), yet it
        changes every routing-stage output — the fingerprint must see it
        (this is what makes the X2 ablation safe to cache)."""
        layer = trained_capsnet.class_caps
        baseline_crc = model_fingerprint(trained_capsnet)
        before = service.run(request_)
        saved = layer.routing_iterations
        try:
            layer.routing_iterations = saved + 2
            assert model_fingerprint(trained_capsnet) != baseline_crc
            deeper = service.run(request_)
            assert not deeper.from_cache
        finally:
            layer.routing_iterations = saved
        assert service.run(request_).from_cache
        assert _accuracies(service.run(request_)) == _accuracies(before)


class TestSchemaRoundTrip:
    def test_result_round_trips_exactly(self, service, request_):
        result = service.run(request_)
        clone = AnalysisResult.from_json(result.to_json())
        assert clone == result
        assert _accuracies(clone) == _accuracies(result)
        assert clone.request.fingerprint() == request_.fingerprint()

    def test_request_round_trips_exactly(self, request_):
        clone = AnalysisRequest.from_json(request_.to_json())
        assert clone == request_
        assert clone.fingerprint() == request_.fingerprint()

    def test_unsupported_schema_rejected(self, request_):
        payload = request_.to_payload()
        payload["schema"] = 999
        with pytest.raises(SchemaError):
            AnalysisRequest.from_payload(payload)

    def test_store_treats_foreign_schema_as_miss(self, service, request_):
        result = service.run(request_)
        assert not result.from_cache
        # Tamper the stored entry's schema marker: the store must fall
        # back to recomputing rather than deserialising blind.
        [key] = service.store.keys()
        path = service.store.path_for(key)
        with open(path) as stream:
            payload = json.load(stream)
        payload["schema"] = 999
        with open(path, "w") as stream:
            json.dump(payload, stream)
        assert service.store.get(key) is None
        again = service.run(request_)
        assert not again.from_cache
        assert _accuracies(again) == _accuracies(result)

    def test_inspect_entries(self, service, request_):
        service.run(request_)
        entries = service.store.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry.model == "session:store-test"
        assert entry.targets == 2
        assert entry.nm_values == len(NM_VALUES)
        assert entry.noise == "gaussian"


class TestLegacyWorkersOption:
    """Payloads written while ``ExecutionOptions`` still had a
    ``workers`` knob (an in-engine process fan-out) carry
    ``options.workers``.  It never changed results, so such requests and
    stored results must still decode, hash and hit exactly as before."""

    #: ``request_.fingerprint()`` as computed by the code that still
    #: serialised ``workers`` (it was already outside ``cache_key``).
    LEGACY_FINGERPRINT = "b6b7e65da14b61e544f7"

    @staticmethod
    def _with_workers(payload: dict) -> dict:
        payload = json.loads(json.dumps(payload))
        payload["options"]["workers"] = 2
        return payload

    def test_request_payload_with_workers_decodes(self, request_):
        legacy = self._with_workers(request_.to_payload())
        decoded = AnalysisRequest.from_payload(legacy)
        assert decoded == request_
        assert "workers" not in decoded.to_payload()["options"]
        assert decoded.fingerprint() == request_.fingerprint() \
            == self.LEGACY_FINGERPRINT

    def test_result_payload_with_workers_decodes(self, service, request_):
        result = service.run(request_)
        payload = result.to_payload()
        payload["request"] = self._with_workers(payload["request"])
        decoded = AnalysisResult.from_payload(payload)
        assert decoded == result
        assert "workers" not in decoded.to_payload()["request"]["options"]
        assert decoded.request.fingerprint() == self.LEGACY_FINGERPRINT

    def test_legacy_store_entry_is_a_hit(self, service, request_,
                                         trained_capsnet, mnist_splits):
        cold = service.run(request_)
        [key] = service.store.keys()
        path = service.store.path_for(key)
        with open(path) as stream:
            payload = json.load(stream)
        payload["request"] = self._with_workers(payload["request"])
        with open(path, "w") as stream:
            json.dump(payload, stream)
        fresh = ResilienceService(cache_dir=service.store.root)
        fresh.register("store-test", trained_capsnet, mnist_splits[1])
        warm = fresh.run(request_)
        assert warm.from_cache
        assert _accuracies(warm) == _accuracies(cold)

    def test_unknown_option_still_rejected(self, request_):
        payload = request_.to_payload()
        payload["options"]["bogus"] = 1
        with pytest.raises(TypeError):
            AnalysisRequest.from_payload(payload)

    def test_workers_is_no_longer_a_knob(self):
        with pytest.raises(TypeError):
            ExecutionOptions(workers=2)


class TestLegacySharedVotesOption:
    """Payloads written while ``ExecutionOptions`` still had a
    ``shared_votes`` knob carry ``options.shared_votes``.  Either value
    decodes to the default options: ``False`` only forced the generic
    stacked replay, which measures the same accuracies.  ``cache_key``
    still hashes the constant ``shared_votes: True``, so fingerprints
    stay pinned."""

    LEGACY_FINGERPRINT = TestLegacyWorkersOption.LEGACY_FINGERPRINT

    @staticmethod
    def _with_shared_votes(payload: dict, value: bool) -> dict:
        payload = json.loads(json.dumps(payload))
        payload["options"]["shared_votes"] = value
        return payload

    @pytest.mark.parametrize("value", [True, False])
    def test_request_payload_decodes_to_default(self, request_, value):
        legacy = self._with_shared_votes(request_.to_payload(), value)
        decoded = AnalysisRequest.from_payload(legacy)
        assert decoded == request_
        assert "shared_votes" not in decoded.to_payload()["options"]
        assert decoded.fingerprint() == self.LEGACY_FINGERPRINT

    @pytest.mark.parametrize("value", [True, False])
    def test_result_payload_decodes_to_default(self, service, request_,
                                               value):
        result = service.run(request_)
        payload = result.to_payload()
        payload["request"] = self._with_shared_votes(payload["request"],
                                                     value)
        decoded = AnalysisResult.from_payload(payload)
        assert decoded == result
        assert "shared_votes" not in \
            decoded.to_payload()["request"]["options"]
        assert decoded.request.fingerprint() == self.LEGACY_FINGERPRINT

    def test_shared_votes_is_no_longer_a_knob(self):
        with pytest.raises(TypeError):
            ExecutionOptions(shared_votes=False)


class TestCompletenessGuard:
    """ISSUE 5 satellite: the store refuses anything but complete
    results, so a cancellation-truncated shard can never be replayed as
    a warm hit."""

    def test_missing_points_rejected(self, service, request_):
        result = service.run(request_)
        torn = dataclasses.replace(result)
        torn.curves = {key: dataclasses.replace(
            curve, points=curve.points[:-1])
            for key, curve in result.curves.items()}
        with pytest.raises(ValueError, match="partial result"):
            service.store.put("torn-key", torn)
        assert service.store.get("torn-key") is None

    def test_missing_target_rejected(self, service, request_):
        result = service.run(request_)
        torn = dataclasses.replace(result)
        torn.curves = dict(list(result.curves.items())[:1])
        with pytest.raises(ValueError, match="missing for target"):
            service.store.put("torn-key", torn)
        assert service.store.get("torn-key") is None

    def test_complete_results_still_stored(self, service, request_):
        result = service.run(request_)
        path = service.store.put("explicit-key", result)
        assert service.store.get("explicit-key") is not None
        assert path.endswith("explicit-key.json")


class TestGc:
    """ISSUE 4 satellite: ``ResultStore.gc`` / ``repro gc`` reclaim disk
    from stale, orphaned, aged and (opt-in) all entries."""

    @pytest.fixture()
    def populated(self, service, request_):
        service.run(request_)
        service.run(dataclasses.replace(request_, seed=9))
        return service.store

    def _corrupt(self, store, kind: str) -> str:
        import os
        if kind == "orphan":
            path = os.path.join(store.root, "leftover-write.tmp")
            with open(path, "w") as stream:
                stream.write("{}")
        elif kind == "garbage":
            path = os.path.join(store.root, "not-a-result.json")
            with open(path, "w") as stream:
                stream.write("{ definitely not json")
        else:  # stale schema
            key = store.keys()[0]
            path = store.path_for(key)
            with open(path) as stream:
                payload = json.load(stream)
            payload["schema"] = 999
            with open(path, "w") as stream:
                json.dump(payload, stream)
        return path

    def test_default_gc_removes_only_stale_and_orphans(self, populated):
        self._corrupt(populated, "orphan")
        self._corrupt(populated, "garbage")
        report = populated.gc()
        assert report.removed == 2
        assert report.by_reason == {"orphaned": 1, "stale": 1}
        assert report.reclaimed_bytes > 0
        assert report.kept == 2
        assert len(populated.keys()) == 2  # live entries untouched

    def test_stale_schema_entries_are_collected(self, populated):
        self._corrupt(populated, "schema")
        report = populated.gc()
        assert report.by_reason == {"stale": 1}
        assert report.kept == 1

    def test_non_dict_json_documents_are_collected(self, populated):
        """Review regression: a document that parses as JSON but is not a
        result dict (a bare ``null``) must read as a miss and be
        gc-collectable, not crash gc/inspect with AttributeError."""
        import os
        path = os.path.join(populated.root, "null-doc.json")
        with open(path, "w") as stream:
            stream.write("null")
        assert populated.get("null-doc") is None
        assert populated.entries()  # inspect path survives too
        report = populated.gc()
        assert report.by_reason == {"stale": 1}
        assert not os.path.exists(path)

    def test_older_than_expires_by_mtime(self, populated):
        import os
        import time
        old_key = populated.keys()[-1]
        ancient = time.time() - 90 * 86400
        os.utime(populated.path_for(old_key), (ancient, ancient))
        report = populated.gc(older_than=30 * 86400)
        assert report.by_reason == {"expired": 1}
        assert report.kept == 1
        assert old_key not in populated.keys()

    def test_everything_prunes_all(self, populated):
        report = populated.gc(everything=True)
        assert report.removed == 2 and report.kept == 0
        assert populated.keys() == []
        assert populated.gc().removed == 0  # idempotent on empty

    def test_prune_delegates_to_gc(self, populated):
        assert populated.prune() == 2
        assert populated.keys() == []

    def test_cli_gc_reports_reclaimed_bytes(self, populated, capsys):
        from repro.cli import main
        self._corrupt(populated, "orphan")
        assert main(["gc", "--cache-dir", populated.root]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned" in out and "reclaimed" in out and "kept 2" in out
        assert main(["gc", "--all", "--cache-dir", populated.root]) == 0
        assert "2 pruned" in capsys.readouterr().out
        assert populated.keys() == []

    def test_cli_gc_age_parsing(self, populated, capsys):
        from repro.cli import main
        assert main(["gc", "--older-than", "30d",
                     "--cache-dir", populated.root]) == 0
        assert "kept 2" in capsys.readouterr().out
        assert main(["gc", "--older-than", "soon",
                     "--cache-dir", populated.root]) == 2
        assert "invalid age" in capsys.readouterr().err


class TestStoreLayouts:
    """ISSUE 10: the filesystem geometry behind ``ResultStore`` is a
    pluggable :class:`StoreLayout` — the default local layout is the
    historical flat directory, and the shared layout makes one root safe
    for several fleet nodes (fan-out, collision-proof scratch names,
    fsync'd publication, age-gated orphan collection)."""

    @pytest.fixture()
    def result(self, service, request_):
        return service.run(request_)

    def test_layout_registry(self, tmp_path):
        from repro.api import (LAYOUT_NAMES, LocalDirLayout, ResultStore,
                               SharedFSLayout, make_layout)
        assert LAYOUT_NAMES == ("local", "shared")
        assert isinstance(make_layout("local", str(tmp_path)),
                          LocalDirLayout)
        assert isinstance(make_layout("shared", str(tmp_path)),
                          SharedFSLayout)
        with pytest.raises(ValueError, match="unknown store layout"):
            make_layout("sharded", str(tmp_path))
        with pytest.raises(ValueError, match="unknown store layout"):
            ResultStore(str(tmp_path), layout="sharded")

    def test_prebuilt_layout_rejects_conflicting_root(self, tmp_path):
        from repro.api import ResultStore, SharedFSLayout
        layout = SharedFSLayout(str(tmp_path / "a"))
        with pytest.raises(ValueError, match="conflicting store roots"):
            ResultStore(str(tmp_path / "b"), layout=layout)
        store = ResultStore(layout=layout)  # rootless adoption works
        assert store.root == layout.root

    def test_shared_layout_fans_out_by_key_prefix(self, tmp_path, result):
        import os
        from repro.api import ResultStore
        store = ResultStore(str(tmp_path / "shared"), layout="shared")
        path = store.put("abcd-key", result)
        assert os.path.dirname(path).endswith(os.sep + "ab")
        assert store.path_for("abcd-key") == path
        assert store.get("abcd-key") is not None

    def test_write_on_node_a_read_on_node_b(self, tmp_path, result):
        """The acceptance-criterion core: a warm hit produced by one
        store instance (node A) serves byte-identically from a second
        instance over the same shared root (node B) — no recompute."""
        from repro.api import ResultStore
        root = str(tmp_path / "shared")
        node_a = ResultStore(root, layout="shared")
        node_b = ResultStore(root, layout="shared")
        node_a.put("fleet-key", result)
        served = node_b.get("fleet-key")
        assert served is not None
        assert served.from_cache
        assert _accuracies(served) == _accuracies(result)
        assert node_b.keys() == ["fleet-key"]

    def test_fresh_tmp_survives_gc_aged_tmp_collected(self, tmp_path,
                                                      result):
        """A fresh ``.tmp`` under a shared root may be another node's
        in-flight write — gc must leave it alone until it ages past the
        orphan grace."""
        import os
        from repro.api import ResultStore
        store = ResultStore(str(tmp_path / "shared"), layout="shared")
        store.put("live-key", result)
        scratch = os.path.join(os.path.dirname(store.path_for("live-key")),
                               ".live-key.otherhost.1234.0.tmp")
        with open(scratch, "w") as stream:
            stream.write("{")
        assert store.gc().by_reason == {}          # fresh: presumed live
        assert os.path.exists(scratch)
        ancient = __import__("time").time() - 3600
        os.utime(scratch, (ancient, ancient))
        report = store.gc()
        assert report.by_reason == {"orphaned": 1}
        assert not os.path.exists(scratch)
        assert store.get("live-key") is not None   # the entry survived

    def test_age_expiry_through_shared_layout(self, tmp_path, result):
        import os
        import time
        from repro.api import ResultStore
        store = ResultStore(str(tmp_path / "shared"), layout="shared")
        store.put("old-key", result)
        store.put("new-key", result)
        ancient = time.time() - 90 * 86400
        os.utime(store.path_for("old-key"), (ancient, ancient))
        report = store.gc(older_than=30 * 86400)
        assert report.by_reason == {"expired": 1}
        assert store.keys() == ["new-key"]

    def test_concurrent_gc_from_two_nodes_counts_exactly_once(
            self, tmp_path, result):
        """Two stores sweeping one shared root concurrently: every
        collectable file is reclaimed, each is counted by exactly one
        report, and neither pass raises on lost races."""
        import os
        import threading
        import time
        from repro.api import ResultStore
        root = str(tmp_path / "shared")
        node_a = ResultStore(root, layout="shared")
        node_b = ResultStore(root, layout="shared")
        node_a.put("keep-key", result)
        ancient = time.time() - 3600
        for index in range(6):
            path = node_a.put(f"dead-{index:02d}-key", result)
            os.utime(path, (ancient, ancient))
        reports = {}
        barrier = threading.Barrier(2)

        def sweep(name, store):
            barrier.wait()
            reports[name] = store.gc(older_than=1800)

        threads = [threading.Thread(target=sweep, args=(name, store))
                   for name, store in (("a", node_a), ("b", node_b))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(report.removed for report in reports.values())
        assert total == 6                          # exactly once, no double
        assert node_a.keys() == ["keep-key"]
        assert sum(report.by_reason.get("expired", 0)
                   for report in reports.values()) == 6

    def test_cli_gc_shared_layout(self, tmp_path, result, capsys):
        """Satellite: ``repro gc --store-layout shared`` sweeps through
        the layout seam — no flat-root ``os.listdir`` assumptions."""
        import os
        from repro.api import ResultStore
        from repro.cli import main
        root = str(tmp_path / "shared")
        store = ResultStore(root, layout="shared")
        store.put("cli-key", result)
        scratch = os.path.join(os.path.dirname(store.path_for("cli-key")),
                               ".cli-key.otherhost.99.0.tmp")
        with open(scratch, "w") as stream:
            stream.write("{")
        ancient = __import__("time").time() - 3600
        os.utime(scratch, (ancient, ancient))
        assert main(["gc", "--cache-dir", root,
                     "--store-layout", "shared"]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned" in out and "kept 1" in out
        assert main(["gc", "--all", "--cache-dir", root,
                     "--store-layout", "shared"]) == 0
        assert "1 pruned" in capsys.readouterr().out
        assert store.keys() == []
