"""Tier-1 invariant gate: ``repro lint`` run against the repo itself.

This is the enforcement end of :mod:`repro.devtools` (ISSUEs 8 and 9):
the shipped tree must pass its own lock-order, blocking-under-lock,
determinism, wire-schema, exception-contract, resource-lifecycle, and
event-protocol analyzers (modulo the checked-in ``lint_baseline.json``),
the gate must not be vacuous (an injected violation per family turns it
red), and real sweeps must run clean under the runtime lock witness and
the runtime resource tracker.

All tests carry the ``lint`` marker: they run in tier-1 and can be
selected standalone with ``-m lint``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools import (Baseline, LockWitness, ResourceTracker,
                            RULE_EVENT_PROTOCOL, RULE_EXC_SWALLOWED,
                            RULE_EXC_UNCLASSIFIED, RULE_LOCK_BLOCKING,
                            RULE_RESOURCE_LEAK, build_event_manifest,
                            lint_tree, load_project, run_static)
from repro.devtools.determinism import RULE_UNSEEDED_RNG
from repro.devtools.event_protocol import DEFAULT_EVENT_MANIFEST
from repro.devtools.runner import find_baseline
from repro.devtools.schema_drift import DEFAULT_MANIFEST, build_manifest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
BASELINE_PATH = REPO_ROOT / "lint_baseline.json"


def _repo_baseline() -> Baseline:
    return Baseline.load(BASELINE_PATH) if BASELINE_PATH.exists() \
        else Baseline.empty()


class TestRepoIsLintClean:
    def test_static_suite_clean_under_baseline(self):
        """The gate: new findings in src/repro fail tier-1."""
        report = lint_tree([SRC], baseline=_repo_baseline())
        assert report.clean, "new lint findings:\n" + "\n".join(
            finding.format_text() for finding in report.findings)

    def test_baseline_has_no_stale_entries(self):
        """Grandfathered entries that stopped firing must be removed,
        so the baseline shrinks instead of fossilising."""
        report = lint_tree([SRC], baseline=_repo_baseline())
        assert not report.stale, "stale baseline entries:\n" + "\n".join(
            finding.format_text() for finding in report.stale)

    def test_schema_manifest_matches_tree(self):
        """The checked-in manifest pins exactly the versioned payload
        classes the tree currently ships (regenerate via
        ``repro lint --update-schema-manifest``)."""
        current = build_manifest(load_project([SRC]))
        pinned = json.loads(DEFAULT_MANIFEST.read_text())
        assert current["classes"] == pinned["classes"]
        assert current["schema_version"] == pinned["schema_version"]

    def test_event_manifest_matches_tree(self):
        """The checked-in protocol pin matches the tree's
        ``EVENT_KINDS``/``TERMINAL_EVENTS`` (regenerate via
        ``repro lint --update-event-manifest``)."""
        current = build_event_manifest(load_project([SRC]))
        pinned = json.loads(DEFAULT_EVENT_MANIFEST.read_text())
        assert current == pinned

    def test_baseline_discovery_from_scan_root(self):
        found = find_baseline(SRC)
        if BASELINE_PATH.exists():
            assert found == BASELINE_PATH
        else:  # pragma: no cover - baseline is checked in
            assert found is None


class TestGateIsNotVacuous:
    def test_injected_violation_turns_the_report_red(self, tmp_path):
        """Same analyzers, same baseline, one seeded bug alongside the
        real tree: the gate must fail — proof the clean run above is a
        real check, not a no-op."""
        injected = tmp_path / "core" / "injected_bad.py"
        injected.parent.mkdir(parents=True)
        injected.write_text(textwrap.dedent("""\
            import numpy as np

            def draw(n):
                return np.random.normal(size=n)
            """))
        report = lint_tree([SRC, tmp_path], baseline=_repo_baseline())
        assert not report.clean
        assert any(finding.rule == RULE_UNSEEDED_RNG
                   and finding.path == "core/injected_bad.py"
                   for finding in report.findings)

    @pytest.mark.parametrize("rel,source,rule", [
        ("api/injected_block.py", """\
            import threading
            import time

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def stall(self):
                    with self._lock:
                        time.sleep(1.0)
            """, RULE_LOCK_BLOCKING),
        ("api/backends.py", """\
            class NovelFailure(Exception):
                pass

            def launch(job):
                raise NovelFailure(job)
            """, RULE_EXC_UNCLASSIFIED),
        ("api/injected_swallow.py", """\
            def poll(step):
                try:
                    step()
                except Exception:
                    pass
            """, RULE_EXC_SWALLOWED),
        ("core/injected_leak.py", """\
            import subprocess

            def fire(cmd):
                proc = subprocess.Popen(cmd)
                return None
            """, RULE_RESOURCE_LEAK),
        ("core/injected_emit.py", """\
            def finish(log):
                log.emit("done", {})
                log.emit("shard_done", {})
            """, RULE_EVENT_PROTOCOL),
    ], ids=["lock-blocking", "exc-unclassified", "exc-swallowed",
            "resource-leak", "event-protocol"])
    def test_each_new_family_turns_the_gate_red(self, tmp_path, rel,
                                                source, rule):
        """One seeded violation per ISSUE-9 analyzer family, linted
        alongside the real tree under the real baseline: each must
        surface as a new finding."""
        injected = tmp_path / rel
        injected.parent.mkdir(parents=True, exist_ok=True)
        injected.write_text(textwrap.dedent(source))
        report = lint_tree([SRC, tmp_path], baseline=_repo_baseline())
        assert not report.clean
        assert any(finding.rule == rule and finding.path == rel
                   for finding in report.findings), "\n".join(
            finding.format_text() for finding in report.findings)

    def test_shard_run_transitions_are_in_the_exception_audit(self):
        """The shard run's transitions run as future, timer and
        ``on_start`` callbacks that no call site names; the
        exc-contract seeds must still reach every one of them."""
        from repro.devtools.exc_contract import _dispatch_closure
        project = load_project([SRC])
        methods = {fn.qualname for fn in project.functions
                   if fn.qualname.startswith("api.service:_ShardRun.")}
        reached = {fn.qualname for fn in _dispatch_closure(project)}
        assert len(methods) >= 5
        assert methods <= reached, sorted(methods - reached)

    def test_attribute_called_service_methods_are_in_the_exception_audit(
            self):
        """``run.announce_degraded_once()`` and
        ``run.progress.mark_started()`` go through attributes the project
        index cannot type, so only their seeds put them in the closure."""
        from repro.devtools.exc_contract import _dispatch_closure
        reached = {fn.qualname
                   for fn in _dispatch_closure(load_project([SRC]))}
        assert {"api.service:_GroupRun.announce_degraded_once",
                "api.service:ShardProgress.mark_started"} <= reached

    def test_analyzers_inventory_the_real_tree(self):
        """The lock analyzer actually sees the service stack's locks
        (an empty inventory would make the clean run meaningless)."""
        from repro.devtools.lockorder import LockOrderAnalyzer
        analyzer = LockOrderAnalyzer(load_project([SRC]))
        owners = {owner for owner, _ in analyzer.locks}
        assert any("scheduler" in owner for owner in owners)
        assert any("backends" in owner for owner in owners)
        assert len(analyzer.locks) >= 10

    def test_run_static_without_baseline_is_also_clean(self):
        """With the (currently empty) baseline out of the picture the
        tree still lints clean — keeps the baseline honest."""
        findings = run_static(load_project([SRC]))
        baseline_keys = {entry.baseline_key
                         for entry in _repo_baseline().entries}
        unexplained = [f for f in findings
                       if f.baseline_key not in baseline_keys]
        assert not unexplained, "\n".join(
            finding.format_text() for finding in unexplained)


class TestCliGate:
    def test_repro_lint_cli_exits_zero_on_clean_tree(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().endswith("OK: 0 findings")

    def test_repro_lint_json_format(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC),
             "--format", "json"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"] == []
        assert payload["stale_baseline"] == []

    def test_repro_lint_sarif_format(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC),
             "--format", "sarif"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        log = json.loads(proc.stdout)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-lint"
        assert log["runs"][0]["results"] == []

    @staticmethod
    def _lint(args: list[str], cwd: Path, ceiling: Path):
        # The ceiling stops git from finding a repository above tmp_path.
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   GIT_CEILING_DIRECTORIES=str(ceiling))
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args,
             "--no-baseline"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120)

    def test_repro_lint_changed_scopes_the_report(self, tmp_path):
        """``--changed`` analyses the whole package but reports only
        findings in files changed since the last commit."""
        repo = tmp_path / "repo"
        package = repo / "pkg" / "core"
        package.mkdir(parents=True)
        unseeded = "import numpy as np\n\ndef draw(n):\n" \
                   "    return np.random.normal(size=n)\n"
        (package / "committed.py").write_text(unseeded)
        (package / "edited.py").write_text("def draw(n):\n    return n\n")

        def git(*argv: str) -> None:
            subprocess.run(["git", "-c", "user.name=lint",
                            "-c", "user.email=lint@example.invalid",
                            *argv], cwd=repo, check=True,
                           capture_output=True, timeout=30)

        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        (package / "edited.py").write_text(unseeded)
        proc = self._lint([str(repo / "pkg"), "--changed"], repo, tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "core/edited.py" in proc.stdout
        assert "core/committed.py" not in proc.stdout
        full = self._lint([str(repo / "pkg")], repo, tmp_path)
        assert "core/committed.py" in full.stdout   # the finding is real

    def test_repro_lint_changed_outside_a_repository_exits_2(self,
                                                             tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "mod.py").write_text("VALUE = 1\n")
        proc = self._lint([str(package), "--changed"], tmp_path, tmp_path)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "needs a git repository" in proc.stderr


class TestRuntimeWitnessOverSweep:
    def test_threaded_sweep_runs_clean_under_witness(
            self, trained_capsnet, mnist_splits):
        """Drive a real sharded sweep on the threads backend with every
        repro-created lock instrumented: the *observed* acquisition
        graph must be acyclic, and the witness must actually have seen
        acquisitions (else the check is vacuous)."""
        from repro.api import (AnalysisRequest, ExecutionOptions,
                               ResilienceService)
        witness = LockWitness().install()
        try:
            svc = ResilienceService(cache_dir=None, use_store=False,
                                    backend="threads", max_parallel=2)
            try:
                ref = svc.register("lint-witness", trained_capsnet,
                                   mnist_splits[1])
                request = AnalysisRequest(
                    model=ref,
                    targets=(("mac_outputs", None), ("softmax", None)),
                    nm_values=(0.5, 0.05, 0.0), seed=3, eval_samples=48,
                    options=ExecutionOptions(batch_size=48))
                result = svc.run(request)
            finally:
                svc.close()
        finally:
            witness.uninstall()
        assert result.curves  # the sweep actually ran
        assert witness.acquisitions > 0  # ...through witnessed locks
        findings = witness.check()
        assert not findings, "\n".join(
            finding.format_text() for finding in findings)


class TestResourceTrackerOverSweep:
    def test_threads_and_procpool_sweeps_leave_no_resources(self):
        """ISSUE 9 acceptance: drive real sharded sweeps on the threads
        and procpool backends with every repro-created OS resource
        tracked — the tracker must have *observed* at least one thread,
        one subprocess, and one fd (else the audit is vacuous), and the
        final audit must report zero leaks."""
        from repro.api import (AnalysisRequest, ExecutionOptions,
                               ModelRef, ResilienceService)

        def request(seed):
            return AnalysisRequest(
                model=ModelRef(benchmark="CapsNet/MNIST"),
                targets=(("softmax", None), ("mac_outputs", None)),
                nm_values=(0.5, 0.0), seed=seed, eval_samples=32,
                options=ExecutionOptions(batch_size=32))

        tracker = ResourceTracker().install()
        try:
            for seed, backend in enumerate(("threads", "procpool")):
                svc = ResilienceService(cache_dir=None, use_store=False,
                                        backend=backend, max_parallel=2)
                try:
                    result = svc.run(request(seed))
                    assert result.curves
                finally:
                    svc.close()
        finally:
            tracker.uninstall()
        summary = tracker.summary()
        assert summary["thread"] >= 1    # supervisor/heartbeat threads
        assert summary["process"] >= 1   # procpool worker processes
        assert summary["fd"] >= 1        # worker spill files
        findings = tracker.check(grace=10.0)
        assert not findings, "\n".join(
            finding.format_text() for finding in findings)
