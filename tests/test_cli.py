"""Artifact-regeneration CLI."""

import json

import pytest

from repro.cli import ARTIFACTS, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "fig5", "fig9", "x1"):
        assert name in out


def test_artifact_registry_complete():
    """Every paper artifact and extension has a CLI entry."""
    expected = {"table1", "fig4", "fig5", "fig6", "table2", "table3",
                "fig9", "fig10", "fig11", "table4", "fig12",
                "x1", "x2", "x3", "x4"}
    assert set(ARTIFACTS) == expected


def test_run_analytic_artifact(capsys):
    assert main(["run", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "XM" in out and "XAM" in out


def test_run_multiple(capsys):
    assert main(["run", "table1", "fig4"]) == 0
    out = capsys.readouterr().out
    assert "Multiplication" in out and "energy breakdown" in out


def test_unknown_artifact(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown artifact" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


class TestSweepFlagRouting:
    """ISSUE 3 satellite: sweep flags either apply or error loudly —
    never silently swallowed by a ``*_``-style runner."""

    def test_strategy_rejected_for_analytic_artifact(self, capsys):
        assert main(["run", "table1", "--strategy", "naive"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--strategy" in err

    def test_max_retries_rejected_for_fig6(self, capsys):
        """fig6 accepts a scale-like knob (--quick) but runs no sweeps,
        so a sweep flag such as --max-retries must error, not vanish."""
        assert main(["run", "fig6", "--max-retries", "1"]) == 2
        err = capsys.readouterr().err
        assert "fig6" in err and "--max-retries" in err

    def test_workers_flag_is_gone(self, capsys):
        """Sweeps parallelise through a sharding backend
        (--backend procpool --max-parallel N), not a --workers flag."""
        with pytest.raises(SystemExit) as exit_:
            main(["run", "fig9", "--quick", "--workers", "2"])
        assert exit_.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_shared_votes_flag_is_gone(self, capsys):
        """The stacked plan is the engine's choice, not a flag."""
        with pytest.raises(SystemExit) as exit_:
            main(["run", "fig9", "--quick", "--no-shared-votes"])
        assert exit_.value.code == 2
        assert "--no-shared-votes" in capsys.readouterr().err

    def test_strategy_rejected_for_table4(self, capsys):
        assert main(["run", "table4", "--strategy", "cached"]) == 2
        err = capsys.readouterr().err
        assert "table4" in err and "--strategy" in err

    def test_mixed_request_rejected(self, capsys):
        """One sweep + one non-sweep artifact: still a loud error (the
        flag would be ignored for part of the request)."""
        assert main(["run", "fig9", "table1", "--strategy", "cached"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "fig9" not in err

    def test_every_sweep_artifact_accepts_the_flags(self):
        for name in ("fig9", "fig10", "fig12", "x2", "x3", "x4"):
            assert ARTIFACTS[name].sweeps, name
        for name in ("table1", "fig4", "fig5", "fig6", "table2", "table3",
                     "fig11", "table4", "x1"):
            assert not ARTIFACTS[name].sweeps, name


class TestBackendFlagRouting:
    """ISSUE 4 satellite: --backend/--max-parallel/--remote follow the
    same loud-error contract as the PR 3 sweep flags."""

    def test_backend_rejected_for_analytic_artifact(self, capsys):
        assert main(["run", "table1", "--backend", "threads"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--backend" in err

    def test_max_parallel_requires_parallel_backend(self, capsys):
        assert main(["run", "fig9", "--max-parallel", "4"]) == 2
        err = capsys.readouterr().err
        assert "--max-parallel" in err and "threads" in err

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "fig9", "--backend", "gpu"])

    def test_remote_conflicts_with_local_service_flags(self, capsys):
        assert main(["run", "fig9", "--remote", "http://localhost:1",
                     "--cache-dir", "/tmp/x"]) == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err and "--remote" in err
        assert main(["run", "fig9", "--remote", "http://localhost:1",
                     "--backend", "threads"]) == 2
        assert "--backend" in capsys.readouterr().err

    def test_remote_rejected_for_non_sweep_artifact(self, capsys):
        assert main(["run", "table1", "--remote",
                     "http://localhost:1"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--remote" in err

    def test_remote_rejected_for_in_process_artifacts(self, capsys):
        """Review regression: x2 mutates the model in-process; with
        --remote it must error at validation time, not crash mid-run."""
        assert main(["run", "x2", "--remote", "http://localhost:1"]) == 2
        err = capsys.readouterr().err
        assert "x2" in err and "in-process" in err
        assert main(["run", "all", "--quick", "--remote",
                     "http://localhost:1"]) == 2
        assert "x2" in capsys.readouterr().err

    def test_run_through_threads_backend(self, tmp_path, capsys):
        """End-to-end: the flags reach the service (fig9 --quick on the
        threads backend, sharded, against an isolated store)."""
        assert main(["run", "fig9", "--quick", "--backend", "threads",
                     "--max-parallel", "2",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9" in out and "softmax" in out
        assert main(["inspect", "--cache-dir", str(tmp_path)]) == 0
        # Parent result + one shard per injectable group persisted.
        assert "5 entries" in capsys.readouterr().out

    def test_procpool_backend_accepted(self, capsys):
        """The warm process-pool backend routes through the same flag
        validation as the other parallel backends."""
        assert main(["run", "table1", "--backend", "procpool"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--backend" in err


class TestProgressFlag:
    """ISSUE 5 satellite: --progress streams per-shard events for the
    sharding artifacts and errors loudly everywhere else."""

    def test_rejected_for_non_sweep_artifact(self, capsys):
        assert main(["run", "table1", "--progress"]) == 2
        err = capsys.readouterr().err
        assert "table1" in err and "--progress" in err

    def test_rejected_for_non_streaming_sweep_artifact(self, capsys):
        """x3 sweeps but submits a per-NA request batch, not one
        sharding submission — --progress would silently show nothing."""
        assert main(["run", "x3", "--progress"]) == 2
        err = capsys.readouterr().err
        assert "x3" in err and "--progress" in err

    def test_streaming_artifacts_marked(self):
        for name in ("fig9", "fig10", "fig12"):
            assert ARTIFACTS[name].streams, name
        for name in ("x2", "x3", "x4", "table1", "fig6"):
            assert not ARTIFACTS[name].streams, name

    def test_renders_live_progress_lines(self, tmp_path, capsys):
        assert main(["run", "fig9", "--quick", "--backend", "threads",
                     "--max-parallel", "2", "--progress",
                     "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Fig. 9" in captured.out            # the artifact itself
        assert "queued" in captured.err            # the event stream
        assert "shard 4/4 done" in captured.err
        assert "points so far" in captured.err


def test_json_output(capsys):
    assert main(["run", "fig5", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert len(payloads) == 1
    assert payloads[0]["artifact"] == "fig5"
    assert payloads[0]["rows"]


class TestInspect:
    def test_empty_store(self, tmp_path, capsys):
        assert main(["inspect", "--cache-dir", str(tmp_path)]) == 0
        assert "empty" in capsys.readouterr().out

    def test_lists_and_dumps_entries(self, tmp_path, capsys,
                                     trained_capsnet, mnist_splits):
        from repro.api import (AnalysisRequest, ExecutionOptions, ModelRef,
                               ResilienceService)
        service = ResilienceService(cache_dir=str(tmp_path))
        service.register("cli-test", trained_capsnet, mnist_splits[1])
        service.run(AnalysisRequest(
            model=ModelRef(session="cli-test"),
            targets=(("softmax", None),), nm_values=(0.5, 0.0),
            eval_samples=48, options=ExecutionOptions(batch_size=48)))

        assert main(["inspect", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "session:cli-test" in out and "1 entry" in out

        [key] = ResilienceService(
            cache_dir=str(tmp_path)).store.keys()
        assert main(["inspect", key[:10],
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["model"] == {"session": "cli-test"}

    def test_unknown_key_prefix(self, tmp_path, capsys):
        assert main(["inspect", "deadbeef",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "no stored result" in capsys.readouterr().err
