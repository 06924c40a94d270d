"""Cold start: what a fresh service process imports before any work.

Every procpool worker, ``repro worker`` agent and ``repro`` CLI process
pays its import cost before serving a shard.  scipy is only needed to
fit Fig. 6 error profiles and to fill a cold zoo split cache (dataset
synthesis), so it must stay off the import path of the service entry
points, and off a whole measurement once the split cache is warm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")


def test_service_entry_points_do_not_import_scipy():
    probe = ("import json, sys\n"
             "import repro.api, repro.cli, repro.api.backends\n"
             "print(json.dumps(sorted(name for name in sys.modules\n"
             "                        if name.split('.')[0] == 'scipy')))\n")
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert json.loads(out) == []


def test_warm_split_cache_measures_without_scipy(tmp_path, monkeypatch):
    """A fresh process whose zoo split is on disk resolves DeepCaps/MNIST
    and measures its clean point without ever importing scipy."""
    from repro import zoo
    weights = "deepcaps-micro__synth-mnist__n1000__e6__s3.npz"
    os.symlink(os.path.join(REPO_ROOT, ".artifacts", "zoo", weights),
               tmp_path / weights)
    monkeypatch.setenv("REPRO_ZOO_DIR", str(tmp_path))
    zoo._memo_test_split.cache_clear()
    try:
        zoo.default_test_split("synth-mnist")
    finally:
        zoo._memo_test_split.cache_clear()
    probe = ("import json, sys\n"
             "from repro.api import AnalysisRequest, ModelRef, "
             "ResilienceService\n"
             "service = ResilienceService(use_store=False)\n"
             "try:\n"
             "    result = service.run(AnalysisRequest(\n"
             "        model=ModelRef(benchmark='DeepCaps/MNIST'),\n"
             "        targets=[('softmax', None)], nm_values=(0.0,),\n"
             "        seed=0, eval_samples=32))\n"
             "finally:\n"
             "    service.close()\n"
             "print(json.dumps([result.baseline_accuracy, sorted(\n"
             "    name for name in sys.modules\n"
             "    if name.split('.')[0] == 'scipy')]))\n")
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    accuracy, scipy_modules = json.loads(out.splitlines()[-1])
    assert accuracy > 0.5
    assert scipy_modules == []
