"""Cold start: what a fresh service process imports before any work.

Every procpool worker, ``repro worker`` agent and ``repro`` CLI process
pays its import cost before serving a shard.  scipy is only needed to
fit Fig. 6 error profiles and to synthesize dataset pixels, so it must
stay off the import path of the service entry points.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


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
