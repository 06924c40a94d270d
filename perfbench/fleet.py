"""The services a workload drives: one in-process service, or a loopback
fleet (two ``repro worker`` agent processes, an in-process ``repro serve``
on the remote-pool backend over them, and an HTTP client)."""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

from repro.api import ResilienceService
from repro.api.server import AnalysisServer, RemoteService

#: Seconds an agent process may take to import and bind.
AGENT_START_TIMEOUT = 60.0


class Local:
    """One in-process service; requests go straight to it."""

    def __init__(self, service: ResilienceService):
        self.service = self.client = service

    def close(self) -> None:
        self.service.close()


class Fleet:
    """Loopback fleet: ``client`` is a :class:`RemoteService` talking HTTP
    to an :class:`AnalysisServer` whose ``service`` dispatches shards to
    ``agents`` worker processes over TCP."""

    def __init__(self, root: str, cache_dir: str, log_dir: str,
                 agents: int = 2, max_parallel: int = 2):
        self.agents: list[subprocess.Popen] = []
        self.service = None
        self.server = None
        try:
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            for number in range(agents):
                log = open(os.path.join(log_dir, f"agent{number}.log"), "ab")
                with log:
                    self.agents.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--listen", "127.0.0.1:0"],
                        cwd=root, env=env, stdout=subprocess.PIPE,
                        stderr=log, text=True))
            addresses = [_announced_address(agent) for agent in self.agents]
            self.service = ResilienceService(
                use_store=True, cache_dir=cache_dir, backend="remote-pool",
                workers=addresses, max_parallel=max_parallel)
            self.server = AnalysisServer(self.service).start()
            self.client = RemoteService(self.server.address)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        if self.service is not None:
            self.service.close()
        for agent in self.agents:
            agent.terminate()
        for agent in self.agents:
            try:
                agent.wait(timeout=10)
            except subprocess.TimeoutExpired:
                agent.kill()
                agent.wait()
            agent.stdout.close()
        self.agents = []


def _announced_address(agent: subprocess.Popen) -> str:
    """The ``HOST:PORT`` an agent prints once it listens."""
    deadline = time.monotonic() + AGENT_START_TIMEOUT
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("worker agent did not announce its address")
        ready, _, _ = select.select([agent.stdout], [], [], left)
        if ready:
            break
    line = agent.stdout.readline()
    words = line.split()
    if len(words) < 4 or words[:3] != ["worker", "listening", "on"]:
        raise RuntimeError(f"worker agent exited or printed {line!r} "
                           f"instead of its address")
    return words[3]
