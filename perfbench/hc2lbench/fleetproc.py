"""The fleet server as its own process tree (``python -m repro.cli serve``)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Tuple

from .measure import descendant_pids

#: how long a launch may take before the run gives up on it
LAUNCH_TIMEOUT_S = 90.0
#: how long each stop step (drain, then kill) may wait for the server
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """One ``repro serve`` process: started, polled for its port, stopped."""

    def __init__(self, src: Path, index_path: Path, workers: int, workdir: Path) -> None:
        stem = f"serve-{os.getpid()}-{time.monotonic_ns()}"
        self.port_file = workdir / f"{stem}.port"
        self.log_file = workdir / f"{stem}.log"
        self._log = open(self.log_file, "wb")
        env = dict(os.environ, PYTHONPATH=str(src))
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(index_path),
                "--workers",
                str(workers),
                "--wire",
                "binary",
                "--port-file",
                str(self.port_file),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )

    def wait_address(self) -> Tuple[str, int]:
        """Poll the port file the server writes once it is listening."""
        deadline = time.monotonic() + LAUNCH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                error = self.log_file.read_text(errors="replace")
                raise RuntimeError(f"fleet server exited early: {error[-2000:]}")
            try:
                text = self.port_file.read_text(encoding="utf-8")
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                host, port = text.split()
                return host, int(port)
            time.sleep(0.002)
        raise TimeoutError("fleet server did not report its port in time")

    def stop(self) -> Optional[int]:
        """Drain through SIGINT; kill the whole tree if that hangs."""
        if self.process.poll() is None:
            workers = descendant_pids(self.process.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in workers:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.process.kill()
                self.process.wait(STOP_TIMEOUT_S)
        self._log.close()
        for path in (self.port_file, self.log_file):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        return self.process.returncode
