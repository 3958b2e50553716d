"""Lifecycle of one ``repro serve`` process for the ``sweep_service`` workload.

Start-up is timed from launch until the coordinator's status frame shows
both local workers ready. Shutdown goes through the drain path
(``cancel --drain``); it fails when the serve process exits non-zero or
any worker it spawned outlives it, so a leaked worker cannot load the
next run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

WORKERS = 2
_BANNER = re.compile(r"coordinator listening on ([0-9.]+):(\d+)")
_START_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
#: Status poll period. The coordinator sheds a host that dials more than
#: 30 times a second, and the measured clients dial from the same host.
_POLL_S = 0.1


class ServiceError(RuntimeError):
    """The service did not start, or did not shut down cleanly."""


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # Field 4 (after the parenthesised command name) is the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServiceError(f"no VmHWM for process {pid}")


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class Service:
    """One ``repro serve 127.0.0.1:0 --workers 2`` with a shared secret."""

    def __init__(self, workdir: Path, env: dict[str, str], secret_file: Path) -> None:
        from repro.distrib import load_secret

        self.workdir = workdir
        self.env = env
        self.secret_file = secret_file
        self.secret = load_secret(secret_file)
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.workers: list[int] = []

    def start(self, tag: str) -> float:
        """Launch and wait until both workers are ready; returns seconds."""
        from repro.distrib.protocol import fetch_status

        log_path = self.workdir / f"serve-{tag}.log"
        self.address = None
        self.workers = []
        start = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", "127.0.0.1:0",
                    "--workers", str(WORKERS),
                    "--secret-file", str(self.secret_file),
                    "--cache-dir", str(self.workdir / f"serve-cache-{tag}"),
                ],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=self.env,
            )
        deadline = start + _START_TIMEOUT_S
        while self.address is None:
            match = _BANNER.search(log_path.read_text())
            if match:
                self.address = (match.group(1), int(match.group(2)))
                break
            self._check_running(log_path, deadline)
            time.sleep(0.005)
        while True:
            try:
                status = fetch_status(self.address, timeout=5.0, secret=self.secret)
            except OSError:
                status = {}
            ready = [w for w in status.get("workers", []) if w.get("ready")]
            if len(ready) >= WORKERS:
                break
            self._check_running(log_path, deadline)
            time.sleep(_POLL_S)
        elapsed = time.perf_counter() - start
        self.workers = _children(self.proc.pid)
        if len(self.workers) != WORKERS:
            raise ServiceError(
                f"serve reports {WORKERS} ready workers but has "
                f"{len(self.workers)} child processes"
            )
        return elapsed

    def _check_running(self, log_path: Path, deadline: float) -> None:
        assert self.proc is not None
        if self.proc.poll() is not None:
            raise ServiceError(
                f"repro serve exited with {self.proc.returncode} during start-up: "
                f"{log_path.read_text()[-2000:]}"
            )
        if time.perf_counter() > deadline:
            raise ServiceError(f"repro serve not ready after {_START_TIMEOUT_S:.0f} s")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the serve process plus each of its workers."""
        assert self.proc is not None
        return sum(peak_rss_mb(pid) for pid in [self.proc.pid, *self.workers])

    def fetch_status(self) -> dict[str, Any]:
        from repro.distrib.protocol import fetch_status

        assert self.address is not None
        return fetch_status(self.address, timeout=5.0, secret=self.secret)

    def stop(self) -> None:
        """Drain and wait; raise if serve fails or a worker survives it."""
        from repro.distrib import cancel_job

        proc = self.proc
        if proc is None:
            return
        self.proc = None
        try:
            if proc.poll() is None and self.address is not None:
                try:
                    cancel_job(self.address, drain=True, secret=self.secret, timeout=5.0)
                except OSError:
                    proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise ServiceError(
                    f"repro serve still running {_STOP_TIMEOUT_S:.0f} s after drain"
                ) from None
            if code != 0:
                raise ServiceError(f"repro serve exited with {code} after drain")
            survivors = [pid for pid in self.workers if _alive(pid)]
            if survivors:
                raise ServiceError(f"workers {survivors} survived the drain")
        finally:
            for pid in [*self.workers, proc.pid]:
                if _alive(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
            if proc.poll() is None:
                proc.wait(timeout=10)
