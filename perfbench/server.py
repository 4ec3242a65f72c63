"""Start, probe and stop a ``repro serve --http`` subprocess."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

__all__ = ["Server", "proc_cpu_seconds", "proc_peak_rss_mb"]

_READY_TIMEOUT_S = 120.0


def proc_cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds of a process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One server process.  ``argv`` is the ``repro`` CLI argument list
    (``serve --http 127.0.0.1:0 ...``); with ``spans_out`` the server runs
    under :mod:`perfbench.serve_traced`, which records layer spans and
    writes them to that file when the server exits."""

    def __init__(self, root: Path, argv: list[str], log_path: Path,
                 spans_out: Path | None = None) -> None:
        env = dict(os.environ)
        paths = [str(root / "src"), str(root)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_traced",
                   str(spans_out), *argv]
        self.lines: list[str] = []
        self.url: str | None = None
        self._ready = threading.Event()
        self._log = open(log_path, "a")
        try:
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=self._log, text=True,
            )
        except OSError:
            self._log.close()
            raise
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith("listening on "):
                self.url = line.split()[2]
                self._ready.set()
        self._ready.set()  # EOF: the process is gone

    def wait_ready(self) -> str:
        """Block until the server listens; returns its base URL."""
        self._ready.wait(_READY_TIMEOUT_S)
        if self.url is None:
            self.stop()
            raise RuntimeError(
                "server did not start; output:\n" + "\n".join(self.lines)
            )
        return self.url

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as response:
            return json.loads(response.read())

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(10.0)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

