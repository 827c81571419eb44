"""The benchmark's server child and the parent-side handle that owns it.

Child (run as a script)::

    python3 perfbench/launcher.py STORE [--spans PATH]

calls ``repro.server.serve`` on STORE with its defaults — 4 workers,
SLO engine, flight recorder, time series and watchdog on — and port 0.
With ``--spans`` it installs the span wrappers first and writes the
spans to PATH after ``serve`` returns on SIGTERM.

Parent: :class:`ServerChild` starts the child with stdout and stderr
sent to a log file (the default server logs several anomaly warnings
a second, enough to fill an unread pipe and stall it), reads the
``serving on URL`` handshake from that file, reads the child's VmHWM
before shutdown, and stops it with SIGTERM under a hard deadline.
"""

from __future__ import annotations

import argparse
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_HANDSHAKE = re.compile(r"^serving on (http://\S+)", re.MULTILINE)


class ServerChild:
    """A running server child process."""

    def __init__(self, store: Path, log_path: Path,
                 spans_path: Optional[Path] = None,
                 ready_seconds: float = 60.0):
        self.log_path = log_path
        command = [sys.executable, str(HERE / "launcher.py"), str(store)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            self.url = self._handshake(ready_seconds)
        except BaseException:
            self.stop()
            raise

    def _handshake(self, seconds: float) -> str:
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            found = _HANDSHAKE.search(self.log_path.read_text(
                errors="replace"))
            if found:
                return found.group(1)
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.log_tail()}")
            time.sleep(0.02)
        raise RuntimeError(f"no handshake within {seconds:g}s: "
                           f"{self.log_tail()}")

    def log_tail(self, size: int = 2000) -> str:
        return self.log_path.read_text(errors="replace")[-size:]

    def log_offset(self) -> int:
        return self.log_path.stat().st_size

    def log_lines(self, start: int, end: int) -> int:
        """Lines the child logged between two offsets."""
        with open(self.log_path, "rb") as log:
            log.seek(start)
            return log.read(end - start).count(b"\n")

    def peak_rss_mb(self) -> float:
        import harness
        return harness.vm_hwm_mb(self.process.pid)

    def stop(self, grace: float = 15.0) -> Optional[int]:
        """SIGTERM, then SIGKILL if the child outlives ``grace``."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark server child")
    parser.add_argument("store")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if args.spans is not None:
        import spans
        recorder = spans.SpanRecorder()
        spans.install_program_wrappers(recorder)
    from repro.server import serve
    try:
        serve(args.store, port=0)
    finally:
        if recorder is not None:
            recorder.restore()
            recorder.write(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
