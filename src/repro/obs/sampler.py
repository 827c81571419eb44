"""A sampling CPU profiler: the continuous-profiling layer.

:class:`StackSampler` interrupts nothing — a daemon thread wakes at
the configured rate, reads every live thread's current Python frame
via :func:`sys._current_frames`, and folds each stack into a
Brendan-Gregg *collapsed* line (``module.func;module.func;... count``).
That makes the cost proportional to stack depth × hz and completely
independent of how hot the profiled code is: a 50 hz sampler costs the
same whether the engine is idle or saturating a core, which is what
lets it stay on for the life of a serving process.

Output formats:

* :meth:`StackSampler.to_collapsed` / :meth:`write_collapsed` — the
  folded text every flamegraph tool ingests (``flamegraph.pl``,
  speedscope, pyroscope), also what the search server serves on
  ``/flamez``;
* :func:`repro.obs.export.to_speedscope` turns the same folded counts
  into a speedscope JSON document for interactive drill-down.

Accuracy caveat (inherent to ``sys._current_frames``): samples are
taken at the interpreter's convenience, so frames holding the GIL for
long C-level calls are *under*-represented.  For this pure-Python
engine that bias is negligible; the dominant frames of a search
workload are the stream-scan/machine inner loops, which is exactly
what the profile is meant to show.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Iterable, Optional, Union

PathLike = Union[str, Path]

#: Default sampling rate.  A prime, so the sampler cannot phase-lock
#: with millisecond-periodic work and systematically miss (or always
#: hit) the same frame.
DEFAULT_HZ = 97


def _frame_label(frame) -> str:
    """``module.qualname`` for one frame (the collapsed-stack token)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    name = getattr(code, "co_qualname", code.co_name)
    return f"{module}.{name}"


def _walk_stack(frame) -> str:
    """The frame's full stack as one collapsed key, root first."""
    labels = []
    while frame is not None:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return ";".join(labels)


class StackSampler:
    """Aggregating stack sampler over :func:`sys._current_frames`.

    Parameters
    ----------
    hz:
        Target sampling rate (samples per second per thread).
    thread_ids:
        ``None`` samples every live thread (continuous profiling of a
        whole process); an iterable of ``threading.get_ident()`` values
        restricts sampling to those threads (what
        :meth:`~repro.runtime.session.SearchSession.profile_cpu` uses
        to profile just the calling thread).

    Use as a context manager or with explicit :meth:`start` /
    :meth:`stop`.  Counts accumulate across start/stop cycles until
    :meth:`reset`.
    """

    def __init__(self, hz: float = DEFAULT_HZ,
                 thread_ids: Optional[Iterable[int]] = None):
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = hz
        self._interval = 1.0 / hz
        self._thread_ids = (frozenset(thread_ids)
                            if thread_ids is not None else None)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is currently alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "StackSampler":
        """Start the daemon sampling thread (no-op if running)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-stack-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        """Stop and join the sampling thread (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        return self

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.is_set():
            frames = sys._current_frames()
            with self._lock:
                for tid, frame in frames.items():
                    if tid == own:
                        continue
                    if self._thread_ids is not None \
                            and tid not in self._thread_ids:
                        continue
                    key = _walk_stack(frame)
                    if key:
                        self._counts[key] = self._counts.get(key, 0) + 1
                        self.sample_count += 1
            del frames  # drop the frame references before sleeping
            self._stop.wait(self._interval)

    # -- reading -----------------------------------------------------------

    def folded(self) -> dict[str, int]:
        """A copy of the aggregated ``stack-key → sample-count`` map."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Drop every aggregated sample."""
        with self._lock:
            self._counts.clear()
            self.sample_count = 0

    def to_collapsed(self) -> str:
        """The profile in collapsed-stack (folded) text form.

        One ``frame;frame;frame count`` line per distinct stack,
        sorted by stack key — the input format of ``flamegraph.pl``
        and every folded-stack tool.  Empty string before the first
        sample.
        """
        folded = self.folded()
        return "\n".join(f"{key} {count}"
                         for key, count in sorted(folded.items()))

    def write_collapsed(self, path: PathLike) -> Path:
        """Write :meth:`to_collapsed` to ``path``; returns it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_collapsed()
        path.write_text(text + "\n" if text else "", encoding="utf-8")
        return path
