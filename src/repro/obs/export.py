"""Exporters: OpenMetrics text exposition and a JSONL event sink.

Two ways a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` leaves
the process:

* :func:`to_openmetrics` renders the snapshot in the OpenMetrics /
  Prometheus text exposition format — counters become ``<ns>_<name>``
  counter families (sample suffix ``_total``), gauges become gauge
  families (a bare sample for the value plus ``stat="min|max"``
  excursion series), histograms become summary families with
  ``quantile="0.5|0.9|0.99"`` series backed by the
  :class:`~repro.obs.metrics.Histogram` reservoir, and phase
  timings become one labelled ``<ns>_phase_seconds`` family.  This is
  what the search server (:mod:`repro.server.app`) serves on
  ``/metrics``.
* :class:`JsonlSink` appends schema-versioned JSON events, one per
  line, to a line-buffered file — the structured log a long-running
  :class:`~repro.runtime.session.SearchSession` emits per query /
  batch / counter flush.  Under ``ProcessPoolExecutor`` fan-out each
  worker opens its own ``per_process`` file (the pid is spliced into
  the name) and :func:`merge_jsonl` folds them back into one stream.

Metric names are sanitized through :func:`sanitize_metric_name`:
OpenMetrics names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*``, but the
engine's phase names are dotted/hyphenated (``index-open``,
``runtime.session``), so every invalid character maps to ``_``.
:func:`parse_openmetrics` is the matching validating reader used by
the round-trip tests and the CI smoke job — it rejects malformed
names, unknown sample suffixes and a missing ``# EOF`` terminator.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import threading
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

#: Version of the JSONL event schema; bump on incompatible changes.
EVENT_SCHEMA_VERSION = 1

#: The quantiles exported for every histogram (summary) family.
EXPORT_QUANTILES = (("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99))

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_INVALID_CHAR_RE = re.compile(r"[^a-zA-Z0-9_:]")

PathLike = Union[str, Path]


def sanitize_metric_name(name: str) -> str:
    """Map an arbitrary metric/phase name onto the OpenMetrics charset.

    Every character outside ``[a-zA-Z0-9_:]`` becomes ``_`` (so
    ``index-open`` → ``index_open``, ``runtime.session`` →
    ``runtime_session``); a leading digit gains a ``_`` prefix; an
    empty name is rejected.  The result always matches
    ``[a-zA-Z_:][a-zA-Z0-9_:]*``.
    """
    if not name:
        raise ValueError("metric name must be non-empty")
    sanitized = _INVALID_CHAR_RE.sub("_", name)
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_number(value: float) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def to_openmetrics(snapshot: dict, namespace: str = "repro") -> str:
    """Render a metrics snapshot as OpenMetrics text exposition.

    ``snapshot`` is the :meth:`MetricsRegistry.snapshot` shape; the
    output ends with the mandatory ``# EOF`` line and is accepted by
    Prometheus' and this module's own :func:`parse_openmetrics`.
    """
    prefix = sanitize_metric_name(namespace)
    lines: list[str] = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        family = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_format_number(value)}")

    for name, data in sorted(snapshot.get("gauges", {}).items()):
        family = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_number(data.get('value', 0))}")
        # min/max excursion since reset, as labelled series of the same
        # family (suffix "" keeps the parser's round-trip happy).
        for stat in ("min", "max"):
            extreme = data.get(stat)
            if extreme is not None:
                lines.append(f'{family}{{stat="{stat}"}} '
                             f"{_format_number(extreme)}")

    for name, data in sorted(snapshot.get("histograms", {}).items()):
        family = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {family} summary")
        # _count and _sum are mandatory summary samples — emitted even
        # for a histogram whose reservoir never saw a sample.
        lines.append(
            f"{family}_count {_format_number(data.get('count', 0))}")
        lines.append(
            f"{family}_sum {_format_number(data.get('sum', 0.0))}")
        for label, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            quantile = data.get(key)
            if quantile is not None:
                lines.append(f'{family}{{quantile="{label}"}} '
                             f"{_format_number(quantile)}")

    phases = snapshot.get("phases", {})
    if phases:
        family = f"{prefix}_phase_seconds"
        lines.append(f"# TYPE {family} counter")
        for name, seconds in sorted(phases.items()):
            label = _escape_label_value(name)
            lines.append(f'{family}_total{{phase="{label}"}} '
                         f"{_format_number(seconds)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_openmetrics(text: str) -> dict:
    """Parse (and validate) an OpenMetrics exposition produced by
    :func:`to_openmetrics`.

    Returns ``family → {"type": str, "samples": [(suffix, labels,
    value), ...]}`` where ``suffix`` is the sample name with the family
    prefix stripped (``"_total"``, ``"_count"``, ``""`` for quantile
    series).  Raises :class:`ValueError` on malformed names, samples
    outside any family, or a missing ``# EOF`` terminator — the
    round-trip guard of the exporter tests and the CI smoke job.
    """
    families: dict[str, dict] = {}
    current: Optional[str] = None
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition does not end with # EOF")
    for line in lines[:-1]:
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {line!r}")
            _, _, family, metric_type = parts
            if not _NAME_RE.fullmatch(family):
                raise ValueError(f"invalid family name {family!r}")
            families[family] = {"type": metric_type, "samples": []}
            current = family
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {line!r}")
        name = match.group("name")
        if current is None or not name.startswith(current):
            raise ValueError(f"sample {name!r} outside its family")
        labels = dict(
            (key, value.replace('\\"', '"').replace("\\n", "\n")
             .replace("\\\\", "\\"))
            for key, value in _LABEL_RE.findall(match.group("labels") or ""))
        suffix = name[len(current):]
        if suffix not in ("", "_total", "_count", "_sum", "_bucket"):
            raise ValueError(f"unknown sample suffix {suffix!r} on {name!r}")
        families[current]["samples"].append(
            (suffix, labels, float(match.group("value"))))
    return families


class JsonlSink:
    """A line-buffered JSONL event sink (one JSON object per line).

    Every event carries ``schema`` (:data:`EVENT_SCHEMA_VERSION`),
    ``event`` (the kind: ``query``, ``batch``, ``snapshot``, ...) and
    ``pid``, so merged streams from a process pool stay attributable.
    With ``per_process=True`` the pid is spliced into the file name
    (``events.jsonl`` → ``events.12345.jsonl``): each worker of a
    ``ProcessPoolExecutor`` appends to its own file with no
    cross-process interleaving, and :func:`merge_jsonl` folds the
    family back into one stream.

    The file opens lazily on the first :meth:`emit` and is
    line-buffered, so a crash loses at most the current line; an
    ``atexit`` hook additionally flushes and closes an open sink when
    the interpreter exits, so tail events survive a process that
    never called :meth:`close` (use the sink as a context manager to
    close deterministically).

    Long-running servers cap the file with ``max_bytes``: when an
    emit would push the file past the cap, the sink rotates first —
    ``events.jsonl`` → ``events.jsonl.1`` → ... → ``.{backups}``,
    oldest dropped — so at most ``(backups + 1) * max_bytes`` bytes
    ever sit on disk (``backups=0`` truncates instead of keeping
    history).  Emission and rotation are serialized by an internal
    lock, so the server's worker threads can share one sink.
    """

    def __init__(self, path: PathLike, per_process: bool = False,
                 max_bytes: Optional[int] = None, backups: int = 3):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if backups < 0:
            raise ValueError("backups must be >= 0")
        self._requested = Path(path)
        self._per_process = per_process
        self._max_bytes = max_bytes
        self._backups = backups
        self._file = None
        self._size = 0
        self._lock = threading.Lock()
        self.rotated = 0  # lifetime rotations

    @property
    def path(self) -> Path:
        """The file this sink writes (pid-suffixed when per-process)."""
        if not self._per_process:
            return self._requested
        stem = self._requested.stem or self._requested.name
        suffix = self._requested.suffix if self._requested.stem else ""
        return self._requested.with_name(f"{stem}.{os.getpid()}{suffix}")

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", buffering=1,
                          encoding="utf-8")
        self._size = self._file.tell()
        atexit.register(self.close)

    def _rotate(self) -> None:
        """Shift ``path`` → ``path.1`` → ... under the held lock."""
        self._file.close()
        self._file = None
        if self._backups == 0:
            self.path.unlink(missing_ok=True)
        else:
            oldest = self.path.with_name(
                f"{self.path.name}.{self._backups}")
            oldest.unlink(missing_ok=True)
            for index in range(self._backups - 1, 0, -1):
                source = self.path.with_name(f"{self.path.name}.{index}")
                if source.exists():
                    source.rename(self.path.with_name(
                        f"{self.path.name}.{index + 1}"))
            if self.path.exists():
                self.path.rename(
                    self.path.with_name(f"{self.path.name}.1"))
        self.rotated += 1
        self._open()

    def emit(self, event: str, payload: Optional[dict] = None,
             **fields) -> dict:
        """Append one event line; returns the emitted record."""
        record = {"schema": EVENT_SCHEMA_VERSION, "event": event,
                  "pid": os.getpid()}
        if payload:
            record.update(payload)
        if fields:
            record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            if self._file is None:
                self._open()
            if self._max_bytes is not None and self._size > 0 and \
                    self._size + len(line) > self._max_bytes:
                self._rotate()
            self._file.write(line)
            self._size += len(line)
        return record

    def emit_snapshot(self, snapshot: dict, event: str = "snapshot",
                      **fields) -> dict:
        """Emit a whole registry snapshot as one ``snapshot`` event."""
        return self.emit(event, {"counters": snapshot.get("counters", {}),
                                 "gauges": snapshot.get("gauges", {}),
                                 "histograms": snapshot.get("histograms",
                                                            {}),
                                 "phases": snapshot.get("phases", {})},
                         **fields)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            file, self._file = self._file, None
        if file is not None:
            file.close()
            atexit.unregister(self.close)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: ``cat`` every trace event carries (filterable in the Perfetto UI).
CHROME_TRACE_CATEGORY = "repro"


def to_chrome_trace(spans: Iterable) -> dict:
    """Render trace spans as a Chrome trace-event JSON object.

    ``spans`` are :class:`~repro.obs.tracing.TraceSpan` objects (or
    their ``as_dict`` wire form).  Each becomes one complete
    (``"ph": "X"``) event — ``ts``/``dur`` in microseconds, the
    recording ``pid``/``tid`` as the lane, and the trace ids plus the
    structured attributes under ``args`` — alongside one
    ``process_name`` metadata event per pid, so a multi-process trace
    reads as labelled rows.  The result loads in Perfetto
    (https://ui.perfetto.dev) and ``chrome://tracing``.
    """
    events = []
    pids = {}
    for span in spans:
        data = span if isinstance(span, dict) else span.as_dict()
        args = {
            "trace_id": data["trace_id"],
            "span_id": data["span_id"],
            "parent_id": data.get("parent_id"),
        }
        args.update(data.get("attrs", {}))
        events.append({
            "name": data["name"],
            "cat": CHROME_TRACE_CATEGORY,
            "ph": "X",
            "ts": data["start_wall"] * 1e6,
            "dur": data["duration"] * 1e6,
            "pid": data["pid"],
            "tid": data["tid"],
            "args": args,
        })
        pids[data["pid"]] = pids.get(data["pid"], False) \
            or data.get("parent_id") is None
    events.sort(key=lambda event: event["ts"])
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"repro{' (parent)' if has_root else ''} "
                          f"pid {pid}"}}
        for pid, has_root in sorted(pids.items())
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: PathLike, spans: Iterable) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome_trace(spans), indent=2,
                               default=str) + "\n", encoding="utf-8")
    return path


#: The schema URL speedscope uses to recognize its own file format.
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(folded: dict, name: str = "repro profile") -> dict:
    """Render folded stack counts as a speedscope JSON document.

    ``folded`` is the ``stack-key → sample-count`` map of
    :meth:`repro.obs.sampler.StackSampler.folded` (keys are
    ``;``-joined frames, root first).  The result is a *sampled*-type
    speedscope profile — one sample entry per distinct stack, weighted
    by its count — loadable at https://www.speedscope.app and by the
    ``speedscope`` CLI.
    """
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[int] = []
    for key, count in sorted(folded.items()):
        stack = []
        for label in key.split(";"):
            index = frame_index.get(label)
            if index is None:
                index = frame_index[label] = len(frame_index)
            stack.append(index)
        samples.append(stack)
        weights.append(count)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "shared": {"frames": [{"name": label} for label in frame_index]},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "none",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro",
    }


def write_speedscope(path: PathLike, folded: dict,
                     name: str = "repro profile") -> Path:
    """Write :func:`to_speedscope` output to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_speedscope(folded, name), indent=2)
                    + "\n", encoding="utf-8")
    return path


def read_jsonl(path: PathLike) -> list[dict]:
    """Load every event of one JSONL file (skipping blank lines)."""
    events = []
    with open(path, encoding="utf-8") as file:
        for line in file:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def merge_jsonl(paths: Union[PathLike, Iterable[PathLike]],
                output: PathLike) -> int:
    """Merge per-process JSONL files into one stream; returns the
    event count.

    ``paths`` may be a single directory — then every ``*.jsonl`` file
    in it (sorted) is merged — or an iterable of files.  Events keep
    their per-file order; files are concatenated in sorted-path order,
    and every line is validated through ``json.loads`` on the way.
    """
    if isinstance(paths, (str, Path)) and Path(paths).is_dir():
        members: Sequence[Path] = sorted(Path(paths).glob("*.jsonl"))
    elif isinstance(paths, (str, Path)):
        members = [Path(paths)]
    else:
        members = sorted(Path(member) for member in paths)
    output = Path(output)
    count = 0
    with open(output, "w", encoding="utf-8") as out:
        for member in members:
            if member.resolve() == output.resolve():
                continue
            for event in read_jsonl(member):
                out.write(json.dumps(event, sort_keys=True) + "\n")
                count += 1
    return count
