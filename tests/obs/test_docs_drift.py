"""docs/OBSERVABILITY.md's catalogues must match the code.

Counters, two directions: every counter the source increments
(literal ``inc("...")`` calls plus the declared catalogues) must
appear in the docs' tables, and every counter the tables list must
exist in the source — so the catalogue can be trusted when wiring
dashboards against ``/metrics``.

Trace span attributes, same two directions: the "Span attribute
catalogue" table (rows prefixed ``| attr:``) against
:data:`repro.obs.tracing.TRACE_ATTRIBUTES`.

Gauges, same two directions: the gauge catalogue (rows prefixed
``| gauge:``) against the declared gauge tuples plus literal
``gauge_set/inc/dec("...")`` calls.  The runtime-cache gauge names are
built from f-strings (``f"{name}_entries"``), which the literal regex
cannot see — that is what :data:`RUNTIME_GAUGES` is for; likewise the
per-objective ``slo_state:<name>`` family, which the docs describe in
prose and :data:`~repro.obs.slo.SLO_GAUGES` covers for the fixed names.

Wide-event fields and flight-bundle fields, same two directions: the
``| event-field:`` rows against :data:`~repro.obs.wideevent.
WIDE_EVENT_FIELDS` and the ``| bundle-field:`` rows against
:data:`~repro.obs.flight.FLIGHT_BUNDLE_FIELDS`.

Time-series document and anomaly-record fields, same two directions:
the ``| series-field:`` rows against :data:`~repro.obs.timeseries.
SERIES_FIELDS` and the ``| anomaly-field:`` rows against
:data:`~repro.obs.timeseries.ANOMALY_EVENT_FIELDS`.
"""

import re
from pathlib import Path

from repro.core.kernel import ENGINE_COUNTERS
from repro.index.store_v2 import STORE_V2_COUNTERS, STORE_V2_GAUGES
from repro.obs.flight import FLIGHT_BUNDLE_FIELDS
from repro.obs.slo import SLO_GAUGES
from repro.obs.timeseries import (ANOMALY_EVENT_FIELDS, SERIES_FIELDS,
                                  WATCHDOG_GAUGES)
from repro.obs.tracing import TRACE_ATTRIBUTES, TRACING_GAUGES
from repro.obs.wideevent import WIDE_EVENT_FIELDS
from repro.runtime.session import RUNTIME_COUNTERS, RUNTIME_GAUGES
from repro.server.app import SERVER_COUNTERS, SERVER_GAUGES

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "OBSERVABILITY.md"

_INC_LITERAL = re.compile(r'\.inc\(\s*"([a-z0-9_]+)"')
_BACKTICKED = re.compile(r"`([a-z0-9_]+)`")


def _code_counters() -> set:
    names = set(ENGINE_COUNTERS) | set(RUNTIME_COUNTERS) \
        | set(STORE_V2_COUNTERS) | set(SERVER_COUNTERS)
    for path in SRC.rglob("*.py"):
        names.update(_INC_LITERAL.findall(path.read_text(encoding="utf-8")))
    return names


def _documented_counters() -> set:
    """Backticked names in the first column of the catalogue tables."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        names.update(_BACKTICKED.findall(first_cell))
    return names


def test_every_incremented_counter_is_documented():
    missing = _code_counters() - _documented_counters()
    assert not missing, \
        f"counters incremented in src/repro/ but absent from " \
        f"docs/OBSERVABILITY.md: {sorted(missing)}"


def test_every_documented_counter_exists_in_code():
    stale = _documented_counters() - _code_counters()
    assert not stale, \
        f"counters documented in docs/OBSERVABILITY.md but never " \
        f"incremented in src/repro/: {sorted(stale)}"


def _documented_trace_attributes() -> set:
    """Backticked names in the ``| attr:``-prefixed catalogue rows."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| attr:"):
            continue
        first_cell = line.split("|")[1]
        names.update(_BACKTICKED.findall(first_cell))
    return names


def test_every_trace_attribute_is_documented():
    missing = set(TRACE_ATTRIBUTES) - _documented_trace_attributes()
    assert not missing, \
        f"span attributes in TRACE_ATTRIBUTES but absent from " \
        f"docs/OBSERVABILITY.md's attribute catalogue: {sorted(missing)}"


def test_every_documented_trace_attribute_exists_in_code():
    stale = _documented_trace_attributes() - set(TRACE_ATTRIBUTES)
    assert not stale, \
        f"span attributes documented in docs/OBSERVABILITY.md but " \
        f"missing from TRACE_ATTRIBUTES: {sorted(stale)}"


_GAUGE_LITERAL = re.compile(
    r'\.gauge_(?:set|inc|dec)\(\s*"([a-z0-9_]+)"')


def _code_gauges() -> set:
    names = set(RUNTIME_GAUGES) | set(STORE_V2_GAUGES) \
        | set(TRACING_GAUGES) | set(WATCHDOG_GAUGES) \
        | set(SERVER_GAUGES) | set(SLO_GAUGES)
    for path in SRC.rglob("*.py"):
        names.update(
            _GAUGE_LITERAL.findall(path.read_text(encoding="utf-8")))
    return names


def _documented_gauges() -> set:
    """Backticked names in the ``| gauge:``-prefixed catalogue rows."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("| gauge:"):
            continue
        first_cell = line.split("|")[1]
        names.update(_BACKTICKED.findall(first_cell))
    return names


def test_every_published_gauge_is_documented():
    missing = _code_gauges() - _documented_gauges()
    assert not missing, \
        f"gauges published in src/repro/ but absent from " \
        f"docs/OBSERVABILITY.md's gauge catalogue: {sorted(missing)}"


def test_every_documented_gauge_exists_in_code():
    stale = _documented_gauges() - _code_gauges()
    assert not stale, \
        f"gauges documented in docs/OBSERVABILITY.md but never " \
        f"published in src/repro/: {sorted(stale)}"


def _documented_prefixed(prefix: str) -> set:
    """Backticked names in rows carrying the given ``| <prefix>:``."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith(f"| {prefix}:"):
            continue
        first_cell = line.split("|")[1]
        names.update(_BACKTICKED.findall(first_cell))
    return names


def test_every_wide_event_field_is_documented():
    missing = set(WIDE_EVENT_FIELDS) - _documented_prefixed("event-field")
    assert not missing, \
        f"wide-event fields in WIDE_EVENT_FIELDS but absent from " \
        f"docs/OBSERVABILITY.md's event-field catalogue: " \
        f"{sorted(missing)}"


def test_every_documented_wide_event_field_exists_in_code():
    stale = _documented_prefixed("event-field") - set(WIDE_EVENT_FIELDS)
    assert not stale, \
        f"wide-event fields documented in docs/OBSERVABILITY.md but " \
        f"missing from WIDE_EVENT_FIELDS: {sorted(stale)}"


def test_every_bundle_field_is_documented():
    missing = set(FLIGHT_BUNDLE_FIELDS) \
        - _documented_prefixed("bundle-field")
    assert not missing, \
        f"bundle fields in FLIGHT_BUNDLE_FIELDS but absent from " \
        f"docs/OBSERVABILITY.md's bundle-field catalogue: " \
        f"{sorted(missing)}"


def test_every_documented_bundle_field_exists_in_code():
    stale = _documented_prefixed("bundle-field") \
        - set(FLIGHT_BUNDLE_FIELDS)
    assert not stale, \
        f"bundle fields documented in docs/OBSERVABILITY.md but " \
        f"missing from FLIGHT_BUNDLE_FIELDS: {sorted(stale)}"


def test_every_series_field_is_documented():
    missing = set(SERIES_FIELDS) - _documented_prefixed("series-field")
    assert not missing, \
        f"/seriesz fields in SERIES_FIELDS but absent from " \
        f"docs/OBSERVABILITY.md's series-field catalogue: " \
        f"{sorted(missing)}"


def test_every_documented_series_field_exists_in_code():
    stale = _documented_prefixed("series-field") - set(SERIES_FIELDS)
    assert not stale, \
        f"/seriesz fields documented in docs/OBSERVABILITY.md but " \
        f"missing from SERIES_FIELDS: {sorted(stale)}"


def test_every_anomaly_field_is_documented():
    missing = set(ANOMALY_EVENT_FIELDS) \
        - _documented_prefixed("anomaly-field")
    assert not missing, \
        f"anomaly-record fields in ANOMALY_EVENT_FIELDS but absent " \
        f"from docs/OBSERVABILITY.md's anomaly-field catalogue: " \
        f"{sorted(missing)}"


def test_every_documented_anomaly_field_exists_in_code():
    stale = _documented_prefixed("anomaly-field") \
        - set(ANOMALY_EVENT_FIELDS)
    assert not stale, \
        f"anomaly-record fields documented in docs/OBSERVABILITY.md " \
        f"but missing from ANOMALY_EVENT_FIELDS: {sorted(stale)}"
