"""Figure 6 — runtime and largest-sublattice size vs max term cardinality.

Regenerates the paper's Fig. 6: on DBLP, queries of 10, 15 and 20
keywords with a fixed total number of instances are evaluated while the
maximum term cardinality varies; the bars are the average runtime, the
curve is the size (number of stacks) of the largest component sublattice,
which grows as the Bell number of the cardinality.  Shapes to check
against the paper: runtime tracks the maximum term cardinality (and
through it the sublattice size), and depends on it much more than on the
total keyword count — a 20-keyword query with small terms evaluates
faster than a 10-keyword query with a large term.
"""

import random

import pytest

from repro.core.lattice import bell_number, largest_sublattice_size
from repro.datasets.workloads import (frequent_keywords,
                                      pattern_with_max_cardinality)
from repro.evaluation.experiments import time_cohesive
from repro.evaluation.reporting import format_table

from conftest import report, time_reference

CARDINALITIES = (3, 4, 5, 6, 7)
SIZES = (10, 15, 20)
TOTAL_INSTANCES = 3000
QUERIES_PER_POINT = 3


@pytest.fixture(scope="module")
def fig6_series(efficiency_indexes):
    _, index = efficiency_indexes["dblp"]
    series = {}
    for size in SIZES:
        limit = TOTAL_INSTANCES // size
        for cardinality in CARDINALITIES:
            shape = pattern_with_max_cardinality(size, cardinality)
            rng = random.Random(size * 100 + cardinality)
            seconds = 0.0
            for _ in range(QUERIES_PER_POINT):
                query = shape.with_keywords(
                    frequent_keywords(index, size, rng))
                seconds += time_cohesive(query, index, limit)
            series[(size, cardinality)] = seconds / QUERIES_PER_POINT
    return series


def test_fig6_cardinality_sweep(benchmark, fig6_series,
                                efficiency_indexes):
    rows = []
    for (size, cardinality), seconds in sorted(fig6_series.items()):
        rows.append([
            size, cardinality,
            f"{seconds * 1000:.1f}",
            bell_number(cardinality),
        ])
    report("Figure 6: runtime and largest sublattice vs max term "
           "cardinality (DBLP, ~3000 instances)",
           format_table(["keywords", "max cardinality", "avg time (ms)",
                         "largest sublattice (# stacks)"], rows))

    # The sublattice-size curve is exactly Bell(cardinality).
    for size in SIZES:
        for cardinality in CARDINALITIES:
            shape = pattern_with_max_cardinality(size, cardinality)
            assert largest_sublattice_size(shape) == \
                bell_number(cardinality)

    # Cardinality dominates: within every size, runtime at cardinality 7
    # exceeds runtime at cardinality 3.
    for size in SIZES:
        assert fig6_series[(size, 7)] > fig6_series[(size, 3)]

    _, index = efficiency_indexes["dblp"]
    shape = pattern_with_max_cardinality(10, 5)
    rng = random.Random(0)
    query = shape.with_keywords(frequent_keywords(index, 10, rng))
    benchmark.pedantic(lambda: time_cohesive(query, index, 300),
                       rounds=2, iterations=1)


def test_fig6_kernel_point(benchmark, efficiency_indexes):
    """The hardest Fig. 6 point (cardinality 7), the record the
    regression sentinel trends and ``bench-check`` gates in
    BENCH_history.jsonl."""
    _, index = efficiency_indexes["dblp"]
    shape = pattern_with_max_cardinality(20, 7)
    rng = random.Random(7)
    query = shape.with_keywords(frequent_keywords(index, 20, rng))
    benchmark.pedantic(lambda: time_cohesive(query, index, 150),
                       rounds=2, iterations=1)


def test_fig6_kernel_not_slower(efficiency_indexes):
    """Kernel ≤ reference engine on the high-cardinality Fig. 6
    workload.

    Cardinality-7 terms measure ~2.1–2.4x in the kernel's favor; the
    assertion only demands parity-with-slack (0.8x) so CI jitter
    cannot flake it, and the reported ratio records the real margin.
    """
    _, index = efficiency_indexes["dblp"]
    shape = pattern_with_max_cardinality(20, 7)
    rng = random.Random(7)
    query = shape.with_keywords(frequent_keywords(index, 20, rng))
    flat = sum(time_cohesive(query, index, 150) for _ in range(2))
    reference = sum(time_reference(query, index, 150) for _ in range(2))
    ratio = reference / max(flat, 1e-9)
    report("Figure 6 kernel ratio (dblp, 20 keywords, cardinality 7)",
           f"reference {reference * 1000:.1f} ms  "
           f"kernel {flat * 1000:.1f} ms  ratio {ratio:.2f}x")
    assert ratio >= 0.8, \
        f"kernel regressed to {ratio:.2f}x of the reference engine"
