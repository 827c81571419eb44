"""Ablation — size-budget pruning and top-k-size search.

The second design choice DESIGN.md calls out: the engine can prune every
partial LCA whose size already exceeds a budget (sizes only grow), which
is what powers :func:`repro.core.topk.search_top_k`: one scan whose
budget is the k-th smallest final result size found so far.  This
bench measures the evaluation time of 15-keyword DBLP queries with
fixed budgets, with no budget, and as a top-10 search, and verifies
that the budgeted answers are exactly the corresponding prefixes of the
full answer.  Expected shape: pruning cuts the combination work
substantially while remaining lossless within the budget, and top-10
costs no more than the unbudgeted scan it replaces.
"""

import random

from repro.datasets.workloads import EFFICIENCY_PATTERNS, instantiate
from repro.evaluation.experiments import timed
from repro.evaluation.reporting import format_table
from repro.runtime import SearchSession

from conftest import report

LIST_LIMIT = 300
BUDGETS = (4, 8, 16, None)
TOP_K = 10
#: Each query is timed this many times per setting and the fastest run
#: kept, so the 1.1x comparisons below are not decided by one stall.
REPEATS = 3


def test_ablation_size_budget(benchmark, efficiency_indexes):
    _, index = efficiency_indexes["dblp"]
    rng = random.Random(15)
    queries = [instantiate(pattern, index, rng)
               for pattern in EFFICIENCY_PATTERNS[15][:5]]
    session = SearchSession(index)
    settings = [(budget if budget is not None else "none",
                 {"max_size": budget}) for budget in BUDGETS]
    settings.append((f"top_k={TOP_K}", {"top_k": TOP_K}))

    def compute():
        rows = []
        for label, options in settings:
            seconds = 0.0
            returned = 0
            for query in queries:
                runs = [timed(lambda: session.search(
                    query, list_limit=LIST_LIMIT, **options))
                    for _ in range(REPEATS)]
                seconds += min(elapsed for _, elapsed in runs)
                returned += len(runs[0][0])
            rows.append([label, f"{seconds / len(queries) * 1000:.1f}",
                         returned // len(queries)])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    report("Ablation: size-budget pruning (15-keyword queries, DBLP, "
           f"{LIST_LIMIT} instances/keyword)",
           format_table(["size budget", "avg time (ms)", "avg results"],
                        rows))

    # Losslessness within the budget.
    for query in queries[:2]:
        full = session.search(query, list_limit=LIST_LIMIT)
        for budget in (4, 8):
            bounded = session.search(query, list_limit=LIST_LIMIT,
                                     max_size=budget)
            assert [(r.code, r.size) for r in bounded] == \
                [(r.code, r.size) for r in full if r.size <= budget]
        assert session.search(query, list_limit=LIST_LIMIT,
                              top_k=TOP_K) == full[:TOP_K]

    # Pruning with the tightest budget, and the top-k scan's running
    # budget, are not slower than no budget.
    tight = float(rows[0][1])
    unbounded = float(rows[BUDGETS.index(None)][1])
    top_k = float(rows[-1][1])
    assert tight <= unbounded * 1.1
    assert top_k <= unbounded * 1.1
