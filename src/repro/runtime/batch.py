"""Shared-scan batch execution: one Dewey scan, many queries.

The paper's cost model (§3) says CohesiveLCA is one pass over the
query's inverted lists; for a *workload*, N independent passes repeat
most of that work whenever queries share keywords (the bench_table2
workloads share most of theirs).  This module merges the posting lists
of every distinct plan in the batch into **one** Dewey-order heap scan
and feeds each query's evaluation push-style from the shared stream:

* the kernel via :func:`repro.core.kernel.push_evaluation_flat`
  (``feed``/``finish``);
* the literal machine via :meth:`LatticeMachine.feed_node` /
  :meth:`~LatticeMachine.finalize`.

Each consumer only receives events for its own keywords, grouped per
instance node exactly as its private scan would group them, so the
answers are byte-identical to sequential evaluation (property-tested
in ``tests/runtime/test_batch.py``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

from repro.core.engine import merge_posting_streams
from repro.core.kernel import push_evaluation_flat
from repro.core.results import Result
from repro.obs.metrics import AnyMetrics
from repro.runtime.options import SearchOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.session import CompiledPlan, SearchSession


class _Consumer:
    """One query's push-style evaluation inside the shared scan."""

    __slots__ = ("key", "keywords", "_feed", "_finish")

    def __init__(self, key: str, keywords: frozenset[str], feed, finish):
        self.key = key
        self.keywords = keywords
        self._feed = feed
        self._finish = finish

    def feed(self, code, frequencies) -> None:
        self._feed(code, frequencies)

    def finish(self) -> list[Result]:
        return self._finish()


def _make_consumer(plan: "CompiledPlan", options: SearchOptions,
                   normalize) -> _Consumer:
    if options.algorithm == "machine":
        from repro.core.lattice_machine import LatticeMachine
        machine = LatticeMachine(plan.query, normalize)
        return _Consumer(plan.key, machine.keywords, machine.feed_node,
                         machine.finalize)
    evaluation = push_evaluation_flat(
        plan.compiled, size_budget=options.max_size,
        impenetrability=options.impenetrability)
    return _Consumer(plan.key, frozenset(plan.compiled.atoms),
                     evaluation.feed, evaluation.finish)


def shared_scan(session: "SearchSession", plans: list["CompiledPlan"],
                options: SearchOptions,
                metrics: Optional[AnyMetrics] = None,
                state=None) -> dict[str, list[Result]]:
    """Evaluate distinct ``plans`` against one merged Dewey scan.

    Returns ``plan.key → ranked results`` (Def. 3 size order; rank
    post-processing is the caller's).  Plans with an empty posting
    list short-circuit to ``[]`` without joining the scan, exactly as
    sequential evaluation short-circuits.  ``state`` pins the caller's
    session-state snapshot so a concurrent ``swap_index`` cannot tear
    the scan (defaults to the session's current state).
    """
    if state is None:
        state = session._state
    answers: dict[str, list[Result]] = {}
    consumers: list[_Consumer] = []
    union_lists: dict[str, tuple] = {}
    by_keyword: dict[str, list[_Consumer]] = {}
    normalize = state.index.tokenizer.normalize
    for plan in plans:
        lists = session._plan_lists(plan, options, metrics, state)
        if lists is None:
            answers[plan.key] = []
            continue
        consumer = _make_consumer(plan, options, normalize)
        consumers.append(consumer)
        for keyword, plist in lists.items():
            union_lists.setdefault(keyword, plist)
            by_keyword.setdefault(keyword, []).append(consumer)
    if not consumers:
        return answers
    scan_nodes = 0
    span = metrics.span("batch-scan") if metrics is not None \
        else nullcontext()
    with span:
        for code, frequencies in merge_posting_streams(union_lists):
            scan_nodes += 1
            if len(frequencies) == 1:
                # The common case: the node holds one keyword, so every
                # subscribed consumer's slice IS the event.  Consumers
                # only read (the machine retains but never mutates), so
                # one dict serves them all.
                for keyword in frequencies:
                    for consumer in by_keyword.get(keyword, ()):
                        consumer.feed(code, frequencies)
                continue
            # Split the union event into per-consumer keyword slices;
            # a consumer seeing none of these keywords never hears of
            # the node, just like its private scan.
            slices: dict[_Consumer, dict[str, int]] = {}
            for keyword, frequency in frequencies.items():
                for consumer in by_keyword.get(keyword, ()):
                    slices.setdefault(consumer, {})[keyword] = frequency
            for consumer, sliced in slices.items():
                consumer.feed(code, sliced)
    for consumer in consumers:
        answers[consumer.key] = consumer.finish()
    if metrics is not None and metrics.enabled:
        metrics.inc("batch_scan_nodes", scan_nodes)
    return answers
