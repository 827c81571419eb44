"""The reference CohesiveLCA engine: per-node objects, tuple tables.

The first implementation of the paper's §3 algorithm, kept under
``tests/`` as the differential reference for :mod:`repro.core.kernel`:
the same path-stack data flow, but every entry is an ``_Entry`` object
whose tables are keyed by ``(term_id, member_mask, usage, pure)``
tuples and valued by ``(size, breakdown-tuple)`` pairs.  Nothing in
``src/`` imports it; the parity tests compare answers ``(code, size)``
with the kernel, including the Def. 2(b)(ii) ablation, and the Fig. 5/6
benchmarks time the kernel against it.

Both implementations keep the first write of a slot's minimum size,
so equal-size embeddings tie-break by table iteration order, which
differs between them: per-term breakdowns of tied results may differ,
``(code, size)`` never does.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.engine import merge_posting_streams
from repro.core.lattice import record_lattice_metrics
from repro.core.kernel import ENGINE_COUNTERS
from repro.core.results import Result
from repro.core.signatures import (NO_USAGE, CompiledQuery, Usage,
                                   merge_breakdowns, merge_usage,
                                   usage_fits)
from repro.index.inverted import Posting
from repro.obs import get_metrics
from repro.obs.metrics import MetricsRegistry
from repro.tree import dewey

# Table keys: (term_id, member_mask, usage, pure_self)
_Key = tuple[int, int, Usage, bool]
# Table values: (size, per-term breakdown)
_Value = tuple[int, tuple[Optional[int], ...]]

_ROOT_TERM = 0

class _Entry:
    """One path-stack entry: the partial-LCA tables of one tree node."""

    __slots__ = ("code", "acc", "fresh")

    def __init__(self, code: dewey.Code):
        self.code = code
        # Combinable partial LCAs rooted at this node.
        self.acc: dict[_Key, _Value] = {}
        # Term units completed *at* this node from multiple nodes:
        # embargoed here (Def. 2(b)(ii)), released on propagation.
        # Keyed by the unit's parent-member signature (term, bit).
        self.fresh: dict[tuple[int, int], _Value] = {}


class _Evaluation:
    """One run of CohesiveLCA over one stream of postings.

    Parameters
    ----------
    size_budget:
        Optional upper bound on LCA sizes.  Partial LCAs whose size
        already exceeds the budget are pruned immediately — sizes only
        grow during propagation and combination, so pruning is lossless
        for the results within the budget.  This powers the top-k-size
        search (cf. Dimitriou, Theodoratos & Sellis, Inf. Syst. 2015).
    impenetrability:
        When ``False``, Def. 2(b)(ii) is *not* enforced: a term unit
        completed at a node may combine there immediately, so terms only
        need to be complete, not impenetrable.  This is the ablation knob
        studied in ``benchmarks/bench_ablation_impenetrability.py``; the
        default (``True``) is the paper's semantics.
    """

    def __init__(self, compiled: CompiledQuery,
                 size_budget: Optional[int] = None,
                 impenetrability: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.compiled = compiled
        self.size_budget = size_budget
        self.impenetrability = impenetrability
        self.results: dict[dewey.Code, _Value] = {}
        self._stack: list[_Entry] = [_Entry(dewey.ROOT)]
        # Run statistics accumulate in plain integers (near-free on the
        # hot path) and flush to the registry once, when the stream ends.
        self._metrics = metrics if metrics is not None and \
            metrics.enabled else None
        self.stat_postings = 0
        self.stat_pushes = 0
        self.stat_pops = 0
        self.stat_merged = 0
        self.stat_allocations = 0
        self.stat_results = 0

    # -- driving -------------------------------------------------------------

    def run(self, stream: Iterable[tuple[dewey.Code, dict[str, int]]]
            ) -> list[Result]:
        metrics = self._metrics
        if metrics is None:
            ranked = list(self.stream(stream))
            ranked.sort(key=Result.sort_key)
            return ranked
        with metrics.span("stream-scan"):
            ranked = list(self.stream(stream))
        with metrics.span("rank"):
            ranked.sort(key=Result.sort_key)
        return ranked

    def stream(self, stream: Iterable[tuple[dewey.Code, dict[str, int]]]
               ) -> Iterator[Result]:
        """Yield results as their nodes finalize (post-order).

        A node's minimum LCA size can improve only while the node is on
        the path stack, so the moment its entry pops the result is
        final — long-running consumers see results without waiting for
        the whole input.  Yield order is tree post-order, not Def. 3
        order; sort by :meth:`Result.sort_key` for the ranked answer.
        """
        for code, frequencies in stream:
            self.stat_postings += len(frequencies)
            yield from self._align(code)
            self._add_instances(self._stack[-1], frequencies)
        yield from self._drain()
        root_value = self.results.get(dewey.ROOT)
        if root_value is not None:
            self.stat_results += 1
            yield Result(dewey.ROOT, root_value[0], root_value[1])
        self._flush()

    # -- push-style driving (shared-scan batch execution) ---------------------

    def feed(self, code: dewey.Code, frequencies: dict[str, int]) -> None:
        """Push one ``(node, keyword frequencies)`` event into the run.

        The push-style dual of :meth:`stream`: an external driver (the
        :mod:`repro.runtime` shared-scan batch executor) owns the merged
        Dewey-order scan and feeds each query's evaluation from it.
        Events must arrive in Dewey order, one per instance node.
        """
        self.stat_postings += len(frequencies)
        # The body of _align, minus the generator protocol and the
        # Result objects it would build per pop: push mode reads every
        # result off self.results in finish(), so materializing them
        # here is pure overhead on the shared scan's hottest loop.
        stack = self._stack
        while not dewey.is_ancestor_or_self(stack[-1].code, code):
            child = stack.pop()
            self.stat_pops += 1
            self._merge_child(stack[-1], child)
        while stack[-1].code != code:
            next_code = code[: len(stack[-1].code) + 1]
            stack.append(_Entry(next_code))
            self.stat_pushes += 1
        self._add_instances(stack[-1], frequencies)

    def finish(self) -> list[Result]:
        """End a push-style run: drain the stack, return ranked results.

        Equivalent to the tail of :meth:`run` — the result set is read
        off :attr:`results`, which the pops populate, so push- and
        pull-style runs return identical answers.
        """
        stack = self._stack
        while len(stack) > 1:
            child = stack.pop()
            self.stat_pops += 1
            self._merge_child(stack[-1], child)
        ranked = [Result(code, value[0], value[1])
                  for code, value in self.results.items()]
        ranked.sort(key=Result.sort_key)
        # One count per answer, matching pull mode's per-pop counting.
        self.stat_results += len(ranked)
        self._flush()
        return ranked

    def _align(self, code: dewey.Code) -> Iterator[Result]:
        """Pop to the common ancestor of the previous path, push to
        ``code``; yield the finalized result of every popped node."""
        stack = self._stack
        while not dewey.is_ancestor_or_self(stack[-1].code, code):
            child = stack.pop()
            self.stat_pops += 1
            self._merge_child(stack[-1], child)
            value = self.results.get(child.code)
            if value is not None:
                self.stat_results += 1
                yield Result(child.code, value[0], value[1])
        while stack[-1].code != code:
            next_code = code[: len(stack[-1].code) + 1]
            stack.append(_Entry(next_code))
            self.stat_pushes += 1

    def _drain(self) -> Iterator[Result]:
        """Empty the stacks after the last instance (paper line 10)."""
        stack = self._stack
        while len(stack) > 1:
            child = stack.pop()
            self.stat_pops += 1
            self._merge_child(stack[-1], child)
            value = self.results.get(child.code)
            if value is not None:
                self.stat_results += 1
                yield Result(child.code, value[0], value[1])

    def _flush(self) -> None:
        """Publish the run statistics to the active metrics registry."""
        metrics = self._metrics
        if metrics is None:
            return
        metrics.inc("postings_consumed", self.stat_postings)
        metrics.inc("stack_pushes", self.stat_pushes)
        metrics.inc("stack_pops", self.stat_pops)
        metrics.inc("entries_merged", self.stat_merged)
        metrics.inc("partial_lca_allocations", self.stat_allocations)
        metrics.inc("results_emitted", self.stat_results)

    # -- self instances -------------------------------------------------------

    def _add_instances(self, entry: _Entry,
                       frequencies: dict[str, int]) -> None:
        """Push the keyword instances of ``entry``'s node into its tables.

        Every occurrence slot a contained keyword can fill becomes an
        atomic partial LCA of size 0, and the *pure closure* combines
        single-node partial LCAs exhaustively (all instances sit on one
        node, so Def. 2(b)(i) imposes no restriction beyond the keyword
        budget of Def. 2(a)).
        """
        compiled = self.compiled
        empty = compiled.empty_breakdown()
        queue: deque[_Key] = deque()
        for keyword in frequencies:
            usage: Usage = ((keyword, 1),) \
                if keyword in compiled.repeated_keywords else NO_USAGE
            for term_id, bit in compiled.atoms[keyword]:
                self._insert(entry, term_id, bit, usage, True, 0, empty,
                             queue)
        budget = frequencies
        while queue:
            term_id, mask, usage, _pure = key = queue.popleft()
            value = entry.acc.get(key)
            if value is None:
                continue
            size, breakdown = value
            partners = [
                (k, v) for k, v in entry.acc.items()
                if k[3] and k[0] == term_id and not (k[1] & mask)
            ]
            for (t2, mask2, usage2, _p2), (size2, bd2) in partners:
                merged = merge_usage(usage, usage2)
                if merged and not usage_fits(merged, budget):
                    continue
                self._insert(entry, term_id, mask | mask2, merged, True,
                             size + size2, merge_breakdowns(breakdown, bd2),
                             queue)

    # -- child propagation ------------------------------------------------------

    def _merge_child(self, parent: _Entry, child: _Entry) -> None:
        """Pop ``child`` and merge its partial LCAs into ``parent``.

        Lifting adds the parent→child edge (size + 1), resets the child's
        keyword usage (budget is per node) and clears the pure flag and
        any embargo (the unit's LCA is now a proper descendant).  Each
        lifted partial LCA enters the parent table alone and in
        combination with every partial LCA already accumulated at the
        parent — never with another partial LCA lifted from the same
        child, which is how provenance disjointness (and with it both
        LCA correctness and Def. 2(b)(ii)) is maintained.
        """
        root_full = self.compiled.root.full_mask
        lifted: dict[tuple[int, int], _Value] = {}
        for (term_id, mask, _usage, _pure), (size, bd) in child.acc.items():
            if term_id == _ROOT_TERM and mask == root_full:
                continue  # complete results never recombine
            current = lifted.get((term_id, mask))
            if current is None or size + 1 < current[0]:
                lifted[(term_id, mask)] = (size + 1, bd)
        for sig, (size, bd) in child.fresh.items():
            current = lifted.get(sig)
            if current is None or size + 1 < current[0]:
                lifted[sig] = (size + 1, bd)
        if not lifted:
            return
        self.stat_merged += len(lifted)
        snapshot = list(parent.acc.items())
        fresh_before = dict(parent.fresh) if not self.impenetrability \
            else None
        for (term_id, mask), (size, breakdown) in lifted.items():
            self._insert(parent, term_id, mask, NO_USAGE, False, size,
                         breakdown, None)
            for (t2, mask2, usage2, _pure2), (size2, bd2) in snapshot:
                if t2 != term_id or (mask & mask2):
                    continue
                self._insert(parent, term_id, mask | mask2, usage2, False,
                             size + size2,
                             merge_breakdowns(breakdown, bd2), None)
        if not self.impenetrability:
            self._release_fresh(parent, snapshot, fresh_before)

    def _release_fresh(self, parent: _Entry, snapshot,
                       already_released: dict) -> None:
        """Ablation mode (``impenetrability=False``): term units that
        completed during this merge combine at this node immediately,
        instead of waiting for propagation (Def. 2(b)(ii) disabled).
        Released units may complete further terms; iterate to a fixpoint.
        """
        while True:
            pending = [
                (sig, value) for sig, value in parent.fresh.items()
                if already_released.get(sig, (None,))[0] != value[0]
            ]
            if not pending:
                return
            for sig, value in pending:
                already_released[sig] = value
            for (term_id, mask), (size, breakdown) in pending:
                self._insert(parent, term_id, mask, NO_USAGE, False, size,
                             breakdown, None)
                for (t2, mask2, usage2, _pure2), (size2, bd2) in snapshot:
                    if t2 != term_id or (mask & mask2):
                        continue
                    self._insert(parent, term_id, mask | mask2, usage2,
                                 False, size + size2,
                                 merge_breakdowns(breakdown, bd2), None)

    # -- table insertion ----------------------------------------------------------

    def _insert(self, entry: _Entry, term_id: int, mask: int, usage: Usage,
                pure: bool, size: int,
                breakdown: tuple[Optional[int], ...],
                queue: Optional[deque]) -> None:
        """Insert a partial LCA, handling term completion.

        A completed term records its partial-LCA size in the breakdown and
        either (root term) records a query result, or (nested term,
        single-node) cascades as a member unit of the parent term, or
        (nested term, multi-node) is embargoed in the ``fresh`` table.
        """
        if self.size_budget is not None and size > self.size_budget:
            return
        compiled = self.compiled
        term = compiled.terms[term_id]
        if mask == term.full_mask:
            done = list(breakdown)
            if done[term_id] is None or size < done[term_id]:
                done[term_id] = size
            breakdown = tuple(done)
            if term_id == _ROOT_TERM:
                current = self.results.get(entry.code)
                if current is None or size < current[0]:
                    self.results[entry.code] = (size, breakdown)
                return
            parent_sig = (term.parent_id, 1 << term.member_index)
            if pure:
                self._insert(entry, parent_sig[0], parent_sig[1], usage,
                             True, size, breakdown, queue)
            else:
                current = entry.fresh.get(parent_sig)
                if current is None or size < current[0]:
                    entry.fresh[parent_sig] = (size, breakdown)
                    self.stat_allocations += 1
            return
        key = (term_id, mask, usage, pure)
        current = entry.acc.get(key)
        if current is None or size < current[0]:
            entry.acc[key] = (size, breakdown)
            self.stat_allocations += 1
            if queue is not None and pure:
                queue.append(key)


def evaluate_compiled(compiled: CompiledQuery,
                      posting_lists: Mapping[str, Sequence[Posting]],
                      size_budget: Optional[int] = None,
                      impenetrability: bool = True) -> list[Result]:
    """Run CohesiveLCA on an already-compiled query.

    The amortizable core of :func:`evaluate_on_lists`: parsing and
    lattice compilation have already happened, so a cached
    :class:`CompiledQuery` (see :mod:`repro.runtime`) goes straight to
    the single Dewey-order scan.
    """
    metrics = get_metrics()
    if metrics.enabled:
        metrics.declare(*ENGINE_COUNTERS)
        record_lattice_metrics(compiled.query, metrics)
    lists: dict[str, Sequence[Posting]] = {}
    for keyword in compiled.atoms:
        plist = posting_lists.get(keyword, ())
        if not plist:
            return []
        lists[keyword] = plist
    evaluation = _Evaluation(compiled, size_budget=size_budget,
                             impenetrability=impenetrability,
                             metrics=metrics if metrics.enabled else None)
    return evaluation.run(merge_posting_streams(lists))


def push_evaluation(compiled: CompiledQuery,
                    size_budget: Optional[int] = None,
                    impenetrability: bool = True) -> _Evaluation:
    """A push-style evaluation an external scan driver can feed.

    Returns an evaluation object exposing ``feed(code, frequencies)``
    and ``finish() -> list[Result]``; the caller owns the merged
    Dewey-order scan (the shared-scan batch executor feeds many of
    these from one stream).  Lattice metrics are recorded here so a
    batch run accounts one lattice per query, like sequential runs.
    """
    metrics = get_metrics()
    if metrics.enabled:
        metrics.declare(*ENGINE_COUNTERS)
        record_lattice_metrics(compiled.query, metrics)
    return _Evaluation(compiled, size_budget=size_budget,
                       impenetrability=impenetrability,
                       metrics=metrics if metrics.enabled else None)
