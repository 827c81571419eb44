"""The CohesiveLCA evaluation kernel (paper §3).

The paper pushes the query keywords' inverted-list entries, in Dewey
order, through a lattice of stacks — one stack per admissible partition
of the query keywords.  This kernel keeps the same data flow organized
around the *path stack*: one entry per node on the current root-to-node
path, each holding a table ``signature → minimum partial-LCA size``
where a signature is an admissible subset ``(term, member-mask)`` (see
:mod:`repro.core.signatures` and DESIGN.md §5).  Popping a child entry
merges its table into the parent entry, combining the lifted partial
LCAs pairwise with those already accumulated at the parent — exactly
the combinations the lattice of stacks performs, provenance-disjoint
by construction because a child is merged exactly once.

Cohesive semantics are enforced structurally: only member-masks of a
common term combine (the reduced lattice); a term unit completed at a
node from instances spanning several nodes is embargoed in the entry's
``fresh`` table (Def. 2(b)(ii)) and released when it propagates; a
unit whose occurrences all sit on one node combines at once (Def.
2(b)(i)); repeated keywords consume per-node budget (Def. 2(a)).
Complexity matches the paper's analysis: one pass over the inverted
lists; per instance, O(depth) stack work; per merge, a number of
combinations bounded by the number of admissible signatures —
exponential only in the maximum term cardinality.

The tables live on small ints and interned ids:

* **Small-int keys.**  A key of a per-term table is one int,
  ``mask | pure << mbits | usage_id << (mbits + 1)``, where ``mbits``
  is the query's maximum term cardinality.  An entry a merge inserts
  (usage id 0, not pure) is keyed by its member mask alone, so the
  join's bit tests and unions run on one-digit ints (below ``2**30``),
  which CPython handles faster than the multi-digit ints a fixed-width
  packing needs.
* **Tuple values.**  A table value is ``(size, breakdown_id)``, in the
  per-term tables, the ``fresh`` tables, lifted entries, templates
  and results alike.  Comparisons read ``value[0]`` only: the first
  write of the minimum size wins a slot, whatever its breakdown.
* **Interned breakdowns.**  Per-term size vectors are interned to small
  ids; ``merge_breakdowns`` and term completion become memo lookups
  keyed by packed id pairs, and merges on the child-propagation path
  are deferred until an insert actually wins its table slot.
* **Interned usage.**  Per-node keyword-usage vectors (repeated
  keywords only, Def. 2(a)) intern canonical sorted tuples.
* **Pooled path stack.**  One list of per-term tables and one fresh
  table per depth, cleared on push instead of reallocated; node codes
  materialize lazily, only when a result is recorded at the node.
* **Subtree templates.**  A search scan evaluates each distinct closed
  subtree shape once and replays its net effect for every repeat
  (DAG-compressed evaluation on the instance stream).

One answer per input is the contract: every entry point — the ranked
scan with template replay (:func:`evaluate_compiled_flat`), the
push-style surface the shared-scan batch executor drives
(:func:`push_evaluation_flat`), the post-order stream and the
single-pass top-k scan with its running k-th-size bound — returns the
same rows, breakdowns included.
Tie-breaking depends only on the order of table writes, so every
table iterates in an order fixed by the input: each depth's per-term
tables are allocated for every term id in ascending order, never in
first-touch order, which would carry one node's history to the next
node pooled at that depth.  ``tests/test_entry_point_parity.py``
checks the entry points against each other, and against the reference
engine and the brute-force oracle under ``tests/``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heapreplace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.lattice import record_lattice_metrics
from repro.core.results import Result
from repro.core.signatures import NO_USAGE, CompiledQuery, merge_usage
from repro.index.inverted import Posting
from repro.obs import get_logger, get_metrics

_log = get_logger("core.kernel")

_NO_LIMIT = 1 << 62                     # sentinel for "no size budget"

#: Counter catalogue of one evaluation (see docs/OBSERVABILITY.md).
#: Declared up front so reports show explicit zeros even when a run
#: short-circuits (e.g. a query keyword with an empty inverted list).
ENGINE_COUNTERS = (
    "postings_consumed",
    "stack_pushes",
    "stack_pops",
    "entries_merged",
    "partial_lca_allocations",
    "results_emitted",
    "lattice_nodes_built",
    "lattice_nodes_pruned",
)


class _FlatEvaluation:
    """One run of CohesiveLCA over small-int-keyed tables.

    Three ways to drive it, one answer: :meth:`run_lists` scans whole
    posting lists with subtree-template replay, :meth:`feed` /
    :meth:`finish` take events from an external Dewey-order scan, and
    :meth:`stream` yields each result as its node pops.

    Parameters
    ----------
    size_budget:
        Optional upper bound on LCA sizes.  Partial LCAs above it are
        pruned at once — sizes only grow during propagation and
        combination, so pruning is lossless for the results within the
        budget.
    top_k:
        Return only the first ``top_k`` results of the Def. 3 ranking,
        in one scan.  The evaluation keeps the ``top_k`` smallest
        *final* result sizes; once it holds that many, the k-th of
        them becomes the size budget (or ``size_budget``, if smaller).
        No result above it can reach the first ``top_k``, and pruning
        strictly above it keeps ties (the top-k-size search of
        Dimitriou, Theodoratos & Sellis, Inf. Syst. 2015).
    impenetrability:
        ``False`` disables Def. 2(b)(ii): a term unit completed at a
        node combines there at once, so terms need only be complete,
        not impenetrable.  An ablation knob
        (``benchmarks/bench_ablation_impenetrability.py``); the default
        is the paper's semantics.
    """

    def __init__(self, compiled: CompiledQuery,
                 size_budget: Optional[int] = None,
                 impenetrability: bool = True,
                 metrics=None, top_k: Optional[int] = None):
        self.compiled = compiled
        terms = compiled.terms
        mbits = max(term.cardinality for term in terms)
        self._mbits = mbits
        self._mmask = (1 << mbits) - 1
        self._full_masks = [term.full_mask for term in terms]
        self._root_full = terms[0].full_mask
        self._term_count = len(terms)
        # Per-term parent slot; index 0 (the root term) never cascades.
        self._parent_ids = [0] + [term.parent_id for term in terms[1:]]
        self._parent_bits = [0] + [1 << term.member_index
                                   for term in terms[1:]]
        self._parent_sigs = [0] + [
            (term.parent_id << mbits) | (1 << term.member_index)
            for term in terms[1:]]
        self._budget_limit = size_budget if size_budget is not None \
            else _NO_LIMIT
        if top_k == 0:
            self._budget_limit = -1  # prunes every partial LCA
        # Top-k: a max-heap (negated) of the k smallest final sizes.  A
        # result is final when its node pops, except inside
        # _build_unit, whose unit-internal results are final when _scan
        # stores them; the root result stays open until the end.  So
        # pops outside a unit go through _merge_final in a top-k scan.
        self._top_k = top_k
        self._kth: list[int] = []
        self._atoms = {keyword: tuple(slots)
                       for keyword, slots in compiled.atoms.items()}
        # Usage interning: id 0 is NO_USAGE; ids are bijective with
        # canonical sorted usage tuples (see merge_usage).
        self._u_tuples = [NO_USAGE]
        self._u_ids = {NO_USAGE: 0}
        self._u_merge: dict[int, int] = {}
        self._kw_uid = {
            keyword: (self._u_intern(((keyword, 1),))
                      if keyword in compiled.repeated_keywords else 0)
            for keyword in compiled.atoms}
        # Breakdown interning: id 0 is the empty per-term size vector.
        empty = compiled.empty_breakdown()
        self._bd_tuples = [empty]
        self._bd_ids = {empty: 0}
        self._bd_merge: dict[int, int] = {}
        self._bd_complete: dict[int, int] = {}
        self._cshift = compiled.term_count.bit_length()
        # Key layout: mask | pure << mbits | usage_id << (mbits + 1).
        self._pure = 1 << mbits
        self._ushift = mbits + 1
        # Path stack, root at depth 0.  Each acc is a list of per-term
        # tables indexed by term id (combination only ever pairs
        # entries of one term, so keys drop their term bits).
        # Every term's table exists from allocation on, so tables lift
        # in ascending term order whatever nodes used the depth before:
        # the order fresh units are embargoed in, and with it which of
        # two equal-size embeddings wins a later slot, is a function
        # of the node's subtree alone.
        self._path: list[int] = []
        self._depth = 0
        self._accs: list[list[dict[int, tuple]]] = [self._new_acc()]
        self._freshes: list[dict[int, tuple]] = [{}]
        self._codes: list = [()]
        # Subtree-unit templates, keyed by the unit's relative shape
        # (codes below the unit ancestor plus frequency signatures).
        self._unit_cache: dict = {}
        self._results: dict[tuple, tuple[int, int]] = {}
        # Lifted entries merge through the ablation's release fixpoint
        # only when Def. 2(b)(ii) is off.
        self._ablation = not impenetrability
        self._metrics = metrics if metrics is not None and \
            metrics.enabled else None
        self.stat_postings = 0
        self.stat_pushes = 0
        self.stat_pops = 0
        self.stat_merged = 0
        self.stat_allocations = 0
        self.stat_results = 0

    # -- interning -----------------------------------------------------------

    def _u_intern(self, usage) -> int:
        ids = self._u_ids
        uid = ids.get(usage)
        if uid is None:
            uid = len(self._u_tuples)
            self._u_tuples.append(usage)
            ids[usage] = uid
        return uid

    def _merge_uid(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        memo = self._u_merge
        key = (a << 32) | b
        uid = memo.get(key)
        if uid is None:
            tuples = self._u_tuples
            uid = self._u_intern(merge_usage(tuples[a], tuples[b]))
            memo[key] = uid
        return uid

    def _uid_fits(self, uid: int, budget: dict) -> bool:
        for keyword, n in self._u_tuples[uid]:
            if n > budget.get(keyword, 0):
                return False
        return True

    def _bd_intern(self, vector: tuple) -> int:
        ids = self._bd_ids
        bd = ids.get(vector)
        if bd is None:
            bd = len(self._bd_tuples)
            self._bd_tuples.append(vector)
            ids[vector] = bd
        return bd

    def _merge_bd(self, a: int, b: int) -> int:
        # merge_breakdowns(empty, b) == b and vice versa.
        if not a:
            return b
        if not b:
            return a
        memo = self._bd_merge
        key = (a << 32) | b
        bd = memo.get(key)
        if bd is None:
            tuples = self._bd_tuples
            ta, tb = tuples[a], tuples[b]
            bd = self._bd_intern(tuple(
                x if x is not None else y for x, y in zip(ta, tb)))
            memo[key] = bd
        return bd

    def _complete_bd(self, bd: int, term: int, size: int) -> int:
        """Term completion: record ``size`` for ``term`` in the
        breakdown if unset or better."""
        memo = self._bd_complete
        key = ((bd << 32 | size) << self._cshift) | term
        done = memo.get(key)
        if done is None:
            vector = self._bd_tuples[bd]
            current = vector[term]
            if current is None or size < current:
                patched = list(vector)
                patched[term] = size
                done = self._bd_intern(tuple(patched))
            else:
                done = bd
            memo[key] = done
        return done

    # -- path stack ----------------------------------------------------------

    def _new_acc(self) -> list[dict[int, tuple]]:
        return [{} for _ in range(self._term_count)]

    def _code_at(self, depth: int) -> tuple:
        codes = self._codes
        code = codes[depth]
        if code is None:
            code = tuple(self._path[:depth])
            codes[depth] = code
        return code

    def _push(self, depth: int, step: int) -> None:
        path = self._path
        if len(path) < depth:
            path.append(step)
        else:
            path[depth - 1] = step
        accs = self._accs
        if len(accs) <= depth:
            accs.append(self._new_acc())
            self._freshes.append({})
            self._codes.append(None)
        else:
            for sub in accs[depth]:
                if sub:
                    sub.clear()
            fresh = self._freshes[depth]
            if fresh:
                fresh.clear()
            self._codes[depth] = None

    # -- driving -------------------------------------------------------------

    def _lcp(self, code) -> int:
        """Length of the common prefix of ``code`` and the live path."""
        path = self._path
        depth = self._depth
        lcp = 0
        limit = depth if depth < len(code) else len(code)
        while lcp < limit and path[lcp] == code[lcp]:
            lcp += 1
        return lcp

    def feed(self, code, frequencies: dict) -> None:
        """Push one ``(node, keyword frequencies)`` event, Dewey order."""
        self.stat_postings += len(frequencies)
        depth = self._depth
        clen = len(code)
        lcp = self._lcp(code)
        if depth > lcp:
            self.stat_pops += depth - lcp
            merge = self._merge_child if self._top_k is None \
                else self._merge_final
            while depth > lcp:
                merge(depth)
                depth -= 1
        while depth < clen:
            depth += 1
            self._push(depth, code[depth - 1])
            self.stat_pushes += 1
        self._depth = depth
        self._event(depth, frequencies)

    def finish(self) -> list[Result]:
        """End a push-style run: drain the stack, return ranked results."""
        self._drain_stack()
        ranked = self._ranked()
        self.stat_results += len(ranked)
        self._flush()
        return ranked

    def stream(self, events: Iterable[tuple[tuple, dict]]
               ) -> Iterator[Result]:
        """Feed Dewey-ordered events, yielding results post-order.

        A node's minimum LCA size can improve only while the node is
        on the path stack, so its result is final the moment its entry
        pops: consumers see results without waiting for the whole
        input.  Yield order is tree post-order, not Def. 3 order; sort
        by :meth:`Result.sort_key` for the ranked answer.
        """
        for code, frequencies in events:
            lcp = self._lcp(code)
            while self._depth > lcp:
                result = self._pop()
                if result is not None:
                    yield result
            self.feed(code, frequencies)
        while self._depth > 0:
            result = self._pop()
            if result is not None:
                yield result
        value = self._results.get(())
        if value is not None:
            self.stat_results += 1
            yield Result((), value[0], self._bd_tuples[value[1]])
        self._flush()

    def _pop(self) -> Optional[Result]:
        """Pop the top entry; its node's result, if it has one."""
        depth = self._depth
        self.stat_pops += 1
        self._merge_child(depth)
        self._depth = depth - 1
        # A node's code materializes exactly when a result is recorded.
        code = self._codes[depth]
        if code is None:
            return None
        size, bd = self._results[code]
        self.stat_results += 1
        return Result(code, size, self._bd_tuples[bd])

    def run_lists(self, posting_lists: Mapping[str, Sequence[Posting]]
                  ) -> list[Result]:
        """Scan explicit posting lists (all non-empty) and rank."""
        metrics = self._metrics
        if metrics is None:
            self._scan(posting_lists)
            return self.finish()
        with metrics.span("stream-scan"):
            self._scan(posting_lists)
            self._drain_stack()
        with metrics.span("rank"):
            ranked = self._ranked()
        self.stat_results += len(ranked)
        self._flush()
        return ranked

    def _scan(self, posting_lists: Mapping[str, Sequence[Posting]]) -> None:
        triples = []
        append = triples.append
        for keyword, plist in posting_lists.items():
            for posting in plist:
                append((posting.code, keyword, posting.frequency))
        # One flat sort replaces heapq.merge: (code, keyword) is unique
        # across streams and frequencies are never compared by the merge,
        # so sorted order equals merged order — at Timsort's
        # almost-sorted-run speed instead of per-item heap churn.
        triples.sort()
        n = len(triples)
        # Pre-group triples into events.  The frequency signature fkey
        # is ``(keyword, freq)`` for single-keyword events and a tuple
        # of sorted items otherwise (triples arrive keyword-sorted per
        # code); the two shapes cannot collide.
        events = []
        eappend = events.append
        i = 0
        while i < n:
            entry = triples[i]
            code = entry[0]
            j = i + 1
            while j < n and triples[j][0] == code:
                j += 1
            if j == i + 1:
                eappend((code, (entry[1], entry[2]), None))
            else:
                frequencies: dict[str, int] = {}
                for t in triples[i:j]:
                    keyword = t[1]
                    frequencies[keyword] = \
                        frequencies.get(keyword, 0) + t[2]
                eappend((code, tuple(frequencies.items()), frequencies))
            i = j
        # Walk the events as *subtree units*.  Each event is anchored
        # at the root of the tightest subtree containing it and no
        # other event: one level below max(lcp with the previous
        # event, lcp with the next event).  Each distinct unit shape —
        # the node's code relative to the anchor plus its frequency
        # signature — is evaluated once through the real machinery and
        # its net contribution (entries lifted to the anchor, results,
        # statistics) is replayed for every later occurrence.  This is
        # DAG-compressed evaluation on the instance stream: a repeated
        # shape costs one combination pass into the live anchor table
        # instead of the full push/event/pop cascade over its chain.
        m = len(events)
        cache = self._unit_cache
        feed = self.feed
        if self._top_k is None:
            merge_child, offer = self._merge_child, None
        else:
            merge_child, offer = self._merge_final, self._offer
        merge_into = self._merge_released if self._ablation \
            else self._merge_lifted
        push = self._push
        results = self._results
        a = 0  # lcp(previous event, current event)
        for i in range(m):
            code, fkey, frequencies = events[i]
            clen = len(code)
            if i + 1 < m:
                nxt = events[i + 1][0]
                nlen = len(nxt)
                limit = clen if clen < nlen else nlen
                b = 0
                while b < limit and code[b] == nxt[b]:
                    b += 1
            else:
                b = 0
            d0 = a if a > b else b
            next_a = b
            if d0 >= clen:
                # The node contains the next event (or is the document
                # root): no closed subtree to cache, feed generically.
                if frequencies is None:
                    frequencies = {fkey[0]: fkey[1]}
                feed(code, frequencies)
                a = next_a
                continue
            # Align the live stack onto the unit's anchor: pop what the
            # previous event opened beyond the shared prefix, then open
            # this event's ancestors down to the anchor.
            depth = self._depth
            if depth > a:
                self.stat_pops += depth - a
                while depth > a:
                    merge_child(depth)
                    depth -= 1
            while depth < d0:
                depth += 1
                push(depth, code[depth - 1])
                self.stat_pushes += 1
            self._depth = depth
            d1 = d0 + 1
            key = (code[d1:], fkey)
            template = cache.get(key)
            if template is None:
                template = self._build_unit(d0, code, fkey, frequencies)
                cache[key] = template
                results_rel, lifted = template[5], template[6]
            else:
                (postings, pushes, pops, merged, allocations,
                 results_rel, lifted) = template
                self.stat_postings += postings
                self.stat_pushes += pushes
                self.stat_pops += pops
                self.stat_merged += merged
                self.stat_allocations += allocations
                self._depth = d0
            if results_rel:
                u_prefix = code[:d1]
                for rel, value in results_rel:
                    # Unit-internal codes are unique in the stream, so
                    # a plain store equals a compare-and-set.
                    results[u_prefix + rel] = value
                if offer is not None:
                    # A template built under a looser bound may hold
                    # results above the current one; offering them
                    # leaves the k smallest unchanged.
                    for _, value in results_rel:
                        offer(value[0])
            if lifted:
                merge_into(d0, lifted)
            a = next_a

    def _build_unit(self, d0: int, code, fkey, frequencies) -> tuple:
        """Evaluate one subtree unit through the real machinery and
        capture its net effect as a replayable template.

        Returns ``(postings, pushes, pops, merged, allocations,
        results_rel, lifted)`` — the statistics deltas, the results
        recorded at unit-internal nodes (codes relative to the unit
        root) and the entries the unit root lifts to the anchor at
        ``d0``.  The caller owns storing results and merging ``lifted``
        for every occurrence, including this first one; on return the
        stack is back at the anchor depth.
        """
        saved_results = self._results
        self._results = {}
        p0 = self.stat_postings
        h0 = self.stat_pushes
        o0 = self.stat_pops
        m0 = self.stat_merged
        a0 = self.stat_allocations
        if frequencies is None:
            frequencies = {fkey[0]: fkey[1]}
        self.feed(code, frequencies)
        d1 = d0 + 1
        depth = self._depth
        merge_child = self._merge_child
        while depth > d1:
            self.stat_pops += 1
            merge_child(depth)
            depth -= 1
        # The unit root's own pop: lift its entry, but hand the merge
        # back to the caller (the anchor's table is live state).
        self.stat_pops += 1
        self._depth = d0
        lifted_dict = self._lift_entry(d1)
        lifted = list(lifted_dict.items())
        if lifted:
            self.stat_merged += len(lifted)
        captured = self._results
        self._results = saved_results
        results_rel = [(rcode[d1:], value)
                       for rcode, value in captured.items()]
        return (self.stat_postings - p0, self.stat_pushes - h0,
                self.stat_pops - o0, self.stat_merged - m0,
                self.stat_allocations - a0, results_rel, lifted)

    def _drain_stack(self) -> None:
        depth = self._depth
        merge = self._merge_child if self._top_k is None \
            else self._merge_final
        while depth > 0:
            self.stat_pops += 1
            merge(depth)
            depth -= 1
        self._depth = 0

    def _ranked(self) -> list[Result]:
        bd_tuples = self._bd_tuples
        ranked = [Result(code, size, bd_tuples[bd])
                  for code, (size, bd) in self._results.items()]
        ranked.sort(key=Result.sort_key)
        if self._top_k is not None:
            del ranked[self._top_k:]
        return ranked

    def _flush(self) -> None:
        metrics = self._metrics
        if metrics is None:
            return
        metrics.inc("postings_consumed", self.stat_postings)
        metrics.inc("stack_pushes", self.stat_pushes)
        metrics.inc("stack_pops", self.stat_pops)
        metrics.inc("entries_merged", self.stat_merged)
        metrics.inc("partial_lca_allocations", self.stat_allocations)
        metrics.inc("results_emitted", self.stat_results)
        _log.debug(
            "evaluation done: %d postings, %d pushes, %d merges, "
            "%d allocations, %d results", self.stat_postings,
            self.stat_pushes, self.stat_merged, self.stat_allocations,
            self.stat_results)

    # -- self instances ------------------------------------------------------

    def _event(self, depth: int, frequencies: dict) -> None:
        """Push the keyword instances of the node at ``depth``.

        Every occurrence slot a contained keyword can fill becomes an
        atomic partial LCA of size 0, and the *pure closure* combines
        single-node partial LCAs exhaustively (all instances sit on one
        node, so Def. 2(b)(i) imposes no restriction beyond the keyword
        budget of Def. 2(a)).
        """
        acc = self._accs[depth]
        atoms = self._atoms
        kw_uid = self._kw_uid
        insert_pure = self._insert_pure
        queue: deque[tuple[int, int]] = deque()
        for keyword in frequencies:
            uid = kw_uid[keyword]
            for term, bit in atoms[keyword]:
                insert_pure(depth, term, bit, uid, 0, 0, queue)
        if not queue:
            return
        budget = frequencies
        mmask = self._mmask
        pure = self._pure
        ushift = self._ushift
        budget_limit = self._budget_limit
        merge_uid = self._merge_uid
        merge_bd = self._merge_bd
        popleft = queue.popleft
        while queue:
            term, key = popleft()
            sub = acc[term]
            value = sub.get(key)
            if value is None:
                continue
            size, bd = value
            mask = key & mmask
            uid = key >> ushift
            partners = [(k, v) for k, v in sub.items()
                        if k & pure and not k & mask]
            for key2, (size2, bd2) in partners:
                merged = merge_uid(uid, key2 >> ushift)
                if merged and not self._uid_fits(merged, budget):
                    continue
                combined = size + size2
                if combined > budget_limit:
                    continue
                insert_pure(depth, term, mask | (key2 & mmask), merged,
                            combined, merge_bd(bd, bd2), queue)

    def _insert_pure(self, depth: int, term: int, mask: int, uid: int,
                     size: int, bd: int, queue: deque) -> None:
        """Insert a single-node partial LCA, queueing it for the pure
        closure; a completed term records a result (root term) or
        cascades as a member unit of its parent term."""
        if size > self._budget_limit:
            return
        if mask == self._full_masks[term]:
            bd = self._complete_bd(bd, term, size)
            if term == 0:
                code = self._code_at(depth)
                results = self._results
                current = results.get(code)
                if current is None or size < current[0]:
                    results[code] = (size, bd)
                return
            self._insert_pure(depth, self._parent_ids[term],
                              self._parent_bits[term], uid, size, bd,
                              queue)
            return
        key = mask | self._pure | uid << self._ushift
        sub = self._accs[depth][term]
        current = sub.get(key)
        if current is None or size < current[0]:
            sub[key] = (size, bd)
            self.stat_allocations += 1
            queue.append((term, key))

    # -- child propagation ---------------------------------------------------

    def _merge_child(self, depth: int) -> None:
        """Pop the entry at ``depth``, merging into ``depth - 1``.

        Lifting adds the parent→child edge (size + 1), resets the
        child's keyword usage (budget is per node) and clears the pure
        flag and any embargo (the unit's LCA is now a proper
        descendant).  Each lifted partial LCA enters the parent table
        alone and in combination with every partial LCA already there —
        never with another one lifted from the same child, which is how
        provenance disjointness (and with it Def. 2(b)(ii)) holds.
        """
        lifted = self._lift_entry(depth)
        if not lifted:
            return
        self.stat_merged += len(lifted)
        if self._ablation:
            self._merge_released(depth - 1, lifted.items())
        else:
            self._merge_lifted(depth - 1, lifted.items())

    def _merge_final(self, depth: int) -> None:
        """:meth:`_merge_child` in a top-k scan: the popped node's
        result, if it has one, is final, so its size is offered."""
        self._merge_child(depth)
        code = self._codes[depth]
        if code is not None:
            self._offer(self._results[code][0])

    def _offer(self, size: int) -> None:
        """Count one final result size towards the k smallest; once k
        are in hand, the k-th of them bounds every later partial LCA."""
        kth = self._kth
        if len(kth) < self._top_k:
            heappush(kth, -size)
            if len(kth) < self._top_k:
                return
        elif size < -kth[0]:
            heapreplace(kth, -size)
        else:
            return
        if -kth[0] < self._budget_limit:
            self._budget_limit = -kth[0]

    def _lift_entry(self, depth: int) -> dict[int, tuple]:
        """Lift the entry at ``depth`` for its pop: acc units (minus
        complete root results) and fresh units, one level deeper, kept
        at the minimum size per signature."""
        acc = self._accs[depth]
        fresh = self._freshes[depth]
        root_full = self._root_full
        mbits = self._mbits
        mmask = self._mmask
        lifted: dict[int, tuple] = {}
        for term, sub in enumerate(acc):
            if not sub:
                continue
            tbase = term << mbits
            if term:
                for key, (size, bd) in sub.items():
                    sig = tbase | (key & mmask)
                    current = lifted.get(sig)
                    if current is None or size + 1 < current[0]:
                        lifted[sig] = (size + 1, bd)
            else:
                for key, (size, bd) in sub.items():
                    sig = key & mmask
                    if sig == root_full:
                        continue  # complete results never recombine
                    current = lifted.get(sig)
                    if current is None or size + 1 < current[0]:
                        lifted[sig] = (size + 1, bd)
        if fresh:
            for sig, (size, bd) in fresh.items():
                current = lifted.get(sig)
                if current is None or size + 1 < current[0]:
                    lifted[sig] = (size + 1, bd)
        return lifted

    def _merge_released(self, pdepth: int, lifted_items) -> None:
        """The ablation's merge (``impenetrability=False``): term units
        completed during this merge combine at this node at once,
        instead of waiting for propagation (Def. 2(b)(ii) disabled).
        Released units may complete further terms; iterate to a
        fixpoint.  Like lifted entries, released units combine only
        with the parent's entries from before the pop."""
        snaps = [list(sub.items()) for sub in self._accs[pdepth]]
        fresh = self._freshes[pdepth]
        released = dict(fresh)
        self._merge_lifted(pdepth, lifted_items, snaps)
        while True:
            pending = [(sig, value) for sig, value in fresh.items()
                       if sig not in released
                       or released[sig][0] != value[0]]
            if not pending:
                return
            released.update(pending)
            self._merge_lifted(pdepth, pending, snaps)

    def _merge_lifted(self, pdepth: int, lifted_items, snaps=None) -> None:
        """Insert lifted ``(sig, value)`` pairs into the entry at
        ``pdepth``, alone and in combination with that entry's table
        as it stood before the pop.

        Each term's table is snapshot on first touch — necessarily
        before the first same-term insert — unless ``snaps`` (one per
        term) pins the snapshots, and inserts go straight into the live
        dict: combinations read pre-pop values while insert comparisons
        see every earlier win.
        """
        pacc = self._accs[pdepth]
        pfresh = self._freshes[pdepth]
        mbits = self._mbits
        mmask = self._mmask
        unpure = ~self._pure
        full_masks = self._full_masks
        budget_limit = self._budget_limit
        merge_bd = self._merge_bd
        complete = self._complete_into
        allocations = 0
        # Group by term first: items of different terms touch disjoint
        # tables, so the hot loop can hoist every per-term lookup out
        # of the combination scan.
        by_term: dict[int, list] = {}
        for sig, value in lifted_items:
            items = by_term.get(sig >> mbits)
            if items is None:
                by_term[sig >> mbits] = items = []
            items.append((sig & mmask, value))
        for term, items in by_term.items():
            full = full_masks[term]
            sub = pacc[term]
            # Snapshot before this term's first insert (list() is a
            # C-level copy; decomposing here does not amortize because
            # most pops lift a single item per term).
            if snaps is not None:
                snap = snaps[term]
            else:
                snap = list(sub.items()) if sub else ()
            sub_get = sub.get
            for mask, value in items:
                size, bd = value
                if size <= budget_limit:
                    if mask == full:
                        complete(pdepth, term, size, bd, pfresh)
                    else:
                        # usage id 0, not pure: the key is the mask
                        current = sub_get(mask)
                        if current is None or size < current[0]:
                            sub[mask] = value
                            allocations += 1
                rest = full ^ mask
                for key2, value2 in snap:
                    if key2 & mask:
                        continue
                    combined = size + value2[0]
                    if combined > budget_limit:
                        continue
                    if key2 & mmask == rest:
                        complete(pdepth, term, combined,
                                 merge_bd(bd, value2[1]), pfresh)
                        continue
                    # union of the masks, partner's usage id, not pure
                    key3 = (key2 | mask) & unpure
                    current = sub_get(key3)
                    if current is None or combined < current[0]:
                        sub[key3] = (combined, merge_bd(bd, value2[1]))
                        allocations += 1
        self.stat_allocations += allocations

    def _complete_into(self, depth: int, term: int, size: int, bd: int,
                       fresh: dict) -> None:
        """Non-pure completion: record a result (root term) or embargo
        the unit in the target entry's ``fresh`` table (Def. 2(b)(ii))."""
        bd = self._complete_bd(bd, term, size)
        if term == 0:
            code = self._code_at(depth)
            results = self._results
            current = results.get(code)
            if current is None or size < current[0]:
                results[code] = (size, bd)
            return
        sig = self._parent_sigs[term]
        current = fresh.get(sig)
        if current is None or size < current[0]:
            fresh[sig] = (size, bd)
            self.stat_allocations += 1


def push_evaluation_flat(compiled: CompiledQuery,
                         size_budget: Optional[int] = None,
                         impenetrability: bool = True,
                         top_k: Optional[int] = None) -> _FlatEvaluation:
    """An evaluation an external Dewey-order scan feeds
    (``feed(code, frequencies)`` / ``finish()``) or streams
    (:meth:`_FlatEvaluation.stream`, without ``top_k``).  Lattice
    metrics are recorded here, so a batch run accounts one lattice per
    query, like sequential runs."""
    metrics = get_metrics()
    if not metrics.enabled:
        return _FlatEvaluation(compiled, size_budget, impenetrability,
                               top_k=top_k)
    metrics.declare(*ENGINE_COUNTERS)
    record_lattice_metrics(compiled.query, metrics)
    return _FlatEvaluation(compiled, size_budget, impenetrability, metrics,
                           top_k)


def evaluate_compiled_flat(compiled: CompiledQuery,
                           posting_lists: Mapping[str, Sequence[Posting]],
                           size_budget: Optional[int] = None,
                           impenetrability: bool = True,
                           top_k: Optional[int] = None) -> list[Result]:
    """Run CohesiveLCA on an already-compiled query, ranked (Def. 3).

    Parsing and lattice compilation have already happened, so a cached
    :class:`CompiledQuery` (see :mod:`repro.runtime`) goes straight to
    the single Dewey-order scan.  A keyword with no postings means no
    results: every keyword occurrence must be embedded.  ``top_k``
    returns the first ``top_k`` results from that same single scan.
    """
    evaluation = push_evaluation_flat(compiled, size_budget,
                                      impenetrability, top_k)
    lists: dict[str, Sequence[Posting]] = {}
    for keyword in compiled.atoms:
        plist = posting_lists.get(keyword, ())
        if not plist:
            return []
        lists[keyword] = plist
    return evaluation.run_lists(lists)
