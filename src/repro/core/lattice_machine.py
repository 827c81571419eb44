"""A literal implementation of the paper's Algorithm 1 (CohesiveLCA).

The optimized kernel (:mod:`repro.core.kernel`) indexes partial LCAs by
admissible *block* and merges children sequentially; this module instead
follows the paper's own organization, for fidelity and as an executable
specification of §3:

* one **stack per admissible partition** of the keyword occurrences
  (the reduced lattice of Figs. 2–3), partitions grouped into
  *coarseness levels* by block count;
* one **column per block** of the partition; stack entries correspond to
  nodes of the current root-to-node path (Dewey alignment);
* keyword instances enter the singleton columns; popping an entry
  **combines** its columns pairwise — partial LCAs for merged blocks are
  pushed into the stacks of the coarser partitions containing them — and
  **propagates** the entry's columns to its parent entry with the edge
  cost added (Algorithm 1 lines 17–34);
* an entry popped from the **sink** stack (the one-block partition)
  yields full LCAs: the query results (line 10 empties the stacks at the
  end).

Two bookkeeping refinements make the literal machine *exact* (the
paper's prose tracks a single provenance step and one element per
column, which can under-approximate sizes in corner cases):

* columns hold **all Pareto candidates** ``(provenance set, single-node
  flag, per-node keyword usage) → min size`` instead of one element;
* a term unit completed at a node from several nodes is flagged
  *fresh* and barred from combining at that node (Def. 2(b)(ii)),
  exactly as in the engine.

With those, the machine returns byte-identical answers to the engine
(property-tested), at a much higher constant cost — partitions duplicate
blocks, so the same combination is performed in many stacks.  Use it for
small queries, teaching and testing; use the engine for everything else.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.core.lattice import admissible_partitions, record_lattice_metrics
from repro.core.parser import parse_query
from repro.core.query import Query
from repro.core.results import Result
from repro.core.signatures import (NO_USAGE, Usage, merge_usage,
                                   usage_fits)
from repro.index.inverted import InvertedIndex, Posting
from repro.obs import get_metrics
from repro.tree import dewey

Block = frozenset
Partition = frozenset

# Candidate key: (provenance child steps, pure single-node, fresh, usage)
_CKey = tuple[frozenset, bool, bool, Usage]


class _Entry:
    """One stack entry: per-column candidate tables for one node."""

    __slots__ = ("code", "columns")

    def __init__(self, code: dewey.Code, blocks: Iterable[Block]):
        self.code = code
        self.columns: dict[Block, dict[_CKey, int]] = {
            block: {} for block in blocks
        }


class _Stack:
    """One stack of the lattice: a partition plus its path entries."""

    __slots__ = ("partition", "entries")

    def __init__(self, partition: Partition):
        self.partition = partition
        self.entries: list[_Entry] = [_Entry(dewey.ROOT, partition)]

    @property
    def level(self) -> int:
        """Coarseness level: finer partitions have more blocks."""
        return len(self.partition)


class LatticeMachine:
    """Algorithm 1, stack lattice and all."""

    def __init__(self, query: Union[str, Query], normalize=None):
        if isinstance(query, str):
            query = parse_query(query)
        self.query = query
        normalize = normalize or (lambda keyword: keyword)
        # Occurrence atoms: normalized keyword -> occurrence-id singletons.
        self._atoms: dict[str, list[int]] = {}
        for occurrence in query.occurrences:
            keyword = normalize(occurrence.keyword)
            self._atoms.setdefault(keyword, []).append(
                occurrence.occurrence_id)
        self._repeated = frozenset(
            keyword for keyword, ids in self._atoms.items()
            if len(ids) > 1)
        self._normalize = normalize
        # Complete-term blocks (for the freshness rule), root excluded.
        self._term_blocks: set[Block] = {
            frozenset(occ.occurrence_id for occ in term.occurrences())
            for term in query.terms[1:]
        }
        self._full_block: Block = frozenset(
            range(len(query.occurrences)))
        # Which blocks may merge: unions that are again admissible.
        partitions = admissible_partitions(query)
        self._admissible_blocks: set[Block] = {
            block for partition in partitions for block in partition
        }
        # The lattice: one stack per partition, sorted finest-first so a
        # popping round feeds coarser stacks before they pop.
        self._stacks: list[_Stack] = [
            _Stack(partition)
            for partition in sorted(partitions, key=len, reverse=True)
        ]
        self._by_block: dict[Block, list[_Stack]] = {}
        for stack in self._stacks:
            for block in stack.partition:
                self._by_block.setdefault(block, []).append(stack)
        self._results: dict[dewey.Code, int] = {}
        # Shared path bookkeeping: codes plus per-node keyword budgets.
        self._path: list[dewey.Code] = [dewey.ROOT]
        self._budgets: list[dict[str, int]] = [{}]
        # Observability: the machine materializes the lattice, so its
        # stack count is the exact built-node figure (§3 reduction).
        metrics = get_metrics()
        self._metrics = metrics if metrics.enabled else None
        if self._metrics is not None:
            metrics.declare("postings_consumed", "stack_pushes",
                            "stack_pops", "partial_lca_allocations",
                            "results_emitted")
            record_lattice_metrics(query, metrics,
                                   built=len(self._stacks))
        self._stat_postings = 0
        self._stat_pushes = 0
        self._stat_pops = 0
        self._stat_allocations = 0

    # -- public API -----------------------------------------------------------

    def run(self, posting_lists: Mapping[str, Sequence[Posting]]
            ) -> list[Result]:
        """Evaluate over explicit inverted lists (Dewey-sorted)."""
        for keyword in self._atoms:
            if not posting_lists.get(keyword):
                return []

        def labeled(keyword: str, plist: Sequence[Posting]):
            for posting in plist:
                yield posting.code, keyword, posting.frequency

        stream = heapq.merge(*(labeled(keyword, posting_lists[keyword])
                               for keyword in self._atoms))
        pending_code: Optional[dewey.Code] = None
        pending: dict[str, int] = {}
        for code, keyword, frequency in stream:
            if code != pending_code:
                if pending_code is not None:
                    self._feed(pending_code, pending)
                pending_code, pending = code, {}
            pending[keyword] = pending.get(keyword, 0) + frequency
        if pending_code is not None:
            self._feed(pending_code, pending)
        return self.finalize()

    def feed_node(self, code: dewey.Code,
                  frequencies: dict[str, int]) -> None:
        """Push one ``(node, keyword frequencies)`` event into the run.

        The push-style dual of :meth:`run`: an external driver (the
        shared-scan batch executor of :mod:`repro.runtime`) owns the
        merged Dewey-order scan and feeds the machine one instance node
        at a time, in Dewey order.
        """
        self._feed(code, frequencies)

    def finalize(self) -> list[Result]:
        """Empty the stacks (paper line 10) and return ranked results."""
        while len(self._path) > 1:
            self._pop_deepest()
        # The document root's entry has no parent to pop into; run its
        # combination round in place (the tail of emptyStacks, line 10).
        budget = self._budgets[0]
        changed = True
        while changed:
            changed = False
            for stack in self._stacks:
                if self._combine_columns(stack, stack.entries[0], budget):
                    changed = True
        ranked = [Result(code, size)
                  for code, size in self._results.items()]
        ranked.sort(key=Result.sort_key)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("postings_consumed", self._stat_postings)
            metrics.inc("stack_pushes", self._stat_pushes)
            metrics.inc("stack_pops", self._stat_pops)
            metrics.inc("partial_lca_allocations",
                        self._stat_allocations)
            metrics.inc("results_emitted", len(ranked))
        return ranked

    @property
    def keywords(self) -> frozenset[str]:
        """The machine's normalized keywords (its share of a batch scan)."""
        return frozenset(self._atoms)

    def search(self, index: InvertedIndex,
               list_limit: Optional[int] = None) -> list[Result]:
        """Evaluate against an index (same interface as the engine)."""
        lists = {
            keyword: index.postings(keyword, limit=list_limit)
            for keyword in self._atoms
        }
        return self.run(lists)

    # -- node arrival ------------------------------------------------------------

    def _feed(self, code: dewey.Code, frequencies: dict[str, int]) -> None:
        self._stat_postings += len(frequencies)
        while not dewey.is_ancestor_or_self(self._path[-1], code):
            self._pop_deepest()
        while self._path[-1] != code:
            next_code = code[: len(self._path[-1]) + 1]
            self._path.append(next_code)
            self._budgets.append({})
            for stack in self._stacks:
                stack.entries.append(_Entry(next_code, stack.partition))
            self._stat_pushes += len(self._stacks)
        self._budgets[-1] = frequencies
        # Keyword instances enter every singleton column (line 5 pushes
        # them into the source stack; propagation spreads them to every
        # stack containing the singleton — we route directly).
        for keyword, _frequency in frequencies.items():
            usage: Usage = ((keyword, 1),) if keyword in self._repeated \
                else NO_USAGE
            for occurrence_id in self._atoms[keyword]:
                block = frozenset([occurrence_id])
                self._push(block, code, (frozenset(), True, False, usage),
                           0, frequencies)

    def _push(self, block: Block, code: dewey.Code, key: _CKey,
              size: int, budget: dict[str, int]) -> bool:
        """Push one partial LCA into every stack containing its block.

        A full-block partial LCA created at this node (a non-propagated
        candidate) is a query result.  Returns True if any column gained
        a new or improved candidate."""
        improved = False
        if block == self._full_block:
            prov, pure, fresh, usage = key
            born_here = pure or prov  # created at this node
            if born_here:
                best = self._results.get(code)
                if best is None or size < best:
                    self._results[code] = size
                    improved = True
        for stack in self._by_block.get(block, ()):
            entry = stack.entries[-1]
            assert entry.code == code
            column = entry.columns[block]
            current = column.get(key)
            if current is None or size < current:
                column[key] = size
                self._stat_allocations += 1
                improved = True
        return improved

    # -- popping rounds -----------------------------------------------------------

    def _pop_deepest(self) -> None:
        """Pop the deepest path node: combine, then propagate.

        Combination runs to a fixpoint across all stacks before any
        propagation: a partial LCA produced in one stack may enable a
        further combination in a *same-level* stack (e.g. merging C, D
        inside [AB, C, D] feeds the CD column of [A, B, CD]), so a
        single finest-to-coarsest sweep — the paper's scheduling — can
        miss work; iterating the sweep until quiescence is the faithful
        fix (everything still happens inside the popped entries)."""
        code = self._path.pop()
        budget = self._budgets.pop()
        self._stat_pops += len(self._stacks)
        step = code[-1]
        changed = True
        while changed:
            changed = False
            for stack in self._stacks:  # finest-first order
                if self._combine_columns(stack, stack.entries[-1],
                                         budget):
                    changed = True
        for stack in self._stacks:
            entry = stack.entries.pop()
            parent = stack.entries[-1]
            # Lines 29–34: propagate column elements to the parent entry
            # with the edge cost; provenance resets to the child step.
            for block, column in entry.columns.items():
                if not column:
                    continue
                best = min(column.values())
                parent_key: _CKey = (frozenset([step]), False, False,
                                     NO_USAGE)
                parent_column = parent.columns[block]
                current = parent_column.get(parent_key)
                if current is None or best + 1 < current:
                    parent_column[parent_key] = best + 1

    def _combine_columns(self, stack: _Stack, entry: _Entry,
                         budget: dict[str, int]) -> bool:
        """Lines 21–28: pairwise column combination inside one entry.

        Returns True if any combination produced a new/improved partial
        LCA anywhere in the lattice."""
        improved = False
        blocks = list(entry.columns)
        for i, block_a in enumerate(blocks):
            column_a = entry.columns[block_a]
            if not column_a:
                continue
            for block_b in blocks[i + 1:]:
                merged_block = block_a | block_b
                if merged_block not in self._admissible_blocks and \
                        merged_block != self._full_block:
                    continue
                column_b = entry.columns[block_b]
                if not column_b:
                    continue
                for key_a, size_a in list(column_a.items()):
                    prov_a, pure_a, fresh_a, usage_a = key_a
                    if fresh_a:
                        continue  # Def. 2(b)(ii): embargoed at this node
                    for key_b, size_b in list(column_b.items()):
                        prov_b, pure_b, fresh_b, usage_b = key_b
                        if fresh_b or (prov_a & prov_b):
                            continue
                        usage = merge_usage(usage_a, usage_b)
                        if usage and not usage_fits(usage, budget):
                            continue
                        pure = pure_a and pure_b
                        fresh = (not pure and
                                 merged_block in self._term_blocks)
                        key = (prov_a | prov_b, pure, fresh, usage)
                        if self._push(merged_block, entry.code, key,
                                      size_a + size_b, budget):
                            improved = True
        return improved


def lattice_machine_evaluate(query: Union[str, Query],
                             index: InvertedIndex,
                             list_limit: Optional[int] = None
                             ) -> list[Result]:
    """Convenience wrapper mirroring :func:`repro.core.engine.evaluate`.

    Thin wrapper over :meth:`repro.runtime.SearchSession.search` with
    ``algorithm="machine"``.
    """
    from repro.runtime import SearchSession
    return SearchSession(index).search(query, algorithm="machine",
                                       list_limit=list_limit)
