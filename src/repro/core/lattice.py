"""The lattice of keyword partitions (paper §3, Figs. 2–3).

CohesiveLCA organizes its stacks into a lattice: one stack per partition
of the query keywords, partitions of the same block count forming one
coarseness level.  Cohesiveness relationships shrink the lattice
dramatically, because a keyword can only combine with keywords of its own
term until the term completes — the paper builds the working lattice by
composing one *component lattice* per term (partitions of that term's
members) instead of pruning the full lattice.

This module implements that accounting:

* :func:`bell_number` — the size of the full lattice of ``k`` keywords
  (``B7 = 877``, the number quoted for Fig. 3);
* :func:`set_partitions` — explicit enumeration of the full lattice;
* :func:`admissible_partitions` — the partitions whose blocks respect the
  cohesiveness relationships (Fig. 2's 15 → 7 reduction);
* :func:`component_lattice_sizes`, :func:`stack_count`,
  :func:`largest_sublattice_size` — the per-term component lattices whose
  largest member governs the running time (Fig. 6);
* :func:`lattice_node_count` — the node count of the composed lattice as
  the paper draws it (reproduces 15, 7, 3 and 9 for the queries of
  Figs. 2 and 3).

The evaluation kernel itself (:mod:`repro.core.kernel`) does not
materialize partitions — it indexes partial LCAs by admissible *blocks*
(signatures), which is equivalent and leaner — so this module is the
analysis companion used by tests, examples and the Fig. 6 benchmark.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, TypeVar, Union

from repro.core.parser import parse_query
from repro.core.query import Occurrence, Query, Term
from repro.obs import get_metrics

T = TypeVar("T")

Block = frozenset
Partition = frozenset


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """The number of partitions of an ``n``-element set.

    Computed with the Bell triangle; ``bell_number(7) == 877`` is the
    full-lattice size the paper quotes for a 7-keyword query.
    """
    if n < 0:
        raise ValueError("bell_number() needs a non-negative integer")
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        next_row = [row[-1]]
        for value in row:
            next_row.append(next_row[-1] + value)
        row = next_row
    return row[-1]


def set_partitions(items: Sequence[T]) -> Iterator[list[list[T]]]:
    """Enumerate all partitions of ``items`` (the full lattice).

    Standard recursive scheme: each item either joins an existing block
    or opens a new one; the number of partitions of ``k`` items is
    ``bell_number(k)``.
    """
    items = list(items)
    if not items:
        yield []
        return

    def extend(index: int, blocks: list[list[T]]) -> Iterator[list[list[T]]]:
        if index == len(items):
            yield [list(block) for block in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from extend(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from extend(index + 1, blocks)
        blocks.pop()

    yield from extend(0, [])


# ---------------------------------------------------------------------------
# Cohesiveness-aware accounting
# ---------------------------------------------------------------------------


def _as_query(query: Union[str, Query]) -> Query:
    return parse_query(query) if isinstance(query, str) else query


def admissible_blocks(query: Union[str, Query]) -> set[frozenset[int]]:
    """All admissible keyword subsets, as sets of occurrence ids.

    A subset is admissible iff it is a non-empty union of complete
    *members* of one term (a member being a keyword occurrence or a whole
    nested term): cohesiveness forbids any other grouping (§3, "Reducing
    the dimensionality of the lattice").
    """
    query = _as_query(query)
    blocks: set[frozenset[int]] = set()
    for term in query.terms:
        member_sets: list[frozenset[int]] = []
        for member in term.members:
            if isinstance(member, Occurrence):
                member_sets.append(frozenset([member.occurrence_id]))
            else:
                member_sets.append(frozenset(
                    occ.occurrence_id for occ in member.occurrences()))
        count = len(member_sets)
        for mask in range(1, 1 << count):
            union: set[int] = set()
            for index in range(count):
                if mask & (1 << index):
                    union.update(member_sets[index])
            blocks.add(frozenset(union))
    return blocks


def admissible_partitions(query: Union[str, Query]
                          ) -> set[frozenset[frozenset[int]]]:
    """All partitions of the occurrence set into admissible blocks.

    For the flat query of Fig. 2a this is the full lattice (15 partitions
    of 4 keywords); the cohesiveness relationship of Fig. 2b cuts it to 7.
    """
    query = _as_query(query)
    blocks = sorted(admissible_blocks(query), key=lambda b: (min(b), -len(b)))
    universe = frozenset(range(len(query.occurrences)))
    by_min: dict[int, list[frozenset[int]]] = {}
    for block in blocks:
        by_min.setdefault(min(block), []).append(block)
    partitions: set[frozenset[frozenset[int]]] = set()

    def cover(remaining: frozenset[int],
              chosen: tuple[frozenset[int], ...]) -> None:
        if not remaining:
            partitions.add(frozenset(chosen))
            return
        anchor = min(remaining)
        for block in by_min.get(anchor, ()):
            if block <= remaining:
                cover(remaining - block, chosen + (block,))

    cover(universe, ())
    return partitions


def component_lattice_sizes(query: Union[str, Query]) -> list[int]:
    """Per-term component-lattice sizes: ``Bell(cardinality)`` each.

    The component lattice of a term is the full lattice of partitions of
    its members (Fig. 3a); the algorithm composes these instead of using
    the full keyword lattice.
    """
    query = _as_query(query)
    return [bell_number(term.cardinality) for term in query.terms]


def stack_count(query: Union[str, Query]) -> int:
    """Total number of stacks across all component lattices."""
    return sum(component_lattice_sizes(query))


def largest_sublattice_size(query: Union[str, Query]) -> int:
    """Size (number of stacks) of the largest component lattice.

    This is the quantity plotted against the maximum term cardinality in
    Fig. 6 — the paper's analysis shows it governs the running time
    (§3.1).
    """
    return max(component_lattice_sizes(query))


def lattice_node_count(query: Union[str, Query]) -> int:
    """Node count of the composed lattice as the paper draws it.

    Component lattices are drawn glued together: the sources of terms
    whose members are all keywords coalesce into the single global source,
    and the sinks of the nested terms of an *all-term-member* parent
    coalesce into that parent's source (Fig. 3b).  Reproduces the paper's
    published counts:

    * ``(XML Query John Smith)`` → 15 (Fig. 2a, the full lattice B4);
    * ``(XML Query (John Smith))`` → 7 (Fig. 2b);
    * ``((XML Query) (John Smith))`` → 3 (Fig. 2c);
    * ``((XML Keyword Search) (Paul Cooper) (Mary Davis))`` → 9 (Fig. 3b,
      versus 877 = B7 for the full 7-keyword lattice).
    """
    query = _as_query(query)
    total = stack_count(query)
    pure_sources = sum(
        1 for term in query.terms
        if all(isinstance(member, Occurrence) for member in term.members))
    if pure_sources > 1:
        total -= pure_sources - 1
    for term in query.terms:
        if term.members and all(isinstance(member, Term)
                                for member in term.members):
            total -= sum(1 for member in term.members
                         if isinstance(member, Term))
    return total


def record_lattice_metrics(query: Union[str, Query], metrics=None,
                           built: Optional[int] = None) -> tuple[int, int]:
    """Record the §3 lattice reduction as counters; returns the pair.

    ``lattice_nodes_built`` is the node count of the composed reduced
    lattice (what the evaluation actually works with) and
    ``lattice_nodes_pruned`` is what cohesiveness saved relative to the
    full Bell lattice of all keyword partitions — together they validate
    the paper's "reducing the dimensionality of the lattice" claim.
    Pass ``built`` to substitute an exact materialized count (the
    lattice machine does, with its stack count); by default the closed
    formula of :func:`lattice_node_count` is used, so recording is
    cheap even for 20-keyword efficiency queries where enumerating
    partitions is infeasible.
    """
    query = _as_query(query)
    if built is None:
        built = lattice_node_count(query)
    pruned = bell_number(query.keyword_count) - built
    registry = metrics if metrics is not None else get_metrics()
    if registry.enabled:
        registry.inc("lattice_nodes_built", built)
        registry.inc("lattice_nodes_pruned", pruned)
    return built, pruned


def render_lattice(query: Union[str, Query]) -> str:
    """A text drawing of the admissible-partition lattice (Figs. 2–3).

    Partitions are grouped into coarseness levels (finest at the top,
    like the paper's figures); blocks print as the concatenated initials
    of their keyword occurrences, e.g. ``[XQ, JS]``.
    """
    query = _as_query(query)
    initials = [occ.keyword[0].upper() for occ in query.occurrences]

    def block_text(block: frozenset[int]) -> str:
        return "".join(initials[i] for i in sorted(block))

    def partition_text(partition) -> str:
        blocks = sorted((block_text(block) for block in partition),
                        key=lambda text: (len(text), text))
        return "[" + ", ".join(blocks) + "]"

    by_level: dict[int, list[str]] = {}
    for partition in admissible_partitions(query):
        by_level.setdefault(len(partition), []).append(
            partition_text(partition))
    lines = [f"{query}  —  {sum(map(len, by_level.values()))} "
             f"admissible partitions"]
    for level in sorted(by_level, reverse=True):
        row = "   ".join(sorted(by_level[level]))
        lines.append(f"  level {level}:  {row}")
    return "\n".join(lines)


def coarseness_levels(partition_count_by_blocks: Iterable[Sequence[T]]
                      ) -> dict[int, int]:
    """Group partitions by block count (the lattice's coarseness levels)."""
    levels: dict[int, int] = {}
    for partition in partition_count_by_blocks:
        levels[len(partition)] = levels.get(len(partition), 0) + 1
    return levels
