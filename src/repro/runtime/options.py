"""Search options: one value object for every evaluation mode.

The engine grew five divergent entry points (``evaluate``,
``stream_evaluate``, ``lattice_machine_evaluate``, ``search_top_k``,
``search_within_size``) plus ranking variants; :class:`SearchOptions`
normalizes all of their knobs into a single immutable — therefore
plan-cache-safe — value that :meth:`repro.runtime.SearchSession.search`
routes on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.errors import ReproError

#: Evaluation algorithms the session can route to.  ``cohesive`` is the
#: optimized path-stack engine (paper §3), ``machine`` the literal
#: Algorithm 1 lattice machine; the remaining four are the flat
#: baselines of §4 (which ignore cohesiveness structure).
ALGORITHMS = ("cohesive", "machine", "slca", "elca", "lcasz", "saone")

#: Rank modes: Def. 3 size ranking, the §2.2 cohesive-term vector
#: ranking, or the §6 skyline semantics.  Only ``cohesive`` results
#: carry the term-size vectors the latter two need.
RANK_MODES = ("size", "vector", "skyline")

class OptionsError(ReproError):
    """An invalid :class:`SearchOptions` combination."""


@dataclass(frozen=True)
class SearchOptions:
    """Everything that parameterizes one search, in one hashable value.

    Attributes
    ----------
    algorithm:
        One of :data:`ALGORITHMS`.
    rank:
        One of :data:`RANK_MODES` (``cohesive`` algorithm only).
    top_k:
        Top-k-size search: return only the first ``k`` results of the
        Def. 3 ranking, from one scan that prunes above the k-th
        smallest result size found so far (``cohesive`` only).
    max_size:
        Only results of LCA size ≤ ``max_size`` (``cohesive`` only;
        prunes during the scan, lossless within the bound).
    list_limit:
        Truncate every inverted list to its first ``list_limit``
        postings (the paper's §4.3 device).  Applied by slicing the
        cached posting tuple, so it composes with the posting cache.
    impenetrability:
        ``False`` disables Def. 2(b)(ii) (ablation studies only).
    """

    algorithm: str = "cohesive"
    rank: str = "size"
    top_k: Optional[int] = None
    max_size: Optional[int] = None
    list_limit: Optional[int] = None
    impenetrability: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise OptionsError(
                f"unknown algorithm {self.algorithm!r}; "
                f"expected one of {ALGORITHMS}")
        if self.rank not in RANK_MODES:
            raise OptionsError(
                f"unknown rank mode {self.rank!r}; "
                f"expected one of {RANK_MODES}")
        if self.algorithm != "cohesive":
            if self.rank != "size":
                raise OptionsError(
                    f"rank={self.rank!r} requires algorithm='cohesive' "
                    "(only engine results carry term-size vectors)")
            if self.top_k is not None or self.max_size is not None:
                raise OptionsError(
                    "top_k / max_size require algorithm='cohesive'")
            if not self.impenetrability:
                raise OptionsError(
                    "impenetrability=False requires algorithm='cohesive'")
        if self.top_k is not None and self.top_k < 0:
            raise OptionsError("top_k must be >= 0")
        if self.max_size is not None and self.max_size < 0:
            raise OptionsError("max_size must be >= 0")
        if self.list_limit is not None and self.list_limit < 0:
            raise OptionsError("list_limit must be >= 0")

    def with_(self, **changes) -> "SearchOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- the wire format -----------------------------------------------------

    def to_dict(self) -> dict:
        """Every field, defaults included, as a JSON-ready dict.

        The serializable half of the wire contract shared by the HTTP
        search service, ``search --format json`` and the JSONL event
        sinks: ``SearchOptions.from_dict(options.to_dict()) ==
        options`` always holds (property-tested), so options survive
        any number of serialize/deserialize hops unchanged.
        """
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchOptions":
        """Rebuild options from a :meth:`to_dict`-shaped mapping.

        Partial dicts are accepted (absent fields keep their
        defaults); unknown keys raise :class:`OptionsError` — a typo'd
        wire request must fail loudly, not silently search with
        defaults.  Field values are validated by ``__post_init__`` as
        usual.
        """
        if not isinstance(data, dict):
            raise OptionsError(
                f"options must be a mapping, got {type(data).__name__}")
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise OptionsError(
                f"unknown option(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        return cls(**data)
