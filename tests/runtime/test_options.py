"""SearchOptions validation: the one value object behind the facade."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.runtime import ALGORITHMS, OptionsError, RANK_MODES, SearchOptions


class TestValidation:
    def test_defaults(self):
        options = SearchOptions()
        assert options.algorithm == "cohesive"
        assert options.rank == "size"
        assert options.impenetrability is True

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_accepted(self, algorithm):
        assert SearchOptions(algorithm=algorithm).algorithm == algorithm

    @pytest.mark.parametrize("rank", RANK_MODES)
    def test_every_rank_accepted(self, rank):
        assert SearchOptions(rank=rank).rank == rank

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(OptionsError, match="unknown algorithm"):
            SearchOptions(algorithm="bm25")

    def test_unknown_rank_rejected(self):
        with pytest.raises(OptionsError, match="unknown rank"):
            SearchOptions(rank="pagerank")

    @pytest.mark.parametrize("algorithm",
                             [a for a in ALGORITHMS if a != "cohesive"])
    def test_rank_needs_cohesive(self, algorithm):
        with pytest.raises(OptionsError, match="cohesive"):
            SearchOptions(algorithm=algorithm, rank="skyline")

    def test_top_k_needs_cohesive(self):
        with pytest.raises(OptionsError, match="cohesive"):
            SearchOptions(algorithm="slca", top_k=5)

    def test_max_size_needs_cohesive(self):
        with pytest.raises(OptionsError, match="cohesive"):
            SearchOptions(algorithm="machine", max_size=4)

    def test_impenetrability_ablation_needs_cohesive(self):
        with pytest.raises(OptionsError, match="cohesive"):
            SearchOptions(algorithm="elca", impenetrability=False)

    @pytest.mark.parametrize("field,value", [
        ("top_k", -1), ("max_size", -2), ("list_limit", -3),
    ])
    def test_negative_knobs_rejected(self, field, value):
        with pytest.raises(OptionsError):
            SearchOptions(**{field: value})


class TestImmutability:
    def test_frozen(self):
        options = SearchOptions()
        with pytest.raises(AttributeError):
            options.top_k = 3

    def test_with_returns_validated_copy(self):
        options = SearchOptions()
        changed = options.with_(top_k=5)
        assert changed.top_k == 5 and options.top_k is None
        with pytest.raises(OptionsError):
            options.with_(algorithm="slca", rank="vector")

    def test_hashable(self):
        assert len({SearchOptions(), SearchOptions(),
                    SearchOptions(top_k=1)}) == 2


class TestDocumentedFields:
    """docs/API.md's ``SearchOptions`` table lists exactly the fields,
    both directions."""

    def test_table_matches_fields(self):
        doc = (Path(__file__).resolve().parents[2] / "docs" /
               "API.md").read_text(encoding="utf-8")
        section = doc.split("## `SearchOptions`", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"^\| `([a-z_]+)` \|", section,
                                    re.MULTILINE))
        assert documented == {field.name for field in fields(SearchOptions)}
