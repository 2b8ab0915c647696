"""Equivalence tests: the batched candidate engine vs the scalar reference.

The contract of :mod:`repro.core.candidates_batched` is *identity*, not
approximation: identical ``Erc`` (ids, scores, ordering), identical ``Tc``
and ``Bcc'``, bit-identical feature blocks and byte-identical annotations —
on fixture corpora, on hypothesis-generated tables and on the numeric /
blank / unknown-cell edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.builder import CatalogBuilder
from repro.catalog.errors import UnknownIdError
from repro.core import candidates_batched
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.candidates import CandidateGenerator
from repro.core.candidates_batched import (
    BatchedCandidateEngine,
    BatchedFeatureComputer,
    InternedCandidateTables,
)
from repro.core.features import TypeEntityFeatureMode, type_entity_features
from repro.core.model import default_model
from repro.core.problem import FeatureComputer
from repro.pipeline.io import annotation_to_dict
from repro.tables.model import Table

TOP_K = 8


@pytest.fixture(scope="module")
def engines(world):
    scalar = TableAnnotator(
        world.annotator_view,
        model=default_model(),
        config=AnnotatorConfig(candidate_engine="scalar"),
    )
    batched = TableAnnotator(
        world.annotator_view,
        model=default_model(),
        config=AnnotatorConfig(candidate_engine="batched"),
    )
    return scalar, batched


def assert_problems_identical(scalar_problem, batched_problem):
    assert set(scalar_problem.cells) == set(batched_problem.cells)
    for key, scalar_space in scalar_problem.cells.items():
        batched_space = batched_problem.cells[key]
        assert scalar_space.labels == batched_space.labels
        assert [
            (c.entity_id, c.retrieval_score) for c in scalar_space.candidates
        ] == [
            (c.entity_id, c.retrieval_score) for c in batched_space.candidates
        ]
        assert np.array_equal(scalar_space.f1, batched_space.f1)
    assert set(scalar_problem.columns) == set(batched_problem.columns)
    for column, scalar_space in scalar_problem.columns.items():
        batched_space = batched_problem.columns[column]
        assert scalar_space.labels == batched_space.labels
        assert np.array_equal(scalar_space.f2, batched_space.f2)
        assert set(scalar_space.f3) == set(batched_space.f3)
        for row, grid in scalar_space.f3.items():
            assert np.array_equal(grid, batched_space.f3[row])
    assert set(scalar_problem.pairs) == set(batched_problem.pairs)
    for pair, scalar_space in scalar_problem.pairs.items():
        batched_space = batched_problem.pairs[pair]
        assert scalar_space.labels == batched_space.labels
        assert np.array_equal(scalar_space.f4, batched_space.f4)
        assert set(scalar_space.f5) == set(batched_space.f5)
        for row, grid in scalar_space.f5.items():
            assert np.array_equal(grid, batched_space.f5[row])


class TestFixtureEquivalence:
    def test_problems_identical_on_noisy_corpus(self, engines, web_tables):
        scalar, batched = engines
        for labeled in web_tables:
            assert_problems_identical(
                scalar.build_problem(labeled.table),
                batched.build_problem(labeled.table),
            )

    def test_annotations_byte_identical(self, engines, wiki_tables, web_tables):
        scalar, batched = engines
        for labeled in wiki_tables + web_tables:
            assert annotation_to_dict(
                batched.annotate(labeled.table)
            ) == annotation_to_dict(scalar.annotate(labeled.table))


class TestDirectQueries:
    """The three candidate queries compared engine-vs-engine directly."""

    @pytest.fixture(scope="class")
    def pair(self, world):
        scalar = CandidateGenerator(world.annotator_view, top_k_entities=TOP_K)
        return scalar, BatchedCandidateEngine(scalar)

    def test_cell_candidates_batch_matches_scalar(self, pair, world):
        scalar, batched = pair
        texts = []
        for entity in list(world.annotator_view.entities.all_entities())[:40]:
            texts.extend(entity.lemmas[:2])
        texts += ["", "   ", "1951", "85%", "3,000", "zzz qqq", "Baker", "baker "]
        batch = batched.cell_candidates_batch(texts)
        for text, candidates in zip(texts, batch):
            assert candidates == scalar.cell_candidates(text)

    def test_column_type_candidates_match(self, pair, world):
        scalar, batched = pair
        entities = list(world.annotator_view.entities.all_entities())
        columns = [
            [scalar.cell_candidates(entity.lemmas[0]) for entity in entities[i : i + 6]]
            for i in range(0, 60, 6)
        ]
        for column in columns:
            assert batched.column_type_candidates(
                column
            ) == scalar.column_type_candidates(column)
        # blank / empty columns
        assert batched.column_type_candidates([]) == []
        assert batched.column_type_candidates([[], []]) == []

    def test_relation_candidates_match(self, pair, world):
        scalar, batched = pair
        entities = list(world.annotator_view.entities.all_entities())
        lefts = [scalar.cell_candidates(e.lemmas[0]) for e in entities[:20]]
        rights = [scalar.cell_candidates(e.lemmas[-1]) for e in entities[20:40]]
        assert batched.relation_candidates(lefts, rights) == (
            scalar.relation_candidates(lefts, rights)
        )
        # memoised second pass must answer the same
        assert batched.relation_candidates(lefts, rights) == (
            scalar.relation_candidates(lefts, rights)
        )
        assert batched.relation_candidates([[]], [[]]) == []

    def test_unknown_entity_falls_back_to_scalar(self, pair, book_catalog):
        _scalar, batched = pair
        from repro.core.candidates import CandidateEntity

        ghost = [[CandidateEntity("ent:not-in-catalog", 1.0)]]
        with pytest.raises(UnknownIdError):
            # the scalar reference raises on unknown ids; the batched engine
            # must defer to it rather than silently answering
            batched.column_type_candidates(ghost)


@st.composite
def typos(draw, words: list[str]) -> str:
    """A word with one adjacent swap, dropped or duplicated character."""
    word = draw(st.sampled_from(words))
    if len(word) < 2:
        return word
    i = draw(st.integers(min_value=0, max_value=len(word) - 2))
    kind = draw(st.sampled_from(["swap", "drop", "duplicate"]))
    if kind == "swap":
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if kind == "drop":
        return word[:i] + word[i + 1 :]
    return word[:i] + word[i] + word[i:]


class TestHypothesisTables:
    """Generated tables: arbitrary mixes of exact and typo'd lemmas, numeric
    and junk cells, cells repeated within the table and headers drawn from
    type lemmas.  Typos reach soft-TF-IDF's 0.9 <= JW < 1 branch; repeats
    reach the per-table dedupe of f1 blocks."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_generated_tables_identical(self, data, engines, world):
        scalar, batched = engines
        catalog = world.annotator_view
        lemmas: list[str] = []
        for entity in list(catalog.entities.all_entities())[:60]:
            lemmas.extend(entity.lemmas)
        type_lemmas = sorted(
            {lemma for type_ in catalog.types.all_types() for lemma in type_.lemmas}
        )
        fresh_cell = st.one_of(
            st.sampled_from(lemmas),
            typos(lemmas),
            st.sampled_from(["", "  ", "1984", "12%", "3,000 km", "zzz qqq"]),
            st.text(
                alphabet="abz XYZ.',!0123456789", min_size=0, max_size=14
            ),
        )
        # a small per-table pool, so cells repeat within the table
        pool = data.draw(st.lists(fresh_cell, min_size=1, max_size=4))
        cell = st.one_of(fresh_cell, st.sampled_from(pool))
        n_rows = data.draw(st.integers(min_value=1, max_value=5))
        n_columns = data.draw(st.integers(min_value=1, max_value=3))
        rows = data.draw(
            st.lists(
                st.lists(cell, min_size=n_columns, max_size=n_columns),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        headers = data.draw(
            st.lists(
                st.one_of(
                    st.none(),
                    cell,
                    st.sampled_from(type_lemmas),
                    typos(type_lemmas),
                ),
                min_size=n_columns,
                max_size=n_columns,
            )
        )
        table = Table(
            table_id="hyp",
            cells=[list(row) for row in rows],
            headers=list(headers),
        )
        assert_problems_identical(
            scalar.build_problem(table), batched.build_problem(table)
        )
        assert annotation_to_dict(batched.annotate(table)) == (
            annotation_to_dict(scalar.annotate(table))
        )


def edge_catalog(with_late_entity: bool = False):
    """Every branch of f3 in one small catalog.

    * ``type:lonely`` has no instances at all (``min_instance_distance`` is
      ``inf``, so the repair is switched off);
    * ``ent:drifter`` has no direct types (relatedness 0);
    * the type DAG holds a diamond, ``a ⊆ b ⊆ top`` against
      ``a ⊆ c ⊆ mid ⊆ top``, so only the shortest hop count is right;
    * ``type:top`` and ``type:mid`` have no direct instances (their
      ``min_instance_distance`` exceeds 1), and ``type:side`` shares one
      member with ``type:a`` (a fractional relatedness).

    ``with_late_entity`` adds ``ent:late``, an entity interned tables built
    from the plain catalog do not know.
    """
    builder = (
        CatalogBuilder(name="f3-edges")
        .type("type:top", "top")
        .type("type:mid", "mid", parents=["type:top"])
        .type("type:b", "bee", parents=["type:top"])
        .type("type:c", "sea", parents=["type:mid"])
        .type("type:a", "ay", parents=["type:b", "type:c"])
        .type("type:side", "side")
        .type("type:lonely", "lonely", parents=["type:side"])
        .entity("ent:deep", ["Deep One"], types=["type:a"])
        .entity("ent:both", ["Both Ways"], types=["type:a", "type:side"])
        .entity("ent:upper", ["Upper Hand"], types=["type:c", "type:a"])
        .entity("ent:aside", ["Aside Story"], types=["type:side"])
        .entity("ent:drifter", ["Drifter"])
    )
    if with_late_entity:
        builder.entity("ent:late", ["Late Comer"], types=["type:c"])
    return builder.build()


def assert_dense_f3_matches_scalar(catalog):
    """The dense grid equals scalar f3 bit for bit, on every pair and mode."""
    generator = CandidateGenerator(catalog)
    engine = BatchedCandidateEngine(generator)
    type_ids = engine.tables.type_ids
    entity_ids = engine.tables.entity_ids
    for mode in TypeEntityFeatureMode:
        features = BatchedFeatureComputer(catalog, mode, generator, engine)
        assert features._f3_dense is not None
        (grid,) = features.f3_block(type_ids, [entity_ids])
        expected = np.stack(
            [
                np.stack(
                    [
                        type_entity_features(catalog, type_id, entity_id, mode)
                        for entity_id in entity_ids
                    ]
                )
                for type_id in type_ids
            ]
        )
        assert grid.dtype == expected.dtype == np.float64
        assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64)), mode


@st.composite
def type_dag_catalogs(draw):
    """Small random catalogs: a type DAG plus entities with direct types.

    Edges only point from a type to a lower-numbered one, so the hierarchy
    stays acyclic; entities may have zero, one or several direct types.
    """
    n_types = draw(st.integers(min_value=1, max_value=7))
    builder = CatalogBuilder(name="random-dag")
    if not draw(st.booleans()):
        builder.without_root()
    for child in range(n_types):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=child - 1),
                unique=True,
                max_size=3,
            )
            if child
            else st.just([])
        )
        builder.type(
            f"type:t{child}", f"kind {child}", parents=[f"type:t{p}" for p in parents]
        )
    n_entities = draw(st.integers(min_value=1, max_value=8))
    for entity in range(n_entities):
        direct = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_types - 1),
                unique=True,
                max_size=3,
            )
        )
        builder.entity(
            f"ent:e{entity}",
            [f"thing {entity}"],
            types=[f"type:t{t}" for t in direct],
        )
    return builder.build()


class TestDenseF3Grid:
    """The build-time f3 grid against scalar ``type_entity_features``."""

    def test_book_catalog(self, book_catalog):
        assert_dense_f3_matches_scalar(book_catalog)

    def test_synthetic_world_with_dropped_links(self, world):
        assert_dense_f3_matches_scalar(world.annotator_view)

    def test_edge_catalog(self):
        catalog = edge_catalog()
        # the edges the catalog exists for are really there
        assert catalog.min_instance_distance("type:lonely") == float("inf")
        assert catalog.min_instance_distance("type:top") == 3
        assert catalog.distance("ent:deep", "type:top") == 3
        assert catalog.distance("ent:upper", "type:mid") == 2
        assert 0 < catalog.relatedness("ent:aside", "type:a") < 1
        assert catalog.relatedness("ent:drifter", "type:a") == 0.0
        assert_dense_f3_matches_scalar(catalog)

    @settings(max_examples=40, deadline=None)
    @given(catalog=type_dag_catalogs())
    def test_random_type_dags(self, catalog):
        assert_dense_f3_matches_scalar(catalog)

    def test_grid_is_read_only(self, book_catalog):
        generator = CandidateGenerator(book_catalog)
        engine = BatchedCandidateEngine(generator)
        features = BatchedFeatureComputer(
            book_catalog, TypeEntityFeatureMode.INV_DIST, generator, engine
        )
        assert not features._f3_dense.flags.writeable
        (block,) = features.f3_block(
            ("type:author",), [("ent:einstein", "ent:stannard")]
        )
        block[...] = -1.0  # a caller's block is its own copy
        (fresh,) = features.f3_block(("type:author",), [("ent:einstein",)])
        assert fresh[0, 0, 2] == 1.0

    def test_over_ceiling_catalog_uses_scalar_path(self, world, monkeypatch):
        catalog = world.annotator_view
        generator = CandidateGenerator(catalog)
        engine = BatchedCandidateEngine(generator)
        n_cells = len(engine.tables.type_ids) * len(engine.tables.entity_ids)
        monkeypatch.setattr(
            candidates_batched, "MAX_DENSE_F3_CELLS", n_cells - 1
        )

        def no_grid(self):
            raise AssertionError("dense f3 grid built above the ceiling")

        monkeypatch.setattr(BatchedFeatureComputer, "_build_f3_grid", no_grid)
        mode = TypeEntityFeatureMode.INV_SQRT_DIST
        features = BatchedFeatureComputer(catalog, mode, generator, engine)
        assert features._f3_dense is None
        scalar = FeatureComputer(catalog, mode, generator)
        type_ids = engine.tables.type_ids[:12]
        entity_ids = engine.tables.entity_ids[:30]
        assert np.array_equal(
            features.f3_block(type_ids, [entity_ids])[0],
            scalar.f3_block(type_ids, [entity_ids])[0],
        )

    def test_unknown_entity_falls_back_to_scalar(self, book_catalog):
        generator = CandidateGenerator(book_catalog)
        engine = BatchedCandidateEngine(generator)
        features = BatchedFeatureComputer(
            book_catalog, TypeEntityFeatureMode.INV_DIST, generator, engine
        )
        with pytest.raises(UnknownIdError):
            features.f3_block(("type:author",), [("ent:not-in-catalog",)])


class TestColumnF3:
    """f3 blocks are assembled a column at a time: one gather over the
    rows' concatenated entities, or the scalar fallback for the column."""

    ROWS = [
        ("ent:deep", "ent:both"),
        ("ent:upper",),
        ("ent:aside", "ent:drifter", "ent:deep"),
        ("ent:both",),
    ]

    def assert_column_matches_scalar(self, features, scalar, type_ids, rows):
        blocks = features.f3_block(type_ids, rows)
        expected = scalar.f3_block(type_ids, rows)
        assert len(blocks) == len(expected) == len(rows)
        for entity_ids, block, reference in zip(rows, blocks, expected):
            assert block.shape == (len(type_ids), len(entity_ids), 3)
            assert np.array_equal(
                block.view(np.uint64), reference.view(np.uint64)
            ), entity_ids

    def test_dense_column(self):
        catalog = edge_catalog()
        generator = CandidateGenerator(catalog)
        engine = BatchedCandidateEngine(generator)
        mode = TypeEntityFeatureMode.INV_SQRT_DIST
        features = BatchedFeatureComputer(catalog, mode, generator, engine)
        assert features._f3_dense is not None
        scalar = FeatureComputer(catalog, mode, generator)
        self.assert_column_matches_scalar(
            features, scalar, engine.tables.type_ids, self.ROWS
        )
        assert features.f3_block(engine.tables.type_ids, []) == []

    def test_unknown_entity_in_one_row(self):
        """One row names an entity the interned tables do not know (the
        catalog gained it after they were built): the whole column takes
        the scalar path and still equals it row by row."""
        catalog = edge_catalog(with_late_entity=True)
        tables = InternedCandidateTables.from_catalog(edge_catalog())
        generator = CandidateGenerator(catalog)
        engine = BatchedCandidateEngine(generator, tables=tables)
        mode = TypeEntityFeatureMode.INV_DIST
        features = BatchedFeatureComputer(catalog, mode, generator, engine)
        scalar = FeatureComputer(catalog, mode, generator)
        rows = self.ROWS[:2] + [("ent:late", "ent:deep")] + self.ROWS[2:]
        assert engine.intern_entity_ids([e for row in rows for e in row]) is None
        self.assert_column_matches_scalar(
            features, scalar, tables.type_ids, rows
        )

    def test_over_ceiling_column(self, monkeypatch):
        catalog = edge_catalog()
        generator = CandidateGenerator(catalog)
        engine = BatchedCandidateEngine(generator)
        monkeypatch.setattr(candidates_batched, "MAX_DENSE_F3_CELLS", 1)
        mode = TypeEntityFeatureMode.IDF
        features = BatchedFeatureComputer(catalog, mode, generator, engine)
        assert features._f3_dense is None
        scalar = FeatureComputer(catalog, mode, generator)
        self.assert_column_matches_scalar(
            features, scalar, engine.tables.type_ids, self.ROWS
        )


class TestInternedTables:
    def test_state_round_trip(self, world):
        tables = InternedCandidateTables.from_catalog(world.annotator_view)
        state = tables.to_state()
        restored = InternedCandidateTables.from_state(state)
        state_again = restored.to_state()
        assert state["entity_ids"] == state_again["entity_ids"]
        assert state["type_ids"] == state_again["type_ids"]
        assert state["relation_ids"] == state_again["relation_ids"]
        for field in (
            "anc_offsets",
            "anc_flat",
            "anc_distance",
            "type_specificity",
            "pair_keys",
            "pair_offsets",
            "pair_relations",
            "tuple_offsets",
            "tuple_keys_by_relation",
        ):
            assert np.array_equal(state[field], state_again[field]), field
            assert state[field].dtype == state_again[field].dtype, field
        assert state["anc_distance"].dtype == np.float64
        assert state["type_specificity"].dtype == np.float64
        assert state["anc_distance"].shape == state["anc_flat"].shape

    def test_restored_tables_drive_identical_engine(self, world, wiki_tables):
        generator = CandidateGenerator(world.annotator_view, top_k_entities=TOP_K)
        built = BatchedCandidateEngine(generator)
        restored = BatchedCandidateEngine(
            generator,
            tables=InternedCandidateTables.from_state(built.tables.to_state()),
        )
        table = wiki_tables[0].table
        texts = [
            table.cell(row, column)
            for row in range(table.n_rows)
            for column in range(table.n_columns)
        ]
        per_cell = built.cell_candidates_batch(texts)
        assert per_cell == restored.cell_candidates_batch(texts)
        column = per_cell[: table.n_rows]
        assert built.column_type_candidates(column) == (
            restored.column_type_candidates(column)
        )


class TestEngineKnob:
    def test_unknown_candidate_engine_rejected(self, world):
        with pytest.raises(ValueError, match="candidate engine"):
            TableAnnotator(
                world.annotator_view,
                config=AnnotatorConfig(candidate_engine="turbo"),
            )

    def test_batched_knob_wraps_prebuilt_scalar_generator(self, world):
        generator = CandidateGenerator(world.annotator_view)
        annotator = TableAnnotator(
            world.annotator_view, candidate_generator=generator
        )
        assert isinstance(annotator.candidate_generator, BatchedCandidateEngine)
        assert annotator.candidate_generator.scalar_generator is generator

    def test_scalar_knob_unwraps_batched_generator(self, world):
        generator = CandidateGenerator(world.annotator_view)
        engine = BatchedCandidateEngine(generator)
        annotator = TableAnnotator(
            world.annotator_view,
            config=AnnotatorConfig(candidate_engine="scalar"),
            candidate_generator=engine,
        )
        assert annotator.candidate_generator is generator

    def test_prebuilt_batched_engine_reused(self, world):
        engine = BatchedCandidateEngine(CandidateGenerator(world.annotator_view))
        annotator = TableAnnotator(
            world.annotator_view, candidate_generator=engine
        )
        assert annotator.candidate_generator is engine
