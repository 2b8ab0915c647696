"""The f1/f2 array kernel against the scalar similarity battery, bit for bit.

:mod:`repro.text.profile` promises bit-identity with
:func:`repro.core.features.text_lemma_features` and
:func:`repro.text.similarity.jaro_winkler`.  These tests compare the uint64
bit patterns of the float64 results, on hypothesis strings and on the edges
the kernel special-cases: empty and token-less strings, duplicate tokens,
short tokens (a Jaro match window of 0), non-ASCII text and token pairs
scoring just around soft-TF-IDF's 0.9 threshold.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import text_lemma_features
from repro.text import profile
from repro.text.profile import LemmaVocabulary
from repro.text.similarity import jaro_winkler
from repro.text.tfidf import TfidfWeights

LEMMAS = [
    "Albert Einstein",
    "Einstein",
    "New York",
    "New New York",
    "York",
    "Martha Jones",
    "Dwayne Dixon",
    "Zoë Baptiste",
    "École Normale",
    "İstanbul",
    "Straße",
    "東京 Tower",
    "Li",
    "Ng",
    "Bo Li",
    # two tokens tie for a text token's best score; the later one counts
    "Abcdx Abcdy",
    "abcdx",
    "!!!",
    "   ",
]
WEIGHTS = TfidfWeights.from_documents(LEMMAS)

#: token pairs whose Jaro-Winkler lands just below, at or just above 0.9
NEAR_THRESHOLD = [
    ("daad", "deaabd"),  # 0.8999999999999999, one ulp below
    ("fefdegbfgf", "efdegfbfgf"),  # 0.9 exactly
    ("abcdefghij", "abcdefgkl"),  # 0.8956
    ("abcdefghij", "abcdefgklm"),  # 0.88
    ("stephens", "stevens"),  # 0.9083
    ("abcdefghij", "abcdefghkl"),  # 0.92
    ("kabcdefghi", "abcdefghik"),  # 0.9333
    ("martha", "marhta"),  # 0.9611
    ("dwayne", "duane"),  # 0.84
    ("dixon", "dicksonx"),  # 0.8133
]

EDGE_TEXTS = [
    "",
    " ",
    "   ",
    "!!!",
    "--- ...",
    "Einstein",
    "einstein",
    "  Einstein  ",
    "Einstien",
    "Albert Einstein Einstein",
    "new new york",
    "New Yrok",
    "Martha",
    "marhta jones",
    "Duane Dicksonx",
    "a",
    "ab",
    "li ng",
    "abcdw",
    "Bo",
    "ZOË",
    "zoe baptiste",
    "ecole normale",
    "ÉCOLE",
    "i̇stanbul",
    "STRASSE",
    "東京",
    "1984",
    "3,000 km",
] + [left for left, _right in NEAR_THRESHOLD]


def bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def assert_kernel_matches(
    queries: list[tuple[str, list[tuple[str, ...]]]],
    weights: TfidfWeights | None,
    vocabulary: LemmaVocabulary | None = None,
) -> None:
    """Every (text, owner) row of the kernel equals ``text_lemma_features``."""
    vocabulary = vocabulary or LemmaVocabulary(weights)
    blocks = vocabulary.feature_blocks(
        [
            (text, vocabulary.intern(owners)) for text, owners in queries
        ]
    )
    assert len(blocks) == len(queries)
    for (text, owners), block in zip(queries, blocks):
        assert block.shape == (len(owners), 6)
        for lemmas, row in zip(owners, block):
            expected = text_lemma_features(text, lemmas, weights)
            assert np.array_equal(bits(row), bits(expected)), (text, lemmas, row)


class TestKernelEdges:
    @pytest.mark.parametrize("weights", [WEIGHTS, None], ids=["idf", "plain"])
    def test_every_edge_text_against_every_owner(self, weights):
        owners = [
            (lemma,) for lemma in LEMMAS
        ] + [
            ("Albert Einstein", "Einstein"),
            ("New York", "New New York", "York"),
            ("!!!", "Einstein"),
            ("   ",),
            (),  # an owner without lemmas keeps the default vector
            tuple(right for _left, right in NEAR_THRESHOLD),
        ]
        assert_kernel_matches(
            [(text, owners) for text in EDGE_TEXTS], weights
        )

    def test_near_threshold_pairs(self):
        queries = [
            (left, [(right,), (right, left), (f"{right} {left}",)])
            for left, right in NEAR_THRESHOLD
        ]
        assert_kernel_matches(queries, WEIGHTS)
        # the pairs really do straddle the threshold
        scores = [jaro_winkler(left, right) for left, right in NEAR_THRESHOLD]
        assert scores[:2] == [np.nextafter(0.9, 0.0), 0.9]

    def test_repeated_texts_and_owners_in_one_call(self):
        owners = [("Albert Einstein",), ("Martha Jones",)]
        assert_kernel_matches(
            [("Einstein", owners), ("marhta", owners), ("Einstein", owners[::-1])],
            WEIGHTS,
        )

    def test_empty_call(self):
        assert LemmaVocabulary(WEIGHTS).feature_blocks([]) == []

    def test_vocabulary_grows_between_calls(self):
        # owners interned after an earlier call see a widened lemma table
        vocabulary = LemmaVocabulary(WEIGHTS)
        assert_kernel_matches([("york", [("York",)])], WEIGHTS, vocabulary)
        assert_kernel_matches(
            [("new york", [("New New York",), ("Albert Einstein Junior Senior",)])],
            WEIGHTS,
            vocabulary,
        )
        assert_kernel_matches([("york", [("York",)])], WEIGHTS, vocabulary)


ALPHABET = "abceinorstyzéÉ .,'-"
texts = st.text(alphabet=ALPHABET, max_size=18)
owners = st.lists(st.tuples(texts) | st.tuples(texts, texts), max_size=3)


class TestKernelHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(
        queries=st.lists(st.tuples(texts, owners), max_size=6),
        documents=st.lists(texts, max_size=8),
    )
    def test_generated_battery(self, queries, documents):
        weights = TfidfWeights.from_documents(documents)
        assert_kernel_matches(queries, weights)


def jaro_winkler_codes(left: list[str], right: list[str]) -> np.ndarray:
    """The kernel's Jaro-Winkler program, unpruned, over string pairs."""
    a, a_len = profile._codes(left, profile._LEFT_PAD)
    b, b_len = profile._codes(right, profile._RIGHT_PAD)
    return profile._jaro_winkler_codes(
        a, a_len, b, b_len, profile._window_matches(a, a_len, b, b_len)
    )


class TestJaroWinklerCodes:
    EDGES = [
        ("", ""),
        ("", "a"),
        ("a", ""),
        ("a", "a"),
        ("a", "b"),
        ("ab", "ba"),
        ("abc", "acb"),
        ("abc", "bca"),
        ("aab", "aba"),
        ("AbC", "abc"),
        ("ZOË", "zoë"),
        ("İstanbul", "istanbul"),
        ("straße", "strasse"),
        ("東京", "東京都"),
        ("a\x00b", "a\x00b"),
        ("aaaa", "aaaaaaaa"),
        ("abcabcabc", "cbacbacba"),
    ] + NEAR_THRESHOLD

    def assert_batch_matches(self, pairs):
        left = [a for a, _b in pairs]
        right = [b for _a, b in pairs]
        expected = [jaro_winkler(a, b) for a, b in pairs]
        assert np.array_equal(bits(jaro_winkler_codes(left, right)), bits(expected))

    def test_edges(self):
        self.assert_batch_matches(self.EDGES)
        self.assert_batch_matches([(b, a) for a, b in self.EDGES])

    def test_empty_batch(self):
        assert jaro_winkler_codes([], []).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.text(alphabet="abcdeAÉé", max_size=12),
                st.text(alphabet="abcdeAÉé", max_size=12),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_generated_pairs(self, pairs):
        self.assert_batch_matches(pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.text(alphabet="abcdef", min_size=1, max_size=12),
                st.text(alphabet="abcdef", min_size=1, max_size=12),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_pruning_never_drops_a_pair_at_the_threshold(self, pairs):
        """The window bound's scorer agrees with the exact one at >= 0.9."""
        a, a_len = profile._codes([x for x, _y in pairs], profile._LEFT_PAD)
        b, b_len = profile._codes([y for _x, y in pairs], profile._RIGHT_PAD)
        pruned = profile._jaro_winkler_bounded(a, a_len, b, b_len)
        exact = np.array([jaro_winkler(x, y) for x, y in pairs])
        kept = pruned >= 0.0
        assert np.array_equal(bits(pruned[kept]), bits(exact[kept]))
        assert (exact[~kept] < 0.9).all()

    @settings(max_examples=300, deadline=None)
    @given(
        short=st.text(alphabet="abcdeÉ", min_size=1, max_size=6),
        long=st.text(alphabet="abcdeÉ", min_size=3, max_size=30),
    )
    def test_length_bound_drops_only_pairs_below_the_threshold(self, short, long):
        """A pair whose longer token is over twice the shorter scores < 0.9."""
        if 2 * len(short.lower()) < len(long.lower()):
            assert jaro_winkler(short, long) < 0.9
            assert jaro_winkler(long, short) < 0.9

    def test_length_bound_at_its_edge(self):
        # a prefix of exactly half the other token: 0.8 + 0.2 * 1/2 = 0.9
        assert jaro_winkler("abcd", "abcdefgh") == pytest.approx(0.9)
        assert_kernel_matches([("abcd", [("abcdefgh",)])], WEIGHTS)
        assert jaro_winkler("abcd", "abcdefghi") < 0.9


class TestBoundedSteps:
    @pytest.mark.parametrize("cells", [1, 5, 40, 300])
    def test_small_steps_change_nothing(self, monkeypatch, cells):
        """Cutting the program into many steps and text-slot slabs gives the
        same bits as one step."""
        monkeypatch.setattr(profile, "_STEP_CELLS", cells)
        owners = [(lemma,) for lemma in LEMMAS] + [
            ("Albert Einstein", "Einstein"),
            tuple(right for _left, right in NEAR_THRESHOLD),
            (),
        ]
        texts = EDGE_TEXTS + [
            " ".join(left for left, _right in NEAR_THRESHOLD),
            "martha marhta jones einstein einstien new york yrok li ng bo",
        ]
        assert_kernel_matches([(text, owners) for text in texts], WEIGHTS)

    def test_long_token_and_many_token_cell(self):
        """One very long token and one cell of thousands of tokens do not
        widen the other pairs: the results stay bit-identical and the
        call's peak allocation stays small."""
        long_token = "einstein" * 1250  # 10,000 characters
        many = " ".join(f"tok{i}" for i in range(3000)) + " einstien marhta"
        owners = [
            ("Albert Einstein", "Einstein"),
            ("Martha Jones",),
            (long_token[:12], "New York"),
        ]
        queries = [
            (f"{long_token} einstein", owners),
            (many, owners),
            ("Einstien", owners),
            ("martha", owners),
        ] + [(text, owners) for text in EDGE_TEXTS]
        vocabulary = LemmaVocabulary(WEIGHTS)
        runs = [(text, vocabulary.intern(chosen)) for text, chosen in queries]
        tracemalloc.start()
        try:
            blocks = vocabulary.feature_blocks(runs)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak
        for (text, chosen), block in zip(queries, blocks):
            for lemmas, row in zip(chosen, block):
                expected = text_lemma_features(text, lemmas, WEIGHTS)
                assert np.array_equal(bits(row), bits(expected)), (text[:20], lemmas)


class TestConcurrentInterning:
    def test_threads_interning_and_scoring(self):
        """Threads intern overlapping owners and score against them while
        the tables grow; every result must still equal the scalar battery."""
        vocabulary = LemmaVocabulary(WEIGHTS)
        owners = [(lemma,) for lemma in LEMMAS] + [
            (f"{left} {right}", right) for left, right in NEAR_THRESHOLD
        ]
        failures: list[BaseException] = []

        def work(offset: int) -> None:
            try:
                for step in range(12):
                    chosen = owners[(offset + step) % len(owners) :][:5]
                    text = EDGE_TEXTS[(offset * 7 + step) % len(EDGE_TEXTS)]
                    assert_kernel_matches([(text, chosen)], WEIGHTS, vocabulary)
            except BaseException as error:  # reported below, on the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
