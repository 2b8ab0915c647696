"""Array kernel for the f1/f2 text-vs-lemma similarity battery.

:func:`repro.core.features.text_lemma_features` scores one text against one
owner's lemmas (an entity's for f1, a type's for f2) with five measures —
TF-IDF cosine, soft-TF-IDF, Jaccard, Dice and exact match — each the max
over the lemmas.  Called once per (cell, candidate) it re-tokenizes both
sides and runs Jaro-Winkler token pair by token pair in Python, which made
it the hottest scalar code of candidate generation.

This module evaluates the same battery for every (text, owner) row of a
table at once:

* :class:`LemmaVocabulary` interns lemma tokens and case-folded lemmas to
  dense ids, owner by owner and only when a caller first asks for an owner
  (a :class:`LemmaRun`), so nothing is built for owners no table mentions;
* :meth:`LemmaVocabulary.feature_blocks` interns the texts' tokens once per
  call and runs one numpy program over every (text, lemma) pair: cosine and
  soft-TF-IDF accumulate position by position in Counter token order,
  Jaccard, Dice and exact match come from id comparisons, and each row's
  max over its owner's lemmas is one ``np.maximum.reduceat``;
* Jaro-Winkler, soft-TF-IDF's token similarity, runs once per distinct
  (text token, lemma token) pair of the call as a padded code-point program.
  A pair that provably cannot reach the 0.9 threshold is not scored, since
  soft-TF-IDF never uses a score below it: first by its length ratio, then
  by its common prefix plus how many of its characters could match at all.

Padding is bounded: pairs are grouped by text length and the work is cut
into steps of at most ``_STEP_CELLS`` cells, so one long token or one
many-token cell does not widen the arrays of the rest of the table.

Every output is bit-identical to the scalar battery: accumulations run in
the scalar code's order with the same expression trees, and the TF-IDF norms
are computed by the scalar expression itself.  ``tests/text/test_profile.py``
compares the bit patterns.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from repro.text.tfidf import TfidfWeights
from repro.text.tokenize import tokenize

#: |f1| == |f2| — keep in sync with repro.core.features.F1_FEATURE_NAMES
_N_FEATURES = 6
#: soft-TF-IDF's token-match threshold (``repro.text.similarity.soft_tfidf``)
_SOFT_THRESHOLD = 0.9
#: the pruning bound's margin below the threshold, far above its rounding
_BOUND_SLACK = 1e-9
#: cells of one step of the array program: (text slot, lemma slot, pair)
#: for the measures, (character, character, pair) for Jaro-Winkler.  Larger
#: work is cut into steps, so memory stays bounded whatever one cell holds.
_STEP_CELLS = 1 << 19
#: id of a padding slot in the token matrices
_PAD = -1
#: code-point padding of the two sides of a Jaro-Winkler pair: distinct,
#: and beyond Unicode, so padding never matches anything
_LEFT_PAD = 0x110000
_RIGHT_PAD = 0x110001


def _bag(
    text: str, weights: TfidfWeights | None
) -> tuple[list[str], list[int], list[float], list[float], float]:
    """(tokens, counts, idf, count·idf) in Counter order, and the TF-IDF norm."""
    counts = Counter(tokenize(text))
    idf = {
        token: (weights.idf(token) if weights is not None else 1.0)
        for token in counts
    }
    # the scalar battery's norm expression, so the sum rounds the same way
    norm = math.sqrt(sum((c * idf[t]) ** 2 for t, c in counts.items()))
    return (
        list(counts),
        list(counts.values()),
        list(idf.values()),
        [count * idf[token] for token, count in counts.items()],
        norm,
    )


class LemmaRun(NamedTuple):
    """An owner's lemmas: columns ``first .. first + count`` of the lemma table."""

    first: int
    count: int


class LemmaVocabulary:
    """Lemma tokens and lemmas interned to dense ids, grown lazily per owner.

    :meth:`intern` appends owners' lemmas to one padded lemma table, a
    column per lemma: token ids, counts, IDF and ``count · idf`` per token
    slot, and the lemma's token count, TF-IDF norm and folded-lemma id.
    Each new token's lower-cased code points go to a token table.  Only
    lemma strings enter, so both tables are bounded by the catalog; text
    tokens are interned per call and never stored.  Columns are appended,
    never rewritten, so a call keeps reading the arrays it started with
    while another thread grows them.

    The pair axis is the last, contiguous one throughout: numpy reduces
    over the short token axes in front of it at elementwise speed.
    """

    def __init__(self, weights: TfidfWeights | None) -> None:
        self.weights = weights
        self._token_ids: dict[str, int] = {}
        self._folded_ids: dict[str, int] = {}
        self._n_lemmas = 0
        # (lemma table, token table), republished whole after every intern
        self._tables: tuple[dict[str, np.ndarray], dict[str, np.ndarray]] = (
            {
                "ids": np.full((1, 0), _PAD, dtype=np.int64),
                "counts": np.zeros((1, 0)),
                "idf": np.zeros((1, 0)),
                "weights": np.zeros((1, 0)),
                "size": np.zeros(0, dtype=np.int64),
                "norm": np.zeros(0),
                "folded": np.zeros(0, dtype=np.int64),
            },
            {
                "codes": np.full((1, 0), _RIGHT_PAD, dtype=np.uint32),
                "length": np.zeros(0, dtype=np.int64),
            },
        )
        # interning assigns ids by table size (check-then-act)
        self._lock = threading.Lock()

    def intern(self, owners: Sequence[Sequence[str]]) -> list[LemmaRun]:
        """Append each owner's lemmas to the lemma table, in one step."""
        lemmas = [lemma for owner in owners for lemma in owner]
        bags = [_bag(lemma, self.weights) for lemma in lemmas]
        with self._lock:
            first_token = len(self._token_ids)
            ids: list[list[int]] = []
            new_tokens: list[str] = []
            for tokens, *_rest in bags:
                ids.append([])
                for token in tokens:
                    token_id = self._token_ids.get(token)
                    if token_id is None:
                        token_id = self._token_ids[token] = len(self._token_ids)
                        new_tokens.append(token)
                    ids[-1].append(token_id)
            folded = [
                self._folded_ids.setdefault(
                    lemma.strip().lower(), len(self._folded_ids)
                )
                for lemma in lemmas
            ]
            columns = {
                "ids": _columns(ids, _PAD, np.int64),
                "counts": _columns([bag[1] for bag in bags], 0.0, np.float64),
                "idf": _columns([bag[2] for bag in bags], 0.0, np.float64),
                "weights": _columns([bag[3] for bag in bags], 0.0, np.float64),
                "size": np.array([len(bag[0]) for bag in bags], dtype=np.int64),
                "norm": np.array([bag[4] for bag in bags], dtype=np.float64),
                "folded": np.array(folded, dtype=np.int64),
            }
            codes, lengths = _codes(new_tokens, _RIGHT_PAD)
            lemma_table, token_table = self._tables
            first = self._n_lemmas
            self._tables = (
                {
                    name: _append(
                        table, columns[name], first, _PAD if name == "ids" else 0
                    )
                    for name, table in lemma_table.items()
                },
                {
                    "codes": _append(
                        token_table["codes"], codes, first_token, _RIGHT_PAD
                    ),
                    "length": _append(token_table["length"], lengths, first_token, 0),
                },
            )
            self._n_lemmas = first + len(lemmas)
        starts = accumulate((len(owner) for owner in owners), initial=first)
        return [LemmaRun(start, len(owner)) for start, owner in zip(starts, owners)]

    def feature_blocks(
        self, queries: Sequence[tuple[str, Sequence[LemmaRun]]]
    ) -> list[np.ndarray]:
        """``text_lemma_features(text, lemmas)`` for every owner of every
        ``(text, owners)`` query: one ``(len(owners), 6)`` array per query,
        bit-identical to the scalar battery."""
        texts: dict[str, int] = {}
        row_text: list[int] = []
        runs: list[LemmaRun] = []
        for text, owners in queries:
            row_text.extend([texts.setdefault(text, len(texts))] * len(owners))
            runs.extend(owners)
        out = np.zeros((len(runs), _N_FEATURES))
        out[:, -1] = 1.0  # bias for a concrete (non-na) label
        if runs:
            out[:, :-1] = self._rows(
                list(texts),
                np.array(row_text, dtype=np.int64),
                np.array(runs, dtype=np.int64).reshape(-1, 2),
            )
        bounds = list(accumulate((len(owners) for _text, owners in queries), initial=0))
        return [out[start:stop] for start, stop in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    # the array program
    # ------------------------------------------------------------------
    def _rows(
        self, texts: list[str], row_text: np.ndarray, runs: np.ndarray
    ) -> np.ndarray:
        """The five measures per row, shape ``(n_rows, 5)``."""
        values = np.zeros((len(row_text), _N_FEATURES - 1))

        # -- the texts, their tokens interned for this call only --------
        bags = [_bag(text, self.weights) for text in texts]
        with self._lock:
            lemma_table, token_table = self._tables
            # -2: a token no lemma has (never equal to a lemma token id)
            known = [[self._token_ids.get(t, -2) for t in bag[0]] for bag in bags]
            text_folded = np.array(
                [self._folded_ids.get(text.strip().lower(), -1) for text in texts],
                dtype=np.int64,
            )
        local_ids: dict[str, int] = {}
        local = [
            [local_ids.setdefault(t, len(local_ids)) for t in bag[0]] for bag in bags
        ]
        batch = _Texts(
            tokens=list(local_ids),
            length=np.array([len(t.lower()) for t in local_ids], dtype=np.int64),
            local=local,
            known=known,
            weights=[bag[3] for bag in bags],
            size=np.array([len(bag[0]) for bag in bags], dtype=np.int64),
            norm=np.array([bag[4] for bag in bags]),
            folded=text_folded,
        )

        # -- one pair per (row, lemma of the row's owner) ---------------
        # ``if not text or not lemmas`` rows keep the default vector
        text_live = np.array([bool(text) for text in texts])
        per_row = runs[:, 1] * text_live[row_text]
        live_rows = np.flatnonzero(per_row)
        if not len(live_rows):
            return values
        counts = per_row[live_rows]
        pair_text = np.repeat(row_text[live_rows], counts)
        pair_lemma = _ragged_arange(runs[live_rows, 0], counts)
        width = max(int(lemma_table["size"][pair_lemma].max()), 1)
        pair_values = np.empty((len(pair_text), _N_FEATURES - 1))
        # pairs of similar text length together, a step's volume bounded
        for step in _steps(np.maximum(batch.size[pair_text], 1) * width):
            pair_values[step] = _pair_values(
                batch, pair_text[step], pair_lemma[step], lemma_table, token_table
            )
        # per row the max over lemmas; every measure is >= 0, so this equals
        # the scalar running max from 0.0
        values[live_rows] = np.maximum.reduceat(
            pair_values, np.cumsum(counts) - counts, axis=0
        )
        return values


class _Texts(NamedTuple):
    """A call's texts: token lists (per text, Counter order) and per-text
    arrays; ``tokens`` and ``length`` are per call-local token id."""

    tokens: list[str]
    length: np.ndarray
    local: list[list[int]]
    known: list[list[int]]
    weights: list[list[float]]
    size: np.ndarray
    norm: np.ndarray
    folded: np.ndarray


def _pair_values(
    batch: _Texts,
    pair_text: np.ndarray,
    pair_lemma: np.ndarray,
    lemma_table: dict[str, np.ndarray],
    token_table: dict[str, np.ndarray],
) -> np.ndarray:
    """The five measures of each (text, lemma) pair, shape ``(n_pairs, 5)``."""
    n_text = batch.size[pair_text]
    n_lemma = lemma_table["size"][pair_lemma]
    width = max(int(n_lemma.max()), 1)

    # token slots, shape (slot, pair); only this step's texts are padded
    def lemma_slots(name: str) -> np.ndarray:
        return lemma_table[name][:width].take(pair_lemma, axis=1)

    used, column = np.unique(pair_text, return_inverse=True)

    def text_slots(rows: list[list], fill, dtype) -> np.ndarray:
        return _columns([rows[i] for i in used], fill, dtype).take(column, axis=1)

    t_local = text_slots(batch.local, _PAD, np.int64)
    t_known = text_slots(batch.known, _PAD, np.int64)
    t_weight = text_slots(batch.weights, 0.0, np.float64)
    l_ids = lemma_slots("ids")
    l_valid = l_ids != _PAD
    l_weights = lemma_slots("weights")
    lemma_counts = lemma_slots("counts")
    lemma_idf = lemma_slots("idf")

    cosine_dot = np.zeros(len(pair_text))
    soft_dot = np.zeros(len(pair_text))
    intersection = np.zeros(len(pair_text), dtype=np.int64)
    # text slots in slabs, so (text slot, lemma slot, pair) stays within a
    # step even for a cell of very many tokens; the sums carry over
    slab = max(1, _STEP_CELLS // (width * len(pair_text)))
    for top in range(0, t_local.shape[0], slab):
        local = t_local[top : top + slab]
        known = t_known[top : top + slab]
        weight = t_weight[top : top + slab]
        t_valid = local != _PAD
        # (text slot, lemma slot, pair); each side's tokens are distinct, so
        # a text token equals at most one lemma token
        equal = (known[:, None, :] == l_ids[None, :, :]) & t_valid[:, None, :]
        intersection += equal.sum(axis=(0, 1))

        # cosine: Σ over text tokens, in order, of w_text · w_lemma
        matched_weight = np.where(equal, l_weights, 0.0).sum(axis=1)
        cosine_dot = _accumulate(weight * matched_weight, cosine_dot)

        # soft-TF-IDF: each text token's last best lemma token at >= 0.9
        scores = _token_scores(batch, local, t_valid, l_ids, l_valid, token_table)
        candidate = scores >= _SOFT_THRESHOLD
        best = np.where(candidate, scores, -1.0).max(axis=1)
        at_best = candidate & (scores == best[:, None, :])
        best_count = np.zeros_like(best)
        best_idf = np.zeros_like(best)
        for slot in range(width):  # a later slot wins a tie, as in the scalar
            chosen = at_best[:, slot, :]
            best_count = np.where(chosen, lemma_counts[slot], best_count)
            best_idf = np.where(chosen, lemma_idf[slot], best_idf)
        # ((((count_a · idf_a) · count_b) · idf_b) · score), as in the scalar
        contribution = weight * best_count * best_idf * best
        soft_dot = _accumulate(
            np.where(candidate.any(axis=1), contribution, 0.0), soft_dot
        )

    text_norms = batch.norm[pair_text]
    lemma_norms = lemma_table["norm"][pair_lemma]
    no_norm = (text_norms == 0.0) | (lemma_norms == 0.0)
    safe_norm = np.where(no_norm, 1.0, text_norms * lemma_norms)
    pair_values = np.stack(
        [
            cosine_dot / safe_norm,
            np.minimum(soft_dot / safe_norm, 1.0),
            # Jaccard and Dice over the token sets
            intersection / np.maximum(n_text + n_lemma - intersection, 1),
            2.0 * intersection / np.maximum(n_text + n_lemma, 1),
            batch.folded[pair_text] == lemma_table["folded"][pair_lemma],
        ],
        axis=1,
    )
    pair_values[no_norm, :2] = 0.0
    # the scalar battery's empty-bag returns come first
    one_empty = (n_text == 0) | (n_lemma == 0)
    pair_values[one_empty, :4] = ((n_text == 0) & (n_lemma == 0))[one_empty, None]
    return pair_values


def _token_scores(
    batch: _Texts,
    t_local: np.ndarray,
    t_valid: np.ndarray,
    l_ids: np.ndarray,
    l_valid: np.ndarray,
    token_table: dict[str, np.ndarray],
) -> np.ndarray:
    """Jaro-Winkler of every (text slot, lemma slot, pair); -1 on padding and
    wherever a bound proves a pair below the soft-TF-IDF threshold."""
    valid = t_valid[:, None, :] & l_valid[None, :, :]
    span = max(len(token_table["length"]), 1)
    keys = (t_local[:, None, :] * span + l_ids[None, :, :])[valid]
    distinct, inverse = np.unique(keys, return_inverse=True)
    scores = np.full(valid.shape, -1.0)
    scores[valid] = _jaro_winkler_pruned(
        batch, distinct // span, distinct % span, token_table
    )[inverse.reshape(-1)]
    return scores


# ----------------------------------------------------------------------
# array helpers
# ----------------------------------------------------------------------
def _columns(rows: list[list], fill, dtype) -> np.ndarray:
    """Ragged Python rows as the columns of one ``fill``-padded matrix."""
    width = max(max((len(row) for row in rows), default=0), 1)
    return np.ascontiguousarray(
        np.array([row + [fill] * (width - len(row)) for row in rows], dtype=dtype)
        .reshape(len(rows), width)
        .T
    )


def _append(table: np.ndarray, columns: np.ndarray, used: int, fill) -> np.ndarray:
    """``table`` with ``columns`` written from column ``used`` on (the last
    axis); grows into a new ``fill``-padded array, capacity doubled and
    padding widened, when they do not fit."""
    need = used + columns.shape[-1]
    old_rows = tuple(slice(0, n) for n in table.shape[:-1])
    new_rows = tuple(slice(0, n) for n in columns.shape[:-1])
    if need > table.shape[-1] or any(
        new > old for old, new in zip(table.shape[:-1], columns.shape[:-1])
    ):
        grown = np.full(
            tuple(map(max, table.shape[:-1], columns.shape[:-1]))
            + (max(need, 2 * table.shape[-1]),),
            fill,
            dtype=table.dtype,
        )
        grown[old_rows + (slice(0, used),)] = table[..., :used]
        table = grown
    table[new_rows + (slice(used, need),)] = columns
    return table


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``range(start, start + count)`` for every pair given."""
    total = int(counts.sum())
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(
        total, dtype=np.int64
    )


def _accumulate(terms: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``dot += term`` over the rows of ``terms``, in order, per column,
    starting from ``total`` (adding a 0.0 term leaves the sum bit-identical,
    so padding is harmless)."""
    for row in terms:
        total = total + row
    return total


def _steps(costs: np.ndarray) -> list[np.ndarray]:
    """Indices of ``costs`` cut into steps of the array program.

    A step pads every item to its largest, so its volume is the largest
    cost times its item count.  Items go in ascending cost and a step ends
    before its volume passes ``_STEP_CELLS`` (a step holds at least one
    item), so one large item never widens the rest.
    """
    if not len(costs) or int(costs.max()) * len(costs) <= _STEP_CELLS:
        return [np.arange(len(costs))]
    order = np.argsort(costs, kind="stable")
    ordered = costs[order]
    steps = []
    start = 0
    while start < len(order):
        window = ordered[start : start + _STEP_CELLS]
        volume = window * np.arange(1, len(window) + 1)
        fits = int(np.searchsorted(volume, _STEP_CELLS, side="right"))
        stop = start + max(1, fits)
        steps.append(order[start:stop])
        start = stop
    return steps


# ----------------------------------------------------------------------
# Jaro-Winkler over code-point arrays, shape (character, pair)
# ----------------------------------------------------------------------
def _codes(strings: Sequence[str], pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower-cased code points, a column per string padded with ``pad``,
    and the lengths."""
    lowered = [string.lower() for string in strings]
    lengths = np.array([len(string) for string in lowered], dtype=np.int64)
    width = max(int(lengths.max(initial=0)), 1)
    codes = (
        np.array(lowered, dtype=f"<U{width}")
        .view(np.uint32)
        .reshape(len(lowered), width)
    )
    return np.where(np.arange(width)[:, None] < lengths, codes.T, pad), lengths


def _window_matches(
    a: np.ndarray, a_len: np.ndarray, b: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """``[i, j, p]``: ``a[i] == b[j]`` within Jaro's match window (the two
    sides' distinct padding never matches)."""
    window = np.maximum(np.maximum(a_len, b_len) // 2 - 1, 0)
    offset = np.abs(np.arange(a.shape[0])[:, None] - np.arange(b.shape[0]))
    return (a[:, None, :] == b[None, :, :]) & (offset[:, :, None] <= window)


def _prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common-prefix length, capped at Jaro-Winkler's 4 characters."""
    width = min(4, a.shape[0], b.shape[0])
    return np.logical_and.accumulate(a[:width] == b[:width], axis=0).sum(axis=0)


def _jaro_winkler_codes(
    a: np.ndarray,
    a_len: np.ndarray,
    b: np.ndarray,
    b_len: np.ndarray,
    matches: np.ndarray,
) -> np.ndarray:
    """:func:`repro.text.similarity.jaro_winkler` per pair, bit-identical.

    ``matches`` is :func:`_window_matches` of the pairs.  Every pair runs
    the scalar greedy match: each ``a[i]``, in order, takes the first
    still-unmatched equal character of ``b`` inside the window.  Equal
    strings come out at exactly 1 (every ``a[i]`` takes ``b[i]``), as the
    scalar shortcut returns.
    """
    # a[i]'s choice depends only on the earlier occurrences of its
    # character (the only positions that can take an equal b[j]), so the
    # k-th occurrences of all characters are matched together, k by k
    positions = np.arange(a.shape[0])
    rank = (
        (a[:, None, :] == a[None, :, :]) & (positions[:, None] > positions)[:, :, None]
    ).sum(axis=1)
    rank[positions[:, None] >= a_len] = -1
    free_b = np.ones(b.shape, dtype=bool)
    matched_a = np.zeros(a.shape, dtype=bool)
    for k in range(int(rank.max(initial=-1)) + 1):
        step = matches & free_b[None, :, :] & (rank == k)[:, None, :]
        hit = step.any(axis=1)
        rows, pairs = np.nonzero(hit)
        free_b[step[rows, :, pairs].argmax(axis=1), pairs] = False
        matched_a |= hit
    m = matched_a.sum(axis=0)
    # transpositions: the k-th matched character of a against b's k-th,
    # both sides flattened pair by pair in position order
    mismatch = a.T[matched_a.T] != b.T[~free_b.T]
    transpositions = (
        np.bincount(np.repeat(np.arange(len(m)), m)[mismatch], minlength=len(m))
        // 2
    )
    jaro = (
        m / np.maximum(a_len, 1)
        + m / np.maximum(b_len, 1)
        + (m - transpositions) / np.maximum(m, 1)
    ) / 3.0
    jaro[m == 0] = 0.0
    jaro[(a_len == 0) & (b_len == 0)] = 1.0
    return jaro + _prefix(a, b) * 0.1 * (1.0 - jaro)


def _jaro_winkler_pruned(
    batch: _Texts,
    text_token: np.ndarray,
    lemma_token: np.ndarray,
    token_table: dict[str, np.ndarray],
) -> np.ndarray:
    """Jaro-Winkler of each (text token, lemma token) pair, or -1 where a
    bound proves it below 0.9.

    First the lengths: ``m <= min(len)`` bounds Jaro by
    ``(2 + short / long) / 3`` and a 4-character prefix lifts that to
    ``0.8 + 0.2 · short / long``, under 0.9 when the longer token is over
    twice the shorter.  Such pairs are not even encoded, which keeps every
    code-point array within twice the longest lemma token's width.
    """
    a_len = batch.length[text_token]
    b_len = token_table["length"][lemma_token]
    scores = np.full(len(text_token), -1.0)
    close = np.flatnonzero((2 * a_len >= b_len) & (2 * b_len >= a_len))
    if not len(close):
        return scores
    used, column = np.unique(text_token[close], return_inverse=True)
    codes, _lengths = _codes([batch.tokens[i] for i in used], _LEFT_PAD)
    # a step's (a char, a char, pair) rank tensor is its largest volume
    for step in _steps(4 * b_len[close] ** 2):
        pairs = close[step]
        a_width = int(a_len[pairs].max())
        b_width = int(b_len[pairs].max())
        scores[pairs] = _jaro_winkler_bounded(
            codes[:a_width].take(column[step], axis=1),
            a_len[pairs],
            token_table["codes"][:b_width].take(lemma_token[pairs], axis=1),
            b_len[pairs],
        )
    return scores


def _jaro_winkler_bounded(
    a: np.ndarray, a_len: np.ndarray, b: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """:func:`_jaro_winkler_codes`, with -1 for pairs provably below 0.9.

    The bound: Jaro's matches ``m`` cannot exceed the number of characters
    of either string that have an equal character inside the window, and
    Jaro-Winkler grows with ``m`` at a fixed common prefix, taking
    ``(m - t) / m`` at its maximum 1.
    """
    matches = _window_matches(a, a_len, b, b_len)
    m_bound = np.minimum(
        matches.any(axis=1).sum(axis=0), matches.any(axis=0).sum(axis=0)
    )
    jaro_bound = (
        m_bound / np.maximum(a_len, 1) + m_bound / np.maximum(b_len, 1) + 1.0
    ) / 3.0
    bound = jaro_bound + _prefix(a, b) * 0.1 * (1.0 - jaro_bound)
    keep = np.flatnonzero(bound >= _SOFT_THRESHOLD - _BOUND_SLACK)
    scores = np.full(len(a_len), -1.0)
    if len(keep):
        # padding past the kept pairs' lengths never matches: trim it
        a_width = max(int(a_len[keep].max()), 1)
        b_width = max(int(b_len[keep].max()), 1)
        scores[keep] = _jaro_winkler_codes(
            a[:a_width, keep],
            a_len[keep],
            b[:b_width, keep],
            b_len[keep],
            matches[:a_width, :b_width, keep],
        )
    return scores
