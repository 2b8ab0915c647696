"""``corpus-cold`` and ``corpus-warm``: corpus in, encoded annotations out.

Both stream tables through ``ReproSession.annotate_wire_stream`` and encode
every response to its wire bytes inside the timed region.  Between timed
rounds, a request stage sends single typed requests to the session
(``annotate``, ``search``, ``join_search``, decoded from JSON bodies as the
server would) for the latency report, ``search_map`` and ``max_rps_at_slo``.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import time
from dataclasses import dataclass, field

from perfbench import common, layers
from perfbench.common import Outcome, Query, metric
from perfbench.tracing import Recorder, Summary, install_core
from repro.api import AnnotateRequest, ReproSession
from repro.eval.metrics import AnnotationScores
from repro.tables.model import LabeledTable


@dataclass(frozen=True)
class Scale:
    """Input sizes of the corpus workloads (the run passes :data:`FULL`)."""

    round_tables: int = 150
    warm_tables: int = 100
    warmup_tables: int = 4
    request_tables: int = 60
    queries_per_relation: int = 20
    join_queries: int = 60
    #: request-stage slices spread over the run
    chunks: int = 10
    setup_repeats: int = 5
    warm_setup_repeats: int = 3


FULL = Scale()
SMOKE = Scale(
    round_tables=6,
    warm_tables=6,
    warmup_tables=1,
    request_tables=3,
    queries_per_relation=2,
    join_queries=3,
    chunks=2,
    setup_repeats=3,
)


@dataclass
class Result:
    end_to_end: dict[str, dict]
    per_layer: dict[str, dict]
    outcome: Outcome
    report: dict = field(default_factory=dict)


class Stream:
    """Timed streaming of tables through a session, one response each: the
    streaming windows, and the tables and seconds they hold."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.tables = 0
        self.windows: list[tuple[float, float]] = []

    def run(self, session: ReproSession, tables: list[LabeledTable]) -> list[tuple[bytes, dict, dict]]:
        """``(wire bytes, annotation, diagnostics)`` per table, in order."""
        out = []
        start = time.perf_counter()
        for response in session.annotate_wire_stream([labeled.table for labeled in tables]):
            out.append((common.encode_response(response), response.annotation, response.diagnostics))
        end = time.perf_counter()
        self.seconds += end - start
        self.tables += len(out)
        self.windows.append((start, end))
        return out

    def contains(self, instant: float) -> bool:
        """Whether ``instant`` falls inside one of the streaming windows."""
        index = bisect.bisect_right([start for start, _end in self.windows], instant) - 1
        return index >= 0 and instant <= self.windows[index][1]


def open_session(warmup: list[LabeledTable]) -> tuple[ReproSession, float]:
    """A fresh session, lazily initialised on the warm-up tables.

    Each session gets a catalog object of its own: the catalog memoises
    derived quantities, and a shared one would carry them across sessions.
    """
    catalog = common.make_world().annotator_view
    start = time.perf_counter()
    session = ReproSession.from_world(catalog)
    for _ in session.annotate_wire_stream([labeled.table for labeled in warmup]):
        pass
    return session, time.perf_counter() - start


def cache_counters(session: ReproSession) -> dict[str, dict[str, int]]:
    pipeline = session.pipeline()
    counters = {}
    for name, cache in (
        ("candidate_cache", pipeline.cache),
        ("block_cache", pipeline.block_cache),
        ("compiled_graph_cache", pipeline.compiled_cache),
    ):
        if cache is not None:
            stats = cache.stats()
            counters[name] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "entries": stats.entries,
                "max_entries": stats.max_entries,
                "evictions": stats.evictions,
            }
    return counters


def add_counters(total: dict, counters: dict) -> None:
    for name, values in counters.items():
        slot = total.setdefault(name, {"hits": 0, "misses": 0})
        slot["hits"] += values["hits"]
        slot["misses"] += values["misses"]


class RequestStage:
    """Single typed requests, decoded from JSON bodies as the server would,
    spread over the run in ``chunks`` slices so their latencies sample the
    whole run rather than one moment of it."""

    def __init__(self, annotate_tables: list[LabeledTable], queries: list[Query], chunks: int) -> None:
        items: list[tuple[str, object, bytes]] = [
            ("annotate", labeled, common.request_body(AnnotateRequest(table=labeled.table, include_timing=False).to_json()))
            for labeled in annotate_tables
        ]
        items += [(query.endpoint, query, common.request_body(query.payload)) for query in queries]
        self.chunks = [items[index::chunks] for index in range(chunks)]
        self.next_chunk = 0
        self.latencies: dict[str, list[float]] = {"annotate": [], "search": [], "join": []}
        self.annotate_bodies: dict[str, bytes] = {}
        self.answered: list[tuple[Query, dict]] = []

    def due(self, streamed: float, seconds: float) -> bool:
        """Whether the next chunk's share of the streaming time has passed."""
        return self.next_chunk < len(self.chunks) and streamed >= self.next_chunk * seconds / len(self.chunks)

    def run_due(self, session: ReproSession, streamed: float, seconds: float) -> None:
        while self.due(streamed, seconds):
            self.run_chunk(session)

    def run_chunk(self, session: ReproSession) -> None:
        for endpoint, item, payload in self.chunks[self.next_chunk]:
            start = time.perf_counter()
            body = common.answer(session, endpoint, payload)
            self.latencies[endpoint].append(1000.0 * (time.perf_counter() - start))
            if endpoint == "annotate":
                self.annotate_bodies[item.table.table_id] = body
            else:
                self.answered.append((item, json.loads(body)))
        self.next_chunk += 1

    def finish(self, session: ReproSession, outcome: Outcome) -> dict:
        while self.next_chunk < len(self.chunks):
            self.run_chunk(session)
        outcome.ok(sum(len(chunk) for chunk in self.chunks))
        total_seconds = sum(sum(values) for values in self.latencies.values()) / 1000.0
        summary = common.latency_summary(self.latencies)
        within = all(entry["tail_ms"] <= entry["limit_ms"] for entry in summary.values())
        requests = sum(len(values) for values in self.latencies.values())
        return {
            "latency": summary,
            "search_map": common.search_map(self.answered),
            # one closed-loop client: requests over their summed latencies
            "max_rps_at_slo": common.ratio(requests, total_seconds) if within else 0.0,
        }


def end_to_end(
    tables_per_s: float,
    setup_s: list[float],
    outcome: Outcome,
    scores: AnnotationScores,
    stage: dict,
) -> dict[str, dict]:
    row = scores.as_row()
    return {
        "tables_per_s": metric(tables_per_s, "1/s"),
        "setup_s": metric(common.median(setup_s), "s"),
        "peak_rss_mb": metric(common.peak_rss_mb(), "MiB"),
        "ok_fraction": metric(1.0 - common.ratio(outcome.failed, outcome.attempted), "ratio"),
        "entity_accuracy": metric(row["entity_accuracy"], "ratio"),
        "type_f1": metric(row["type_f1"], "ratio"),
        "relation_f1": metric(row["relation_f1"], "ratio"),
        "search_map": metric(stage["search_map"], "ratio"),
    }


def toggle(recorder: Recorder, on: bool, streams: dict[bool, Stream]) -> Stream:
    """Alternate traced and untraced rounds, so both sample the same
    stretches of the run and their difference is the tracing overhead."""
    recorder.uninstall()
    if on:
        install_core(recorder)
    return streams[on]


def streamed(streams: dict[bool, Stream]) -> tuple[int, float]:
    """Tables and seconds streamed so far, traced and untraced together."""
    return sum(s.tables for s in streams.values()), sum(s.seconds for s in streams.values())


def traced_layers(
    workload: str, recorder: Recorder, streams: dict[bool, Stream], diagnostics: list[dict], caches: dict, outcome: Outcome
) -> dict[str, dict]:
    """Per-layer metrics of the traced rounds of a corpus run."""
    traced, untraced = streams[True], streams[False]
    layers.check_crossed(workload, Summary(recorder.spans), outcome)
    in_stream = [span for span in recorder.spans if traced.contains(span[1])]
    summary = Summary(in_stream)
    values = layers.core_layers(summary, traced.tables)
    request_summary = Summary([span for span in recorder.spans if not traced.contains(span[1])])
    for name in ("api.decode_ms", "search.annotated_ms", "search.join_ms"):
        values[name] = layers.core_layers(request_summary, 1)[name]
    values.update(layers.diagnostics_layers(diagnostics))
    values.update(layers.cache_layers(caches))
    accounted = summary.top_level_seconds()
    values["trace.accounted_fraction"] = common.ratio(accounted, traced.seconds)
    values["trace.unaccounted_s"] = traced.seconds - accounted
    values["trace.overhead_fraction"] = (
        common.ratio(traced.seconds, traced.tables) / common.ratio(untraced.seconds, untraced.tables) - 1.0
    )
    return {name: metric(value, layers.PER_LAYER[name]) for name, value in layers.complete(values).items()}


def _queries(world, seed: int, scale: Scale) -> list[Query]:
    return common.search_queries(world, seed, scale.queries_per_relation) + common.join_queries(
        world, seed, scale.join_queries
    )


def run_cold(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Result:
    """Fresh sessions stream distinct tables until ``seconds`` of streaming.

    Each round opens a new session (its set-up is one ``setup_s`` sample),
    initialises it on warm-up tables kept apart from the measured ones, then
    streams ``round_tables`` tables no session has seen.  Request-stage
    chunks go to the round's session, indexed on its round's corpus; their
    ``annotate`` requests carry tables nobody has seen.  The
    traced run alternates untraced and traced rounds.
    """
    world = common.make_world()
    outcome = Outcome()
    warmup = common.make_corpus(world, scale.warmup_tables, common.derive_seed(seed, "warmup"), "warmup")
    requests = common.make_corpus(world, scale.request_tables, common.derive_seed(seed, "cold-requests"), "coldreq")
    stage = RequestStage(requests, _queries(world, seed, scale), scale.chunks)
    streams = {False: Stream(), True: Stream()}
    recorder = Recorder()
    scores = AnnotationScores()
    diagnostics: list[dict] = []
    caches: dict = {}
    setup_s: list[float] = []
    round_seconds: list[float] = []
    round_index = 0
    corpus: list[LabeledTable] = []
    results: list = []
    session = None
    while streamed(streams)[1] < seconds or (trace and round_index < 2):
        stream = toggle(recorder, trace and round_index % 2 == 1, streams)
        corpus = common.make_corpus(
            world, scale.round_tables, common.derive_seed(seed, f"cold-{round_index}"), f"cold{round_index}"
        )
        session = None
        gc.collect()  # the previous round's session is garbage; free it untimed
        session, setup = open_session(warmup)
        setup_s.append(setup)
        before = stream.seconds
        results = stream.run(session, corpus)
        round_seconds.append(stream.seconds - before)
        add_counters(caches, cache_counters(session))
        for labeled, (_body_bytes, annotation, diag) in zip(corpus, results):
            common.score_annotation(scores, labeled, annotation)
            diagnostics.append(diag)
        outcome.ok(len(results))
        so_far = streamed(streams)[1]
        if stage.due(so_far, seconds) or so_far >= seconds:
            session.index_corpus([labeled.table for labeled in corpus])
            toggle(recorder, trace, streams)  # the traced run traces every request
            stage.run_due(session, so_far, seconds)
        round_index += 1
    recorder.uninstall()
    while len(setup_s) < scale.setup_repeats:
        setup_s.append(open_session(warmup)[1])
    assert session is not None
    latency = stage.finish(session, outcome)

    # the last session, now warm on its round: cold bytes == warm bytes, and
    # every single request's bytes == the stream's bytes for that table
    sample = corpus[: min(10, len(corpus))]
    for index, (warm_body, _a, _d) in enumerate(Stream().run(session, sample)):
        outcome.check_equal(f"cold/warm {sample[index].table.table_id}", warm_body, results[index][0])
    for labeled, (body, _a, _d) in zip(requests, Stream().run(session, requests)):
        table_id = labeled.table.table_id
        outcome.check_equal(f"request/stream {table_id}", stage.annotate_bodies[table_id], body)
    outcome.check_golden(common.session_golden_bodies(session, world))

    report = {
        "rounds": round_index,
        "round_tables": scale.round_tables,
        "round_seconds": round_seconds,
        "setup_samples_s": setup_s,
        "cache_state": "cold: a fresh session per round; warm-up tables are distinct from measured ones",
        "caches": caches,
        "latency": latency["latency"],
        "max_rps_at_slo": latency["max_rps_at_slo"],
    }
    per_layer = traced_layers("corpus-cold", recorder, streams, diagnostics, caches, outcome) if trace else {}
    tables_per_s = common.ratio(*streamed(streams))
    return Result(end_to_end(tables_per_s, setup_s, outcome, scores, latency), per_layer, outcome, report)


def run_warm(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Result:
    """Re-annotate a corpus the session has already annotated once.

    Set-up (one ``setup_s`` sample, repeated ``setup_repeats`` times on fresh
    sessions) is session open, warm-up tables and the first pass over the
    corpus.  The timed passes then stream the corpus in seeded orders; every
    warm output must equal its first-pass bytes.  The traced run
    alternates untraced and traced passes.
    """
    world = common.make_world()
    outcome = Outcome()
    warmup = common.make_corpus(world, scale.warmup_tables, common.derive_seed(seed, "warmup"), "warmup")
    corpus = common.make_corpus(world, scale.warm_tables, common.derive_seed(seed, "warm"), "warm")
    setup_s: list[float] = []
    reference: dict[str, bytes] = {}
    session = None
    first_pass: list = []
    for _ in range(scale.warm_setup_repeats):
        start = time.perf_counter()
        session, _setup = open_session(warmup)
        first_pass = Stream().run(session, corpus)
        setup_s.append(time.perf_counter() - start)
        for labeled, (body, _a, _d) in zip(corpus, first_pass):
            expected = reference.setdefault(labeled.table.table_id, body)
            outcome.check_equal(f"first pass {labeled.table.table_id}", body, expected)
    assert session is not None
    scores = AnnotationScores()
    for labeled, (_body_bytes, annotation, _d) in zip(corpus, first_pass):
        common.score_annotation(scores, labeled, annotation)
    session.index_corpus([labeled.table for labeled in corpus])
    requests = corpus[:: max(1, len(corpus) // scale.request_tables)][: scale.request_tables]
    stage = RequestStage(requests, _queries(world, seed, scale), scale.chunks)

    streams = {False: Stream(), True: Stream()}
    recorder = Recorder()
    diagnostics: list[dict] = []
    pass_seconds: list[float] = []
    counters_before = cache_counters(session)
    pass_index = 0
    while streamed(streams)[1] < seconds or (trace and pass_index < 2):
        stream = toggle(recorder, trace and pass_index % 2 == 1, streams)
        order = list(corpus)
        random.Random(common.derive_seed(seed, f"order-{pass_index}")).shuffle(order)
        before = stream.seconds
        results = stream.run(session, order)
        pass_seconds.append(stream.seconds - before)
        for labeled, (body, _a, diag) in zip(order, results):
            outcome.check_equal(f"warm {labeled.table.table_id}", body, reference[labeled.table.table_id])
            diagnostics.append(diag)
        toggle(recorder, trace, streams)  # the traced run traces every request
        stage.run_due(session, streamed(streams)[1], seconds)
        pass_index += 1
    recorder.uninstall()
    counters_after = cache_counters(session)
    caches = {
        name: {
            "hits": counters_after[name]["hits"] - counters_before[name]["hits"],
            "misses": counters_after[name]["misses"] - counters_before[name]["misses"],
        }
        for name in counters_after
    }
    latency = stage.finish(session, outcome)
    for labeled in requests:
        table_id = labeled.table.table_id
        outcome.check_equal(f"request/first pass {table_id}", stage.annotate_bodies[table_id], reference[table_id])
    outcome.check_golden(common.session_golden_bodies(session, world))

    report = {
        "passes": pass_index,
        "warm_tables": scale.warm_tables,
        "pass_seconds": pass_seconds,
        "setup_samples_s": setup_s,
        "cache_state": "warm: the corpus was annotated once in set-up; the working set fits the default caches",
        "cache_sizes": counters_after,
        "caches": caches,
        "latency": latency["latency"],
        "max_rps_at_slo": latency["max_rps_at_slo"],
    }
    per_layer = traced_layers("corpus-warm", recorder, streams, diagnostics, caches, outcome) if trace else {}
    tables_per_s = common.ratio(*streamed(streams))
    return Result(end_to_end(tables_per_s, setup_s, outcome, scores, latency), per_layer, outcome, report)
