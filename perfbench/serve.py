"""``serve-mixed``: ``repro serve`` under an open-loop mix of requests.

Set-up builds a bundle from a seeded corpus and starts ``repro serve
--workers <nproc>`` as its own process, ``setup_repeats`` times.  Each
start is one ``setup_s`` sample, from process start until every worker has
answered one warm-up ``/annotate``; the last start serves the load.

The load comes from this process: ``nproc`` threads, each with one
persistent keep-alive connection, send a seeded open-loop schedule of
``/annotate`` (distinct tables, never the warm-up ones), ``/search`` and
``/search/join``, in equal shares, at a few fixed offered rates, from light load to past
saturation, the nominal rate in slices between the others.  A request's latency runs from the time it was due, so a
request that waits for a free connection is charged for the wait.
Generator lateness (send time minus the later of due time and the moment a
connection was free) and backlog growth are reported per rate, so a
stalled generator cannot pass for a fast server.

After the load, the server is checked against golden.json: the pinned
tables over ``/annotate``, then, hot-swapped by ``POST /admin/reload`` onto
a bundle of those tables, the pinned ``/search`` and ``/search/join``
queries.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import common, layers
from perfbench.common import ROOT, Outcome, Query, metric
from perfbench.corpus import Result
from perfbench.tracing import ATTRS, END, NAME, START, Summary, load_spans
from repro.api import AnnotateRequest, BundleBuildRequest, ReproSession
from repro.eval.metrics import AnnotationScores
from repro.tables.corpus import TableCorpus, save_corpus_jsonl
from repro.tables.model import LabeledTable

#: ``--workers`` and the generator's thread/connection count: nproc
WORKERS = len(os.sched_getaffinity(0))
#: the endpoints of the request mix, sent in equal shares.  There is no
#: traffic data to take a mix from (the paper and ROADMAP define none, and
#: the repo's load clients send only /annotate), so the mix is the simplest
#: arbitrary choice.
ENDPOINTS = ("annotate", "search", "join")
PATHS = {"annotate": "/annotate", "search": "/search", "join": "/search/join"}
#: mean backlog (requests due, not yet answered) may grow by at most this
#: much from a phase's first half to its second before the rate fails
BACKLOG_GROWTH_LIMIT = 3.0
HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Scale:
    """Sizes and offered rates of ``serve-mixed`` (the run passes FULL)."""

    bundle_tables: int = 120
    rates: tuple[float, ...] = common.RATES
    nominal_rate: float = 8.0
    #: share of the run's seconds spent at the nominal rate
    nominal_share: float = 0.7
    queries_per_relation: int = 20
    join_queries: int = 40
    setup_repeats: int = 5
    sample_checks: int = 8
    probe_requests: int = 12


FULL = Scale()
SMOKE = Scale(
    bundle_tables=8,
    rates=(2.0, 4.0),
    nominal_rate=2.0,
    queries_per_relation=2,
    join_queries=3,
    setup_repeats=3,
    sample_checks=2,
    probe_requests=2,
)


@dataclass
class Request:
    """One scheduled request and, once sent, what became of it."""

    due: float
    endpoint: str
    body: bytes
    labeled: LabeledTable | None = None
    query: Query | None = None
    taken: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    response: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200


def annotate_body(labeled: LabeledTable) -> bytes:
    return common.request_body(AnnotateRequest(table=labeled.table, include_timing=False).to_json())


class Inputs:
    """Seeded request payloads: distinct tables, cycling query samples."""

    def __init__(self, world, seed: int, scale: Scale, n_tables: int) -> None:
        self.tables = common.make_corpus(world, n_tables, common.derive_seed(seed, "serve-tables"), "serve")
        self.queries = {
            "search": common.search_queries(world, seed, scale.queries_per_relation),
            "join": common.join_queries(world, seed, scale.join_queries),
        }
        self.used = {"annotate": 0, "search": 0, "join": 0}

    def request(self, due: float, endpoint: str) -> Request:
        index = self.used[endpoint]
        self.used[endpoint] += 1
        if endpoint == "annotate":
            labeled = self.tables[index]
            return Request(due, endpoint, annotate_body(labeled), labeled=labeled)
        queries = self.queries[endpoint]
        query = queries[index % len(queries)]
        return Request(due, endpoint, common.request_body(query.payload), query=query)


def schedule(rate: float, duration: float, rng: random.Random, inputs: Inputs) -> list[Request]:
    """Open-loop arrivals at ``rate`` per second for ``duration`` seconds.

    One request per ``1/rate`` slot, jittered by up to a quarter slot, with
    the endpoints in exactly equal shares in a seeded order.  Even spacing
    keeps a connection's idle gaps on one side of the client's delayed-ACK
    threshold at a given rate, so the HTTP stall shows as a property of the
    rate instead of as seed noise.
    """
    block = list(ENDPOINTS)
    count = round(rate * duration)
    endpoints: list[str] = []
    while len(endpoints) < count:
        rng.shuffle(block)
        endpoints += block
    slot = 1.0 / rate
    return [
        inputs.request((index + 0.5 + rng.uniform(-0.25, 0.25)) * slot, endpoints[index])
        for index in range(count)
    ]


def post(conn: http.client.HTTPConnection, path: str, body: bytes) -> tuple[int, bytes]:
    conn.request("POST", path, body=body, headers=HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def run_phase(port: int, requests: list[Request]) -> float:
    """Send ``requests`` on schedule over ``WORKERS`` keep-alive connections;
    returns the phase's start (the zero of every ``due``)."""
    start = time.perf_counter() + 0.05
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                request.taken = time.perf_counter()
                delay = start + request.due - request.taken
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.perf_counter()
                try:
                    request.status, request.response = post(conn, PATHS[request.endpoint], request.body)
                except (OSError, http.client.HTTPException) as error:
                    request.status, request.response = -1, repr(error).encode()
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                request.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=sender) for _ in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start


def backlog_growth(start: float, duration: float, requests: list[Request]) -> float:
    """Median backlog (due, not yet answered) of a slice's second half minus
    that of its first half."""
    dones = sorted(r.done for r in requests)
    backlog = []
    answered = 0
    for position, request in enumerate(requests):
        due = start + request.due
        while answered < len(dones) and dones[answered] <= due:
            answered += 1
        backlog.append((due, position + 1 - answered))
    middle = start + duration / 2.0
    first = [depth for due, depth in backlog if due < middle]
    second = [depth for due, depth in backlog if due >= middle]
    return common.median(second) - common.median(first) if first and second else 0.0


def rate_stats(rate: float, slices: list[tuple[float, float, list[Request]]]) -> dict:
    """Latency, counts, generator lag and backlog growth of one offered
    rate, pooled over its ``(start, seconds, requests)`` slices."""
    latencies: dict[str, list[float]] = {endpoint: [] for endpoint in ENDPOINTS}
    counts = {endpoint: {"sent": 0, "succeeded": 0, "failed": 0} for endpoint in ENDPOINTS}
    lags: list[float] = []
    annotated = 0
    busy_seconds = 0.0
    for start, _seconds, requests in slices:
        for request in requests:
            counts[request.endpoint]["sent"] += 1
            lags.append(1000.0 * (request.sent - max(start + request.due, request.taken)))
            if request.ok:
                counts[request.endpoint]["succeeded"] += 1
                latencies[request.endpoint].append(1000.0 * (request.done - start - request.due))
            else:
                counts[request.endpoint]["failed"] += 1
        annotated += sum(1 for r in requests if r.ok and r.endpoint == "annotate")
        busy_seconds += max((r.done for r in requests), default=start) - start
    growth = max(backlog_growth(start, seconds, requests) for start, seconds, requests in slices)
    latency = common.latency_summary({k: v for k, v in latencies.items() if v})
    failed = sum(count["failed"] for count in counts.values())
    return {
        "rate": rate,
        "seconds": sum(seconds for _start, seconds, _requests in slices),
        "slices": len(slices),
        "counts": counts,
        "latency": latency,
        "generator_lag_ms": {"mean": _mean(lags), "max": max(lags, default=0.0)},
        "backlog_growth": growth,
        "meets_limits": failed == 0
        and growth <= BACKLOG_GROWTH_LIMIT
        and all(entry["tail_ms"] <= entry["limit_ms"] for entry in latency.values()),
        "annotate_per_s": common.ratio(annotated, busy_seconds),
    }


class Server:
    """One ``repro serve`` process (optionally with spans, see serve_entry)."""

    def __init__(self, bundle: Path, trace_dir: Path | None = None) -> None:
        self.bundle = bundle
        self.trace_dir = trace_dir
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.started = 0.0
        self.lines: list[str] = []
        self._drain: threading.Thread | None = None

    def start(self) -> None:
        serve = ["serve", "--bundle", str(self.bundle), "--host", "127.0.0.1", "--port", "0", "--workers", str(WORKERS)]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            command = [sys.executable, "-m", "perfbench.serve_entry", "--trace-dir", str(self.trace_dir), *serve]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        ready = threading.Event()
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )

        def drain() -> None:
            assert self.process is not None and self.process.stderr is not None
            for line in self.process.stderr:
                self.lines.append(line)
                found = re.search(r"on http://[^:]+:(\d+)", line)
                if found and not ready.is_set():
                    self.port = int(found.group(1))
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not ready.wait(120) or not self.port:
            self.stop()
            raise RuntimeError("repro serve did not start:\n" + "".join(self.lines))

    def warm(self, tables: list[LabeledTable]) -> float:
        """Send concurrent warm-up ``/annotate`` rounds until every worker
        has answered one; returns seconds since the process started."""
        remaining = list(tables)
        while True:
            batch, remaining = remaining[:WORKERS], remaining[WORKERS:]
            if len(batch) < WORKERS:
                raise RuntimeError("ran out of warm-up tables")
            statuses: list[int] = []

            def send(labeled: LabeledTable) -> None:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
                try:
                    statuses.append(post(conn, "/annotate", annotate_body(labeled))[0])
                finally:
                    conn.close()

            threads = [threading.Thread(target=send, args=(labeled,)) for labeled in batch]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ready_at = time.perf_counter()
            if statuses != [200] * WORKERS:
                raise RuntimeError(f"warm-up /annotate failed: {statuses}")
            workers = get_json(self.port, "/metrics")["workers"].values()
            if all(worker["requests"] >= 1 for worker in workers):
                return ready_at - self.started

    def metrics(self) -> dict:
        return get_json(self.port, "/metrics")

    def pids(self) -> list[int]:
        assert self.process is not None
        return [self.process.pid] + [w["pid"] for w in self.metrics()["workers"].values()]

    def stop(self) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=90)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        if self._drain is not None:
            self._drain.join(timeout=10)


def probe_overhead(untraced_port: int, traced_port: int, requests: list[Request]) -> float:
    """Tracing overhead: each request goes to an untraced and a traced
    server in turn (alternating which goes first), so both sides sample the
    same stretches of time; returns traced / untraced seconds - 1."""
    connections = [
        http.client.HTTPConnection("127.0.0.1", untraced_port, timeout=60),
        http.client.HTTPConnection("127.0.0.1", traced_port, timeout=60),
    ]
    seconds = [0.0, 0.0]
    try:
        for index, request in enumerate(requests):
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                start = time.perf_counter()
                post(connections[side], PATHS[request.endpoint], request.body)
                seconds[side] += time.perf_counter() - start
    finally:
        for connection in connections:
            connection.close()
    return seconds[1] / seconds[0] - 1.0


def check_sample(session: ReproSession, requests: list[Request], count: int, seed: int, outcome: Outcome) -> int:
    """Compare a seeded sample of served responses per endpoint with the
    in-process bytes; a mismatch is a failed operation."""
    rng = random.Random(common.derive_seed(seed, "sample"))
    checked = 0
    for endpoint in ENDPOINTS:
        served = [r for r in requests if r.endpoint == endpoint and r.ok]
        for request in rng.sample(served, min(count, len(served))):
            reference = common.answer(session, endpoint, request.body)
            outcome.check_equal(f"served {endpoint}", request.response, reference)
            checked += 1
    return checked


def traced_layers(
    trace_dir: Path,
    server_pid: int,
    window: tuple[float, float],
    requests: list[Request],
    before: dict,
    after: dict,
    stats: list[dict],
    nominal: dict,
    overhead: float,
    outcome: Outcome,
) -> dict[str, dict]:
    """Per-layer metrics from the traced server's per-process spans."""
    spans = load_spans(trace_dir)
    parent_all = spans.get(server_pid, [])
    workers_all = [span for pid, found in spans.items() if pid != server_pid for span in found]
    layers.check_crossed("serve-mixed", Summary(parent_all + workers_all), outcome)

    def in_window(span: list) -> bool:
        return window[0] <= span[START] <= window[1]

    parent = Summary([span for span in parent_all if in_window(span)])
    workers = Summary([span for span in workers_all if in_window(span)])
    served = [r for r in requests if r.ok]
    client_ms = [1000.0 * (r.done - r.sent) for r in served]
    round_trip_ms = [
        1000.0 * (span[END] - span[START])
        for span in parent.named("pipe.call")
        if span[ATTRS] and span[ATTRS]["kind"] == "request"
    ]
    pipe_ms = [
        1000.0 * (span[END] - span[START] - span[ATTRS]["handler_seconds"])
        for span in parent.named("pipe.call")
        if span[ATTRS] and span[ATTRS]["kind"] == "request" and span[ATTRS]["handler_seconds"] is not None
    ]
    tables = workers.count["core.annotate"]
    values = layers.core_layers(workers, tables)
    values["api.encode_s"] = common.ratio(
        workers.total["api.to_json"] + parent.total["api.encode_json"], tables
    )
    handle: dict[str, list[float]] = {}
    for span in workers.named("worker.handle"):
        handle.setdefault(span[ATTRS], []).append(1000.0 * (span[END] - span[START]))
    values.update(
        {
            "http.overhead_ms": _mean(client_ms) - parent.mean_ms("dispatch.call"),
            "dispatch.admission_wait_ms": parent.mean_ms("dispatch.admission"),
            "dispatch.queue_ms": parent.mean_ms("dispatch.call") - _mean(round_trip_ms),
            "pipe.overhead_ms": _mean(pipe_ms),
            "worker.handle_ms.annotate": _mean(handle.get("annotate", [])),
            "worker.handle_ms.search": _mean(handle.get("search", [])),
            "worker.handle_ms.join": _mean(handle.get("search_join", [])),
        }
    )
    batching = after.get("batching", {})
    values["coalesce.wait_ms"] = 1000.0 * batching.get("coalesce_wait_seconds", {}).get("p50", 0.0)
    values["coalesce.batch_size"] = batching.get("mean_batch_size", 0.0)
    # set-up is what happened before the load (the golden check's hot swap
    # spawns and loads again after it)
    setup = Summary([span for span in parent_all if span[START] < window[0]])
    values["setup.spawn_s"] = common.ratio(setup.total["setup.spawn"], setup.count["setup.spawn"])
    values["setup.bundle_load_s"] = setup.total["setup.bundle_load"]
    firsts = {}
    for pid, found in spans.items():
        annotates = [
            s for s in found if s[NAME] == "worker.handle" and s[ATTRS] == "annotate" and s[START] < window[0]
        ]
        if pid != server_pid and annotates:
            firsts[pid] = min(annotates, key=lambda s: s[START])
    values["setup.first_annotate_s"] = max((s[END] - s[START] for s in firsts.values()), default=0.0)
    values.update(layers.diagnostics_layers([json.loads(r.response)["diagnostics"] for r in served if r.endpoint == "annotate"]))
    values.update(layers.cache_layers(_cache_delta(before, after)))
    values["dispatch.shed"] = after["dispatcher"]["shed_total"] - before["dispatcher"]["shed_total"]
    values["worker.restarts"] = after["dispatcher"]["worker_restarts"] - before["dispatcher"]["worker_restarts"]
    values["generator.lag_ms"] = max(phase["generator_lag_ms"]["mean"] for phase in stats)
    values["generator.backlog_growth"] = nominal["backlog_growth"]
    accounted = parent.total["dispatch.call"] + parent.total["api.encode_json"]
    client_seconds = sum(client_ms) / 1000.0
    values["trace.accounted_fraction"] = common.ratio(accounted, client_seconds)
    values["trace.unaccounted_s"] = client_seconds - accounted
    values["trace.overhead_fraction"] = overhead
    return {name: metric(value, layers.PER_LAYER[name]) for name, value in layers.complete(values).items()}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _cache_delta(before: dict, after: dict) -> dict:
    delta = {}
    for engine, caches in after.get("caches", {}).items():
        for name, counters in caches.items():
            if "hits" not in counters:
                continue
            old = before.get("caches", {}).get(engine, {}).get(name, {})
            slot = delta.setdefault(name, {"hits": 0, "misses": 0})
            slot["hits"] += counters["hits"] - old.get("hits", 0)
            slot["misses"] += counters["misses"] - old.get("misses", 0)
    return delta


def plan(seconds: float, scale: Scale) -> list[tuple[float, float]]:
    """``(rate, seconds)`` slices in send order.  The nominal rate gets
    ``nominal_share`` of the run, split into slices that alternate with the
    other rates (ascending), so its latencies sample the whole run."""
    others = [rate for rate in scale.rates if rate != scale.nominal_rate]
    nominal = seconds * (scale.nominal_share if others else 1.0) / (len(others) + 1)
    rest = (seconds - nominal * (len(others) + 1)) / len(others) if others else 0.0
    slices = [(scale.nominal_rate, nominal)]
    for rate in others:
        slices += [(rate, rest), (scale.nominal_rate, nominal)]
    return slices


def run(seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> Result:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    servers: list[Server] = []
    try:
        return _run(seed, seconds, trace, scale, workdir, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def build_bundle(world, tables: list[LabeledTable], path: Path) -> Path:
    corpus_path = path.with_suffix(".jsonl")
    save_corpus_jsonl(TableCorpus(tables), corpus_path)
    ReproSession.from_world(world.annotator_view).build_bundle(
        BundleBuildRequest(corpus_path=str(corpus_path), output_path=str(path))
    )
    return path


def golden_bodies(server: Server, world, golden_bundle: Path) -> dict[str, list[bytes]]:
    """The golden outputs over HTTP: the pinned tables through ``/annotate``,
    then the pinned queries after hot-swapping onto a bundle of those tables.
    Leaves the server on the golden bundle."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        bodies = {"annotate": [post(conn, "/annotate", annotate_body(t))[1] for t in common.golden_tables(world)]}
        status, reply = post(conn, "/admin/reload", common.request_body({"bundle": str(golden_bundle)}))
        if status != 200:
            raise RuntimeError(f"/admin/reload failed: {status} {reply[:200]!r}")
        for query in common.golden_queries(world):
            bodies.setdefault(query.endpoint, []).append(
                post(conn, PATHS[query.endpoint], common.request_body(query.payload))[1]
            )
    finally:
        conn.close()
    return bodies


def _run(seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path, servers: list[Server]) -> Result:
    world = common.make_world()
    outcome = Outcome()
    bundle_corpus = common.make_corpus(world, scale.bundle_tables, common.derive_seed(seed, "bundle"), "bundle")
    bundle = build_bundle(world, bundle_corpus, workdir / "bundle")
    golden_bundle = build_bundle(world, common.golden_tables(world), workdir / "golden-bundle")

    phases = plan(seconds, scale)
    expected = sum(rate * duration for rate, duration in phases) / len(ENDPOINTS)
    inputs = Inputs(world, seed, scale, int(1.5 * expected) + 50)
    rng = random.Random(common.derive_seed(seed, "schedule"))
    schedules = [(rate, duration, schedule(rate, duration, rng, inputs)) for rate, duration in phases]
    warmup = iter(
        common.make_corpus(
            world, 6 * WORKERS * scale.setup_repeats, common.derive_seed(seed, "serve-warmup"), "servewarm"
        )
    )
    probe_tables = common.make_corpus(world, scale.probe_requests, common.derive_seed(seed, "probe"), "probe")
    probe_requests = [Request(0.0, "annotate", annotate_body(t), labeled=t) for t in probe_tables] + [
        inputs.request(0.0, endpoint) for endpoint in ("search", "join") for _ in range(scale.probe_requests)
    ]

    setup_s: list[float] = []
    server = baseline = None
    for start_index in range(scale.setup_repeats):
        last = start_index == scale.setup_repeats - 1
        server = Server(bundle, workdir / "trace" if trace and last else None)
        servers.append(server)
        server.start()
        setup_s.append(server.warm([next(warmup) for _ in range(6 * WORKERS)]))
        if trace and start_index == 0:
            baseline = server  # kept up, untraced, for the overhead probe
        elif not last:
            server.stop()
    assert server is not None
    overhead = 0.0
    if baseline is not None:
        overhead = probe_overhead(baseline.port, server.port, probe_requests)
        baseline.stop()

    before = server.metrics()
    sent: list[Request] = []
    done: dict[float, list[tuple[float, float, list[Request]]]] = {}
    load_start = time.perf_counter()
    for rate, duration, requests in schedules:
        done.setdefault(rate, []).append((run_phase(server.port, requests), duration, requests))
        sent.extend(requests)
    load_end = time.perf_counter()
    stats = [rate_stats(rate, done[rate]) for rate in sorted(done)]
    after = server.metrics()

    rss_mb = sum(common.vm_hwm_mb(pid) for pid in server.pids())
    outcome.check_golden(golden_bodies(server, world, golden_bundle))
    server.stop()

    for request in sent:
        if request.ok:
            outcome.ok()
        else:
            outcome.fail(f"{request.endpoint} -> {request.status}: {request.response[:200]!r}")
    session = ReproSession.from_bundle(bundle)
    check_sample(session, sent, scale.sample_checks, seed, outcome)

    scores = AnnotationScores()
    answered = []
    for request in sent:
        if not request.ok:
            continue
        if request.endpoint == "annotate":
            assert request.labeled is not None
            common.score_annotation(scores, request.labeled, json.loads(request.response)["annotation"])
        elif request.endpoint == "search":
            answered.append((request.query, json.loads(request.response)))

    nominal = next(phase for phase in stats if phase["rate"] == scale.nominal_rate)
    passing = [phase["rate"] for phase in stats if phase["meets_limits"]]
    row = scores.as_row()
    end_to_end = {
        "tables_per_s": metric(stats[-1]["annotate_per_s"], "1/s"),
        "setup_s": metric(common.median(setup_s), "s"),
        "peak_rss_mb": metric(rss_mb, "MiB"),
        "ok_fraction": metric(1.0 - common.ratio(outcome.failed, outcome.attempted), "ratio"),
        "entity_accuracy": metric(row["entity_accuracy"], "ratio"),
        "type_f1": metric(row["type_f1"], "ratio"),
        "relation_f1": metric(row["relation_f1"], "ratio"),
        "search_map": metric(common.search_map(answered), "ratio"),
    }
    report = {
        "cache_state": "bundle-warm server, cold worker caches; /annotate tables are distinct and never the warm-up ones",
        "workers": WORKERS,
        "connections": WORKERS,
        "mix": {endpoint: 1.0 / len(ENDPOINTS) for endpoint in ENDPOINTS},
        "nominal_rate": scale.nominal_rate,
        "offered_rates": sorted(scale.rates),
        "slices": phases,
        "backlog_growth_limit": BACKLOG_GROWTH_LIMIT,
        "setup_samples_s": setup_s,
        "phases": stats,
        "max_rps_at_slo": max(passing, default=0.0),
    }
    per_layer = {}
    if trace:
        per_layer = traced_layers(
            workdir / "trace",
            server.process.pid,
            (load_start, load_end),
            sent,
            before,
            after,
            stats,
            nominal,
            overhead,
            outcome,
        )
    return Result(end_to_end, per_layer, outcome, report)
