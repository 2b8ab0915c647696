"""Inputs, correctness checks, statistics and provenance shared by every
workload.

The catalog is pinned (it plays the part of the paper's YAGO snapshot: the
system's reference data, not its workload).  Everything a workload sends
through the system -- corpora, request streams, query samples -- is drawn
from the run's ``--seed`` through :func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import repro.api.types as api_types
from repro.api import AnnotateRequest, JoinSearchRequest, SearchRequest, SearchResponse
from repro.catalog.synthetic import SyntheticCatalogConfig, SyntheticWorld, generate_world
from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.eval.metrics import (
    AnnotationScores,
    annotation_type_sets,
    entity_accuracy,
    mean_average_precision,
    relation_f1,
    type_f1,
)
from repro.eval.workload import build_search_corpus, build_search_workload, relevance_keys
from repro.search.join_search import JoinQuery
from repro.search.ranking import SearchResponse as RankedResponse
from repro.tables.generator import NoiseProfile, TableGeneratorConfig, base_relation
from repro.tables.model import LabeledTable

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: the pinned catalog: ~900 entities with heavy surname/title sharing and a
#: YAGO-like incomplete annotator view (same dials as the paper-figure benches)
WORLD_CONFIG = SyntheticCatalogConfig(
    seed=7,
    n_persons=420,
    n_movies=200,
    n_novels=140,
    n_albums=90,
    n_countries=20,
    cities_per_country=3,
    n_clubs=24,
    multi_role_prob=0.25,
    surname_lemma_prob=0.65,
    initial_lemma_prob=0.7,
    adaptation_fraction=0.35,
    alias_category_fraction=0.5,
    drop_instance_link_prob=0.25,
    drop_subtype_link_prob=0.12,
    drop_tuple_prob=0.2,
)

#: table dials: 12-38 rows (the paper's tables average 35-37), surname-only
#: mentions and out-of-catalog rows; build_search_corpus mixes WIKI and WEB noise
GENERATOR_OVERRIDES = {
    "rows_range": (12, 38),
    "alternate_lemma_prob": 0.5,
    "unknown_cell_prob": 0.08,
}

#: fixed per-endpoint latency limits the tail must meet (max_rps_at_slo)
LIMITS_MS = {"annotate": 1000.0, "search": 500.0, "join": 500.0}

#: the fixed offered rates (requests/s) of serve-mixed: light load, near
#: the knee of two keep-alive connections, and well past saturation
RATES = (8.0, 16.0, 48.0)

#: the pinned corpus and query sample whose encoded responses are digested
#: into golden.json: the tables are annotated, then indexed and searched
GOLDEN_SEED = 20101
GOLDEN_TABLES = 20

#: join relation pairs whose middle types agree in the pinned catalog
JOIN_PAIRS = (
    ("rel:acted_in", "rel:born_in"),
    ("rel:directed", "rel:born_in"),
    ("rel:produced", "rel:born_in"),
    ("rel:wrote", "rel:born_in"),
    ("rel:album_by", "rel:born_in"),
    ("rel:born_in", "rel:located_in"),
    ("rel:located_in", "rel:official_language"),
)


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for one input stream of a run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()
    return int(digest[:12], 16)


def make_world() -> SyntheticWorld:
    return generate_world(WORLD_CONFIG)


def main_relation(labeled: LabeledTable) -> str | None:
    """The relation of a generated table's first related column pair."""
    truth = labeled.truth.relations
    for pair in sorted(truth):
        if truth[pair] is not None:
            return base_relation(truth[pair])[0]
    return None


def make_corpus(
    world: SyntheticWorld, n_tables: int, seed: int, tag: str
) -> list[LabeledTable]:
    """Distinct labeled tables, alternating WIKI and WEB noise, unique ids.

    Row counts and relations are stratified, so a seed changes what the
    tables say, not how much work they are:

    * row counts follow a seeded order of 12..38 that cycles through the
      small, large and middle thirds, so every stretch of a corpus has the
      same size mix;
    * the tables' relations follow a fixed rotation through the catalog's
      relations (a drawn table whose relation is not the one due is drawn
      again), so every relation supplies an equal share of every stretch of
      a corpus.  Search and join cost scales with how many indexed tables
      carry the queried relations.

    Unstratified, table sizes alone moved a 120-table corpus's throughput
    by 15% and the relation mix moved join latency by 2x from seed to seed.
    A per-relation cap is not enough: it lets a relation fall short of its
    share, and ``rel:born_in`` alone sets the cost of five join pairs.
    """
    rng = random.Random(seed)
    low, high = GENERATOR_OVERRIDES["rows_range"]
    third = (high - low + 1) // 3
    minimum = TableGeneratorConfig().min_relation_tuples
    relations = sorted(
        relation.relation_id
        for relation in world.full.relations.all_relations()
        if world.full.relations.tuple_count(relation.relation_id) >= minimum
    )
    sizes: list[int] = []
    tables: list[LabeledTable] = []
    while len(tables) < n_tables:
        if not sizes:
            bins = [list(range(low, low + third)), list(range(high - third + 1, high + 1))]
            bins.append(list(range(low + third, high - third + 1)))
            for members in bins:
                rng.shuffle(members)
            sizes = [size for group in zip(*bins) for size in group][::-1]
        noise = NoiseProfile.WIKI if len(tables) % 2 == 0 else NoiseProfile.WEB
        [labeled] = build_search_corpus(
            world,
            n_tables=1,
            seed=rng.randrange(2**31),
            noise=noise,
            generator_overrides={**GENERATOR_OVERRIDES, "rows_range": (sizes[-1], sizes[-1])},
        )
        if main_relation(labeled) != relations[len(tables) % len(relations)]:
            continue
        sizes.pop()
        labeled.table.table_id = f"{tag}:{len(tables):05d}"
        tables.append(labeled)
    return tables


def golden_tables(world: SyntheticWorld) -> list[LabeledTable]:
    return make_corpus(world, GOLDEN_TABLES, GOLDEN_SEED, "golden")


def golden_queries(world: SyntheticWorld) -> list[Query]:
    """The pinned queries asked of an index of :func:`golden_tables`, drawn
    from what those tables hold so that most have answers: per table, a
    /search ``R(?, e2)`` on its relation and the object of its first
    resolved row, and a /search/join for every :data:`JOIN_PAIRS` pair whose
    second relation that is."""
    searches, joins = [], []
    for labeled in golden_tables(world):
        truth = labeled.truth
        pair = next(pair for pair in sorted(truth.relations) if truth.relations[pair] is not None)
        relation, reversed_ = base_relation(truth.relations[pair])
        column = pair[0] if reversed_ else pair[1]
        rows = sorted(row for row, col in truth.cell_entities if col == column and truth.cell_entities[row, col])
        entity = truth.cell_entities[rows[0], column]
        searches.append(Query("search", SearchRequest(relation=relation, entity=entity).to_json()))
        joins += [
            Query("join", JoinSearchRequest(first_relation=first, second_relation=second, entity=entity).to_json())
            for first, second in JOIN_PAIRS
            if second == relation
        ]
    return searches + joins


def encode_response(response) -> bytes:
    """The wire bytes of one typed response (what ``repro serve`` sends).

    Looks ``encode_json`` up on its module at call time so the traced run's
    wrapper sees the call.
    """
    return api_types.encode_json(response.to_json()).encode("utf-8")


def request_body(payload: dict) -> bytes:
    return api_types.encode_json(payload).encode("utf-8")


def answer(session, endpoint: str, body: bytes) -> bytes:
    """One request body answered by an in-process session, decoded from
    JSON as the server decodes it; returns the response's wire bytes."""
    payload = json.loads(body)
    if endpoint == "annotate":
        response = session.annotate(AnnotateRequest.from_json(payload))
    elif endpoint == "search":
        response = session.search(SearchRequest.from_json(payload))
    else:
        response = session.join_search(JoinSearchRequest.from_json(payload))
    return encode_response(response)


def digest(bodies: list[bytes]) -> str:
    hasher = hashlib.sha256()
    for body in bodies:
        hasher.update(len(body).to_bytes(8, "little"))
        hasher.update(body)
    return hasher.hexdigest()


def golden_digests() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def session_golden_bodies(session, world: SyntheticWorld) -> dict[str, list[bytes]]:
    """The golden outputs through an in-process session: the pinned tables
    streamed, then indexed (replacing the session's index) and searched."""
    tables = [labeled.table for labeled in golden_tables(world)]
    bodies = {"annotate": [encode_response(r) for r in session.annotate_wire_stream(tables)]}
    session.index_corpus(tables)
    for query in golden_queries(world):
        bodies.setdefault(query.endpoint, []).append(answer(session, query.endpoint, request_body(query.payload)))
    return bodies


def write_golden() -> None:
    """Re-pin golden.json from this checkout's code (only when a change is
    meant to alter annotation or search output)::

        PYTHONPATH=src python3 -c "from perfbench import common; common.write_golden()"
    """
    from repro.api import ReproSession

    session = ReproSession.from_world(make_world().annotator_view)
    bodies = session_golden_bodies(session, make_world())
    digests = {endpoint: digest(found) for endpoint, found in bodies.items()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n")


# ----------------------------------------------------------------------
# outcome accounting
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Operations attempted / failed, plus the reason of every failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_equal(self, label: str, got: bytes, expected: bytes) -> bool:
        """One correctness comparison; a mismatch is a failed operation."""
        if got == expected:
            self.ok()
            return True
        self.fail(f"{label}: output bytes differ from the reference")
        return False

    def check_golden(self, bodies: dict[str, list[bytes]]) -> None:
        """Each endpoint's golden outputs against its committed digest."""
        pinned = golden_digests()
        for endpoint in sorted(pinned):
            got = digest(bodies.get(endpoint, []))
            if got == pinned[endpoint]:
                self.ok()
            else:
                self.fail(f"golden {endpoint} digest mismatch: {got}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ----------------------------------------------------------------------
# answer quality
# ----------------------------------------------------------------------
def wire_to_annotation(wire: dict) -> TableAnnotation:
    """Rebuild a label-only :class:`TableAnnotation` from a wire annotation."""
    annotation = TableAnnotation(table_id=wire["table_id"])
    for key, entity_id in wire["cells"].items():
        row, column = (int(part) for part in key.split(","))
        annotation.cells[(row, column)] = CellAnnotation(row, column, entity_id)
    for key, type_id in wire["columns"].items():
        annotation.columns[int(key)] = ColumnAnnotation(int(key), type_id)
    for key, label in wire["relations"].items():
        left, right = (int(part) for part in key.split(","))
        annotation.relations[(left, right)] = RelationAnnotation(left, right, label)
    return annotation


def score_annotation(scores: AnnotationScores, labeled: LabeledTable, wire: dict) -> None:
    """Fold one wire annotation into the paper's Section 6.1.1 metrics."""
    annotation = wire_to_annotation(wire)
    scores.entity.merge(entity_accuracy(labeled.truth, annotation))
    scores.type_.merge(type_f1(labeled.truth, annotation_type_sets(annotation)))
    scores.relation.merge(relation_f1(labeled.truth, annotation))


@dataclass
class Query:
    """One search request plus, for /search, its relevant answer keys."""

    endpoint: str  # "search" or "join"
    payload: dict
    relevant: frozenset[str] = frozenset()


def round_robin(groups: list[list]) -> list:
    """Interleave groups one item at a time, so every prefix of the result
    has the same mix of groups (query cost depends on the group)."""
    mixed = []
    for position in range(max((len(group) for group in groups), default=0)):
        mixed += [group[position] for group in groups if position < len(group)]
    return mixed


def search_queries(world: SyntheticWorld, seed: int, per_relation: int) -> list[Query]:
    """The Figure-9 workload: E2 values per query relation, with truth,
    interleaved across the relations."""
    workload = build_search_workload(
        world, queries_per_relation=per_relation, seed=derive_seed(seed, "queries")
    )
    by_relation: dict[str, list[Query]] = {}
    for query in workload.queries:
        by_relation.setdefault(query.relation_id, []).append(
            Query(
                "search",
                SearchRequest(relation=query.relation_id, entity=query.given_entity).to_json(),
                frozenset(relevance_keys(world, workload.relevant[query])),
            )
        )
    return round_robin(list(by_relation.values()))


def join_queries(world: SyntheticWorld, seed: int, count: int) -> list[Query]:
    """``count`` two-hop join queries, an equal seeded sample of each of
    :data:`JOIN_PAIRS`, interleaved across the pairs."""
    catalog = world.annotator_view
    rng = random.Random(derive_seed(seed, "joins"))
    groups = []
    for first, second in JOIN_PAIRS:
        entities = sorted(catalog.relations.participating_objects(second))
        rng.shuffle(entities)
        group = []
        for entity in entities[: -(-count // len(JOIN_PAIRS))]:
            JoinQuery.from_catalog(catalog, first, second, entity)
            group.append(
                Query(
                    "join",
                    JoinSearchRequest(
                        first_relation=first, second_relation=second, entity=entity
                    ).to_json(),
                )
            )
        groups.append(group)
    return round_robin(groups)[:count]


def ranked_keys(search_json: dict) -> list[str]:
    response = SearchResponse.from_json(search_json)
    return RankedResponse(answers=list(response.answers)).ranked_keys()


def search_map(answered: list[tuple[Query, dict]]) -> float:
    """MAP over the first answer to each distinct /search query."""
    seen: set[str] = set()
    pairs = []
    for query, body in answered:
        key = json.dumps(query.payload, sort_keys=True)
        if query.endpoint != "search" or key in seen:
            continue
        seen.add(key)
        pairs.append((ranked_keys(body), set(query.relevant)))
    return mean_average_precision(pairs)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that still
    has at least ten samples beyond it (the median when there are too few)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return (median(ordered), 50.0, n)
    return (ordered[n - 11], 100.0 * (n - 10) / n, n)


def latency_summary(latencies_ms: dict[str, list[float]]) -> dict:
    """Median and tail (with its percentile and count) per endpoint."""
    summary = {}
    for endpoint, values in latencies_ms.items():
        value, percentile, n = tail(values)
        summary[endpoint] = {
            "p50_ms": median(values),
            "tail_ms": value,
            "tail_percentile": round(percentile, 2),
            "samples": n,
            "limit_ms": LIMITS_MS[endpoint],
        }
    return summary


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def source_sha256() -> str:
    """Content hash of ``src/`` -- identifies the code when there is no git."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit() -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "latency_limits_ms": LIMITS_MS,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}

