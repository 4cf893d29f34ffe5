"""Workload ``service``: closed-loop job round trips over the HTTP API.

An in-process ``EvaluationService`` at its defaults (2 thread workers,
64-entry result store) with a journal and a persistent cache directory,
served by ``repro.service.http.create_server``.  Two ``http.client``
connections each loop: ``POST /jobs``, then long-poll ``GET /jobs/<id>?wait=``
until the job is terminal, then send the next request (a closed loop: a
slow service receives less load).

The seeded request stream draws from the cheap scenarios with budget and
``profiling_runs`` overrides.  About 60% of draws are new requests (store
put, journal append, disk-tier writes); the rest repeat an earlier request
(store hits).  The stream holds more distinct requests than the store, so
some repeats miss after eviction.  Queue, store, journal, HTTP and the disk
tier do most of the work; compilation is light.

Before the timed loop, a cold-start burst sends one request per connection
at once to the fresh service, untimed, and waits for each to end.  The
workload neither preloads the scenario registry nor retries a refused
request, so the burst exposes the registry's lazy-load race: a concurrent
first lookup may see an empty or partial registry and get a 404.  Such
404s are counted and printed as ``service.cold_start_404s``, not as failed
operations; any other error of the burst is a failure.  The burst's
requests (``profiling_runs`` 1) never occur in the seeded stream.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from checks import summary_for_comparison
from common import TMP_DIR, WorkloadReport, engine_hit_ratios, gains, \
    median, parse_cache_hit_ratio, parse_cache_snapshot, percentile, ratio

SCENARIOS = ("smart-meter", "ecg-wearable", "space-spacewire", "uav-sar",
             "uav-pa")
#: Each block of ``BLOCK`` draws repeats ``REPEATS_PER_BLOCK`` earlier
#: requests (40%); the rest are new.
BLOCK = 5
#: Search budgets (generations, population) of new requests.  The search
#: cost grows tenfold across them, so each scenario's new requests cycle
#: through all of them in a seeded order: the cost mix, and so the
#: throughput, does not depend on the seed's draw.
BUDGETS = tuple((generations, population) for generations in (1, 2, 3)
                for population in range(2, 7))
REPEATS_PER_BLOCK = 2
CLIENTS = 2
#: ``?wait=`` of each long poll (the server caps it at 60 s).
POLL_WAIT_S = 30
#: The gains are taken over this many leading new requests that carry an
#: improvement report: one full ``BUDGETS`` cycle per build scenario, whose
#: ``profiling_runs`` follow from the budget, so they depend neither on how
#: far a run got nor on the seed.
GAIN_REQUESTS = 4 * len(BUDGETS)
TERMINAL = ("succeeded", "failed", "cancelled")
#: One request per connection of the cold-start burst.
BURST = tuple((scenario, 1, 2, 1) for scenario in SCENARIOS[:CLIENTS])


def _cycle(rng: random.Random, items):
    """Endless passes over ``items``, each pass in a new seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def request_stream(seed: int):
    """Endless seeded stream of ``(kind, request)``; kind is fresh/repeat.

    Stratified so every seed sees the same traffic shares: each block of
    five draws holds three new requests and two repeats (at seeded
    positions); new requests and repeats each cycle through the scenarios
    in seeded orders; a scenario's new requests cycle through ``BUDGETS``,
    with ``profiling_runs`` fixed by the budget in the first cycle and
    seeded after it.  A repeat picks uniformly among all
    earlier requests of its scenario, so the older ones have often left
    the store.
    """
    rng = random.Random(seed)
    new_scenarios = _cycle(rng, SCENARIOS)
    repeat_scenarios = _cycle(rng, SCENARIOS)
    budgets = {name: _cycle(rng, BUDGETS) for name in SCENARIOS}
    earlier: Dict[str, List[tuple]] = {name: [] for name in SCENARIOS}
    seen = set()
    first_block = True
    while True:
        block = ["fresh"] * (BLOCK - REPEATS_PER_BLOCK) \
            + ["repeat"] * REPEATS_PER_BLOCK
        rng.shuffle(block)
        if first_block:
            block.sort(key=lambda kind: kind != "fresh")
            first_block = False
        for kind in block:
            if kind == "repeat":
                # Skips scenarios with no request yet (first block only).
                scenario = next(name for name in repeat_scenarios
                                if earlier[name])
                yield "repeat", rng.choice(earlier[scenario])
                continue
            scenario = next(new_scenarios)
            generations, population = next(budgets[scenario])
            first_cycle = len(earlier[scenario]) < len(BUDGETS)
            while True:
                profiling = (2 + (generations + population) % 7
                             if first_cycle else rng.randint(2, 8))
                request = (scenario, generations, population, profiling)
                if request not in seen:
                    break
            earlier[scenario].append(request)
            seen.add(request)
            yield "fresh", request


def request_body(request: tuple) -> Dict[str, object]:
    scenario, generations, population, profiling = request
    return {"scenario": scenario, "generations": generations,
            "population_size": population, "profiling_runs": profiling}


@dataclass
class RoundTrip:
    index: int
    kind: str
    request: tuple
    post_status: Optional[int]
    document: Dict[str, object]
    started: float
    finished: float
    error: str = ""

    @property
    def succeeded(self) -> bool:
        return not self.error and self.document.get("state") == "succeeded"


class Server:
    """The service under test plus its HTTP server thread."""

    def __init__(self, tmp: str):
        from repro.service import EvaluationService
        from repro.service.http import create_server
        self.tmp = tmp
        self.service = EvaluationService(
            journal=os.path.join(tmp, "journal.jsonl"),
            cache_dir=os.path.join(tmp, "cache"))
        self.httpd = create_server(self.service)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       name="bench-http", daemon=True)
        self.thread.start()
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        self.service.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


def setup() -> Server:
    """Imports, service construction and server bind (registry stays lazy)."""
    tmp = str(TMP_DIR / f"service-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return Server(tmp)


def _call(conn, method: str, path: str, body=None):
    payload = None if body is None else json.dumps(body)
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=120)


def _round_trip(conn, index: int, kind: str, request: tuple) -> RoundTrip:
    """``POST /jobs`` then long-poll until terminal; never retries."""
    started = time.perf_counter()
    post_status, document, error = None, {}, ""
    try:
        post_status, document = _call(conn, "POST", "/jobs",
                                      request_body(request))
        if post_status not in (200, 202):
            error = f"POST /jobs {post_status}: {document.get('error')}"
        while not error and document.get("state") not in TERMINAL:
            status, document = _call(
                conn, "GET", f"/jobs/{document['id']}?wait={POLL_WAIT_S}")
            if status != 200:
                error = f"GET /jobs {status}: {document.get('error')}"
        if not error and document["state"] != "succeeded":
            error = f"job {document['id']} {document['state']}: " \
                    f"{document.get('error')}"
    except (OSError, http.client.HTTPException, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        conn.close()
    return RoundTrip(index, kind, request, post_status, document, started,
                     time.perf_counter(), error)


def _client(port: int, next_request, deadline: float,
            trips: List[RoundTrip]) -> None:
    conn = _connect(port)
    try:
        while time.perf_counter() < deadline:
            # A connection closed after an error reopens on its next request.
            trips.append(_round_trip(conn, *next_request()))
    finally:
        conn.close()


def _registry_race(trip: RoundTrip) -> bool:
    """A 404 from a lookup that ran before the registry finished loading."""
    return trip.post_status == 404 and "unknown scenario" in trip.error


def cold_start_burst(port: int) -> List[RoundTrip]:
    """The burst's requests, sent at once on one connection each."""
    trips: List[RoundTrip] = []
    ready = threading.Barrier(len(BURST))

    def send(request: tuple) -> None:
        conn = _connect(port)
        try:
            try:
                conn.connect()
                ready.wait(timeout=60)
            except (OSError, threading.BrokenBarrierError):
                ready.abort()  # send anyway; _round_trip records any error
            trips.append(_round_trip(conn, -1, "burst", request))
        finally:
            conn.close()

    senders = [threading.Thread(target=send, args=(request,),
                                name=f"bench-burst-{n}")
               for n, request in enumerate(BURST)]
    for sender in senders:
        sender.start()
    for sender in senders:
        sender.join()
    return trips


def _classify(trips: List[RoundTrip]) -> Dict[int, str]:
    """Measured kind of each successful round trip, by stream index.

    ``fresh`` (first success of a request), ``store_hit`` (repeat answered
    from the store), ``coalesced`` (repeat joined a still-running job) or
    ``evicted`` (repeat recomputed after its result left the store).
    """
    job_ids: Dict[tuple, set] = {}
    kinds: Dict[int, str] = {}
    for trip in sorted(trips, key=lambda t: t.index):
        if not trip.succeeded:
            continue
        known = job_ids.setdefault(trip.request, set())
        job_id = trip.document["id"]
        if not known:
            kinds[trip.index] = "fresh"
        elif job_id in known:
            kinds[trip.index] = ("store_hit" if trip.post_status == 200
                                 else "coalesced")
        else:
            kinds[trip.index] = "evicted"
        known.add(job_id)
    return kinds


def run(server: Server, seed: int, seconds: float) -> WorkloadReport:
    from repro.compiler.engine import process_cache_store_stats
    from repro.scenarios.runner import run_scenario

    stream = request_stream(seed)
    drawn: List[tuple] = []
    lock = threading.Lock()

    def next_request():
        with lock:
            kind, request = next(stream)
            drawn.append((kind, request))
            return len(drawn) - 1, kind, request

    burst = cold_start_burst(server.port)
    parse_before = parse_cache_snapshot()
    trips: List[RoundTrip] = []
    started = time.perf_counter()
    clients = [threading.Thread(target=_client,
                                args=(server.port, next_request,
                                      started + seconds, trips),
                                name=f"bench-client-{n}")
               for n in range(CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    report = WorkloadReport()
    report.layers["frontend.parse_cache.hit_ratio"] = \
        parse_cache_hit_ratio(parse_before)
    report.wall_s = max(t.finished for t in trips) - started
    report.windows.append((started, started + report.wall_s))
    stats = server.service.stats()
    store_tier = process_cache_store_stats() or {}
    server.close()

    kinds = _classify(trips)
    ok = [t for t in trips if t.succeeded]
    report.attempted = len(trips)
    report.completed = len(ok)
    for trip in trips:
        if not trip.succeeded:
            report.fail(trip.error)
    races = [t for t in burst if _registry_race(t)]
    for trip in burst:
        report.attempted += 1
        if not trip.succeeded and trip not in races:
            report.fail(f"cold-start burst: {trip.error}")
    report.latencies = [t.finished - t.started for t in ok]

    # Checks, outside the timed phase: every succeeded job's summary must
    # equal a direct run of the same request.
    references: Dict[tuple, dict] = {}

    def reference(request: tuple) -> dict:
        if request not in references:
            scenario, generations, population, profiling = request
            references[request] = summary_for_comparison(run_scenario(
                scenario, generations=generations,
                population_size=population,
                profiling_runs=profiling).summary())
        return references[request]

    for trip in ok:
        if summary_for_comparison(trip.document["result"]) \
                != reference(trip.request):
            report.fail(f"wrong output: {trip.request} differs from a "
                        f"direct run", wrong=True)
    gain_requests = [request for kind, request in drawn
                     if kind == "fresh" and request[0] != "uav-pa"]
    report.energy_gain, report.time_gain = gains(
        (row["baseline_energy_j"], row["teamplay_energy_j"],
         row["baseline_time_s"], row["teamplay_time_s"])
        for row in map(reference, gain_requests[:GAIN_REQUESTS]))

    # Traffic mix as measured, per scenario.
    mix: Dict[str, Dict[str, int]] = {}
    for trip in trips:
        row = mix.setdefault(trip.request[0], {
            "fresh": 0, "store_hit": 0, "coalesced": 0, "evicted": 0,
            "failed": 0})
        row[kinds.get(trip.index, "failed")] += 1
    report.mix = {"round_trips": len(trips), "per_scenario": mix,
                  "distinct_requests": len({t.request for t in trips})}

    computed = {}
    for trip in ok:
        if kinds[trip.index] in ("fresh", "evicted"):
            computed[trip.document["id"]] = trip
    waits = [(t.document["started_at"] - t.document["submitted_at"]) * 1e3
             for t in computed.values()]
    runs = [(t.document["finished_at"] - t.document["started_at"]) * 1e3
            for t in computed.values()]
    http_ms = [((t.finished - t.started) - (t.document["finished_at"]
                                            - t.document["submitted_at"]))
               * 1e3 for t in computed.values()]
    latencies_ms = [value * 1e3 for value in report.latencies]
    report.notes = {"jobs_per_s": report.completed / report.wall_s,
                    "job_p50_ms": median(latencies_ms),
                    "job_p95_ms": percentile(latencies_ms, 95),
                    "job_samples": len(latencies_ms),
                    "cold_start_404s": [t.error for t in races]}
    analysis = stats["analysis_cache"]["combined"]
    analysis_hits = sum(row.get("hits", 0) for row in analysis.values())
    analysis_misses = sum(row.get("misses", 0) for row in analysis.values())
    layers = engine_hit_ratios([t.document["result"]["cache_stats"]
                                for t in computed.values()
                                if "cache_stats" in t.document["result"]])
    layers["engine.analysis.hit_ratio"] = ratio(
        analysis_hits, analysis_hits + analysis_misses)
    store, queue = stats["store"], stats["queue"]
    layers.update({
        "service.queue_wait.p50_ms": median(waits),
        "service.queue_wait.p95_ms": percentile(waits, 95),
        "service.run.p50_ms": median(runs),
        "service.run.p95_ms": percentile(runs, 95),
        "service.http.p50_ms": median(http_ms),
        "service.job.p95_ms": report.notes["job_p95_ms"],
        "service.store.hit_ratio": ratio(store["hits"],
                                         store["hits"] + store["misses"]),
        "service.queue.dedup_ratio": ratio(queue["deduplicated"],
                                           queue["submitted"]),
        "persist.disk_hit_ratio": ratio(
            store_tier.get("hits", 0),
            store_tier.get("hits", 0) + store_tier.get("misses", 0)),
        "persist.appends": store_tier.get("appends", 0) / max(len(trips), 1),
        "service.cold_start_404s": len(races),
    })
    report.layers.update(layers)
    return report
