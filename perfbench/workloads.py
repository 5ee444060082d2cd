"""The three benchmark workloads and the tally of what they did.

Each workload has ``setup(tracer)`` (everything lazy, paid before the
timed region) and ``step(tracer, tally)`` (one unit of checked work:
one statement, or one whole serving session).  Every call into the
program goes through the public API; the spans around those calls
are the per-layer seams (see ``spans.py``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from repro.engine import DataflowEngine, VolcanoEngine
from repro.hardware import build_fabric, dataflow_spec
from repro.obs import combine_checksums, table_checksum
from repro.optimizer import Optimizer
from repro.relational import Catalog, make_lineitem, make_orders
from repro.relational.sql import parse_sql
from repro.serve import serve_scenario_server, serve_templates
from repro.serve.server import QueryServer

from statements import statement_stream

#: Statements (adhoc_sql, large_table) whose simulated figures and
#: answers form the run's ``sim_*`` metrics and answer digest.  Every
#: run completes at least this many, so those figures depend only on
#: the seed, never on how fast the host is.
FIXED_PREFIX = 100

SEGMENTS = ("storage", "network", "pcie", "cxl", "nvlink", "membus",
            "cache", "xsocket")
"""Fabric segment classes (``movement.<segment>.bytes`` counters)."""

_KERNEL_HITS = ("codegen.memory_hits", "codegen.disk_hits")
_KERNEL_LOOKUPS = _KERNEL_HITS + ("codegen.compiles",)


@dataclass
class Tally:
    """Checked work, failures and counts accumulated over a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Host latency per checked query (ms).
    latencies_ms: list[float] = field(default_factory=list)
    #: Simulated query times (s) and moved bytes of the fixed prefix.
    sim_times: list[float] = field(default_factory=list)
    sim_moved: list[float] = field(default_factory=list)
    checksums: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    #: serve_mix: figures of the first session, repeated by the rest.
    session: Optional[dict] = None

    def fail(self, message: str, queries: int = 1) -> None:
        self.failed += queries
        self.failures.append(message)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_counters(self, counters: dict, dataflow: bool) -> None:
        """Fold one result's trace counters into the run's counts."""
        for key, value in counters.items():
            if key in _KERNEL_LOOKUPS:
                self.add("engine.kernel_cache_lookups", value)
                if key in _KERNEL_HITS:
                    self.add("engine.kernel_cache_hits", value)
            elif not dataflow:
                continue
            elif key.startswith("flow.") and key.endswith(".messages"):
                self.add("flow.messages", value)
            elif key.startswith("stage.") and key.endswith(".rows_in"):
                self.add("engine.rows_in", value)
            elif key.startswith("movement.") and key.endswith(".bytes"):
                self.add(f"sim.moved_bytes.{key[9:-6]}", value)


def _fill_stats(catalog: Catalog) -> None:
    """Compute every lazily derived column statistic now."""
    for name in catalog.names:
        stats = catalog.stats(name)
        for column in stats.columns:
            stats.column_dict()[column]


class QueryStream:
    """One analyst in a closed loop over a seeded statement stream.

    Each statement is parsed, planned by the optimizer, run on the
    data-flow engine over a fresh fabric, and checked against a
    Volcano twin run on another fresh fabric.
    """

    min_steps = FIXED_PREFIX
    trace_steps = FIXED_PREFIX
    _WARMUP_SQL = "SELECT COUNT(*) AS n FROM orders WHERE o_priority = 0"

    def __init__(self, seed: int, rows: int, chunk: int):
        self.seed = seed
        self.rows = rows
        self.orders = rows // 4
        self.chunk = chunk
        self.catalog: Optional[Catalog] = None
        self.restart()

    def restart(self) -> None:
        """Start the statement stream from its first statement again."""
        self._stream = statement_stream(self.seed, self.orders)
        self._index = 0

    def setup(self, tracer, tally: Tally) -> None:
        self.catalog = None
        with tracer.span("relational.datagen"):
            catalog = Catalog()
            catalog.register("lineitem", make_lineitem(
                self.rows, orders=self.orders, chunk_rows=self.chunk))
            catalog.register("orders", make_orders(
                self.orders, chunk_rows=self.chunk))
            _fill_stats(catalog)
        self.catalog = catalog
        # One throwaway statement through the whole path pays numpy's
        # lazy imports and the first kernel compile.
        self._run(tracer, self._WARMUP_SQL, tally)

    def step(self, tracer, tally: Tally) -> None:
        _shape, sql = next(self._stream)
        index = self._index
        self._index += 1
        tracer.qid = index + 1
        with tracer.span("bench.query"):
            self._run(tracer, sql, tally, index)
        tracer.qid = 0

    def _run(self, tracer, sql: str, tally: Tally,
             index: Optional[int] = None) -> None:
        tally.attempted += 1
        started = time.perf_counter()
        try:
            with tracer.span("relational.sql_parse"):
                query = parse_sql(sql)
            with tracer.span("hardware.fabric_build"):
                fabric_d = build_fabric(dataflow_spec())
                fabric_v = build_fabric(dataflow_spec())
            with tracer.span("optimizer.optimize"):
                best = Optimizer(fabric_d, self.catalog).optimize(query)
            with tracer.span("engine.dataflow_execute"):
                res_d = DataflowEngine(fabric_d, self.catalog).execute(
                    query, placement=best.placement)
            with tracer.span("engine.volcano_run"):
                res_v = VolcanoEngine(fabric_v, self.catalog).execute(
                    query)
            with tracer.span("obs.checksum"):
                sum_d, sum_v = res_d.checksum(), res_v.checksum()
            pending = (fabric_d.sim.pending_events
                       + fabric_v.sim.pending_events)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            tally.fail(f"{sql!r}: {type(exc).__name__}: {exc}")
            return
        latency_ms = (time.perf_counter() - started) * 1e3
        if sum_d != sum_v:
            tally.fail(f"{sql!r}: dataflow {sum_d[:12]} != volcano "
                       f"{sum_v[:12]}")
        elif pending:
            tally.fail(f"{sql!r}: {pending} simulator event(s) left")
        elif index is not None:
            tally.latencies_ms.append(latency_ms)
        tally.add_counters(res_d.counters, dataflow=True)
        tally.add_counters(res_v.counters, dataflow=False)
        if index is not None and index < FIXED_PREFIX:
            tally.sim_times.append(res_d.elapsed)
            tally.sim_moved.append(res_d.total_bytes_moved)
            tally.checksums[f"{index:04d}"] = sum_d

    def sim_metrics(self, tally: Tally) -> dict:
        """``sim_*`` figures and the answer digest of the fixed prefix."""
        sim_s = sum(tally.sim_times)
        ordered = sorted(tally.sim_times)
        rank = max(1, -(-99 * len(ordered) // 100))
        return {
            "sim_s": sim_s,
            "sim_moved_mb": sum(tally.sim_moved) / 1e6,
            "sim_p99_ms": ordered[rank - 1] * 1e3 if ordered else 0.0,
            "sim_goodput_qps": len(ordered) / sim_s if sim_s else 0.0,
            "digests": {"answer_digest":
                        combine_checksums(tally.checksums)},
        }

    def observe_host_latency(self, _tally: Tally) -> nullcontext:
        """Closed loop: latency is timed per statement in ``step``."""
        return nullcontext()


class _HostLatency:
    """Stamps host time at ``QueryServer.submit`` and at completion.

    A served query's host latency is the wall time between the server
    accepting it and its completion callback: how long the host took
    to carry it through the shared simulation, others' work included.
    """

    def __init__(self, tally: Tally):
        self.tally = tally
        self._original = QueryServer.__dict__["submit"]

    def __enter__(self):
        original, latencies = self._original, self.tally.latencies_ms

        def submit(server, tenant_name, template, on_done=None):
            started = time.perf_counter()

            def done(record):
                if record.completed:
                    latencies.append(
                        (time.perf_counter() - started) * 1e3)
                if on_done is not None:
                    on_done(record)

            return original(server, tenant_name, template,
                            on_done=done)

        QueryServer.submit = submit
        return self

    def __exit__(self, *_exc):
        QueryServer.submit = self._original
        return False


class ServeMix:
    """ROADMAP item 2's 2000-query ``three_tenant_mix`` session.

    Finished the way ``repro serve`` finishes it: observers finalized,
    report built, accounting/telemetry/observatory violations checked,
    and every served answer compared with a standalone Volcano oracle
    run of its template.  The tenant seeds live in the scenario, so
    the workload is the same for every ``--seed``.
    """

    scenario = "three_tenant_mix"
    queries = 2000
    warmup_queries = 100
    min_steps = 1
    trace_steps = 1

    def __init__(self, seed: int):
        self.seed = seed

    def restart(self) -> None:
        pass

    def setup(self, tracer, tally: Tally) -> None:
        # A short session end to end pays every lazy import, fills the
        # scenario's catalog memo and compiles the templates' kernels.
        self._session(tracer, tally, self.warmup_queries)

    def step(self, tracer, tally: Tally) -> None:
        self._session(tracer, tally, self.queries)

    def observe_host_latency(self, tally: Tally):
        return _HostLatency(tally)

    def _session(self, tracer, tally: Tally, queries: int) -> None:
        try:
            self._serve(tracer, tally, queries)
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            tally.attempted += queries
            tally.fail(f"serving session: {type(exc).__name__}: {exc}",
                       queries)

    def _serve(self, tracer, tally: Tally, queries: int) -> None:
        with tracer.span("serve.run"):
            server = serve_scenario_server(self.scenario,
                                           queries=queries)
        now = server.fabric.sim.now
        telemetry = getattr(server, "telemetry", None)
        if telemetry is not None:
            with tracer.span("serve.telemetry_finalize"):
                telemetry.finalize(now)
        observatory = getattr(server, "observatory", None)
        if observatory is not None:
            with tracer.span("analysis.observatory_finalize"):
                observatory.finalize(now)
        with tracer.span("serve.report"):
            report = server.report(self.scenario)
        with tracer.span("serve.accounting_check"):
            violations = list(server.accounting_violations())
        with tracer.span("serve.telemetry_check"):
            violations += server.telemetry_violations()
        with tracer.span("analysis.observatory_check"):
            violations += server.observatory_violations()
        with tracer.span("serve.oracle_check"):
            mismatched = self._oracle_mismatches(tracer, server, tally)

        records = server.records
        completed = sum(1 for r in records if r.completed)
        tally.attempted += len(records)
        for message in violations:
            tally.fail(f"violation: {message}")
        if mismatched:
            tally.fail(f"{mismatched} served answer(s) differ from the "
                       "standalone oracle", mismatched)
        if len(records) - completed:
            tally.fail(f"{len(records) - completed} queries shed",
                       len(records) - completed)
        pending = server.fabric.sim.pending_events
        if pending:
            tally.fail(f"{pending} simulator event(s) left after the "
                       "serving session")
        plan_cache = report["plan_cache"]
        tally.add("serve.plan_cache_hits", plan_cache["hits"])
        tally.add("serve.plan_cache_lookups",
                  plan_cache["hits"] + plan_cache["misses"])
        telemetry_payload = report.get("telemetry") or {}
        observatory_payload = report.get("observatory") or {}
        tally.add("serve.telemetry_windows",
                  telemetry_payload.get("windows", 0))
        tally.add("serve.telemetry_exemplars",
                  len(telemetry_payload.get("exemplars", ())))
        tally.add("analysis.observatory_windows",
                  observatory_payload.get("windows", 0))
        tally.add_counters(server.fabric.trace.counters, dataflow=True)

        moved = sum(server.fabric.trace.counters.get(
            f"movement.{segment}.bytes", 0.0) for segment in SEGMENTS)
        session = {
            "sim_s": report["makespan_s"],
            "sim_moved_mb": moved / 1e6,
            "sim_p99_ms": report["latency"]["p99_s"] * 1e3,
            "sim_goodput_qps": report["goodput_qps"],
            "digests": {
                "answer_digest": report["checksum"],
                "telemetry_digest": report.get("telemetry_digest", ""),
                "observatory_digest": report.get("observatory_digest",
                                                 ""),
            },
        }
        if queries != self.queries:
            return
        if tally.session is None:
            tally.session = session
        elif session != tally.session:
            tally.fail("serving session differs from the run's first "
                       "session (simulated figures or digests)")

    def _oracle_mismatches(self, tracer, server, tally: Tally) -> int:
        """Served records whose answer differs from a standalone run."""
        templates = serve_templates()
        completed = [r for r in server.records if r.completed]
        oracle: dict[str, str] = {}
        for template in sorted({r.template for r in completed}):
            with tracer.span("hardware.fabric_build"):
                fabric = build_fabric(dataflow_spec())
            with tracer.span("engine.volcano_run"):
                result = VolcanoEngine(fabric, server.catalog).execute(
                    templates[template]())
            with tracer.span("obs.checksum"):
                oracle[template] = table_checksum(result.table)
            tally.add_counters(result.counters, dataflow=False)
            if fabric.sim.pending_events:
                tally.fail(f"oracle run of {template!r} left simulator "
                           "events")
        return sum(1 for r in completed
                   if r.checksum != oracle[r.template])

    def sim_metrics(self, tally: Tally) -> dict:
        if tally.session is None:
            return {"sim_s": 0.0, "sim_moved_mb": 0.0, "sim_p99_ms": 0.0,
                    "sim_goodput_qps": 0.0, "digests": {}}
        return dict(tally.session)


ADHOC_ROWS, ADHOC_CHUNK = 60_000, 1000
LARGE_ROWS, LARGE_CHUNK = 300_000, 16_384


def make_workload(name: str, seed: int):
    """The named workload, its inputs derived from ``seed``."""
    if name == "serve_mix":
        return ServeMix(seed)
    if name == "adhoc_sql":
        return QueryStream(seed, ADHOC_ROWS, ADHOC_CHUNK)
    if name == "large_table":
        stream = QueryStream(seed, LARGE_ROWS, LARGE_CHUNK)
        stream.trace_steps = 50
        return stream
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("serve_mix", "adhoc_sql", "large_table")
