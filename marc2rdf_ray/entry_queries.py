"""Driver-contract query implementations (__ray_entry__.py wiring).

One callable per implemented operator family from SURVEY.md §2, each taking
``sf_dir`` and returning a Dataset / pyarrow Table, with a matching DuckDB
oracle in ORACLE_SQL where the semantics are ANSI-SQL-expressible.

Determinism rules used throughout (driver hashes values order-insensitively
but exactly):
- float aggregates are computed on integer cents (ROUND(x*100) AS BIGINT),
  never on accumulated doubles -- bit-exact across engines;
- similarity scores are computed in float64 and rounded to 4 decimals;
- group representatives are minima, never "first".
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .config import PipelineConfig
from .ops import plan
from .functions.numeric import sql_round_i64
from .model import Field, Record
from .rules import RuleEngine, RuleSet
from .vocab import RDF_TYPE

DOC_BASE = "http://data.example.org/doc/"

# rule set for the documents table (exercises uri/literal/integer datatypes,
# prefix minting, regex tag keys incl. a deliberate duplicate emission)
DOC_MAPPING = {
    "tags": {
        "id": {
            "r": {"predicate": "DC.identifier", "object": {"datatype": "literal"}}
        },
        "lang": {
            "r": {
                "predicate": "DC.language",
                "object": {
                    "datatype": "uri",
                    "prefix": "http://lexvo.org/id/iso639-3/",
                },
            }
        },
        # regex key ALSO matching 'lang' -> duplicate triples (dedup fodder,
        # converter duplicate-preservation semantics; SURVEY.md §2.7 O3)
        "^la": {
            "r": {
                "predicate": "DC.language",
                "object": {
                    "datatype": "uri",
                    "prefix": "http://lexvo.org/id/iso639-3/",
                },
            }
        },
        "meta": {
            "subfield": {
                "s": {
                    "predicate": "DC.source",
                    "object": {
                        "datatype": "uri",
                        "prefix": "http://data.example.org/source/",
                    },
                },
                "c": {
                    "predicate": "DEICH.nChars",
                    "object": {"datatype": "integer"},
                },
            }
        },
    }
}


def _doc_engine() -> RuleEngine:
    return RuleEngine(
        RuleSet(DOC_MAPPING),
        base=DOC_BASE,
        prefix="",
        identifier_tag="id",
        resource_type="FOAF.Document",
    )


class DocsToTriples:
    """documents batch -> triples (the doc-table record lowering).

    ``predicates`` (full URIs) engages RuleSet.pruned -- predicate
    pushdown INTO the rule engine for BGP-shaped consumers that filter
    the lowered triples by predicate anyway (they stop paying for rules
    whose whole emission set is irrelevant).  Over-approximate: pruned
    output may still carry extra predicates from kept sub-rules, so the
    consumer's own predicate filter stays mandatory."""

    def __init__(self, predicates=None):
        self.engine = _doc_engine()
        if predicates is not None:
            keep = set(predicates)
            self.engine = RuleEngine(
                self.engine.ruleset.pruned(keep),
                base=DOC_BASE,
                prefix="",
                identifier_tag="id",
                resource_type=(
                    "FOAF.Document" if RDF_TYPE in keep else None
                ),
            )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        sources = batch["source"].to_pylist()
        nchars = batch["n_chars"].to_pylist()
        subj, pred, obj, kind = [], [], [], []
        for i, lang, src, nc in zip(ids, langs, sources, nchars):
            rec = Record(
                fields=[
                    Field(tag="id", value=str(i)),
                    Field(tag="lang", value=lang),
                    Field(tag="meta", subfields=[("s", src), ("c", str(nc))]),
                ],
                record_id=str(i),
            )
            for t in self.engine.convert(rec):
                subj.append(t[0])
                pred.append(t[1])
                obj.append(t[2])
                kind.append(t[3])
        return pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj": pa.array(obj, pa.string()),
                "obj_kind": pa.array(kind, pa.string()),
            }
        )


_AUTO_BLOCKS_CACHE: dict = {}


def _auto_blocks(path: str, target_rows: int) -> int:
    """Block count sized to the DATA, not the CPU count (round-5 task
    #4): Ray's default read parallelism (~2x CPUs) hands a 10k-row table
    to 64 tasks of ~150 rows, and every downstream operator then pays 64
    task schedules for milliseconds of work -- measured 3.8s/phase of
    pure overhead in the chain-BGP contract queries.  Cheap per-row
    stages want ``rows / target_rows`` blocks, capped at 2x CPUs so big
    inputs still fan out."""
    key = (path, target_rows)
    hit = _AUTO_BLOCKS_CACHE.get(key)
    if hit is None:
        import pyarrow.parquet as pq

        rows = pq.ParquetFile(path).metadata.num_rows
        try:
            import ray

            cap = max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)
        except Exception:
            cap = 16
        hit = max(1, min(cap, (rows + target_rows - 1) // target_rows))
        _AUTO_BLOCKS_CACHE[key] = hit
    return hit


def _read(sf_dir: str, name: str, columns=None, target_rows=None):
    """``target_rows``: rows per block for CHEAP per-row consumers (rule
    lowering, BGP scans); None keeps Ray's default read parallelism for
    compute-heavy stages (shingling, embeddings) that want small blocks."""
    import ray.data as rd

    path = f"{sf_dir}/{name}.parquet"
    kw = {}
    if target_rows is not None:
        kw["override_num_blocks"] = _auto_blocks(path, target_rows)
    return rd.read_parquet(path, columns=columns, **kw)


def _mat_table(ds) -> pa.Table:
    """Pull a DIMENSION-sized dataset (nation/region scale, O(10..100)
    rows) to one driver Arrow table.  Unbudgeted by design -- callers
    must only pass sides that are small by schema, not by data volume;
    data-dependent sides go through ``plan.small_side``."""
    return plan.gather(ds.materialize())


# -- KG queries ------------------------------------------------------------

DC_LANGUAGE = "http://purl.org/dc/terms/language"
DC_SOURCE = "http://purl.org/dc/terms/source"
DEICH_NCHARS = "http://data.deichman.no/nChars"


# worker-process-global compiled-engine cache (the pipelines/kg.py
# _STAGE_CACHE precedent): stateless tasks on long-lived Ray workers
# amortize RuleSet compilation exactly like actor state WITHOUT the
# per-query actor-pool startup (~1-2s, which dominated the contract-scale
# BGP queries; round-5 task #4).
_DOC_STAGE_CACHE: dict = {}


def _lower_docs(ds, predicates=None):
    """documents Dataset -> rule-lowered triples; ``predicates`` engages
    predicate pushdown into the rule engine (DocsToTriples docstring)."""
    key = tuple(sorted(predicates)) if predicates is not None else None

    def lower_fn(batch: pa.Table) -> pa.Table:
        stage = _DOC_STAGE_CACHE.get(key)
        if stage is None:
            stage = DocsToTriples(list(key) if key is not None else None)
            _DOC_STAGE_CACHE[key] = stage
        return stage(batch)

    return ds.map_batches(lower_fn, batch_format="pyarrow")


def kg_triples(sf_dir: str):
    return _lower_docs(
        _read(sf_dir, "documents", target_rows=4096)
    )


def kg_dedup_edges(sf_dir: str):
    from .stages.canonicalize import dedup_triples

    return dedup_triples(
        kg_triples(sf_dir), columns=["subj", "pred", "obj", "obj_kind"]
    )


def _augmented_doc_hashes(sf_dir: str):
    """documents plus exact copies at doc_id+1000000, lowered to
    (subj, content-hash) triples -- deterministic dup clusters."""
    import ray.data as rd

    def to_hash_triples(batch: pa.Table, shift: int) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        subj = [f"{DOC_BASE}{i + shift}" for i in ids]
        h = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
        n = len(subj)
        return pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(["hash"] * n, pa.string()),
                "obj": pa.array(h, pa.string()),
                "obj_kind": pa.array(["literal"] * n, pa.string()),
                "lang": pa.array([None] * n, pa.string()),
                "src": pa.array(subj, pa.string()),
            }
        )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"],
                 target_rows=4096)
    a = docs.map_batches(lambda b: to_hash_triples(b, 0), batch_format="pyarrow")
    b = docs.map_batches(
        lambda b: to_hash_triples(b, 1000000), batch_format="pyarrow"
    )
    return a.union(b)


def kg_sameas_docs(sf_dir: str):
    from .stages.canonicalize import sameas_by_shared_key

    edges = sameas_by_shared_key(_augmented_doc_hashes(sf_dir), "hash")
    return edges.map_batches(
        lambda b: b.select(["subj", "obj"]), batch_format="pyarrow"
    )


# -- relational operator coverage -----------------------------------------

def q1_pricing_summary(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": sql_round_i64(batch["l_quantity"]),
                "price_cents": sql_round_i64(batch["l_extendedprice"], 100.0),
            }
        )

    return (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Count(alias_name="cnt"),
        )
    )


def revenue_by_segment(sf_dir: str):
    """Broadcast hash join (small customer side, byte-budgeted, single
    execution) + pre-aggregated groupby; native ``ds.join`` fallback when
    the 'small' side outgrows the budget."""
    import ray
    from ray.data.aggregate import Count, Sum

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    ctab, cmat = plan.small_side("revenue_by_segment", cust)

    def cents_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "price_cents": sql_round_i64(batch["o_totalprice"], 100.0),
            }
        )
        # partial combine before the shuffle
        return t.group_by(["c_mktsegment"], use_threads=False).aggregate(
            [("price_cents", "sum"), ("price_cents", "count")]
        ).rename_columns(["c_mktsegment", "price_cents", "cnt"])

    if ctab is not None:
        seg_map = dict(
            zip(ctab["c_custkey"].to_pylist(), ctab["c_mktsegment"].to_pylist())
        )
        ref = ray.put(seg_map)

        class JoinSeg:
            def __init__(self):
                self.seg = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                segs = [
                    self.seg.get(k, "UNKNOWN")
                    for k in batch["o_custkey"].to_pylist()
                ]
                return cents_partial(
                    batch.append_column(
                        "c_mktsegment", pa.array(segs, pa.string())
                    )
                )

        partials = orders.map_batches(
            JoinSeg, batch_format="pyarrow", concurrency=2
        )
    else:  # scale path: distributed hash join
        joined = orders.join(
            cmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_custkey",), right_on=("c_custkey",),
        )
        partials = joined.map_batches(cents_partial, batch_format="pyarrow")
    return partials.groupby("c_mktsegment").aggregate(
        Sum("price_cents", alias_name="revenue_cents"),
        Sum("cnt", alias_name="num_orders"),
    )


def customers_without_big_orders(sf_dir: str):
    """Anti-join via broadcast key set (SURVEY.md §2.5 J2), byte-budgeted
    (the filtered key set is far smaller than the orders table; if it ever
    exceeded the budget, a distinct pass would shrink it first)."""
    import ray

    big = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    ktab, _ = plan.small_side(
        "customers_without_big_orders",
        big.map_batches(
            lambda b: b.filter(pc.greater(b["o_totalprice"], 400000.0)).select(
                ["o_custkey"]
            ),
            batch_format="pyarrow",
        )
    )
    keys = set(ktab["o_custkey"].to_pylist())
    ref = ray.put(keys)

    class AntiJoin:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mask = pa.array(
                [k not in self.keys for k in batch["c_custkey"].to_pylist()]
            )
            return batch.filter(mask).select(["c_custkey"])

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    return cust.map_batches(AntiJoin, batch_format="pyarrow", concurrency=2)


def top_orders_by_price(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "price_cents": sql_round_i64(batch["o_totalprice"], 100.0),
            }
        )

    return (
        ds.map_batches(cents, batch_format="pyarrow")
        .sort(["price_cents", "o_orderkey"], descending=[True, False])
        .limit(10)
    )


# -- events (stream-shaped) ------------------------------------------------

def top_orders_page2(sf_dir: str):
    """LIMIT/OFFSET paging (ops/windows.py offset_limit; reference O2):
    the SECOND page of 10 orders by (price desc, key asc) -- cut with
    split_at_indices over the sorted Dataset, never a driver slice."""
    from .ops.windows import offset_limit

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "price_cents": sql_round_i64(batch["o_totalprice"], 100.0),
            }
        )

    return offset_limit(
        ds.map_batches(cents, batch_format="pyarrow"),
        sort_key=["price_cents", "o_orderkey"],
        descending=[True, False],
        offset=10,
        limit=10,
    )


def events_hourly(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def window(batch: pa.Table) -> pa.Table:
        epoch_us = pc.cast(batch["ts"], pa.int64())
        # FLOOR division (pc.divide truncates toward zero): for pre-1970
        # timestamps truncation is one bucket off vs the oracle's
        # floor(epoch/3600) -- subtract the positive remainder first.
        h = pa.scalar(3_600_000_000, pa.int64())
        rem0 = pc.subtract(epoch_us, pc.multiply(pc.divide(epoch_us, h), h))
        shifted = pc.add(rem0, h)  # in (0, 2h): trunc == floor here
        rem = pc.subtract(shifted, pc.multiply(pc.divide(shifted, h), h))
        hour = pc.divide(pc.subtract(epoch_us, rem), h)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "hour": pc.cast(hour, pa.int64()),
                "value_cents": sql_round_i64(batch["value"], 100.0),
            }
        )

    return (
        ds.map_batches(window, batch_format="pyarrow")
        .groupby(["user_id", "hour"])
        .aggregate(
            Count(alias_name="cnt"), Sum("value_cents", alias_name="sum_value_cents")
        )
    )


def events_top_types(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", columns=["event_type"])
    return (
        ds.groupby("event_type")
        .aggregate(Count(alias_name="cnt"))
        .sort(["cnt", "event_type"], descending=[True, False])
        .limit(5)
    )


def events_json_props(sf_dir: str):
    """JSON-ish projection: extract the numeric prop, aggregate per type."""
    import re

    from ray.data.aggregate import Sum

    num = re.compile(r"[0-9]+")
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(batch: pa.Table) -> pa.Table:
        ks = [
            int(m.group(0)) if (m := num.search(p or "")) else 0
            for p in batch["props"].to_pylist()
        ]
        return pa.table(
            {"event_type": batch["event_type"], "k": pa.array(ks, pa.int64())}
        )

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("k", alias_name="sum_k"))
    )


# -- text ops --------------------------------------------------------------

def _events_side(sf_dir: str, event_type: str):
    """One event type projected to (event_id, user_id, ts_us) -- a separate
    read per side (never branch one Dataset into two consumers; NOTES.md)."""
    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], event_type))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow")


def _events_join_buckets(sf_dir: str) -> int:
    """Bucket count sized to the data from FREE parquet metadata (no Ray
    execution): ~50k rows per bucket, floor 4, capped 2xCPU by the op --
    near-empty buckets pay pure fixed task cost (NOTES late-r2)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    return max(4, n // 50_000 + 1)


def events_asof_join(sf_dir: str):
    """As-of join (ops/joins.py): each purchase event matched to the LATEST
    click by the same user at or before the purchase time (ties broken by
    largest click event_id); purchases with no prior click keep nulls."""
    from .ops.joins import asof_join

    return asof_join(
        _events_side(sf_dir, "purchase"),
        _events_side(sf_dir, "click"),
        by="user_id",
        on="ts_us",
        tiebreak="event_id",
        left_cols=["event_id", "user_id", "ts_us"],
        right_cols=["event_id", "ts_us"],
        suffix="_click",
        num_buckets=_events_join_buckets(sf_dir),
    )


def events_asof_join_forward(sf_dir: str):
    """Forward as-of join (ops/joins.py asof_join(direction="forward")):
    each purchase matched to the EARLIEST click at or after it (ties by
    smallest click event_id); no later click -> nulls."""
    from .ops.joins import asof_join

    return asof_join(
        _events_side(sf_dir, "purchase"),
        _events_side(sf_dir, "click"),
        by="user_id",
        on="ts_us",
        tiebreak="event_id",
        left_cols=["event_id", "user_id", "ts_us"],
        right_cols=["event_id", "ts_us"],
        suffix="_click",
        num_buckets=_events_join_buckets(sf_dir),
        direction="forward",
    )


def _events_side_wide(sf_dir: str, event_type: str):
    """One event type with the WIDE payload (money + props) attached --
    input for the row-id-gather as-of variant."""
    ds = _read(sf_dir, "events")

    def prep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["event_type"], event_type))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": pc.cast(t["ts"], pa.int64()),
                "value_cents": sql_round_i64(t["value"], 100.0),
                "props": t["props"],
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow")


def events_asof_join_wide(sf_dir: str):
    """Wide-table as-of join (ops/joins.py asof_join_wide): identical
    match semantics to events_asof_join, but the as-of exchange carries
    only (user_id, ts_us, event_id) -- the wide payload (money, props)
    attaches afterwards via two row-id hash joins (VERDICT r2 #6)."""
    from .ops.joins import asof_join_wide

    return asof_join_wide(
        _events_side_wide(sf_dir, "purchase"),
        _events_side_wide(sf_dir, "click"),
        by="user_id",
        on="ts_us",
        tiebreak="event_id",
        left_id="event_id",
        right_id="event_id",
        left_cols=["event_id", "user_id", "ts_us", "value_cents", "props"],
        right_cols=["event_id", "ts_us", "value_cents", "props"],
        suffix="_click",
        num_buckets=_events_join_buckets(sf_dir),
    )


def events_error_window(sf_dir: str):
    """Range join (ops/joins.py): every (purchase, error) pair where the
    same user logged the error in the 24 h up to the purchase (inclusive)."""
    from .ops.joins import range_join

    return range_join(
        _events_side(sf_dir, "purchase"),
        _events_side(sf_dir, "error"),
        by="user_id",
        on="ts_us",
        lower=-86_400_000_000,
        upper=0,
        left_cols=["event_id", "user_id", "ts_us"],
        right_cols=["event_id", "ts_us"],
        suffix="_error",
        num_buckets=_events_join_buckets(sf_dir),
    )


def events_value_quantiles(sf_dir: str):
    """Exact p50/p90/p99 of event value (ops/quantiles.py): per-batch
    partial histograms, one tiny groupby, integer-rational ranks -- shuffle
    carries distinct values, never rows."""
    from .ops.quantiles import exact_quantiles

    ds = _read(sf_dir, "events", columns=["value"])
    return exact_quantiles(ds, "value")


def events_value_quantile_sketch(sf_dir: str):
    """Approximate quantiles via the mergeable MRL sketch
    (ops.quantiles.MRLSketch -- the O(k log n)-state scale path for
    unbounded domains, VERDICT r3 #7), CERTIFIED against the sketch's
    PROVEN worst-case rank-error bound: the query recomputes the exact
    value histogram (the check's exact pass; the sketch itself never
    needs it), derives each sketch answer's true rank interval, and
    returns ``(q, value_cents_exact, within_bound)``.  The oracle
    recomputes the exact quantiles in SQL and asserts within_bound --
    so a sketch whose answer drifts outside its own guarantee turns the
    row red.  Exact ops remain the correctness path."""
    from ray.data.aggregate import Sum

    from .ops.quantiles import sketch_quantiles

    qs = ((1, 2), (9, 10), (99, 100))
    ds = _read(sf_dir, "events", columns=["value"])
    sk_tab, n, bound = sketch_quantiles(ds, "value", qs, k=256)

    def partial(b: pa.Table) -> pa.Table:
        v = sql_round_i64(b["value"], 100.0)
        g = (
            pa.table({"v": v})
            .group_by(["v"], use_threads=False)
            .aggregate([("v", "count")])
            .rename_columns(["v", "cnt"])
        )
        return pa.table({"v": g["v"], "cnt": pc.cast(g["cnt"], pa.int64())})

    hist = (
        _read(sf_dir, "events", columns=["value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    vals = np.array([r["v"] for r in hist], np.int64)
    cnts = np.array([r["cnt"] for r in hist], np.int64)
    order = np.argsort(vals, kind="stable")
    vals, cnts = vals[order], cnts[order]
    cum = np.concatenate(([0], np.cumsum(cnts)))

    q_out, exact_out, ok_out = [], [], []
    for (num, den), sk_v in zip(qs, sk_tab["value_cents"].to_pylist()):
        target = (num * n + den - 1) // den
        i = int(np.searchsorted(cum[1:], target, side="left"))
        exact_out.append(int(vals[i]))
        lo = int(cum[np.searchsorted(vals, sk_v, side="left")])   # < sk_v
        hi = int(cum[np.searchsorted(vals, sk_v, side="right")])  # <= sk_v
        # sk_v occupies ranks [lo+1, hi]; the guarantee holds iff that
        # interval intersects [target-bound, target+bound] -- strict on
        # the lo side (lo == target+bound would put every rank of sk_v
        # one past the bound; ADVICE r4 off-by-one)
        ok_out.append(lo + 1 <= target + bound and hi >= target - bound)
        q_out.append(num / den)
    return pa.table(
        {
            "q": pa.array(q_out, pa.float64()),
            "value_cents_exact": pa.array(exact_out, pa.int64()),
            "within_bound": pa.array(ok_out, pa.bool_()),
        }
    )


def events_value_quantile_bounds(sf_dir: str):
    """Continuous-domain quantile BOUNDS (ops/quantiles.py
    exact_quantile_bounds): fixed-width binning caps driver state at
    O(range / bin_width) regardless of distinct-value count; each rank-q
    value provably lies in its returned [lo, hi) bin."""
    from .ops.quantiles import exact_quantile_bounds

    ds = _read(sf_dir, "events", columns=["value"])
    return exact_quantile_bounds(ds, "value", bin_width=7.5)


def events_streaming_watermark(sf_dir: str):
    """Streaming allowed-lateness replay (ops/windows.py
    drop_late_events): arrival order = event_id, event time = ts minus a
    deterministic md5 jitter of up to 6h (the table itself arrives
    perfectly ordered, so the jitter synthesizes realistic out-of-order
    arrival -- replayable in the oracle), watermark delay 2h; the
    survivors aggregate into tumbling hours.  The watermark pass is a
    distributed prefix max: O(#buckets) driver state, one exchange."""
    from ray.data.aggregate import Count, Sum

    from .ops.dedup import md5_u64
    from .ops.windows import drop_late_events

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "value"])

    def adj(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_pylist()
        eus = pc.cast(b["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        jit = np.array(
            [md5_u64(f"late:{i}") % 21600 for i in ids], np.int64
        ) * 1_000_000
        return pa.table(
            {
                "event_id": b["event_id"],
                "tsu": pa.array(eus.astype(np.int64) - jit, pa.int64()),
                "value": b["value"],
            }
        )

    kept = drop_late_events(
        ds.map_batches(adj, batch_format="pyarrow"),
        ts_col="tsu",
        seq_col="event_id",
        delay_us=7_200_000_000,
    )

    def window(b: pa.Table) -> pa.Table:
        tsu = b["tsu"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "hour": pa.array(tsu // 3_600_000_000, pa.int64()),
                "value_cents": sql_round_i64(b["value"], 100.0),
            }
        )

    return (
        kept.map_batches(window, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(
            Count(alias_name="cnt"),
            Sum("value_cents", alias_name="sum_value_cents"),
        )
    )


def events_sessions(sf_dir: str):
    """Gap-based session windows (30 min) per user -- the custom windowed
    aggregate (ops.windows.sessionize): one shuffle, vectorized per-bucket
    pass, integer-cent money."""
    from .ops.windows import sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return sessionize(ds)


def events_sliding_3h(sf_dir: str):
    """Trailing 3-hour sliding-window aggregate per user (ops.windows
    .sliding_window): for every hour in which a user has events, the count
    and integer-cent sum over that hour and the two before it.  One
    hash-bucket shuffle + one vectorized (lexsort/reduceat/searchsorted)
    pass per bucket -- the overlapping-window aggregate Ray Data lacks."""
    from .ops.windows import sliding_window

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return sliding_window(ds, hop_us=3_600_000_000, width_hops=3)


def events_approx_distinct_users(sf_dir: str):
    """HyperLogLog register table (p=10) for the distinct-user count
    (ops.sketches.hll_registers): per-batch partial register maxima ->
    one <=1024-rows-per-block groupby-max -- the fixed-size-sketch
    replacement for the all-to-all exact count-distinct at 100 TB.
    Feed ops.sketches.hll_estimate for the scalar estimate."""
    from .ops.sketches import hll_registers

    ds = _read(sf_dir, "events", columns=["user_id"])
    return hll_registers(ds, "user_id", p=10)


def events_type_distinct_users_hll(sf_dir: str):
    """Per-group HyperLogLog (ops.sketches.hll_registers_by): distinct
    users per event TYPE as one fixed-size-per-group register exchange
    -- the per-segment cardinality shape.  Register table is oracle-
    replayed bit-exactly; hll_estimate over a group's slice yields its
    cardinality."""
    from .ops.sketches import hll_registers_by

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return hll_registers_by(ds, "event_type", "user_id", p=10)


def events_user_cms_counts(sf_dir: str):
    """Count-min-sketch (depth 4 x width 1024) estimated event counts for
    users 0..49 (ops.sketches.cms_counts): each batch ships at most
    depth*width partial counter rows, never its keys -- the bounded-memory
    heavy-hitter counter for unbounded key spaces.  Estimates are exact
    upper bounds; bit-exact vs the SQL replay including collisions."""
    from .ops.sketches import cms_counts

    ds = _read(sf_dir, "events", columns=["user_id"])
    return cms_counts(ds, "user_id", probes=range(50), depth=4, width=1024)


def events_heavy_users(sf_dir: str):
    """Heavy hitters via CMS prefilter + exact verify: candidate users =
    CMS estimate >= T (an upper bound, so the candidate set is a SUPERSET
    -- no false negatives); only candidate rows enter the exact groupby,
    whose HAVING trims CMS false positives.  T = (13 * total) // (10 *
    n_users), integer both sides.  The final answer equals the plain
    HAVING query (the oracle); the sketch stage's own arithmetic is
    certified by `events_user_cms_counts`."""
    from ray.data.aggregate import Count

    from .ops.sketches import cms_counts

    ds = _read(sf_dir, "events", columns=["user_id"])
    total = ds.count()
    users = sorted(ds.unique("user_id"))  # probe list: driver-side small
    thr = (13 * total) // (10 * len(users))
    est = cms_counts(ds, "user_id", probes=users)
    cand = {
        int(k)
        for k, c in zip(est["key"].to_pylist(), est["cms_count"].to_pylist())
        if c >= thr
    }
    cand_arr = pa.array(sorted(cand), pa.int64())

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.fill_null(pc.is_in(b["user_id"], value_set=cand_arr), False)
        )

    exact = (
        ds.map_batches(keep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Count(alias_name="cnt"))
    )
    return exact.map_batches(
        lambda b: b.filter(pc.greater_equal(b["cnt"], thr)),
        batch_format="pyarrow",
    )


def docs_bloom_prefilter(sf_dir: str):
    """Bloom-filter pre-filter (512 bits, 3 hashes) for a doc-id blocklist
    (every 37th doc): flagged rows = blocklist hits PLUS deterministic
    false positives (ops.sketches.bloom_flag) -- the broadcast-compact
    stand-in for shipping the full blocked-key set to every task.  The
    blocklist itself is a driver-side single-column read (blocklists are
    the canonical small side)."""
    import pyarrow.parquet as pq

    from .ops.sketches import bloom_flag

    ids = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    blocked = [i for i in ids if i % 37 == 0]
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return bloom_flag(ds, "doc_id", blocked, m_bits=512, k=3)


def events_type_value_quantiles(sf_dir: str):
    """Exact per-event-type value quantiles (median, p90) --
    ops.quantiles.grouped_quantiles: histogram partials collapse per
    batch, ONE groupby-shuffle, per-group rank selection in the task
    (driver state zero, unlike the ungrouped op's O(#distinct) pull)."""
    from .ops.quantiles import grouped_quantiles

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_quantiles(ds, "event_type", "value")


def docs_packed_sequences(sf_dir: str):
    """Streaming sequence packing at budget=512 tokens (ops.corpus
    .pack_streaming): a distributed two-phase prefix sum assigns every doc
    its global token start_offset and pack_id; driver state is one
    64-entry bucket-offset table."""
    from .ops.corpus import pack_streaming

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return pack_streaming(ds, 512)


def docs_chunked(sf_dir: str):
    """Fixed-width (160-codepoint) chunking (ops.corpus.chunk_text):
    stateless vectorized flat-map, one slice kernel per chunk index."""
    from .ops.corpus import chunk_text

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return chunk_text(ds, 160)


def docs_tfidf_top_terms(sf_dir: str):
    """Per-doc top-3 tf-idf terms (ops.corpus.tfidf_top_terms): per-batch
    df partials -> one vocab-sized groupby -> broadcast idf dict built
    once per actor; scoring stays inside each doc's own batch."""
    from .ops.corpus import tfidf_top_terms

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return tfidf_top_terms(ds, k=3)


def docs_redacted(sf_dir: str):
    """PII scrub (ops.corpus.redact): emails -> [EMAIL], 4+-digit runs ->
    [NUM]; one RE2 kernel per pattern per batch, no Python rows."""
    from .ops.corpus import redact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return redact(
        ds,
        [
            (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
            (r"[0-9]{4,}", "[NUM]"),
        ],
    )


def docs_repetition(sf_dir: str):
    """Gopher-style repetition signals (ops.textstats.repetition_batch):
    integer top-token fraction per doc; stateless vectorized map."""
    from .ops.textstats import repetition_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


def docs_split(sf_dir: str):
    """Deterministic 75/12.5/12.5 train/val/test split (ops.corpus
    .hash_split): md5(id) mod 2^32 under cumulative bounds; binary-exact
    fractions so the bounds are integer literals both sides."""
    from .ops.corpus import hash_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return hash_split(
        ds, [("train", 0.75), ("val", 0.125), ("test", 0.125)]
    )


def dedup_incremental_windows(sf_dir: str):
    """Cross-window exact dedup (ops.dedup.incremental_dedup): documents
    split into two windows by doc_id parity arrive in sequence against a
    fresh durable state dir; the union of both windows' survivors equals
    the global dedup with window-1 precedence.

    The throwaway state dir is DRIVER-LOCAL scratch -- fine here because
    this single-node demo both writes and reads it from one machine; a
    real multi-node deployment passes ``incremental_dedup`` a shared
    path/filesystem (S3/NFS via state/fsio) instead, exactly as its
    docstring prescribes (ADVICE r3).  Cleaned up before returning (the
    survivors are materialized in the object store, so the union below
    never re-reads the state dir)."""
    import shutil
    import tempfile

    from .ops.dedup import incremental_dedup

    state = tempfile.mkdtemp(prefix="m2r_dedup_state_")
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def parity(b: pa.Table, want: int) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 2 == want))

    try:
        k1 = incremental_dedup(
            docs.map_batches(lambda b: parity(b, 0), batch_format="pyarrow"),
            state, "w1",
        )
        k2 = incremental_dedup(
            docs.map_batches(lambda b: parity(b, 1), batch_format="pyarrow"),
            state, "w2",
        )
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return k1.union(k2)


def docs_weighted_sample(sf_dir: str):
    """Deterministic per-language Bernoulli mix (ops.corpus
    .weighted_sample): keep 25% of 'en', 75% of 'no', 100% of everything
    else -- membership a pure function of md5(doc_id), so the mix is
    resumable and nested (tightening a weight yields a subset)."""
    from .ops.corpus import weighted_sample

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return weighted_sample(ds, {"en": 0.25, "no": 0.75})


def docs_sample_deterministic(sf_dir: str):
    """Deterministic 1-in-8 sample by md5(doc_id) -- the resumable,
    engine-independent alternative to ds.random_sample (SURVEY §2.7 O8):
    membership is a pure function of the key, so re-runs, retries and the
    SQL oracle all select the identical rows.  md5-per-key is the
    SQL-replayability tradeoff; the scale path swaps in the columnar hash
    (functions/hashing.bucket_codes) and gives up only oracle replay."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def pick(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        keep = [
            int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 8 == 0
            for i in ids
        ]
        return b.filter(pa.array(keep, pa.bool_()))

    return ds.map_batches(pick, batch_format="pyarrow")


def events_running_totals(sf_dir: str):
    """Per-user cumulative count + cents (ops.windows.running_totals):
    the SQL window-function shape as one shuffle + a segmented-cumsum
    pass per bucket."""
    from .ops.windows import running_totals

    ds = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return running_totals(ds)


def events_percentile_ranks(sf_dir: str):
    """Per-type integer percentile rank for every event (ops.quantiles
    .percentile_ranks): one histogram groupby broadcast back; rows never
    shuffle."""
    from .ops.quantiles import percentile_ranks

    ds = _read(
        sf_dir, "events", columns=["event_id", "event_type", "value"]
    )
    return percentile_ranks(ds, "event_type", "value")


def events_user_type_pivot(sf_dir: str):
    """Per-user event-type count pivot (ops.windows.pivot_counts): the
    conditional-aggregation wide shape; combiner partials -> one groupby."""
    from .ops.windows import pivot_counts

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return pivot_counts(
        ds, "user_id", "event_type",
        ["click", "error", "purchase", "signup", "view"],
    )


def events_user_type_melted(sf_dir: str):
    """Pivot then unpivot (ops.windows.unpivot): the melt flat-map over
    the wide table -- (user_id, variable, value) incl. explicit zeros."""
    from .ops.windows import unpivot

    wide = events_user_type_pivot(sf_dir)
    return unpivot(
        wide, ["user_id"],
        ["click", "error", "purchase", "signup", "view"],
    )


def events_funnel(sf_dir: str):
    """view -> click -> purchase funnel per user (ops.windows.funnel):
    one shuffle, one vectorized reduceat pass per step."""
    from .ops.windows import funnel

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return funnel(ds, ["view", "click", "purchase"])


def docs_token_stats(sf_dir: str):
    from .ops.textstats import token_stats_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: token_stats_batch(b).select(["doc_id", "ws_tokens", "n_chars"]),
        batch_format="pyarrow",
    )


def docs_lang_histogram(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="cnt"))


def docs_quality(sf_dir: str):
    from .ops.textstats import quality_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(quality_batch, batch_format="pyarrow")


def docs_langid(sf_dir: str):
    from .ops.textstats import langid_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


def docs_fingerprint(sf_dir: str):
    from .ops.textstats import fingerprint_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


def docs_top_bigrams(sf_dir: str):
    """Global top-20 token bigrams (ops/corpus.py top_ngrams): per-batch
    partial counts -> one groupby-sum -> distributed sort + limit; the
    vocabulary never lands on the driver."""
    from .ops.corpus import top_ngrams

    return top_ngrams(
        _read(sf_dir, "documents", columns=["text"]), n=2, k=20
    )


def docs_inverted_index(sf_dir: str):
    """Whitespace-token inverted index (ops/corpus.py inverted_index):
    term -> (df, ascending comma-joined posting list), min_df=2.  Fully
    columnar pair emission + ONE coarse term shuffle; postings built by
    a vectorized sort + grouped list aggregation per bucket."""
    from .ops.corpus import inverted_index

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return inverted_index(ds, min_df=2)


def docs_decontaminated(sf_dir: str):
    """Test-set decontamination (ops/corpus.py decontaminate): drop every
    doc containing any blocked span.  The blocklist -- the 48-char prefix
    of every 40th doc, standing in for an eval-set -- is a broadcast small
    side; the filter is vectorized match_substring per span."""
    from .ops.corpus import decontaminate

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def block_spans(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids % 40 == 0))
        s = pc.utf8_slice_codeunits(t["text"], 0, 48)
        out = pa.table({"s": s})
        return out.filter(pc.not_equal(pc.coalesce(out["s"], ""), ""))

    # separate read for the blocklist side (never branch one Dataset into
    # two consumers; NOTES.md) -- it is tiny (1/40th of ids, 48 chars each)
    blocked = [
        r["s"]
        for r in _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(block_spans, batch_format="pyarrow")
        .take_all()
    ]

    out = decontaminate(docs, blocked)
    return out.map_batches(
        lambda b: b.select(["doc_id", "lang"]), batch_format="pyarrow"
    )


def docs_bm25_topk(sf_dir: str):
    """BM25 top-10 (ops/corpus.py bm25_topk) for the fixed query
    {data, stream, vector} -- integer microbit scores, so ranking and
    values replay exactly in SQL."""
    from .ops.corpus import bm25_topk

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_topk(ds, ["data", "stream", "vector"], k=10)


def docs_decontaminated_hashed(sf_dir: str):
    """Window-hash decontamination (ops/corpus.py decontaminate_hashed)
    -- the million-span scale path: same 48-char-prefix blocklist as
    docs_decontaminated, but matching by shared 6-token md5 windows
    instead of literal containment; only hash sets cross the exchange."""
    from .ops.corpus import decontaminate_hashed

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def block_spans(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids % 40 == 0))
        s = pc.utf8_slice_codeunits(t["text"], 0, 48)
        out = pa.table({"s": s})
        return out.filter(pc.not_equal(pc.coalesce(out["s"], ""), ""))

    spans = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        block_spans, batch_format="pyarrow"
    )
    out = decontaminate_hashed(docs, spans, width=6)
    return out.map_batches(
        lambda b: b.select(["doc_id", "lang"]), batch_format="pyarrow"
    )


def docs_boilerplate_removed(sf_dir: str):
    """Line-level boilerplate removal (ops.corpus.remove_boilerplate_lines
    -- the C4/CCNet web-pipeline operator): docs are recut into 8-token
    lines wrapped in a shared nav header + footer line; every line
    occurring in >= 10 distinct docs (the injected boilerplate) is
    dropped, the doc's remaining lines rejoin in order.  The oracle
    replays split -> per-line distinct-doc counts -> threshold ->
    reassemble exactly."""
    from .ops.corpus import remove_boilerplate_lines

    HEADER = "nav home products about contact login"
    FOOTER = "copyright example site all rights reserved"

    def build(b: pa.Table) -> pa.Table:
        out = []
        for t in b["text"].to_pylist():
            toks = (t or "").split()
            lines = (
                [HEADER]
                + [" ".join(toks[k: k + 8]) for k in range(0, len(toks), 8)]
                + [FOOTER]
            )
            out.append("\n".join(lines))
        return pa.table(
            {"doc_id": b["doc_id"], "text": pa.array(out, pa.string())}
        )

    aug = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        build, batch_format="pyarrow"
    )
    return remove_boilerplate_lines(aug, min_docs=10)


_PARA_HEADER = "corpus shared header paragraph"


def docs_paragraph_dedup(sf_dir: str):
    """Global paragraph-level exact dedup
    (ops.corpus.dedup_paragraphs_global -- the MassiveText/Gopher
    operator, distinct from boilerplate removal: the FIRST occurrence
    survives instead of every occurrence dying).  Docs are recut into
    6-token paragraphs wrapped in a shared header paragraph at BOTH ends,
    so the corpus has cross-doc dups (the header) and a within-doc dup
    (the trailing header).  One copy of each distinct paragraph survives
    corpus-wide -- its (doc_id, position)-first occurrence; docs
    reassemble in order; emptied docs drop out.  The oracle replays
    winner selection with a row_number window."""
    from .ops.corpus import dedup_paragraphs_global

    def build(b: pa.Table) -> pa.Table:
        out = []
        for t in b["text"].to_pylist():
            toks = (t or "").split()
            paras = (
                [_PARA_HEADER]
                + [" ".join(toks[k: k + 6]) for k in range(0, len(toks), 6)]
                + [_PARA_HEADER]
            )
            out.append("\n".join(paras))
        return pa.table(
            {"doc_id": b["doc_id"], "text": pa.array(out, pa.string())}
        )

    aug = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        build, batch_format="pyarrow"
    )
    return dedup_paragraphs_global(aug)


_SPAN_FOOTER = "the shared footer slogan appears in every document here"
_SPAN_REPEAT = "alpha beta gamma delta epsilon zeta"


def docs_span_dedup(sf_dir: str):
    """Cross-corpus duplicated-SPAN removal (ops.corpus
    dedup_duplicate_spans -- the Lee et al. 2021 exact-substring-dedup
    operator, all-copies-die variant): docs are augmented with a shared
    9-token footer (cross-doc duplicated windows) and, for doc_id%7==0,
    a doubled 6-token run (within-doc repetition), so both duplication
    modes are exercised; every token covered by a corpus-wide >=2-count
    6-token window is removed and docs reassemble in order.  The oracle
    replays window counting, coverage expansion and reassembly in SQL."""
    from .ops.corpus import dedup_duplicate_spans

    def build(b: pa.Table) -> pa.Table:
        out = []
        for i, t in zip(b["doc_id"].to_pylist(), b["text"].to_pylist()):
            t2 = (t or "") + " " + _SPAN_FOOTER
            if i % 7 == 0:
                t2 += " " + _SPAN_REPEAT + " " + _SPAN_REPEAT
            out.append(t2)
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "text": pa.array(out, pa.string()),
        })

    aug = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        build, batch_format="pyarrow"
    )
    return dedup_duplicate_spans(aug, width=6, min_count=2)


def docs_trigram_bits(sf_dir: str):
    """CCNet-style LM quality signal (ops/lm.py): train a char-trigram
    model over the corpus in one bincount-partial pass (dense 27^3 driver
    vector, O(V^3) bounded), broadcast it once, and score every doc with
    add-one-smoothed bits -- each window's cost floored to integer
    micro-bits BEFORE summing so the result is exact-integer
    ``(doc_id, n_tri, microbits)`` and the DuckDB oracle replays the same
    IEEE expression."""
    from .ops.lm import train_trigram_counts, trigram_bits

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cnt3 = train_trigram_counts(ds)
    return trigram_bits(ds, cnt3)


def docs_mixture_flattened(sf_dir: str):
    """Temperature-flattened source mixture
    (ops.corpus.mixture_flatten_sample, tau = 1/2): the docs table's real
    sources are uniform at test scale, so the query derives a skewed
    source split (head 60% / mid 30% / tail 10% by doc_id mod 10) and
    flattens it -- tail keeps everything, mid keeps sqrt(1/3), head
    sqrt(1/6).  Thresholds are sqrt of exact integer ratios (correctly
    rounded IEEE), so the oracle replays them bit-for-bit."""
    from .ops.corpus import mixture_flatten_sample

    def skew(b: pa.Table) -> pa.Table:
        mod = b["doc_id"].to_numpy(zero_copy_only=False) % 10
        src = np.where(mod < 6, "head", np.where(mod < 9, "mid", "tail"))
        return pa.table(
            {"doc_id": b["doc_id"], "source": pa.array(src, pa.string())}
        )

    docs = _read(sf_dir, "documents", columns=["doc_id"]).map_batches(
        skew, batch_format="pyarrow"
    )
    return mixture_flatten_sample(docs, group_col="source", id_col="doc_id")


def docs_per_lang_sample(sf_dir: str):
    """Per-group quota sample (ops/corpus.py): 10 docs per language,
    ranked by (md5(doc_id), doc_id) -- the stratified analog of
    docs_sample_deterministic.  Partial top-quota per batch keeps the
    shuffle at O(quota) rows per group per batch."""
    from .ops.corpus import per_group_quota_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return per_group_quota_sample(docs, group_col="lang", id_col="doc_id",
                                  quota=10)


# -- dedup family ----------------------------------------------------------

def _augmented_docs(sf_dir: str, perturb: bool):
    """documents ∪ copies at +1000000 (exact, or lightly perturbed for
    near-dup ops: last word dropped)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def shift(batch: pa.Table) -> pa.Table:
        ids = [i + 1000000 for i in batch["doc_id"].to_pylist()]
        texts = batch["text"].to_pylist()
        if perturb:
            texts = [" ".join((t or "").split()[:-1]) for t in texts]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return docs.union(docs.map_batches(shift, batch_format="pyarrow"))


def dedup_exact(sf_dir: str):
    from .ops.dedup import exact_dedup_groups

    return exact_dedup_groups(_augmented_docs(sf_dir, perturb=False))


def dedup_minhash(sf_dir: str):
    from .ops.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(
        _augmented_docs(sf_dir, perturb=True), threshold=0.7
    )


def dedup_jaccard_verified(sf_dir: str):
    """Exact n-gram Jaccard (ops.dedup.ngram_jaccard) computed for every
    MinHash-LSH candidate pair -- the verification-grade metric as a
    first-class output.  Texts are attached to the candidate pairs via the
    byte-budgeted ``plan.small_side`` broadcast, falling back to two
    distributed hash joins (on ``a`` then ``b``) when the corpus exceeds
    the budget -- never a whole-corpus driver pull (VERDICT r2 'What's
    wrong #1').  The exact ratio of distinct-shingle intersections is
    integer-derived, so the double division is bit-identical to the SQL
    oracle."""
    import ray

    from .ops.dedup import minhash_lsh_pairs, word_ngrams

    aug = _augmented_docs(sf_dir, perturb=True)
    pairs = minhash_lsh_pairs(aug, threshold=0.7)
    ttab, tmat = plan.small_side("dedup_jaccard_verified", aug)

    def set_jaccard(sa: frozenset, sb: frozenset) -> float:
        # ngram_jaccard semantics on precomputed shingle sets
        if not sa and not sb:
            return 1.0
        if not sa or not sb:
            return 0.0
        return len(sa & sb) / len(sa | sb)

    if ttab is not None:
        tref = ray.put(ttab)

        class ExactJaccard:
            """Shingle sets are MEMOIZED per actor (id -> frozenset): a hot
            near-dup cluster of d docs appears in O(d^2) candidate pairs,
            and re-shingling the raw text per pair made this the slowest
            contract query (VERDICT r3 nit #1 / next-round #4).  The cache
            is bounded by the broadcast corpus the actor already holds."""

            def __init__(self):
                t = ray.get(tref)
                self.texts = dict(
                    zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
                )
                self._sh: dict = {}

            def shingles(self, i) -> frozenset:
                s = self._sh.get(i)
                if s is None:
                    s = frozenset(word_ngrams(self.texts.get(i, "") or ""))
                    self._sh[i] = s
                return s

            def __call__(self, b: pa.Table) -> pa.Table:
                a_ids = b["a"].to_pylist()
                b_ids = b["b"].to_pylist()
                j = [
                    set_jaccard(self.shingles(x), self.shingles(y))
                    for x, y in zip(a_ids, b_ids)
                ]
                return pa.table(
                    {"a": b["a"], "b": b["b"],
                     "jaccard": pa.array(j, pa.float64())}
                )

        return pairs.map_batches(ExactJaccard, batch_format="pyarrow",
                                 concurrency=2)

    # scale path: hash-join the text onto each side of the pair; only the
    # candidate pairs (tiny vs the corpus) flow through the two joins
    with_a = pairs.join(
        tmat, join_type="inner", num_partitions=plan.join_partitions(),
        on=("a",), right_on=("doc_id",), right_suffix="_ta",
    )
    with_both = with_a.join(
        tmat, join_type="inner", num_partitions=plan.join_partitions(),
        on=("b",), right_on=("doc_id",), right_suffix="_tb",
    )

    def exact(b: pa.Table) -> pa.Table:
        # first join leaves 'text'; the second suffixes its copy '_tb'.
        # Shingle once per unique doc id PER BATCH (same memoization as
        # the broadcast path, scoped to the batch since the join path
        # never holds the corpus).
        ta = b["text"] if "text" in b.column_names else b["text_ta"]
        a_ids, b_ids = b["a"].to_pylist(), b["b"].to_pylist()
        memo: dict = {}
        for ids, texts in ((a_ids, ta.to_pylist()),
                           (b_ids, b["text_tb"].to_pylist())):
            for i, t in zip(ids, texts):
                if i not in memo:
                    memo[i] = frozenset(word_ngrams(t or ""))
        j = [set_jaccard(memo[x], memo[y]) for x, y in zip(a_ids, b_ids)]
        return pa.table(
            {"a": b["a"], "b": b["b"], "jaccard": pa.array(j, pa.float64())}
        )

    return with_both.map_batches(exact, batch_format="pyarrow")


def dedup_minhash_keep(sf_dir: str):
    """The full near-dup dedup PIPELINE a training run actually consumes,
    as one composition: MinHash-LSH candidate pairs -> connected components
    over the pair graph -> keep exactly one doc per duplicate cluster (the
    min id) plus every unpaired doc.  Output = the deduplicated id set.

    Scale shape: each stage is the already-bucketed operator; the final
    anti-join broadcasts the (small) drop set via plan.small_side with a
    left_outer-join fallback when it exceeds the byte budget."""
    import ray

    from .ops.dedup import minhash_lsh_pairs
    from .stages.canonicalize import connected_components

    pairs = minhash_lsh_pairs(_augmented_docs(sf_dir, perturb=True),
                              threshold=0.7)
    edges = pairs.map_batches(
        lambda b: pa.table({"subj": b["a"], "obj": b["b"]}),
        batch_format="pyarrow",
    )
    comp = connected_components(edges, rounds=4)
    drops = comp.map_batches(
        lambda b: pa.table(
            {"doc_id": b.filter(pc.not_equal(b["node"], b["root"]))["node"]}
        ),
        batch_format="pyarrow",
    )
    aug_ids = _augmented_docs(sf_dir, perturb=True).map_batches(
        lambda b: b.select(["doc_id"]), batch_format="pyarrow"
    )
    dtab, dmat = plan.small_side("dedup_minhash_keep", drops)
    if dtab is not None:
        dropped = set(dtab["doc_id"].to_pylist())
        dref = ray.put(dropped)

        class Keep:
            def __init__(self):
                self.drop = ray.get(dref)

            def __call__(self, b: pa.Table) -> pa.Table:
                ids = b["doc_id"].to_pylist()
                mask = pa.array([i not in self.drop for i in ids])
                return b.filter(mask)

        return aug_ids.map_batches(Keep, batch_format="pyarrow",
                                   concurrency=2)
    marked = dmat.map_batches(
        lambda b: b.append_column(
            "__dup", pa.array(np.ones(len(b), np.int8), pa.int8())
        ),
        batch_format="pyarrow",
    )
    joined = aug_ids.join(
        marked, join_type="left_outer", num_partitions=plan.join_partitions(),
        on=("doc_id",),
    )
    return joined.map_batches(
        lambda b: b.filter(pc.is_null(b["__dup"])).select(["doc_id"]),
        batch_format="pyarrow",
    )


def dedup_simhash(sf_dir: str):
    from .ops.dedup import simhash_pairs

    return simhash_pairs(_augmented_docs(sf_dir, perturb=True), max_hamming=3)


def dedup_embedding(sf_dir: str):
    """Near-dup clusters: embeddings plus md5-DETERMINISTIC noisy copies at
    +1000000 (noise = (md5_u64('emb:i:d')/2^64*2-1)*0.01, reproducible in
    the DuckDB oracle -- an RNG-perturbed copy would make the augmented
    input itself unverifiable).  The banded-LSH op finds all pairs with
    cosine >= 0.98; the oracle brute-forces every pair, so this row also
    certifies 100% LSH recall on this corpus."""
    from .ops.dedup import embedding_dup_pairs, md5_u64

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def noisy(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_pylist()
        mats = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        for r, i in enumerate(ids):
            delta = np.array(
                [
                    (md5_u64(f"emb:{i}:{d}") / 2**64 * 2.0 - 1.0) * 0.01
                    for d in range(mats.shape[1])
                ]
            )
            mats[r] += delta
        return pa.table(
            {
                "vec_id": pa.array([i + 1000000 for i in ids], pa.int64()),
                "embedding": pa.array(
                    [list(m) for m in mats], pa.list_(pa.float64())
                ),
            }
        )

    def widen(batch: pa.Table) -> pa.Table:
        # base side as float64 too, so both branches share one layout
        mats = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "embedding": pa.array(
                    [list(m) for m in mats], pa.list_(pa.float64())
                ),
            }
        )

    aug = emb.map_batches(widen, batch_format="pyarrow").union(
        emb.map_batches(noisy, batch_format="pyarrow")
    )
    return embedding_dup_pairs(
        aug, threshold=0.98, num_planes=32, bands=8, round_to=4
    )


# -- similarity search -----------------------------------------------------

def _query_vectors(sf_dir: str, n: int = 8):
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    mask = pc.less(t["vec_id"], n)
    t = t.filter(mask)
    ids = t["vec_id"].to_pylist()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    return ids, mat


def ann_brute_topk(sf_dir: str):
    from .ops.ann import brute_topk

    ids, mat = _query_vectors(sf_dir)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return brute_topk(emb, ids, mat, k=10)


def embeddings_knn_graph(sf_dir: str):
    """Exact cosine 2-NN graph (ops/ann.py:knn_graph): blocked-GEMM
    self-join streaming sorted corpus blocks against each batch with a
    running top-k -- worker memory O(batch x block), never O(n^2)."""
    from .ops.ann import knn_graph

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_graph(emb, k=2)


def embeddings_knn_graph_ivf(sf_dir: str):
    """IVF-bucketed approximate 2-NN graph (ops/ann.py:knn_graph_ivf), the
    self-join scale path: members ship once, queries nprobe times, no
    corpus broadcast; centroids = embeddings with vec_id < 16."""
    import pyarrow.parquet as pq

    from .ops.ann import knn_graph_ivf

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(pc.less(pc.field("vec_id"), 16)).sort_by("vec_id")
    cents = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return knn_graph_ivf(emb, cents, k=2, nprobe=2)


def ann_sq8_topk(sf_dir: str):
    """SQ8 scalar-quantized ANN (ops/ann.py sq8_topk): int8 integer-dot
    candidate scan (4x smaller than float32 in the object store), top
    k*4 candidates per query, exact float64 cosine rescore to top-10.
    Candidate selection is pure int64 arithmetic, so the oracle replays
    it bit-for-bit."""
    from .ops.ann import sq8_topk

    ids, mat = _query_vectors(sf_dir)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return sq8_topk(emb, ids, mat, k=10, oversample=4)


def ann_lsh_topk(sf_dir: str):
    """LSH top-k whose candidate generation (integer-quantized md5-sign
    hyperplane buckets + hamming<=1 multi-probe) is REPLAYED by the DuckDB
    oracle -- the green row certifies the approximate structure itself,
    not just a lucky full-recall configuration."""
    from .ops.ann import lsh_topk

    ids, mat = _query_vectors(sf_dir)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return lsh_topk(emb, ids, mat, k=10)


def ann_ivf_topk(sf_dir: str):
    """IVF-flat top-k: coarse centroids = embeddings with vec_id < 16,
    nprobe=2; the oracle replays the integer-exact list assignment."""
    import pyarrow.parquet as pq

    from .ops.ann import ivf_topk

    ids, mat = _query_vectors(sf_dir)
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).filter(pc.less(pc.field("vec_id"), 16)).sort_by("vec_id")
    cents = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(emb, ids, mat, cents, k=10, nprobe=2)


def embeddings_kmeans(sf_dir: str):
    """Integer-exact Lloyd k-means (ops/ann.py:kmeans_quantized): C=8
    clusters, 3 iterations, init = vec_id < 8; returns the final
    (vec_id, cluster) assignment.  Bit-exact vs the unrolled DuckDB
    recurrence because every step is order-free integer arithmetic."""
    from .ops.ann import kmeans_quantized

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    _, assign = kmeans_quantized(emb, n_clusters=8, iterations=3)
    return assign


def embeddings_semdedup(sf_dir: str):
    """SemDeDup semantic dedup (ops/ann.py semdedup; Abbas et al. 2023):
    k-means (C=8, 3 integer-exact Lloyd iterations) then within-cluster
    greedy first-occurrence prune at cosine >= 0.92.  The corpus is the
    embeddings table plus TWO md5-deterministic noisy families (noise is
    replayable in the DuckDB oracle): +1000000 at scale 0.01 (cosine
    ~0.9999 to its base -> always pruned) and +2000000 at scale 0.1
    (cosine 0.88-0.94 -> straddles the threshold, so the op's decision
    boundary itself is oracle-checked, not just the easy dups)."""
    from .ops.ann import semdedup
    from .ops.dedup import md5_u64

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def family(offset: int, key: str, scale: float):
        def noisy(batch: pa.Table) -> pa.Table:
            ids = batch["vec_id"].to_pylist()
            mats = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
            if scale:
                for r, i in enumerate(ids):
                    mats[r] += np.array(
                        [
                            (md5_u64(f"{key}:{i}:{d}") / 2**64 * 2.0 - 1.0)
                            * scale
                            for d in range(mats.shape[1])
                        ]
                    )
            return pa.table(
                {
                    "vec_id": pa.array(
                        [i + offset for i in ids], pa.int64()
                    ),
                    "embedding": pa.array(
                        [list(m) for m in mats], pa.list_(pa.float64())
                    ),
                }
            )

        return emb.map_batches(noisy, batch_format="pyarrow")

    # materialize ONCE: k-means consumes the input 5x (init + per-iter +
    # assign) and each pass would otherwise regenerate the md5 noise
    # (measured 37s -> ~8s at sf0.1); the augmented table is tiny.
    aug = (
        family(0, "", 0.0)
        .union(family(1000000, "sem1", 0.01))
        .union(family(2000000, "sem2", 0.1))
    ).materialize()
    return semdedup(
        aug, n_clusters=8, iterations=3, threshold=0.92
    )


def ann_ivf_trained_topk(sf_dir: str):
    """IVF-flat top-k over TRAINED coarse lists: centroids come from the
    integer-exact Lloyd k-means (embeddings_kmeans) instead of sampled
    vectors; probe/rerank identical to ann_ivf_topk.  The trained
    centroids are exact integers, so dividing by 2^20 and re-quantizing
    inside ivf_topk reproduces them bit-for-bit (|c| < 2^21 is exact in
    float64)."""
    from .ops.ann import ivf_topk, kmeans_quantized

    ids, mat = _query_vectors(sf_dir)
    train = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cents_q, _ = kmeans_quantized(train, n_clusters=8, iterations=3)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return ivf_topk(emb, ids, mat, cents_q / float(1 << 20), k=10, nprobe=2)


def embeddings_by_label(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "embeddings", columns=["label"])
    return ds.groupby("label").aggregate(Count(alias_name="cnt"))


# -- compatibility + multimodal (rows-only) --------------------------------

def marc_fixture_convert(sf_dir: str):
    """Convert the reference's own MARCXML fixture corpus with its skeleton
    mapping (sf_dir-independent conformance path)."""
    import json

    from .sources.marcxml import read_marcxml

    rs = RuleSet(
        json.load(open("/root/reference/config/templates/mapping_skeleton.json"))
    )
    eng = RuleEngine(
        rs,
        base="http://data.deichman.no/resource/",
        prefix="tnr_",
        identifier_tag="001",
        resource_type="BIBO.Document",
    )
    rows = []
    for rec in read_marcxml("/root/reference/spec/example.normarc.xml"):
        for t in eng.convert(rec):
            rows.append(
                {"subj": t[0], "pred": t[1], "obj": t[2], "obj_kind": t[3]}
            )
    return pa.Table.from_pylist(rows)


def multimodal_decode(sf_dir: str):
    import ray.data as rd

    from .ops.multimodal import DecodeStub, synth_media_table

    ds = rd.from_arrow(synth_media_table(200))
    return ds.map_batches(
        DecodeStub,
        fn_constructor_kwargs={"fake": True},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )


def multimodal_frames(sf_dir: str):
    """Video frame sampling over the mixed synthetic media table: the
    actor-pool flat-map row expansion (one row per sampled frame) with a
    sha256-replay oracle."""
    import ray.data as rd

    from .ops.multimodal import FrameSampleStub, synth_media_table

    ds = rd.from_arrow(
        synth_media_table(120, kinds=("image", "audio", "video"))
    )
    return ds.map_batches(
        FrameSampleStub,
        fn_constructor_kwargs={"fake": True, "stride": 10},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )


def kg_flagship_docs(sf_dir: str):
    """The flagship stage stack lowered over the documents table, with a
    FULL end-to-end DuckDB oracle (VERDICT r1 next-round #1c): rule-engine
    extraction over an augmented corpus (originals + exact copies at
    +1000000) -> content-hash triples -> sameAs by shared key -> symmetry
    closure -> materialize_graph(dedup=True) with partitioned sorted
    Parquet/NT output + manifest -> read the partitions back.  Everything
    the oracle checks went through the real pipeline stages, including the
    subject-hash partition write."""
    import os
    import tempfile

    from .stages.canonicalize import sameas_by_shared_key, symmetry_closure
    from .stages.materialize import materialize_graph

    docs = _read(sf_dir, "documents")

    def shift(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in batch.column_names}
        cols["doc_id"] = pc.add(batch["doc_id"], pa.scalar(1000000))
        return pa.table(cols)

    aug = docs.union(docs.map_batches(shift, batch_format="pyarrow"))

    def widen(b: pa.Table) -> pa.Table:
        return b.append_column(
            "lang", pa.nulls(len(b), pa.string())
        ).append_column("src", b["subj"])

    base = _lower_docs(aug).map_batches(
        lambda b: widen(b), batch_format="pyarrow"
    )
    raw = base.union(_augmented_doc_hashes(sf_dir))
    sameas = symmetry_closure(
        sameas_by_shared_key(raw, "hash"), dedup=False
    )
    edges = raw.union(sameas)

    with tempfile.TemporaryDirectory() as tmp:
        import pyarrow.parquet as pq

        out = os.path.join(tmp, "graph")
        materialize_graph(edges, out, num_partitions=16, dedup=True)
        parts = sorted(
            os.path.join(out, d, "edges.parquet")
            for d in os.listdir(out)
            if d.startswith("part=")
        )
        tab = pa.concat_tables(pq.read_table(p) for p in parts)
    return tab.select(["subj", "pred", "obj", "obj_kind"])


def flagship_pages_fixture() -> str:
    """Deterministic 200-page fixture parquet at a STABLE path, so the
    kg_flagship_edges DuckDB oracle can ``read_parquet`` the very same
    pages the Ray pipeline consumes (VERDICT r4 next-round #1: the pages
    are not one of the driver's sf views, so the oracle reads the fixture
    file directly).  Atomic create (tmp + os.replace), idempotent, keyed
    by the generator version so a corpus change invalidates the path."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from .sources.pages import GEN_VERSION, synthesize_pages

    root = os.path.join(tempfile.gettempdir(), "marc2rdf_ray_fixtures")
    d = os.path.join(root, f"pages_n200_s42_v{GEN_VERSION}")
    path = os.path.join(d, "pages.parquet")
    if not os.path.exists(path):
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(root, f".pages.tmp.{os.getpid()}")
        pq.write_table(synthesize_pages(200, seed=42), tmp)
        os.replace(tmp, path)
    return path


def kg_flagship_edges(sf_dir: str):
    """The flagship pipeline end-to-end over the deterministic pages
    fixture, with a FULL DuckDB oracle (VERDICT r4 next-round #1): the
    oracle re-extracts title/meta/heading/anchor fields from the ``html``
    column with RE2 regexps and replays the complete rule lowering --
    subject minting, every page_mapping.json rule incl. conditioned
    predicates and relations, urlize/regex_strip slugs, strict-URI anchor
    fallback, entity-mention linking over the ``text`` column, per-record
    work derivation, sameAs by shared isbn (page- and work-level) with
    symmetry closure, and the final materialize dedup -- so the flagship
    EDGE output is hash-checked, not just row-counted."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from .pipelines.kg import run_kg_pipeline

    fixture = flagship_pages_fixture()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "graph")
        run_kg_pipeline(os.path.dirname(fixture), out, PipelineConfig())
        parts = sorted(
            os.path.join(out, d, "edges.parquet")
            for d in os.listdir(out)
            if d.startswith("part=")
        )
        tab = pa.concat_tables([pq.read_table(p) for p in parts])
    return tab.select(["subj", "pred", "obj", "obj_kind", "lang"])


def corpus_flagship_docs(sf_dir: str):
    """The LLM-corpus flagship pipeline (pipelines/corpus.py) end-to-end
    with a FULL DuckDB oracle (VERDICT r3 next-round #1): exact dedup ->
    MinHash+LSH near-dup removal (connected components) -> language-ID
    filter -> test-set decontamination -> PII redaction -> token count ->
    deterministic hash split -> per-split pack offsets -> id-range
    partitioned materialize with checkpoints + manifest.  The partitions
    are read back, so every value the oracle checks went through the real
    checkpointed pipeline, including the partition write.

    Corpus = documents (UNION) exact copies at +1e6 (UNION) perturbed
    copies at +2e6 (last word dropped): the exact copies certify the
    dedup stage, the perturbed ones the near-dup stage.  Blocked spans =
    the 48-char prefix of every 40th doc (the docs_decontaminated
    recipe)."""
    return _corpus_flagship_run(sf_dir, shuffle_order=False)


def _corpus_flagship_run(sf_dir: str, *, shuffle_order: bool,
                         audit: bool = False):
    """Shared runner for the corpus-flagship contract queries (plain
    id-order pack vs deterministic md5 training-order pack vs the
    drop-audit artifact)."""
    import os
    import tempfile

    from .pipelines.corpus import CorpusConfig, run_corpus_pipeline

    def shifted(delta: int, perturb: bool):
        # separate read per branch: never fan one Dataset into multiple
        # consumers (NOTES.md executor trap)
        base = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def shift(b: pa.Table) -> pa.Table:
            texts = b["text"].to_pylist()
            if perturb:
                texts = [" ".join((t or "").split()[:-1]) for t in texts]
            return pa.table(
                {
                    "doc_id": pc.cast(
                        pc.add(b["doc_id"], pa.scalar(delta)), pa.int64()
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            )

        return base.map_batches(shift, batch_format="pyarrow")

    aug = _read(sf_dir, "documents", columns=["doc_id", "text"]).union(
        shifted(1000000, False), shifted(2000000, True)
    )

    def block_spans(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids % 40 == 0))
        s = pc.utf8_slice_codeunits(t["text"], 0, 48)
        out = pa.table({"s": s})
        return out.filter(pc.not_equal(pc.coalesce(out["s"], ""), ""))

    spans = [
        r["s"]
        for r in _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(block_spans, batch_format="pyarrow")
        .take_all()
    ]

    cfg = CorpusConfig(
        min_tokens=20, blocked_spans=tuple(sorted(spans)),
        num_partitions=16, shuffle_order=shuffle_order, audit=audit,
    )
    with tempfile.TemporaryDirectory() as tmp:
        in_dir = os.path.join(tmp, "docs")
        aug.write_parquet(in_dir)
        out = os.path.join(tmp, "clean")
        run_corpus_pipeline(in_dir, out, cfg)
        if audit:
            audit_dir = os.path.join(out, "_audit")
            tab = pa.concat_tables(
                pq.read_table(os.path.join(audit_dir, f))
                for f in sorted(os.listdir(audit_dir))
                if f.endswith(".parquet")
            )
            return tab
        parts = sorted(
            os.path.join(out, d, "docs.parquet")
            for d in os.listdir(out)
            if d.startswith("part=")
        )
        tab = pa.concat_tables(pq.read_table(p) for p in parts)
    return tab


def reverse_records(sf_dir: str):
    """M20 reverse conversion: edges -> field records, flattened to
    (subj, tag) rows for the oracle."""
    import pyarrow as pa

    from .stages.reverse import invert_mapping, records_from_edges
    from .vocab import DEFAULT_VOCAB

    inv = invert_mapping(DOC_MAPPING, DEFAULT_VOCAB)
    recs = records_from_edges(kg_triples(sf_dir), inv)

    def flatten(b: pa.Table) -> pa.Table:
        subj, tag = [], []
        for s_, fields in zip(b["subj"].to_pylist(), b["fields"].to_pylist()):
            for f in fields or []:
                subj.append(s_)
                tag.append(f["tag"])
        return pa.table(
            {"subj": pa.array(subj, pa.string()), "tag": pa.array(tag, pa.string())}
        )

    return recs.map_batches(flatten, batch_format="pyarrow")


def distinct_flag_ship_months(sf_dir: str):
    """Salted two-phase distinct (hot-key-safe groupby) over lineitem:
    distinct (l_returnflag, ship month)."""
    from .stages.canonicalize import salted_group_distinct

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_shipdate"])

    def month(batch: pa.Table) -> pa.Table:
        epoch_us = pc.cast(batch["l_shipdate"], pa.int64())
        # month bucket: days since epoch // 30 is NOT calendar month; use
        # strftime for an exact calendar key
        m = pc.strftime(batch["l_shipdate"], format="%Y-%m")
        return pa.table({"l_returnflag": batch["l_returnflag"], "ship_month": m})

    out = salted_group_distinct(
        ds.map_batches(month, batch_format="pyarrow"),
        ["l_returnflag"],
        "ship_month",
        salt=8,
    )
    return out.map_batches(
        lambda b: b.select(["l_returnflag", "ship_month"]), batch_format="pyarrow"
    )


def doc_components(sf_dir: str):
    """Connected components (bounded min-label propagation) over the
    duplicate-document sameAs graph; star clusters -> root = min subject."""
    from .stages.canonicalize import connected_components, sameas_by_shared_key

    edges = sameas_by_shared_key(_augmented_doc_hashes(sf_dir), "hash")
    return connected_components(edges, rounds=3)


def _md5_link_graph(sf_dir: str):
    """The shared deterministic md5-derived link graph over documents:
    doc i emits (i % 4) out-links, target_k = int(md5("{i}:{k}")[:8],
    16) % N (docs with doc_id % 4 == 0 are dangling).  Returns
    ``(edges_ds, nodes_ds, n)``.  Every graph query (pagerank,
    personalized pagerank, triangles, degree histogram) runs on this
    graph so their oracles share one edge CTE."""
    docs = _read(sf_dir, "documents", columns=["doc_id"])
    n = docs.count()

    def edges(b: pa.Table) -> pa.Table:
        src, dst = [], []
        for i in b["doc_id"].to_pylist():
            for k in range(i % 4):
                src.append(i)
                dst.append(
                    int(hashlib.md5(f"{i}:{k}".encode()).hexdigest()[:8], 16)
                    % n
                )
        return pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )

    nodes = docs.map_batches(
        lambda b: pa.table({"node": pc.cast(b["doc_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    return docs.map_batches(edges, batch_format="pyarrow"), nodes, n


def doc_pagerank(sf_dir: str):
    """Integer-exact PageRank (ops/graph.py:pagerank) over the
    _md5_link_graph.  5 fixed iterations, damping 85/100, ranks in 1e-12
    units -- every step is order-independent integer arithmetic, so the
    DuckDB oracle (unrolled recurrence) matches bit-for-bit.  Budget-gated
    fast path first: pagerank_local solves in-budget edge lists in ONE
    task with the identical order-free integer recurrence (bit-identical
    output); over budget falls back to the bucketed distributed rounds."""
    from .ops.graph import pagerank, pagerank_local

    edges, nodes, _ = _md5_link_graph(sf_dir)
    local = pagerank_local(edges, nodes, iterations=5)
    if local is not None:
        return local
    return pagerank(edges, nodes, iterations=5)


def doc_pagerank_personalized(sf_dir: str):
    """Personalized PageRank (ops/graph.py:pagerank(seed_fn=...)): teleport
    + dangling mass to the seed set doc_id % 10 == 0; membership is a pure
    function of the id so no per-node flag ships through the exchanges.
    Budget-gated pagerank_local fast path first (bit-identical)."""
    from .ops.graph import pagerank, pagerank_local

    edges, nodes, n = _md5_link_graph(sf_dir)
    n_seeds = (n + 9) // 10  # |{0, 10, ...} ∩ [0, n)| for dense 0-based ids
    kw = dict(
        iterations=5,
        seed_fn=lambda ids: ids % 10 == 0,
        n_seeds=n_seeds,
    )
    local = pagerank_local(edges, nodes, **kw)
    if local is not None:
        return local
    return pagerank(edges, nodes, **kw)


def graph_triangles(sf_dir: str):
    """Exact triangle count (ops/graph.py:triangle_count, compact-forward:
    distinct -> degree-rank orient -> wedge emit -> one bucketed hash-join
    match) over the same deterministic md5 link graph as doc_pagerank."""
    from .ops.graph import triangle_count

    edges, _, _ = _md5_link_graph(sf_dir)
    cnt = triangle_count(edges)
    return pa.table({"triangles": pa.array([cnt], pa.int64())})


def graph_kcore(sf_dir: str):
    """k-core peeling (ops/graph.py kcore): 3 synchronous peels at k=3
    over the undirected simple form of the md5 link graph; each round is
    one degree combine + two broadcast-or-join membership filters."""
    from .ops.graph import kcore

    edges, _, _ = _md5_link_graph(sf_dir)
    return kcore(edges, k=3, rounds=3)


def graph_label_propagation(sf_dir: str):
    """Synchronous label-propagation communities (ops/graph.py:
    label_propagation): 3 deterministic rounds over the undirected simple
    form of the md5 link graph; per round one in-task label join +
    (dst,label) combiner, then one bucketed argmax with (count DESC,
    label ASC) tie-break.  SQL-replayable because the sync variant is a
    pure function of the previous round's labels."""
    from .ops.graph import label_propagation

    edges, nodes, _ = _md5_link_graph(sf_dir)
    return label_propagation(edges, nodes, rounds=3)


def graph_degree_histogram(sf_dir: str):
    """Degree distribution of the md5 link graph (ops/graph.py:
    degree_histogram): bucketed distinct edges -> degree partials ->
    histogram partials, all combiner-first."""
    from .ops.graph import degree_histogram

    edges, _, _ = _md5_link_graph(sf_dir)
    return degree_histogram(edges)


def top_orders_per_segment(sf_dir: str):
    """Per-group top-k: 3 priciest orders per market segment.  Small side
    broadcast once (byte-budgeted), ds.join fallback at scale."""
    import ray

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read(
        sf_dir, "orders", columns=["o_custkey", "o_orderkey", "o_totalprice"]
    )
    ctab, cmat = plan.small_side("top_orders_per_segment", cust)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "o_orderkey": batch["o_orderkey"],
                "price_cents": sql_round_i64(batch["o_totalprice"], 100.0),
            }
        )

    if ctab is not None:
        seg_map = dict(
            zip(ctab["c_custkey"].to_pylist(), ctab["c_mktsegment"].to_pylist())
        )
        ref = ray.put(seg_map)

        class JoinSeg:
            def __init__(self):
                self.seg = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                segs = [self.seg.get(k, "UNKNOWN")
                        for k in batch["o_custkey"].to_pylist()]
                return project(
                    batch.append_column(
                        "c_mktsegment", pa.array(segs, pa.string())
                    )
                )

        tagged = orders.map_batches(JoinSeg, batch_format="pyarrow",
                                    concurrency=2)
    else:
        tagged = orders.join(
            cmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_custkey",), right_on=("c_custkey",),
        ).map_batches(project, batch_format="pyarrow")

    def topk(group: pa.Table) -> pa.Table:
        return group.sort_by(
            [("price_cents", "descending"), ("o_orderkey", "ascending")]
        ).slice(0, 3)

    return tagged.groupby("c_mktsegment").map_groups(
        topk, batch_format="pyarrow"
    )


def similar_docs(sf_dir: str):
    """J5-analog similarity pairs: documents sharing (lang, source)."""
    from .stages.canonicalize import similarity_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "source"])
    out = similarity_pairs(ds, ["lang", "source"], "doc_id")
    return out.map_batches(lambda b: b.select(["a", "b"]), batch_format="pyarrow")


def count_distinct_subjects(sf_dir: str):
    """A2: COUNT(DISTINCT ?s) -- unique subjects of the doc triples."""
    ds = kg_triples(sf_dir)
    uniq = ds.map_batches(
        lambda b: pa.table({"subj": pc.unique(b["subj"].combine_chunks())}),
        batch_format="pyarrow",
    ).groupby("subj").count()
    n = uniq.count()
    return pa.table({"n_subjects": pa.array([n], pa.int64())})


def docs_enriched_labels(sf_dir: str):
    """J1 enrichment: broadcast authority table (embeddings labels keyed by
    id) attaches cluster labels to matching doc subjects."""
    from .stages.enrich import enrich_triples

    import pyarrow.parquet as pq

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )
    authority = {
        str(v): {"http://data.example.org/def/clusterLabel": (str(l), "literal")}
        for v, l in zip(emb["vec_id"].to_pylist(), emb["label"].to_pylist())
    }
    enriched = enrich_triples(
        kg_triples(sf_dir).map_batches(
            lambda b: b.append_column(
                "lang", pa.nulls(len(b), pa.string())
            ).append_column("src", b["subj"]),
            batch_format="pyarrow",
        ),
        authority,
        "http://purl.org/dc/terms/identifier",
    )
    return enriched.map_batches(
        lambda b: b.select(["subj", "pred", "obj"]), batch_format="pyarrow"
    )


def docs_without_blocked_content(sf_dir: str):
    """O4 content-checksum blocklist: drop docs whose md5(text) matches the
    blocklist (derived here from doc_id < 3)."""
    import hashlib

    import pyarrow.parquet as pq

    from .stages.enrich import filter_content_blocklist

    head = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).filter(pc.less(pc.field("doc_id"), 3))
    blocked = {
        hashlib.md5(t.encode()).hexdigest() for t in head["text"].to_pylist()
    }
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = filter_content_blocklist(ds, "text", blocked)
    return out.map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def docs_harvest_enrich(sf_dir: str):
    """Config-driven XML harvester over the doc triples: the response
    table (the network snapshot) is synthesized deterministically from the
    documents table, keyed by the harvest URL template; each response
    carries the doc's source wrapped in XML, extracted back by xpath."""
    import pyarrow.parquet as pq

    from .stages.harvest import harvest_triples

    config = {
        "id": "docsrc",
        "url": {"prefix": "http://authority.example.org/doc/", "suffix": ".xml"},
        "local": {"subject": "doc", "predicate": "DC.identifier"},
        "remote": {
            "predicates": {
                "DC.source": {"datatype": "literal", "xpath": "//src"},
            },
            "namespaces": {},
        },
        "limits": {"max_limit": 10},
    }
    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    responses = {
        f"http://authority.example.org/doc/{i}.xml": f"<r><src>{s}</src></r>"
        for i, s in zip(t["doc_id"].to_pylist(), t["source"].to_pylist())
    }
    out = harvest_triples(kg_triples_full(sf_dir), config, responses)
    return out.map_batches(
        lambda b: b.select(["subj", "pred", "obj"]), batch_format="pyarrow"
    )


def kg_triples_full(sf_dir: str):
    """kg_triples with the full 6-column layout (lang/src) for stages that
    require provenance columns."""
    return kg_triples(sf_dir).map_batches(
        lambda b: b.append_column(
            "lang", pa.nulls(len(b), pa.string())
        ).append_column("src", b["subj"]),
        batch_format="pyarrow",
    )


def normalize_creator_names(sf_dir: str):
    """A5 derived-attribute normalization (normalize_creatornames.isql):
    catalogue-style names synthesized deterministically from document
    columns (comma-inverted for even ids, plain for odd) -> split at first
    comma into lastName/firstName/name."""
    from .functions.textops import split_inverted_name

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "source"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        sources = batch["source"].to_pylist()
        last, first, name = [], [], []
        for i, lg, src in zip(ids, langs, sources):
            cat = f"{src}, {lg}" if i % 2 == 0 else f"{src} {lg}"
            ln, fn, nm = split_inverted_name(cat)
            last.append(ln)
            first.append(fn)
            name.append(nm)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "last_name": pa.array(last, pa.string()),
                "first_name": pa.array(first, pa.string()),
                "name": pa.array(name, pa.string()),
            }
        )

    return ds.map_batches(derive, batch_format="pyarrow")


def orders_customer_left_join(sf_dir: str):
    """Generic distributed hash join via the NATIVE ``Dataset.join``
    (left_outer): every order keeps its row; customer columns are null
    where the (acctbal-filtered) build side has no match -- the engine's
    general-purpose join surface beyond the specialized lookup /
    anti-join / as-of operators (SURVEY.md §2.5).  num_partitions bounds
    per-partition memory, so the exchange scales with the cluster."""
    o = _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pc.cast(b["o_orderkey"], pa.int64()),
            "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
            "total_cents": sql_round_i64(b["o_totalprice"], 100.0),
        })

    c = _read(sf_dir, "customer",
              columns=["c_custkey", "c_name", "c_mktsegment", "c_acctbal"])
    c = c.map_batches(
        lambda b: b.filter(pc.greater(b["c_acctbal"], 5000.0)).select(
            ["c_custkey", "c_name", "c_mktsegment"]
        ),
        batch_format="pyarrow",
    )
    j = o.map_batches(cents, batch_format="pyarrow").join(
        c, join_type="left_outer", num_partitions=plan.join_partitions(),
        on=("o_custkey",), right_on=("c_custkey",),
    )
    return j.map_batches(
        lambda b: b.select(
            ["o_orderkey", "total_cents", "c_name", "c_mktsegment"]
        ),
        batch_format="pyarrow",
    )


def nation_counts_full_outer(sf_dir: str):
    """FULL OUTER join of two aggregates via the native ``Dataset.join``:
    per-nation customer counts (nations < 20) vs per-nation supplier
    counts (nations > 5).  The asymmetric filters force unmatched rows on
    BOTH sides, so null-fill semantics are exercised in each direction;
    the join coalesces the key, matching SQL COALESCE(l.key, r.key)."""
    from ray.data.aggregate import Sum

    def cpart(b: pa.Table) -> pa.Table:
        t = b.filter(pc.less(b["c_nationkey"], 20))
        g = (
            pa.table({"nationkey": pc.cast(t["c_nationkey"], pa.int64()),
                      "__n": pa.array([1] * len(t), pa.int64())})
            .group_by(["nationkey"], use_threads=False)
            .aggregate([("__n", "sum")])
        )
        return g.rename_columns(["nationkey", "__n"])

    def spart(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["s_nationkey"], 5))
        g = (
            pa.table({"nationkey_r": pc.cast(t["s_nationkey"], pa.int64()),
                      "__n": pa.array([1] * len(t), pa.int64())})
            .group_by(["nationkey_r"], use_threads=False)
            .aggregate([("__n", "sum")])
        )
        return g.rename_columns(["nationkey_r", "__n"])

    custs = (
        _read(sf_dir, "customer", columns=["c_nationkey"])
        .map_batches(cpart, batch_format="pyarrow")
        .groupby("nationkey").aggregate(Sum("__n"))
        .map_batches(
            lambda b: pa.table({"nationkey": b["nationkey"],
                                "n_cust": b["sum(__n)"]}),
            batch_format="pyarrow",
        )
    )
    supps = (
        _read(sf_dir, "supplier", columns=["s_nationkey"])
        .map_batches(spart, batch_format="pyarrow")
        .groupby("nationkey_r").aggregate(Sum("__n"))
        .map_batches(
            lambda b: pa.table({"nationkey_r": b["nationkey_r"],
                                "n_supp": b["sum(__n)"]}),
            batch_format="pyarrow",
        )
    )
    return custs.join(
        supps, join_type="full_outer", num_partitions=plan.join_partitions(),
        on=("nationkey",), right_on=("nationkey_r",),
    )


def orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP (ops/relational.py rollup_aggregate): order money
    + counts at (status, priority), (status) and grand-total levels in
    ONE combiner-first pass; ``lvl`` is the GROUPING() analog."""
    from .ops.relational import rollup_aggregate

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])
    return rollup_aggregate(
        ds, ["o_orderstatus", "o_orderpriority"], "o_totalprice"
    )


def orders_cube(sf_dir: str):
    """GROUP BY CUBE (ops/relational.py cube_aggregate): order money +
    counts at all four (status, priority) subsets; ``lvl`` is the SQL
    GROUPING(status, priority) bitmask, distinguishing the two
    single-key grouping sets."""
    from .ops.relational import cube_aggregate

    ds = _read(sf_dir, "orders",
               columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])
    return cube_aggregate(
        ds, ["o_orderstatus", "o_orderpriority"], "o_totalprice"
    )


def events_coalesced_intervals(sf_dir: str):
    """Gaps-and-islands interval coalescing (ops/windows.py
    coalesce_intervals): each event opens a 30-minute validity window
    [ts, ts+30min]; overlapping windows of one user merge into covered
    spans -- the reference's overlapping harvest-window collapse
    (scheduler.rb re-harvests a safety margin around each window)."""
    from .ops.windows import coalesce_intervals

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def mkintervals(b: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        return pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "start_us": t,
            "end_us": pc.add(t, 1_800_000_000),
        })

    return coalesce_intervals(
        ev.map_batches(mkintervals, batch_format="pyarrow")
    )


def events_compact_latest(sf_dir: str):
    """Latest-version-per-key compaction (ops/relational.py
    compact_latest): the newest event per user by (ts, event_id) -- the
    CDC/upsert "keep current row" primitive (reference analog:
    modify_record / insert_new_record overwrite-by-id, SURVEY.md §2.8
    U1/U4).  One hash-bucket shuffle, vectorized winner mask per bucket."""
    from .ops.relational import compact_latest

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type", "value"])
    out = compact_latest(ev, key_col="user_id", ts_col="ts",
                         tie_col="event_id")
    return out.map_batches(
        lambda b: pa.table({
            "user_id": pc.cast(b["user_id"], pa.int64()),
            "ts_us": pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64()),
            "event_type": b["event_type"],
            "value_cents": sql_round_i64(b["value"], 100.0),
            "event_id": pc.cast(b["event_id"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


def _docs_with_urls(sf_dir: str):
    """Shared deterministic URL corpus for the web-URL operators: doc i
    gets a messy URL (uppercase authority, tracking param, page path
    shared by doc_id%40 peers of the same source, per-doc fragment,
    trailing slash) that the canonicalizer must clean.  The SQL oracles
    rebuild the same string with || concatenation."""
    def mkurl(b: pa.Table) -> pa.Table:
        urls = [
            f"HTTPS://WWW.{s}.Example.COM/Page/{i % 40}/"
            f"?utm_source=x&sid={i % 3}#f{i}"
            for i, s in zip(b["doc_id"].to_pylist(), b["source"].to_pylist())
        ]
        return pa.table({
            "doc_id": pc.cast(b["doc_id"], pa.int64()),
            "url": pa.array(urls, pa.string()),
            "n_chars": pc.cast(b["n_chars"], pa.int64()),
        })

    return _read(
        sf_dir, "documents", columns=["doc_id", "source", "n_chars"]
    ).map_batches(mkurl, batch_format="pyarrow")


def docs_url_dedup(sf_dir: str):
    """Canonical-URL crawl dedup (ops/weburl.py url_dedup_min_id):
    fragment/tracking-param/case noise collapses and one fetch per
    canonical URL survives (min doc_id).  The oracle replays the exact
    regex chain in DuckDB (RE2 == polars Rust regex on this subset;
    parity pinned in tests/test_weburl.py)."""
    from .ops.weburl import url_dedup_min_id

    return url_dedup_min_id(_docs_with_urls(sf_dir),
                            url_col="url", id_col="doc_id")


def docs_domain_stats(sf_dir: str):
    """Per-domain corpus footprint (ops/weburl.py domain_stats): docs and
    chars per lowercased, www-stripped host -- the domain-budget /
    per-site-cap statistic of crawl curation (combiner-first, one small
    groupby)."""
    from .ops.weburl import domain_stats

    return domain_stats(_docs_with_urls(sf_dir),
                        url_col="url", chars_col="n_chars")


def graph_bfs_levels(sf_dir: str):
    """Multi-source BFS over the shared md5 link graph (ops/graph.py
    bfs_levels): min hop distance from the doc_id%131==0 seeds, capped at
    4 -- frontier semi-join + visited anti-join per round, both through
    the broadcast-or-join membership shape.  The oracle is a recursive
    CTE bounded by the same depth cap."""
    from .ops.graph import bfs_levels

    edges, nodes, _ = _md5_link_graph(sf_dir)
    def pick_seeds(b: pa.Table) -> pa.Table:
        v = b["node"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(v % 131 == 0))

    seeds = nodes.map_batches(pick_seeds, batch_format="pyarrow")
    return bfs_levels(edges, seeds, max_depth=4)


# -- registry --------------------------------------------------------------

QUERIES = {
    "kg_triples": kg_triples,
    "kg_dedup_edges": kg_dedup_edges,
    "kg_sameas_docs": kg_sameas_docs,
    "kg_flagship_docs": kg_flagship_docs,
    "kg_flagship_edges": kg_flagship_edges,
    "corpus_flagship_docs": corpus_flagship_docs,
    "q1_pricing_summary": q1_pricing_summary,
    "revenue_by_segment": revenue_by_segment,
    "customers_without_big_orders": customers_without_big_orders,
    "top_orders_by_price": top_orders_by_price,
    "top_orders_page2": top_orders_page2,
    "events_hourly": events_hourly,
    "events_top_types": events_top_types,
    "events_json_props": events_json_props,
    "events_asof_join": events_asof_join,
    "events_asof_join_wide": events_asof_join_wide,
    "events_asof_join_forward": events_asof_join_forward,
    "events_error_window": events_error_window,
    "events_value_quantiles": events_value_quantiles,
    "events_value_quantile_bounds": events_value_quantile_bounds,
    "events_value_quantile_sketch": events_value_quantile_sketch,
    "docs_sample_deterministic": docs_sample_deterministic,
    "events_streaming_watermark": events_streaming_watermark,
    "events_sessions": events_sessions,
    "events_sliding_3h": events_sliding_3h,
    "events_approx_distinct_users": events_approx_distinct_users,
    "events_type_distinct_users_hll": events_type_distinct_users_hll,
    "events_user_cms_counts": events_user_cms_counts,
    "events_heavy_users": events_heavy_users,
    "docs_bloom_prefilter": docs_bloom_prefilter,
    "docs_weighted_sample": docs_weighted_sample,
    "docs_packed_sequences": docs_packed_sequences,
    "docs_chunked": docs_chunked,
    "docs_tfidf_top_terms": docs_tfidf_top_terms,
    "docs_redacted": docs_redacted,
    "docs_repetition": docs_repetition,
    "docs_split": docs_split,
    "events_type_value_quantiles": events_type_value_quantiles,
    "events_running_totals": events_running_totals,
    "events_percentile_ranks": events_percentile_ranks,
    "events_user_type_pivot": events_user_type_pivot,
    "events_user_type_melted": events_user_type_melted,
    "events_funnel": events_funnel,
    "docs_token_stats": docs_token_stats,
    "docs_lang_histogram": docs_lang_histogram,
    "docs_quality": docs_quality,
    "docs_langid": docs_langid,
    "docs_fingerprint": docs_fingerprint,
    "docs_top_bigrams": docs_top_bigrams,
    "docs_inverted_index": docs_inverted_index,
    "docs_bm25_topk": docs_bm25_topk,
    "docs_decontaminated": docs_decontaminated,
    "docs_decontaminated_hashed": docs_decontaminated_hashed,
    "docs_per_lang_sample": docs_per_lang_sample,
    "docs_boilerplate_removed": docs_boilerplate_removed,
    "docs_paragraph_dedup": docs_paragraph_dedup,
    "docs_span_dedup": docs_span_dedup,
    "docs_trigram_bits": docs_trigram_bits,
    "docs_mixture_flattened": docs_mixture_flattened,
    "dedup_exact": dedup_exact,
    "dedup_incremental_windows": dedup_incremental_windows,
    "dedup_minhash": dedup_minhash,
    "dedup_minhash_keep": dedup_minhash_keep,
    "dedup_jaccard_verified": dedup_jaccard_verified,
    "dedup_simhash": dedup_simhash,
    "dedup_embedding": dedup_embedding,
    "ann_brute_topk": ann_brute_topk,
    "embeddings_knn_graph": embeddings_knn_graph,
    "embeddings_knn_graph_ivf": embeddings_knn_graph_ivf,
    "ann_lsh_topk": ann_lsh_topk,
    "ann_sq8_topk": ann_sq8_topk,
    "ann_ivf_topk": ann_ivf_topk,
    "ann_ivf_trained_topk": ann_ivf_trained_topk,
    "embeddings_kmeans": embeddings_kmeans,
    "embeddings_semdedup": embeddings_semdedup,
    "embeddings_by_label": embeddings_by_label,
    "reverse_records": reverse_records,
    "distinct_flag_ship_months": distinct_flag_ship_months,
    "doc_components": doc_components,
    "doc_pagerank": doc_pagerank,
    "doc_pagerank_personalized": doc_pagerank_personalized,
    "graph_triangles": graph_triangles,
    "graph_kcore": graph_kcore,
    "graph_label_propagation": graph_label_propagation,
    "graph_degree_histogram": graph_degree_histogram,
    "graph_bfs_levels": graph_bfs_levels,
    "orders_customer_left_join": orders_customer_left_join,
    "nation_counts_full_outer": nation_counts_full_outer,
    "orders_rollup": orders_rollup,
    "orders_cube": orders_cube,
    "events_compact_latest": events_compact_latest,
    "events_coalesced_intervals": events_coalesced_intervals,
    "docs_url_dedup": docs_url_dedup,
    "docs_domain_stats": docs_domain_stats,
    "top_orders_per_segment": top_orders_per_segment,
    "similar_docs": similar_docs,
    "docs_enriched_labels": docs_enriched_labels,
    "docs_without_blocked_content": docs_without_blocked_content,
    "normalize_creator_names": normalize_creator_names,
    "docs_harvest_enrich": docs_harvest_enrich,
    "count_distinct_subjects": count_distinct_subjects,
    "marc_fixture_convert": marc_fixture_convert,
    "multimodal_decode": multimodal_decode,
    "multimodal_frames": multimodal_frames,
}

def _kg_triples_sql_for(id_expr: str = "doc_id") -> str:
    """Rule-lowered triples of the documents table in SQL; ``id_expr``
    parameterizes the subject id (e.g. '(doc_id + 1000000)' for the
    augmented flagship corpus)."""
    i = f"CAST({id_expr} AS VARCHAR)"
    return f"""
SELECT 'http://data.example.org/doc/' || {i} AS subj,
       'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pred,
       'http://xmlns.com/foaf/0.1/Document' AS obj, 'uri' AS obj_kind
FROM documents
UNION ALL
SELECT 'http://data.example.org/doc/' || {i},
       'http://purl.org/dc/terms/identifier', {i}, 'literal'
FROM documents
UNION ALL
SELECT 'http://data.example.org/doc/' || {i},
       'http://purl.org/dc/terms/language',
       'http://lexvo.org/id/iso639-3/' || lang, 'uri'
FROM documents
UNION ALL
SELECT 'http://data.example.org/doc/' || {i},
       'http://purl.org/dc/terms/language',
       'http://lexvo.org/id/iso639-3/' || lang, 'uri'
FROM documents
UNION ALL
SELECT 'http://data.example.org/doc/' || {i},
       'http://purl.org/dc/terms/source',
       'http://data.example.org/source/' || source, 'uri'
FROM documents
UNION ALL
SELECT 'http://data.example.org/doc/' || {i},
       'http://data.deichman.no/nChars', CAST(n_chars AS VARCHAR), 'integer'
FROM documents
"""


_KG_TRIPLES_SQL = _kg_triples_sql_for("doc_id")

_KG_FLAGSHIP_DOCS_SQL = f"""
WITH base AS (
  {_kg_triples_sql_for("doc_id")}
  UNION ALL
  {_kg_triples_sql_for("(doc_id + 1000000)")}
), hashes AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), hash_triples AS (
  SELECT subj, 'hash' AS pred, h AS obj, 'literal' AS obj_kind FROM hashes
), m AS (
  SELECT h, min(subj) AS canon FROM hashes GROUP BY h
), sameas AS (
  SELECT a.subj AS subj,
         'http://www.w3.org/2002/07/owl#sameAs' AS pred,
         m.canon AS obj, 'uri' AS obj_kind
  FROM hashes a JOIN m ON a.h = m.h WHERE a.subj <> m.canon
  UNION ALL
  SELECT m.canon, 'http://www.w3.org/2002/07/owl#sameAs', a.subj, 'uri'
  FROM hashes a JOIN m ON a.h = m.h WHERE a.subj <> m.canon
)
SELECT DISTINCT subj, pred, obj, obj_kind FROM (
  SELECT * FROM base
  UNION ALL SELECT * FROM hash_triples
  UNION ALL SELECT * FROM sameas
)
"""

# RFC2396 char class of generate_uri's strict check (functions/textops.py
# _RFC2396_OK); single-quote doubled for SQL embedding.
_RFC2396_SQL_CLASS = r"[A-Za-z0-9;/?:@&=+$,\-_.!~*''()%#\[\]]*"


def flagship_edges_oracle_sql() -> str:
    """DuckDB oracle for kg_flagship_edges: full SQL replay of the flagship
    pipeline over the deterministic pages fixture (created here if absent,
    so the oracle never races the Ray side).

    Replay notes, tied to the engine code the SQL mirrors:
    - field re-extraction by RE2 regexp over ``decode(html)`` (the corpus
      template guarantees attribute quoting; stages/extract.py is the
      general parser the pipeline itself uses);
    - urlize/regex_strip lowering (functions/textops.py): ASCII ``\\w``
      semantics mean accented chars are STRIPPED before the accent-fold
      could see them, so slugs are ``lower(regexp_replace(x,
      '[^A-Za-z0-9_-]', '', 'g'))``-shaped;
    - anchor hrefs: the mapping's lookahead strip ``^.*?(?=http)`` is not
      RE2-expressible; ``substr(href, strpos(href,'http'))`` is exactly
      equivalent (drop everything before the first 'http');
    - strict-URI kind check = RFC2396 charset + scheme + host
      (textops.generate_uri);
    - mentions: the linker emits EVERY candidate URI of every matched
      alias (stages/link.py link_text), so per-page EXISTS-of-alias over
      the ``text`` column reproduces the set; in this corpus every alias
      occurrence is space/newline-delimited, so the padded-LIKE boundary
      test equals the linker's \\b semantics (verified exhaustively at
      build time against the Ray output);
    - sameAs: group by (isbn, subject kind) -- pages ('self') and minted
      works ('derived') never cross-merge (stages/canonicalize.py
      sameas_by_shared_key) -- min-subject star + symmetry closure."""
    from .stages.link import build_alias_dict

    pages = flagship_pages_fixture()
    alias_rows = [
        (alias, uri)
        for alias, cands in build_alias_dict().items()
        for uri, _prior in cands
    ]
    alias_values = ",\n    ".join(
        "('" + a.replace("'", "''") + "', '" + u + "')"
        for a, u in sorted(alias_rows)
    )
    return f"""
WITH p0 AS (
  SELECT url, decode(html) AS h, text FROM read_parquet('{pages}')
), px AS (
  SELECT url, h, text,
    regexp_extract(h, '<title>([^<]*)</title>', 1) AS title_txt,
    regexp_extract(h, '<html lang="([^"]*)">', 1) AS hlang,
    regexp_extract(h, '<meta name="crawl_date" content="([^"]*)">', 1) AS crawl,
    regexp_extract(h, '<meta name="audience" content="([^"]*)">', 1) AS aud,
    regexp_extract(h, '<meta name="format" content="([^"]*)">', 1) AS fmt,
    regexp_extract(h, '<meta name="author" content="([^"]*)">', 1) AS cat_name,
    regexp_extract(h, '<meta name="author_given" content="([^"]*)">', 1) AS given,
    regexp_extract(h, '<meta name="author_lifespan" content="([^"]*)">', 1) AS lifespan,
    regexp_extract(h, '<meta name="author_role" content="([^"]*)">', 1) AS role,
    regexp_extract(h, '<meta name="author_id" content="([^"]*)">', 1) AS aid,
    regexp_extract(h, '<meta name="keywords" content="([^"]*)">', 1) AS kws,
    regexp_extract(h, '<meta name="description" content="([^"]*)">', 1) AS descr,
    regexp_extract(h, '<meta name="isbn" content="([^"]*)">', 1) AS isbn,
    regexp_extract(h, '<meta name="published" content="([^"]*)">', 1) AS pub,
    regexp_extract(h, '<meta name="words" content="([^"]*)">', 1) AS wrds,
    regexp_extract(h, '<meta name="score" content="([^"]*)">', 1) AS score
  FROM p0
), pf AS (
  SELECT *,
    regexp_extract(url, '^[a-z]+://([^/]*)', 1) AS host,
    CASE WHEN title_txt LIKE '% | %'
         THEN regexp_replace(title_txt, ' \\| [^|]*$', '') ELSE title_txt
    END AS rawtitle,
    CASE WHEN title_txt LIKE '% | %'
         THEN regexp_extract(title_txt, ' \\| ([^|]*)$', 1) ELSE ''
    END AS site
  FROM px
), pg AS (
  SELECT *,
    CASE WHEN rawtitle LIKE '% - %'
         THEN regexp_extract(rawtitle, '^(.*?) - ', 1) ELSE rawtitle
    END AS main,
    CASE WHEN rawtitle LIKE '% - %'
         THEN regexp_replace(rawtitle, '^.*? - ', '') ELSE ''
    END AS sub,
    'http://data.example.org/work/x' ||
      lower(regexp_replace(aid || '_' || rawtitle, '[^A-Za-z0-9_-]', '', 'g'))
      AS workuri,
    'http://data.example.org/person/x' || aid AS personuri,
    regexp_replace(isbn, '[^0-9]', '', 'g') AS isbn_d,
    CASE role
      WHEN 'forf' THEN 'http://purl.org/dc/terms/creator'
      WHEN 'red' THEN 'http://purl.org/ontology/bibo/editor'
      WHEN 'overs' THEN 'http://purl.org/ontology/bibo/translator'
      WHEN 'foto' THEN 'http://data.deichman.no/photographer'
      WHEN 'ill' THEN 'http://purl.org/ontology/bibo/illustrator'
      WHEN 'komp' THEN 'http://data.deichman.no/composer'
      WHEN 'dir' THEN 'http://data.deichman.no/director'
      WHEN 'medarb' THEN 'http://purl.org/dc/terms/contributor'
      ELSE 'http://purl.org/dc/terms/contributor'
    END AS rolepred
  FROM pf
), base AS (
  SELECT url AS subj, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pred,
         'http://xmlns.com/foaf/0.1/Document' AS obj, 'uri' AS obj_kind,
         NULL AS lang FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/identifier', url, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://data.deichman.no/sourceSite',
         'http://data.example.org/site/' || lower(regexp_replace(host, '[^-_A-Za-z0-9]', '', 'g')),
         'uri', NULL FROM pg
  UNION ALL SELECT url, 'http://data.deichman.no/cataloguingDate', crawl, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/audience',
         'http://data.example.org/audience/' || CASE substr(aud, 1, 1) WHEN 'j' THEN 'juvenile' ELSE 'adult' END,
         'uri', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/format',
         'http://data.example.org/format/' || CASE substr(fmt, 1, 1)
            WHEN 'l' THEN 'Book' WHEN 'g' THEN 'Web_page' WHEN 'd' THEN 'Audiobook' ELSE 'Document' END,
         'uri', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/language',
         'http://lexvo.org/id/iso639-3/' || hlang, 'uri', NULL FROM pg
  UNION ALL SELECT 'http://lexvo.org/id/iso639-3/' || hlang,
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'http://lexvo.org/ontology#Language', 'uri', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/title', main, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/spar/fabio/hasSubtitle', sub, 'literal', NULL
         FROM pg WHERE sub <> ''
  UNION ALL SELECT url, 'http://data.deichman.no/titleURLized',
         lower(regexp_replace(rawtitle, '[^A-Za-z0-9_]', '', 'g')), 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/spar/fabio/isManifestationOf', workuri, 'uri', NULL FROM pg
  UNION ALL SELECT workuri, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'http://purl.org/spar/fabio/Work', 'uri', NULL FROM pg
  UNION ALL SELECT workuri, 'http://purl.org/dc/terms/title', rawtitle, 'literal', NULL FROM pg
  UNION ALL SELECT workuri, 'http://purl.org/dc/terms/creator', personuri, 'uri', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/publisher',
         'http://data.example.org/organization/' || lower(regexp_replace(site, '[^A-Za-z0-9_]', '', 'g')),
         'uri', NULL FROM pg
  UNION ALL SELECT 'http://data.example.org/organization/' || lower(regexp_replace(site, '[^A-Za-z0-9_]', '', 'g')),
         'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'http://xmlns.com/foaf/0.1/Organization', 'uri', NULL FROM pg
  UNION ALL SELECT 'http://data.example.org/organization/' || lower(regexp_replace(site, '[^A-Za-z0-9_]', '', 'g')),
         'http://xmlns.com/foaf/0.1/name', site, 'literal', NULL FROM pg
  UNION ALL SELECT url, rolepred, personuri, 'uri', NULL FROM pg
  UNION ALL SELECT personuri, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'http://xmlns.com/foaf/0.1/Person', 'uri', NULL FROM pg
  UNION ALL SELECT personuri, 'http://def.bibsys.no/xmlns/radatana/1.0#catalogueName',
         cat_name, 'literal', NULL FROM pg
  UNION ALL SELECT personuri, 'http://xmlns.com/foaf/0.1/givenName', given, 'literal', NULL FROM pg
  UNION ALL SELECT personuri, 'http://data.deichman.no/lifespan', lifespan, 'literal', NULL FROM pg
  UNION ALL SELECT personuri, 'http://purl.org/dc/terms/identifier', aid, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/abstract', descr, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/ontology/bibo/isbn', isbn_d, 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://purl.org/dc/terms/issued',
         regexp_replace(pub, '[\\[\\]\\?]+', '', 'g'), 'literal', NULL FROM pg
  UNION ALL SELECT url, 'http://data.deichman.no/wordCount',
         regexp_replace(wrds, '[^0-9]', '', 'g'), 'integer', NULL FROM pg
  UNION ALL SELECT url, 'http://data.deichman.no/qualityScore', score, 'float', NULL FROM pg
), kwx AS (
  SELECT url, kws, trim(k) AS kw,
         'http://data.example.org/subject/' ||
           lower(regexp_replace(trim(k), '[^A-Za-z0-9_-]', '', 'g')) AS kwuri
  FROM pg, unnest(string_split_regex(kws, ', *')) AS t(k)
), kw_triples AS (
  SELECT url AS subj, 'http://purl.org/dc/terms/subject' AS pred, kwuri AS obj,
         'uri' AS obj_kind, NULL AS lang FROM kwx
  UNION ALL SELECT kwuri, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type',
         'http://www.w3.org/2004/02/skos/core#Concept', 'uri', NULL FROM kwx
  UNION ALL SELECT kwuri, 'http://www.w3.org/2004/02/skos/core#prefLabel',
         kws, 'literal', 'no' FROM kwx
), headings AS (
  SELECT url AS subj, 'http://data.deichman.no/heading' AS pred, main AS obj,
         'literal' AS obj_kind, 'en' AS lang FROM pg
  UNION ALL
  SELECT url, 'http://data.deichman.no/heading', trim(t.x), 'literal', 'en'
  FROM pg, unnest(regexp_extract_all(h, '<h2>([^<]*)</h2>', 1)) AS t(x)
), anchors AS (
  SELECT url,
    CASE WHEN strpos(t.x, 'http') > 0 THEN substr(t.x, strpos(t.x, 'http'))
         ELSE t.x END AS href
  FROM pg, unnest(regexp_extract_all(h, '<a href="([^"]*)"', 1)) AS t(x)
), link_triples AS (
  SELECT url AS subj, 'http://purl.org/spar/fabio/hasURL' AS pred, href AS obj,
    CASE WHEN regexp_full_match(href, '{_RFC2396_SQL_CLASS}')
              AND regexp_matches(href, '^[A-Za-z][A-Za-z0-9+.\\-]*://[^/]')
         THEN 'uri' ELSE 'literal' END AS obj_kind,
    NULL AS lang
  FROM anchors
), aliases(alias, euri) AS (
  VALUES
    {alias_values}
), mention_triples AS (
  SELECT DISTINCT p.url AS subj, 'http://data.deichman.no/mentions' AS pred,
         a.euri AS obj, 'uri' AS obj_kind, NULL AS lang
  FROM p0 p JOIN aliases a
    ON (' ' || replace(p.text, chr(10), ' ') || ' ') LIKE ('% ' || a.alias || ' %')
), work_derived AS (
  SELECT workuri AS subj, 'http://purl.org/dc/terms/creator' AS pred,
         personuri AS obj, 'uri' AS obj_kind, NULL AS lang
  FROM pg WHERE role = 'forf'
  UNION ALL
  SELECT workuri, 'http://purl.org/ontology/bibo/isbn', isbn_d, 'literal', NULL FROM pg
), page_groups AS (
  SELECT isbn_d, url FROM pg
), page_canon AS (
  SELECT isbn_d, min(url) AS canon FROM page_groups GROUP BY isbn_d
), work_groups AS (
  SELECT DISTINCT isbn_d, workuri FROM pg
), work_canon AS (
  SELECT isbn_d, min(workuri) AS canon FROM work_groups GROUP BY isbn_d
), sameas AS (
  SELECT g.url AS subj, 'http://www.w3.org/2002/07/owl#sameAs' AS pred,
         c.canon AS obj, 'uri' AS obj_kind, NULL AS lang
  FROM page_groups g JOIN page_canon c ON g.isbn_d = c.isbn_d
  WHERE g.url <> c.canon
  UNION ALL
  SELECT c.canon, 'http://www.w3.org/2002/07/owl#sameAs', g.url, 'uri', NULL
  FROM page_groups g JOIN page_canon c ON g.isbn_d = c.isbn_d
  WHERE g.url <> c.canon
  UNION ALL
  SELECT g.workuri, 'http://www.w3.org/2002/07/owl#sameAs', c.canon, 'uri', NULL
  FROM work_groups g JOIN work_canon c ON g.isbn_d = c.isbn_d
  WHERE g.workuri <> c.canon
  UNION ALL
  SELECT c.canon, 'http://www.w3.org/2002/07/owl#sameAs', g.workuri, 'uri', NULL
  FROM work_groups g JOIN work_canon c ON g.isbn_d = c.isbn_d
  WHERE g.workuri <> c.canon
)
SELECT DISTINCT subj, pred, obj, obj_kind, lang FROM (
  SELECT * FROM base
  UNION ALL SELECT * FROM kw_triples
  UNION ALL SELECT * FROM headings
  UNION ALL SELECT * FROM link_triples
  UNION ALL SELECT * FROM mention_triples
  UNION ALL SELECT * FROM work_derived
  UNION ALL SELECT * FROM sameas
)
"""


ORACLE_SQL = {
    "kg_triples": _KG_TRIPLES_SQL,
    "kg_dedup_edges": f"SELECT DISTINCT * FROM ({_KG_TRIPLES_SQL})",
    "kg_flagship_docs": _KG_FLAGSHIP_DOCS_SQL,
    "kg_sameas_docs": """
WITH aug AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), m AS (SELECT h, min(subj) AS canon FROM aug GROUP BY h)
SELECT a.subj AS subj, m.canon AS obj
FROM aug a JOIN m ON a.h = m.h WHERE a.subj > m.canon
""",
    "q1_pricing_summary": """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       COUNT(*) AS cnt
FROM lineitem GROUP BY l_returnflag, l_linestatus
""",
    "revenue_by_segment": """
SELECT c.c_mktsegment,
       CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents,
       COUNT(*) AS num_orders
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
""",
    "customers_without_big_orders": """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (
  SELECT o_custkey FROM orders WHERE o_totalprice > 400000.0)
""",
    "top_orders_by_price": """
SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_cents
FROM orders ORDER BY price_cents DESC, o_orderkey ASC LIMIT 10
""",
    "top_orders_page2": """
SELECT o_orderkey, CAST(ROUND(o_totalprice * 100) AS BIGINT) AS price_cents
FROM orders
ORDER BY price_cents DESC, o_orderkey ASC
LIMIT 10 OFFSET 10
""",
    "events_hourly": """
SELECT user_id, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
       COUNT(*) AS cnt,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY user_id, hour
""",
    "events_top_types": """
SELECT event_type, COUNT(*) AS cnt FROM events
GROUP BY event_type ORDER BY cnt DESC, event_type ASC LIMIT 5
""",
    # streaming watermark replay: md5 jitter (<=6h) makes arrival
    # out-of-order; prior-arrival running max - 2h is the watermark
    "events_streaming_watermark": """
WITH adj AS (
  SELECT event_id, value,
    CAST(epoch_us(ts) AS BIGINT)
      - CAST(CAST('0x' || substr(md5('late:' || CAST(event_id AS VARCHAR)),
                  1, 16) AS UBIGINT) % 21600 AS BIGINT) * 1000000 AS tsu
  FROM events
), wm AS (
  SELECT tsu, value,
    MAX(tsu) OVER (ORDER BY event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
      AS prior_max
  FROM adj
), kept AS (
  SELECT tsu, value FROM wm
  WHERE prior_max IS NULL OR tsu >= prior_max - 7200000000
)
SELECT tsu // 3600000000 AS hour, COUNT(*) AS cnt,
  CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT)
    AS sum_value_cents
FROM kept GROUP BY hour
""",
    "events_json_props": """
SELECT event_type,
       CAST(SUM(CAST(COALESCE(regexp_extract(props, '[0-9]+'), '0') AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY event_type
""",
    # as-of join: latest click at/before each purchase, per user
    "events_asof_join": """
WITH p AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
           FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
      FROM events WHERE event_type = 'click'),
m AS (SELECT p.event_id AS pid, c.event_id AS cid, c.ts_us AS cts,
             row_number() OVER (PARTITION BY p.event_id
                                ORDER BY c.ts_us DESC, c.event_id DESC) AS rn
      FROM p JOIN c ON c.user_id = p.user_id AND c.ts_us <= p.ts_us)
SELECT p.event_id, p.user_id, p.ts_us,
       m.cid AS event_id_click, m.cts AS ts_us_click
FROM p LEFT JOIN m ON m.pid = p.event_id AND m.rn = 1
""",
    # forward as-of: earliest click at-or-after, ties smallest id
    "events_asof_join_forward": """
WITH p AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
           FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
      FROM events WHERE event_type = 'click'),
m AS (SELECT p.event_id AS pid, c.event_id AS cid, c.ts_us AS cts,
             row_number() OVER (PARTITION BY p.event_id
                                ORDER BY c.ts_us ASC, c.event_id ASC) AS rn
      FROM p JOIN c ON c.user_id = p.user_id AND c.ts_us >= p.ts_us)
SELECT p.event_id, p.user_id, p.ts_us,
       m.cid AS event_id_click, m.cts AS ts_us_click
FROM p LEFT JOIN m ON m.pid = p.event_id AND m.rn = 1
""",
    # wide as-of join: same matches, wide payload gathered by row id
    "events_asof_join_wide": """
WITH p AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                  CAST(ROUND(value * 100) AS BIGINT) AS value_cents, props
           FROM events WHERE event_type = 'purchase'),
c AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
             CAST(ROUND(value * 100) AS BIGINT) AS value_cents, props
      FROM events WHERE event_type = 'click'),
m AS (SELECT p.event_id AS pid, c.event_id AS cid, c.ts_us AS cts,
             c.value_cents AS cvc, c.props AS cprops,
             row_number() OVER (PARTITION BY p.event_id
                                ORDER BY c.ts_us DESC, c.event_id DESC) AS rn
      FROM p JOIN c ON c.user_id = p.user_id AND c.ts_us <= p.ts_us)
SELECT p.event_id, p.user_id, p.ts_us, p.value_cents, p.props,
       m.cid AS event_id_click, m.cts AS ts_us_click,
       m.cvc AS value_cents_click, m.cprops AS props_click
FROM p LEFT JOIN m ON m.pid = p.event_id AND m.rn = 1
""",
    # range join: (purchase, error) pairs within the preceding 24 h, per user
    "events_error_window": """
WITH p AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
           FROM events WHERE event_type = 'purchase'),
e AS (SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us
      FROM events WHERE event_type = 'error')
SELECT p.event_id, p.user_id, p.ts_us,
       e.event_id AS event_id_error, e.ts_us AS ts_us_error
FROM p JOIN e ON e.user_id = p.user_id
             AND e.ts_us BETWEEN p.ts_us - 86400000000 AND p.ts_us
""",
    # per-group exact quantiles: per-type histogram + integer-rational ranks
    "events_type_value_quantiles": """
WITH e AS (SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS v
           FROM events),
h AS (SELECT event_type, v, COUNT(*) AS c FROM e GROUP BY 1, 2),
s AS (SELECT event_type, v,
             SUM(c) OVER (PARTITION BY event_type ORDER BY v) AS cum FROM h),
nn AS (SELECT event_type, COUNT(*) AS n FROM e GROUP BY 1)
SELECT nn.event_type, CAST(t.num AS DOUBLE) / t.den AS q,
       (SELECT MIN(v) FROM s
        WHERE s.event_type = nn.event_type
          AND cum >= (t.num * nn.n + t.den - 1) // t.den) AS value_cents
FROM nn, (VALUES (1, 2), (9, 10)) t(num, den)
""",
    # streaming packing: global token prefix sum in doc_id order, cut every 512
    "docs_packed_sequences": """
WITH c AS (SELECT doc_id,
                  CAST(len(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS BIGINT)
                      AS n_tokens
           FROM documents),
o AS (SELECT doc_id, n_tokens,
             CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                 AS BIGINT) AS start_offset
      FROM c)
SELECT doc_id, n_tokens, start_offset, start_offset // 512 AS pack_id FROM o
""",
    # fixed-width codepoint chunking: substr every 160 chars, empty docs drop
    "docs_chunked": """
WITH g AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents),
n AS (SELECT doc_id, t,
             CAST(ceil(length(t) / 160.0) AS BIGINT) AS nc FROM g)
SELECT doc_id, s.k AS chunk_id, substr(t, CAST(s.k * 160 + 1 AS BIGINT), 160) AS chunk
FROM n, LATERAL (SELECT unnest(generate_series(0, nc - 1)) AS k) s
WHERE nc > 0
""",
    # per-doc top-3 tf-idf: quantized score, term-asc tie-break
    "docs_tfidf_top_terms": """
WITH toks AS (SELECT doc_id,
                     unnest(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS term
              FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
       FROM toks GROUP BY 1, 2),
df AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
       FROM toks GROUP BY 1),
nn AS (SELECT COUNT(*) AS n FROM documents),
s AS (SELECT tf.doc_id, tf.term, tf.tf,
             CAST(FLOOR(tf.tf * LN(nn.n * 1.0 / df.df) * 10000 + 0.5)
                  AS BIGINT) AS score_q
      FROM tf, df, nn WHERE tf.term = df.term),
r AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY doc_id
                                   ORDER BY score_q DESC, term) AS rn
      FROM s)
SELECT doc_id, term, tf, score_q FROM r WHERE rn <= 3
""",
    # PII scrub: chained RE2 regexp_replace, global flag
    "docs_redacted": """
SELECT doc_id,
       regexp_replace(
           regexp_replace(COALESCE(text, ''),
               '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
               '[EMAIL]', 'g'),
           '[0-9]{4,}', '[NUM]', 'g') AS text
FROM documents
""",
    # repetition signals: integer top-token fraction
    "docs_repetition": """
WITH toks AS (SELECT doc_id,
                     unnest(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS term
              FROM documents),
tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS c
       FROM toks GROUP BY 1, 2),
agg AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_tokens,
               CAST(COUNT(*) AS BIGINT) AS distinct_tokens,
               CAST(MAX(c) AS BIGINT) AS top_token_cnt
        FROM tf GROUP BY 1)
SELECT d.doc_id,
       COALESCE(a.n_tokens, 0) AS n_tokens,
       COALESCE(a.distinct_tokens, 0) AS distinct_tokens,
       COALESCE(a.top_token_cnt, 0) AS top_token_cnt,
       CAST(CASE WHEN COALESCE(a.n_tokens, 0) = 0 THEN 0
            ELSE (a.top_token_cnt * 1000000) // a.n_tokens END
            AS BIGINT) AS rep_ppm
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
""",
    # deterministic split: md5(id) mod 2^32 under cumulative integer bounds
    "docs_split": """
SELECT doc_id, lang,
       CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                 AS BIGINT) < 3221225472 THEN 'train'
            WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                 AS BIGINT) < 3758096384 THEN 'val'
            ELSE 'test' END AS split
FROM documents
""",
    # weighted Bernoulli mix: md5(id) mod 2^32 under a per-group threshold
    "docs_weighted_sample": """
SELECT doc_id, lang FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
      < CASE lang WHEN 'en' THEN 1073741824
                  WHEN 'no' THEN 3221225472
                  ELSE 4294967296 END
""",
    # deterministic hash sample: membership is a pure function of the key
    "docs_sample_deterministic": """
SELECT doc_id, lang FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
      % 8 = 0
""",
    # exact quantiles: value histogram + integer-rational ranks
    "events_value_quantiles": """
WITH e AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v FROM events),
h AS (SELECT v, COUNT(*) AS c FROM e GROUP BY v),
s AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum FROM h),
nn AS (SELECT COUNT(*) AS n FROM e)
SELECT CAST(t.num AS DOUBLE) / t.den AS q,
       (SELECT MIN(v) FROM s
        WHERE cum >= (t.num * (SELECT n FROM nn) + t.den - 1) // t.den)
         AS value_cents
FROM (VALUES (1, 2), (9, 10), (99, 100)) t(num, den)
""",
    # continuous-domain quantile bounds: fixed-width bin histogram
    "events_value_quantile_bounds": """
WITH e AS (SELECT CAST(FLOOR(CAST(value AS DOUBLE) / 7.5) AS BIGINT) AS b
           FROM events),
h AS (SELECT b, COUNT(*) AS c FROM e GROUP BY b),
s AS (SELECT b, c, SUM(c) OVER (ORDER BY b) AS cum FROM h),
nn AS (SELECT COUNT(*) AS n FROM e)
SELECT CAST(t.num AS DOUBLE) / t.den AS q,
       x.b * 7.5 AS lo, (x.b + 1) * 7.5 AS hi,
       CAST(x.c AS BIGINT) AS bin_count
FROM (VALUES (1, 2), (9, 10), (99, 100)) t(num, den)
CROSS JOIN LATERAL (
  SELECT b, c FROM s, nn
  WHERE cum >= (t.num * nn.n + t.den - 1) // t.den
  ORDER BY b LIMIT 1) x
""",
    # session windows: lag-gap break flags, running-sum session ids
    # per-type strict-rank percentile: (RANK()-1) * 1e6 // group size
    "events_percentile_ranks": """
WITH e AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS value_cents
           FROM events)
SELECT event_id, event_type, value_cents,
       CAST((RANK() OVER (PARTITION BY event_type ORDER BY value_cents)
             - 1) * 1000000
            // COUNT(*) OVER (PARTITION BY event_type) AS BIGINT)
           AS pct_ppm
FROM e
""",
    # pivot: one count column per event type
    "events_user_type_pivot": """
SELECT user_id,
       CAST(SUM(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS click,
       CAST(SUM(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS error,
       CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS purchase,
       CAST(SUM(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS signup,
       CAST(SUM(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS view
FROM events GROUP BY user_id
""",
    # melt of the pivot: every (user, type) pair incl. zero counts
    "events_user_type_melted": """
WITH u AS (SELECT DISTINCT user_id FROM events),
t(variable) AS (VALUES ('click'), ('error'), ('purchase'),
                        ('signup'), ('view')),
c AS (SELECT user_id, event_type, CAST(COUNT(*) AS BIGINT) AS cnt
      FROM events GROUP BY 1, 2)
SELECT u.user_id, t.variable,
       CAST(COALESCE(c.cnt, 0) AS BIGINT) AS value
FROM u CROSS JOIN t
LEFT JOIN c ON c.user_id = u.user_id AND c.event_type = t.variable
""",
    # funnel: earliest view -> click -> purchase chain per user
    "events_funnel": """
WITH e AS (SELECT user_id, event_type, CAST(epoch_us(ts) AS BIGINT) AS tus
           FROM events
           WHERE event_type IN ('view', 'click', 'purchase')),
u AS (SELECT DISTINCT user_id FROM e),
s1 AS (SELECT user_id, MIN(tus) AS t1 FROM e
       WHERE event_type = 'view' GROUP BY 1),
s2 AS (SELECT e.user_id, MIN(e.tus) AS t2
       FROM e JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'click' AND e.tus >= s1.t1 GROUP BY 1),
s3 AS (SELECT e.user_id, MIN(e.tus) AS t3
       FROM e JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.tus >= s2.t2 GROUP BY 1)
SELECT u.user_id, s1.t1, s2.t2, s3.t3,
       CAST(CASE WHEN s3.t3 IS NOT NULL THEN 3
                 WHEN s2.t2 IS NOT NULL THEN 2
                 WHEN s1.t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
           AS steps_completed
FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
       LEFT JOIN s3 USING (user_id)
""",
    # per-user cumulative window aggregate, (ts, id) total order
    "events_running_totals": """
WITH e AS (
  SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us,
         CAST(ROUND(value * 100) AS BIGINT) AS vc
  FROM events
)
SELECT event_id, user_id, ts_us,
       CAST(COUNT(*) OVER w AS BIGINT) AS running_cnt,
       CAST(SUM(vc) OVER w AS BIGINT) AS running_cents
FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us, event_id
                    ROWS UNBOUNDED PRECEDING)
""",
    "events_sessions": """
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS tus,
         CAST(ROUND(value * 100) AS BIGINT) AS vc
  FROM events
), lagd AS (
  SELECT user_id, tus, vc,
    CASE WHEN lag(tus) OVER w IS NULL
           OR tus - lag(tus) OVER w > 1800000000 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tus)
), sess AS (
  SELECT user_id, tus, vc,
    SUM(brk) OVER (PARTITION BY user_id ORDER BY tus
                   ROWS UNBOUNDED PRECEDING) AS sid
  FROM lagd
)
SELECT user_id, CAST(MIN(tus) AS BIGINT) AS session_start_us,
       COUNT(*) AS n_events,
       CAST(SUM(vc) AS BIGINT) AS sum_value_cents
FROM sess GROUP BY user_id, sid
""",
    # trailing 3-hop sliding window: hop partials self-joined over the
    # window range (the oracle's O(W) blowup is fine at sf scale; the Ray
    # path is the cumsum-difference single pass)
    "events_sliding_3h": """
WITH hops AS (
  SELECT user_id,
         CAST(FLOOR(CAST(epoch_us(ts) AS BIGINT) / 3600000000.0) AS BIGINT)
           AS hop,
         COUNT(*) AS c,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1, 2
)
SELECT a.user_id, a.hop AS window_end_hop,
       CAST(SUM(b.c) AS BIGINT) AS n_events,
       CAST(SUM(b.s) AS BIGINT) AS sum_value_cents
FROM hops a JOIN hops b
  ON a.user_id = b.user_id AND b.hop BETWEEN a.hop - 2 AND a.hop
GROUP BY 1, 2
""",
    # HyperLogLog registers: md5-derived 64-bit hash, top-10-bit register,
    # rho = leading zeros of the low 54 bits + 1 via exact integer
    # bit-length (length of bin())
    "events_approx_distinct_users": """
WITH h AS (
  SELECT CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
              AS UBIGINT) AS hv
  FROM (SELECT DISTINCT user_id FROM events)
), r AS (
  SELECT CAST(hv >> 54 AS BIGINT) AS register,
         hv & CAST(18014398509481983 AS UBIGINT) AS rest
  FROM h
)
SELECT register,
       CAST(MAX(54 - CASE WHEN rest = 0 THEN 0
                          ELSE length(bin(rest)) END + 1) AS BIGINT)
         AS max_rho
FROM r GROUP BY register
""",
    "events_type_distinct_users_hll": """
WITH h AS (
  SELECT event_type,
         CAST(('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))
              AS UBIGINT) AS hv
  FROM (SELECT DISTINCT event_type, user_id FROM events)
), r AS (
  SELECT event_type, CAST(hv >> 54 AS BIGINT) AS register,
         hv & CAST(18014398509481983 AS UBIGINT) AS rest
  FROM h
)
SELECT event_type, register,
       CAST(MAX(54 - CASE WHEN rest = 0 THEN 0
                          ELSE length(bin(rest)) END + 1) AS BIGINT)
         AS max_rho
FROM r GROUP BY event_type, register
""",
    # count-min sketch: depth x width counter grid from md5-derived
    # buckets, probe estimate = min over rows
    # heavy hitters: exact-verified, so the oracle is the plain HAVING
    "events_heavy_users": """
WITH t AS (SELECT COUNT(*) AS total,
                  COUNT(DISTINCT user_id) AS nu FROM events)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt
FROM events GROUP BY user_id
HAVING COUNT(*) >= (SELECT (13 * total) // (10 * nu) FROM t)
""",
    "events_user_cms_counts": """
WITH rows_(r) AS (VALUES (0), (1), (2), (3)),
g AS (
  SELECT r.r AS row,
         CAST(CAST(('0x' || substr(md5(CAST(r.r AS VARCHAR)
                                        || CAST(user_id AS VARCHAR)), 1, 16))
                   AS UBIGINT) % 1024 AS BIGINT) AS bucket,
         COUNT(*) AS cnt
  FROM events, rows_ r GROUP BY 1, 2
),
probes AS (SELECT CAST(x AS VARCHAR) AS key FROM generate_series(0, 49) t(x)),
pb AS (
  SELECT p.key, r.r AS row,
         CAST(CAST(('0x' || substr(md5(CAST(r.r AS VARCHAR) || p.key), 1, 16))
                   AS UBIGINT) % 1024 AS BIGINT) AS bucket
  FROM probes p, rows_ r
)
SELECT pb.key, CAST(MIN(COALESCE(g.cnt, 0)) AS BIGINT) AS cms_count
FROM pb LEFT JOIN g ON g.row = pb.row AND g.bucket = pb.bucket
GROUP BY pb.key
""",
    # Bloom prefilter: k md5-derived bit positions per key; flagged = all
    # k positions set by the blocklist (false positives replay too)
    "docs_bloom_prefilter": """
WITH js(j) AS (VALUES (0), (1), (2)),
blocked AS (SELECT CAST(doc_id AS VARCHAR) AS key FROM documents
            WHERE doc_id % 37 = 0),
bits AS (
  SELECT DISTINCT
         CAST(CAST(('0x' || substr(md5(CAST(j.j AS VARCHAR) || b.key), 1, 16))
                   AS UBIGINT) % 512 AS BIGINT) AS pos
  FROM blocked b, js j
),
hits AS (
  SELECT d.doc_id, d.lang,
         COUNT(*) FILTER (WHERE b.pos IS NOT NULL) AS nhit
  FROM documents d
  CROSS JOIN js j
  LEFT JOIN bits b
    ON b.pos = CAST(CAST(('0x' || substr(md5(CAST(j.j AS VARCHAR)
                                             || CAST(d.doc_id AS VARCHAR)),
                                         1, 16))
                         AS UBIGINT) % 512 AS BIGINT)
  GROUP BY 1, 2
)
SELECT doc_id, lang FROM hits WHERE nhit = 3
""",
    # global top-k token bigrams
    "docs_inverted_index": r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
  FROM documents
),
pairs AS (SELECT DISTINCT doc_id, term FROM toks)
SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM pairs GROUP BY term HAVING COUNT(*) >= 2
""",
    "docs_top_bigrams": """
WITH toks AS (SELECT regexp_extract_all(text, '\\S+') AS t FROM documents),
bi AS (SELECT t[g.i] || ' ' || t[g.i + 1] AS ngram
       FROM toks, LATERAL (SELECT unnest(generate_series(1, len(t) - 1)) AS i) g)
SELECT ngram, CAST(COUNT(*) AS BIGINT) AS cnt FROM bi GROUP BY ngram
ORDER BY cnt DESC, ngram LIMIT 20
""",
    # test-set decontamination: blocked spans = 48-char prefixes of every
    # 40th doc; survivors contain none of them
    "docs_decontaminated": """
WITH b AS (SELECT substr(text, 1, 48) AS s FROM documents
           WHERE doc_id % 40 = 0 AND substr(text, 1, 48) <> '')
SELECT d.doc_id, d.lang FROM documents d
WHERE NOT EXISTS (SELECT 1 FROM b WHERE contains(d.text, b.s))
""",
    # BM25 (k1=1.2, b=0.75): per-(doc,term) integer microbit contributions
    # floored BEFORE the sum (ops/lm.py trick) -- same IEEE expression
    "docs_bm25_topk": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
),
stats AS (
  SELECT COUNT(*) AS nd, CAST(SUM(len(t)) AS BIGINT) AS sumlen FROM toks
),
q(term) AS (VALUES ('data'), ('stream'), ('vector')),
flat AS (SELECT doc_id, unnest(t) AS tok FROM toks),
df AS (
  SELECT q.term, COUNT(DISTINCT f.doc_id) AS df
  FROM q JOIN flat f ON f.tok = q.term GROUP BY q.term
),
tf AS (
  SELECT f.doc_id, q.term, COUNT(*) AS tf
  FROM q JOIN flat f ON f.tok = q.term GROUP BY f.doc_id, q.term
),
lens AS (SELECT doc_id, len(t) AS dl FROM toks),
contrib AS (
  SELECT tf.doc_id,
    CAST(floor(
      ln((CAST(s.nd - df.df AS DOUBLE) + 0.5)
         / (CAST(df.df AS DOUBLE) + 0.5) + 1)
      * (tf.tf * 2.2)
      / (tf.tf + 0.3 + 0.9 * l.dl * s.nd / s.sumlen)
      * 1000000 + 0.5) AS BIGINT) AS micro
  FROM tf
  JOIN lens l USING (doc_id)
  JOIN df USING (term)
  CROSS JOIN stats s
)
SELECT doc_id, CAST(SUM(micro) AS BIGINT) AS microbits
FROM contrib GROUP BY doc_id
QUALIFY row_number() OVER (ORDER BY SUM(micro) DESC, doc_id) <= 10
""",
    # window-hash decontamination: shared 6-token md5 windows, 1-based
    # INCLUSIVE DuckDB list slices (t[i:i+5] = 6 tokens)
    "docs_decontaminated_hashed": r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
),
spans AS (
  SELECT regexp_extract_all(substr(text, 1, 48), '\S+') AS t
  FROM documents
  WHERE doc_id % 40 = 0 AND substr(text, 1, 48) <> ''
),
span_w AS (
  SELECT DISTINCT
    substr(md5(array_to_string(t[g.i:g.i + 5], ' ')), 1, 16) AS h
  FROM spans,
  LATERAL (SELECT unnest(generate_series(1, len(t) - 5)) AS i) g
),
doc_w AS (
  SELECT doc_id,
    substr(md5(array_to_string(t[g.i:g.i + 5], ' ')), 1, 16) AS h
  FROM toks,
  LATERAL (SELECT unnest(generate_series(1, len(t) - 5)) AS i) g
)
SELECT d.doc_id, d.lang FROM documents d
WHERE NOT EXISTS (
  SELECT 1 FROM doc_w w JOIN span_w s USING (h) WHERE w.doc_id = d.doc_id
)
""",
    # stratified deterministic sample: 10 per language by (md5(id), id)
    "docs_per_lang_sample": """
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang
                            ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
           AS rn
  FROM documents) WHERE rn <= 10
""",
    "docs_token_stats": r"""
SELECT doc_id, CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS ws_tokens,
       CAST(length(text) AS BIGINT) AS n_chars
FROM documents
""",
    "docs_lang_histogram": "SELECT lang, COUNT(*) AS cnt FROM documents GROUP BY lang",
    # quality scoring: ratios computed with the EXACT same double arithmetic
    # (x/y then floor(x*1e6+0.5)/1e6) as ops.textstats.quality_batch
    "docs_quality": r"""
WITH q AS (
  SELECT doc_id,
    regexp_extract_all(text, '\S+') AS toks,
    CAST(length(regexp_extract_all(text, '[^\w\s]')) AS DOUBLE) AS npunct,
    CAST(length(text) AS DOUBLE) AS nchars
  FROM documents
), r AS (
  SELECT doc_id,
    CAST(length(toks) AS BIGINT) AS n_tokens,
    CASE WHEN nchars > 0 THEN npunct / nchars ELSE 0.0 END AS punct_raw,
    CASE WHEN length(toks) > 0 THEN
      CAST(length(list_filter(toks, x -> list_contains(
        ['the','and','of','a','to','in','is','it','on','for',
         'og','i','det','som','en','på','er','av','til','med'],
        lower(trim(x, '.,;:!?"''()'))))) AS DOUBLE) / length(toks)
      ELSE 0.0 END AS stop_raw,
    CASE WHEN length(toks) > 0 THEN
      CAST(list_aggregate(list_transform(toks, x -> length(x)), 'sum') AS DOUBLE)
        / length(toks)
      ELSE 0.0 END AS mwl_raw
  FROM q
)
SELECT doc_id, n_tokens,
  floor(punct_raw * 1000000 + 0.5) / 1000000 AS punct_ratio,
  floor(stop_raw * 1000000 + 0.5) / 1000000 AS stop_ratio,
  floor(mwl_raw * 1000000 + 0.5) / 1000000 AS mean_word_len
FROM r
""",
    # language ID: same trigram profiles/weights (generated below from
    # ops.textstats._LANG_PROFILES -- single source of truth)
    "docs_langid": None,  # filled in after ORACLE_SQL definition
    # fingerprint: FNV-1a over 'tok1 tok2 ... tokN ' bytes, replayed
    # byte-by-byte in a recursive CTE with HUGEINT mod-2^64 arithmetic
    "docs_fingerprint": r"""
WITH RECURSIVE s AS (
  SELECT doc_id,
    CASE WHEN length(regexp_extract_all(text, '\S+')) = 0 THEN ''
         ELSE array_to_string(regexp_extract_all(text, '\S+'), ' ') || ' ' END AS str
  FROM documents
), f AS (
  SELECT doc_id, str, 0 AS pos, CAST(14695981039346656037 AS HUGEINT) AS h FROM s
  UNION ALL
  SELECT doc_id, str, pos + 1,
    ((xor(h, CAST(ord(substr(str, pos + 1, 1)) AS HUGEINT)) * 1099511628211)
      % 18446744073709551616) AS h
  FROM f WHERE pos < length(str)
)
SELECT doc_id, CAST(h % 9223372036854775808 AS BIGINT) AS fingerprint
FROM f WHERE pos = length(str)
""",
    # cross-window dedup: window-1 (even ids) precedence over window 2
    "dedup_incremental_windows": """
WITH d AS (SELECT doc_id, md5(COALESCE(text, '')) AS h FROM documents),
w1 AS (SELECT h, CAST(MIN(doc_id) AS BIGINT) AS doc_id,
              CAST(COUNT(*) AS BIGINT) AS cnt
       FROM d WHERE doc_id % 2 = 0 GROUP BY h),
w2 AS (SELECT h, CAST(MIN(doc_id) AS BIGINT) AS doc_id,
              CAST(COUNT(*) AS BIGINT) AS cnt
       FROM d WHERE doc_id % 2 = 1 GROUP BY h),
w2k AS (SELECT w2.h, w2.doc_id, w2.cnt
        FROM w2 LEFT JOIN w1 ON w1.h = w2.h WHERE w1.h IS NULL)
SELECT h AS content_hash, doc_id, cnt FROM w1
UNION ALL SELECT h, doc_id, cnt FROM w2k
""",
    "dedup_exact": """
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL SELECT doc_id + 1000000, text FROM documents)
SELECT md5(text) AS content_hash, MIN(doc_id) AS doc_id, COUNT(*) AS cnt
FROM aug GROUP BY md5(text)
""",
    "embeddings_by_label": "SELECT label, COUNT(*) AS cnt FROM embeddings GROUP BY label",
    # Full MinHash+LSH replay in SQL: md5-derived shingle hashes and
    # permutation constants, HUGEINT mod-2^64 multiply-shift (split-word
    # mulmod), banding via md5 over decimal-joined band values, per-bucket
    # 200-item cap mirrored with row_number -- byte-identical to
    # ops.dedup.minhash_lsh_pairs with num_perm=64, bands=16, threshold 0.7.
    "dedup_minhash": None,  # filled below from _MINHASH_CTES

    # Full SimHash replay: md5 token hashes, 64 bit-position sums, 4x16-bit
    # pigeonhole bands, hamming via bit_count(xor) on the shifted int64
    # representation (two's complement makes the shift xor-transparent).
    "dedup_simhash": r"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000,
    CASE WHEN length(regexp_extract_all(text, '\S+')) <= 1 THEN ''
         ELSE array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
              length(regexp_extract_all(text, '\S+')) - 1), ' ') END
  FROM documents
), tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\w+')) AS t FROM aug
), th AS (
  SELECT doc_id,
    CAST(CAST('0x' || substr(md5(t), 1, 16) AS UBIGINT) AS HUGEINT) AS h
  FROM tok
), bitsum AS (
  SELECT doc_id, jj.j AS j,
    SUM(CASE WHEN (h >> jj.j) % 2 = 1 THEN 1 ELSE -1 END) AS s
  FROM th CROSS JOIN (SELECT unnest(range(64)) AS j) jj
  GROUP BY doc_id, jj.j
), shu AS (
  SELECT doc_id,
    SUM(CASE WHEN s > 0 THEN (CAST(1 AS HUGEINT) << j)
        ELSE CAST(0 AS HUGEINT) END) AS hu
  FROM bitsum GROUP BY doc_id
), sh AS (
  SELECT a.doc_id,
    CAST(COALESCE(s.hu, 0) - 9223372036854775808 AS BIGINT) AS simhash,
    COALESCE(s.hu, 0) AS hu
  FROM aug a LEFT JOIN shu s ON a.doc_id = s.doc_id
), ch AS (
  SELECT doc_id, simhash, cc.c AS c,
    CAST((hu >> (16 * cc.c)) % 65536 AS BIGINT) AS chunk
  FROM sh CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS c) cc
), ch2 AS (
  SELECT *, row_number() OVER (PARTITION BY c, chunk ORDER BY doc_id) AS rn
  FROM ch
), cand AS (
  SELECT DISTINCT x.doc_id AS a, x.simhash AS sa, y.doc_id AS b, y.simhash AS sb
  FROM ch2 x JOIN ch2 y ON x.c = y.c AND x.chunk = y.chunk
   AND x.doc_id < y.doc_id AND x.rn <= 200 AND y.rn <= 200
)
SELECT a, b, CAST(bit_count(xor(sa, sb)) AS INTEGER) AS hamming
FROM cand WHERE bit_count(xor(sa, sb)) <= 3
""",
    # Brute-force oracle over the md5-deterministic augmented embedding set:
    # certifies the banded-LSH op's recall is exactly 100% here.
    "dedup_embedding": """
WITH base AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
), noisy AS (
  SELECT vec_id + 1000000 AS vid,
    list_transform(generate_series(1, length(v)), d -> v[d]
      + (CAST(CAST('0x' || substr(md5('emb:' || CAST(vec_id AS VARCHAR)
           || ':' || CAST(d - 1 AS VARCHAR)), 1, 16) AS UBIGINT) AS DOUBLE)
         / 18446744073709551616.0 * 2 - 1) * 0.01) AS v
  FROM base
), aug AS (
  SELECT vec_id AS vid, v FROM base UNION ALL SELECT vid, v FROM noisy
)
SELECT a.vid AS a, b.vid AS b,
  ROUND(list_cosine_similarity(a.v, b.v), 4) AS cosine
FROM aug a JOIN aug b ON a.vid < b.vid
WHERE list_cosine_similarity(a.v, b.v) >= 0.98
""",
    # IVF-flat replay: integer-quantized L2 assignment to centroid vectors
    # (vec_id < 16), nprobe=2 nearest lists per query, exact cosine rerank.
    "ann_ivf_topk": """
WITH qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
    list_transform(CAST(embedding AS DOUBLE[]),
                   x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS q
  FROM embeddings
), cent AS (
  SELECT vec_id AS cid, q AS cq FROM qv WHERE vec_id < 16
), dist AS (
  SELECT qv.vec_id, cent.cid,
    list_aggregate(list_transform(generate_series(1, 64),
      d -> (qv.q[d] - cent.cq[d]) * (qv.q[d] - cent.cq[d])), 'sum') AS d2
  FROM qv CROSS JOIN cent
), assign AS (
  SELECT vec_id, cid FROM dist
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
), qprobe AS (
  SELECT vec_id AS qid, cid FROM dist WHERE vec_id < 8
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) <= 2
), cand AS (
  SELECT qp.qid, a.vec_id FROM qprobe qp JOIN assign a ON a.cid = qp.cid
)
SELECT c.qid, c.vec_id,
  ROUND(list_cosine_similarity(e.v, qe.v), 4) AS score
FROM cand c
JOIN qv e ON e.vec_id = c.vec_id
JOIN qv qe ON qe.vec_id = c.qid
QUALIFY row_number() OVER (
  PARTITION BY c.qid
  ORDER BY ROUND(list_cosine_similarity(e.v, qe.v), 4) DESC, c.vec_id ASC) <= 10
""",
    # Full LSH replay: integer-quantized (floor(x*2^20+0.5)) md5-sign-plane
    # bucket codes, hamming<=1 multi-probe candidates, exact rerank.
    # Integer dot products make bucket codes bit-identical to the op.
    "ann_lsh_topk": """
WITH sgn AS (
  SELECT p.p AS p, d.d AS d,
    CASE WHEN (CAST(('0x' || substr(md5('plane:' || p.p || ':'
          || CAST(d.d - 1 AS VARCHAR)), 1, 16)) AS UBIGINT) % 2) = 1
         THEN 1 ELSE -1 END AS s
  FROM range(8) p(p) CROSS JOIN range(1, 65) d(d)
), qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
    list_transform(CAST(embedding AS DOUBLE[]),
                   x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS q
  FROM embeddings
), proj AS (
  SELECT qv.vec_id, sgn.p, SUM(qv.q[sgn.d] * sgn.s) AS pr
  FROM qv CROSS JOIN sgn GROUP BY qv.vec_id, sgn.p
), bcode AS (
  SELECT vec_id,
    SUM(CASE WHEN pr > 0 THEN (1 << p) ELSE 0 END) AS code
  FROM proj GROUP BY vec_id
), qq AS (
  SELECT b.vec_id AS qid, b.code AS qcode, qv.v AS qe
  FROM bcode b JOIN qv ON qv.vec_id = b.vec_id WHERE b.vec_id < 8
), cand AS (
  SELECT qq.qid, b.vec_id, qq.qe, qv.v
  FROM qq
  JOIN bcode b ON bit_count(xor(b.code, qq.qcode)) <= 1
  JOIN qv ON qv.vec_id = b.vec_id
)
SELECT qid, vec_id, ROUND(list_cosine_similarity(v, qe), 4) AS score
FROM cand
QUALIFY row_number() OVER (
  PARTITION BY qid
  ORDER BY ROUND(list_cosine_similarity(v, qe), 4) DESC, vec_id ASC) <= 10
""",
    "distinct_flag_ship_months": """
SELECT DISTINCT l_returnflag, strftime(l_shipdate, '%Y-%m') AS ship_month
FROM lineitem
""",
    "doc_components": """
WITH aug AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), m AS (SELECT h, min(subj) AS canon, count(*) AS n FROM aug GROUP BY h)
SELECT a.subj AS node, m.canon AS root
FROM aug a JOIN m ON a.h = m.h WHERE m.n > 1
""",
    "docs_enriched_labels": """
SELECT 'http://data.example.org/doc/' || CAST(d.doc_id AS VARCHAR) AS subj,
       'http://data.example.org/def/clusterLabel' AS pred,
       CAST(e.label AS VARCHAR) AS obj
FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
""",
    "docs_without_blocked_content": """
SELECT doc_id FROM documents
WHERE md5(text) NOT IN (SELECT md5(text) FROM documents WHERE doc_id < 3)
""",
    "similar_docs": """
SELECT a.doc_id AS a, b.doc_id AS b
FROM documents a JOIN documents b
  ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
""",
    "count_distinct_subjects": """
SELECT CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_subjects FROM documents
""",
    # harvester enrichment: one DC.source triple per doc extracted back out
    # of the synthesized XML responses
    "docs_harvest_enrich": """
SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
       'http://purl.org/dc/terms/source' AS pred,
       source AS obj
FROM documents
""",
    # A5: split at FIRST comma; before-part untrimmed into last_name, the
    # concat for name trims only at the ends (normalize_creatornames.isql)
    "normalize_creator_names": """
WITH cat AS (
  SELECT doc_id,
    CASE WHEN doc_id % 2 = 0 THEN source || ', ' || lang
         ELSE source || ' ' || lang END AS s
  FROM documents
)
SELECT doc_id,
  CASE WHEN contains(s, ',') THEN substr(s, 1, instr(s, ',') - 1) END AS last_name,
  CASE WHEN contains(s, ',') THEN trim(substr(s, instr(s, ',') + 1), ' ') END AS first_name,
  CASE WHEN contains(s, ',')
       THEN trim(substr(s, instr(s, ',') + 1) || ' ' || substr(s, 1, instr(s, ',') - 1), ' ')
       ELSE s END AS name
FROM cat
""",
    "top_orders_per_segment": """
SELECT c.c_mktsegment, o.o_orderkey,
       CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS price_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
QUALIFY row_number() OVER (
  PARTITION BY c.c_mktsegment
  ORDER BY price_cents DESC, o.o_orderkey ASC) <= 3
""",
    "reverse_records": """
SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
       t.tag
FROM documents CROSS JOIN (VALUES ('id'), ('lang'), ('meta')) AS t(tag)
""",
    # exact 2-NN self-join graph: ties by neighbor id ascending
    "embeddings_knn_graph": """
SELECT a.vec_id AS qid, b.vec_id AS nbr,
       ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 4)
           AS score
FROM embeddings a CROSS JOIN embeddings b
WHERE a.vec_id <> b.vec_id
QUALIFY row_number() OVER (
  PARTITION BY a.vec_id
  ORDER BY list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                  CAST(b.embedding AS DOUBLE[])) DESC,
           b.vec_id ASC) <= 2
""",
    # IVF self-join kNN graph: full replay of assignment + probing + rerank
    "embeddings_knn_graph_ivf": """
WITH qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
    list_transform(CAST(embedding AS DOUBLE[]),
                   x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS q
  FROM embeddings
), cent AS (
  SELECT vec_id AS cid, q AS cq FROM qv WHERE vec_id < 16
), dist AS (
  SELECT qv.vec_id, cent.cid,
    list_aggregate(list_transform(generate_series(1, 64),
      d -> (qv.q[d] - cent.cq[d]) * (qv.q[d] - cent.cq[d])), 'sum') AS d2
  FROM qv CROSS JOIN cent
), assign AS (
  SELECT vec_id, cid FROM dist
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
), qprobe AS (
  SELECT vec_id AS qid, cid FROM dist
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) <= 2
), cand AS (
  SELECT DISTINCT qp.qid, a.vec_id
  FROM qprobe qp JOIN assign a ON a.cid = qp.cid
  WHERE a.vec_id <> qp.qid
)
SELECT c.qid, c.vec_id,
  ROUND(list_cosine_similarity(e.v, qe.v), 4) AS score
FROM cand c
JOIN qv e ON e.vec_id = c.vec_id
JOIN qv qe ON qe.vec_id = c.qid
QUALIFY row_number() OVER (
  PARTITION BY c.qid
  ORDER BY ROUND(list_cosine_similarity(e.v, qe.v), 4) DESC,
           c.vec_id ASC) <= 2
""",
    "ann_brute_topk": """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 8)
SELECT q.qid, e.vec_id,
       ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe), 4) AS score
FROM embeddings e CROSS JOIN q
QUALIFY row_number() OVER (
  PARTITION BY q.qid
  ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe) DESC,
           e.vec_id ASC) <= 10
""",
}


def _langid_ctes_over(src: str) -> str:
    """Language-ID CTE chain (prof -> lt -> sc -> best -> lid(doc_id,
    lang_pred)) parameterized on the input relation; generated from
    ops.textstats._LANG_PROFILES so the oracles and the operator share one
    source of truth for profiles and weights."""
    from .ops.textstats import _LANG_PROFILES

    rows = []
    for lang, tris in _LANG_PROFILES.items():
        for i, tri in enumerate(tris):
            esc = tri.replace("'", "''")
            rows.append(f"('{lang}', '{esc}', {len(tris) - i})")
    values = ",\n ".join(rows)
    return f"""prof(lang, tri, w) AS (VALUES
 {values}
), lt AS (
  SELECT doc_id, ' ' || regexp_replace(lower(text), '\\s+', ' ', 'g') || ' ' AS s
  FROM {src}
), sc AS (
  SELECT lt.doc_id, prof.lang,
    SUM(((length(lt.s) - length(replace(lt.s, prof.tri, ''))) / 3) * prof.w) AS score
  FROM lt CROSS JOIN prof
  GROUP BY lt.doc_id, prof.lang
), best AS (
  SELECT doc_id, lang, score,
    row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
  FROM sc
), lid AS (
  SELECT doc_id, CASE WHEN score > 0 THEN lang ELSE 'und' END AS lang_pred
  FROM best WHERE rn = 1
)"""


ORACLE_SQL["docs_langid"] = (
    "WITH " + _langid_ctes_over("documents")
    + "\nSELECT doc_id, lang_pred FROM lid"
)

# shared MinHash CTE pipeline (src -> shingles -> signatures -> bands ->
# candidates -> estimated jaccard), parameterized on the input relation so
# the dedup oracles AND the corpus flagship oracle share one replica of the
# signature arithmetic (ops/dedup.py MinHasher).
def _minhash_ctes_over(src: str) -> str:
    return rf"""toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\w+') AS tk FROM {src}
), shingles AS (
  SELECT doc_id,
    CASE WHEN length(tk) = 0 THEN CAST([] AS VARCHAR[])
         WHEN length(tk) < 3 THEN [array_to_string(tk, ' ')]
         ELSE list_distinct(list_transform(generate_series(1, length(tk) - 2),
              i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])) END AS shs
  FROM toks
), xs AS (
  SELECT doc_id,
    CASE WHEN length(shs) = 0 THEN [CAST(0 AS HUGEINT)]
         ELSE list_transform(shs, s ->
              CAST(CAST('0x' || substr(md5(s), 1, 16) AS UBIGINT) AS HUGEINT))
    END AS xh
  FROM shingles
), perms AS (
  SELECT i,
    CAST(CAST('0x' || substr(md5('a:' || i), 1, 16) AS UBIGINT) | 1 AS HUGEINT) AS a,
    CAST(CAST('0x' || substr(md5('b:' || i), 1, 16) AS UBIGINT) AS HUGEINT) AS b
  FROM range(64) t(i)
), sig AS (
  SELECT doc_id, i,
    list_aggregate(list_transform(xh, x ->
      ( ((a // 4294967296) * x % 4294967296) * 4294967296
        + (a % 4294967296) * x + b ) % 18446744073709551616), 'min') AS mh
  FROM xs CROSS JOIN perms
), bands AS (
  SELECT doc_id, i // 4 AS band,
         md5(string_agg(CAST(mh AS VARCHAR), ':' ORDER BY i)) AS bh
  FROM sig GROUP BY doc_id, i // 4
), b2 AS (
  SELECT *, row_number() OVER (PARTITION BY band, bh ORDER BY doc_id) AS rn
  FROM bands
), cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM b2 x JOIN b2 y ON x.band = y.band AND x.bh = y.bh
   AND x.doc_id < y.doc_id AND x.rn <= 200 AND y.rn <= 200
), est AS (
  SELECT c.a, c.b,
    CAST(SUM(CASE WHEN sa.mh = sb.mh THEN 1 ELSE 0 END) AS DOUBLE) / 64.0 AS ej
  FROM cand c
  JOIN sig sa ON sa.doc_id = c.a
  JOIN sig sb ON sb.doc_id = c.b AND sb.i = sa.i
  GROUP BY c.a, c.b
)
"""

# the dedup_* oracles run over the perturbed-augmented corpus
_MINHASH_CTES = r"""
WITH aug AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000,
    CASE WHEN length(regexp_extract_all(text, '\S+')) <= 1 THEN ''
         ELSE array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
              length(regexp_extract_all(text, '\S+')) - 1), ' ') END
  FROM documents
), """ + _minhash_ctes_over("aug")

ORACLE_SQL["dedup_minhash"] = (
    _MINHASH_CTES + "SELECT a, b, ej AS est_jaccard FROM est WHERE ej >= 0.7"
)

# exact n-gram Jaccard for every candidate pair: distinct-shingle
# intersection ratio (integer counts -> identical double division)
ORACLE_SQL["dedup_jaccard_verified"] = _MINHASH_CTES + """
SELECT e.a, e.b,
  CAST(length(list_intersect(sa.shs, sb.shs)) AS DOUBLE)
    / (length(sa.shs) + length(sb.shs)
       - length(list_intersect(sa.shs, sb.shs))) AS jaccard
FROM est e
JOIN shingles sa ON sa.doc_id = e.a
JOIN shingles sb ON sb.doc_id = e.b
WHERE e.ej >= 0.7
"""



def _fixture_oracle_sql() -> str:
    """Golden-triple VALUES oracle for the reference's MARCXML fixture
    (generated by tools/gen_fixture_oracle.py -- see its provenance note:
    the expected set is pinned by the RSpec-mirror unit tests, and the
    VALUES literal makes any conversion regression a red CORRECTNESS row)."""
    import os

    path = os.path.join(
        os.path.dirname(__file__), "templates", "marc_fixture_expected.sql"
    )
    with open(path) as f:
        return f.read()


ORACLE_SQL["marc_fixture_convert"] = _fixture_oracle_sql()

# multimodal decode: the synthetic payload header is sha256-derived, so the
# fake-decode output (the real actor-pool plumbing, stubbed codec) is
# replayable with DuckDB's sha256()
ORACLE_SQL["multimodal_decode"] = """
SELECT CAST(t.i AS BIGINT) AS media_id,
  CAST(64 + (CAST(('0x' || substr(sha256('42:' || CAST(t.i AS VARCHAR)), 1, 2))
       AS INTEGER) % 64) AS INTEGER) AS width,
  CAST(64 + (CAST(('0x' || substr(sha256('42:' || CAST(t.i AS VARCHAR)), 3, 2))
       AS INTEGER) % 64) AS INTEGER) AS height,
  TRUE AS decode_ok
FROM range(200) t(i)
"""

# video frame sampling: n_frames = 10 + byte4(sha256('42:i')) % 240 for the
# video rows (i % 3 == 2 in the mixed table), stride 10
ORACLE_SQL["multimodal_frames"] = """
WITH m AS (
  SELECT i, 10 + (CAST(('0x' || substr(sha256('42:' || CAST(i AS VARCHAR)), 9, 2))
       AS INTEGER) % 240) AS nf
  FROM range(120) t(i) WHERE i % 3 = 2
)
SELECT CAST(i AS BIGINT) AS media_id,
       CAST(unnest(range(0, nf, 10)) AS INTEGER) AS frame_idx,
       CAST(unnest(range(0, nf, 10)) * 40 AS INTEGER) AS frame_ts_ms
FROM m
"""


def _pagerank_oracle_sql(
    iterations: int = 5, scale: int = 10**12, dnum: int = 85, dden: int = 100
) -> str:
    """Unrolled integer PageRank recurrence (see doc_pagerank / ops/graph.py).
    All arithmetic is non-negative integer division, so DuckDB's truncating
    ``//`` equals Python floor division and the result is bit-exact."""
    comp = dden - dnum
    parts = [f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
outdeg AS (SELECT src, COUNT(*) AS d FROM edges GROUP BY src),
r0 AS (SELECT node, (SELECT {scale} // n FROM nn) AS r FROM nodes)"""]
    for i in range(1, iterations + 1):
        p = i - 1
        parts.append(f""",
dang{i} AS (
  SELECT COALESCE(SUM(r.r), 0) // (SELECT n FROM nn) AS share
  FROM r{p} r LEFT JOIN outdeg o ON r.node = o.src
  WHERE o.src IS NULL
),
insum{i} AS (
  SELECT e.dst AS node, SUM(r.r // o.d) AS in_sum
  FROM edges e
  JOIN r{p} r ON r.node = e.src
  JOIN outdeg o ON o.src = e.src
  GROUP BY e.dst
),
r{i} AS (
  SELECT nodes.node,
         CAST(({comp} * (SELECT {scale} // n FROM nn)
               + {dnum} * (COALESCE(s.in_sum, 0)
                           + (SELECT share FROM dang{i}))) // {dden}
              AS BIGINT) AS r
  FROM nodes LEFT JOIN insum{i} s ON s.node = nodes.node
)""")
    parts.append(f"\nSELECT node, r AS rank FROM r{iterations}")
    return "".join(parts)


ORACLE_SQL["doc_pagerank"] = _pagerank_oracle_sql()


def _ppr_oracle_sql(
    iterations: int = 5,
    scale: int = 10**12,
    dnum: int = 85,
    dden: int = 100,
    seed_sql: str = "node % 10 = 0",
) -> str:
    """Unrolled PERSONALIZED PageRank recurrence: teleport + dangling mass
    to the seed set only (ops/graph.py:pagerank(seed_fn=...))."""
    comp = dden - dnum
    parts = [f"""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
nodes AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
outdeg AS (SELECT src, COUNT(*) AS d FROM edges GROUP BY src),
ns AS (SELECT COUNT(*) AS s FROM nodes WHERE {seed_sql}),
b AS (SELECT node,
             CASE WHEN {seed_sql} THEN (SELECT {scale} // s FROM ns)
                  ELSE 0 END AS bb
      FROM nodes),
r0 AS (SELECT node, bb AS r FROM b)"""]
    for i in range(1, iterations + 1):
        p = i - 1
        parts.append(f""",
dang{i} AS (
  SELECT COALESCE(SUM(r.r), 0) // (SELECT s FROM ns) AS share
  FROM r{p} r LEFT JOIN outdeg o ON r.node = o.src
  WHERE o.src IS NULL
),
insum{i} AS (
  SELECT e.dst AS node, SUM(r.r // o.d) AS in_sum
  FROM edges e
  JOIN r{p} r ON r.node = e.src
  JOIN outdeg o ON o.src = e.src
  GROUP BY e.dst
),
r{i} AS (
  SELECT b.node,
         CAST(({comp} * b.bb
               + {dnum} * (COALESCE(s.in_sum, 0)
                           + CASE WHEN b.bb > 0
                                  THEN (SELECT share FROM dang{i})
                                  ELSE 0 END)) // {dden}
              AS BIGINT) AS r
  FROM b LEFT JOIN insum{i} s ON s.node = b.node
)""")
    parts.append(f"\nSELECT node, r AS rank FROM r{iterations}")
    return "".join(parts)


ORACLE_SQL["doc_pagerank_personalized"] = _ppr_oracle_sql()

# triangles of the undirected simple md5 link graph: ordered 3-way self-join
ORACLE_SQL["graph_triangles"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2)
SELECT CAST(COUNT(*) AS BIGINT) AS triangles
FROM e0 a JOIN e0 b ON b.u = a.v JOIN e0 c ON c.u = a.u AND c.v = b.v
"""

# degree distribution of the same simple graph
ORACLE_SQL["graph_degree_histogram"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0)
        GROUP BY 1)
SELECT deg AS degree, CAST(COUNT(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY 1
"""


def _kmeans_ctes(
    iterations: int = 3, n_clusters: int = 8, dim: int = 64,
    k_off: int = 4194304, src: str = "embeddings", prelude: str = "",
    suffix: str = "", lead: str = "WITH ",
) -> str:
    """Unrolled integer Lloyd recurrence CTE chain ending at
    ``c{iterations}{suffix}`` (cid, v) -- shared by the embeddings_kmeans
    oracle, the trained-IVF oracle, the SemDeDup oracle and the PQ
    codebooks (``src``/``prelude`` let the chain run over an augmented /
    sub-vector CTE instead of the raw table; ``suffix``/``lead`` let TWO
    chains coexist in one statement).  The centroid mean uses the offset
    trick ``(SUM + COUNT*K) // COUNT - K`` so DuckDB's truncating ``//``
    computes floor on the (possibly negative) sums, matching numpy's
    floor division bit-for-bit."""
    x = suffix
    parts = [f"""
{lead}{prelude}q{x} AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS dv,
         list_transform(CAST(embedding AS DOUBLE[]),
         x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS v
  FROM {src}
),
c0{x} AS (SELECT vec_id AS cid, v FROM q{x} WHERE vec_id < {n_clusters})"""]
    for i in range(1, iterations + 1):
        p = i - 1
        parts.append(f""",
d{i}{x} AS (
  SELECT q.vec_id, c.cid,
    list_aggregate(list_transform(generate_series(1, {dim}),
      d -> (q.v[d] - c.v[d]) * (q.v[d] - c.v[d])), 'sum') AS d2
  FROM q{x} q CROSS JOIN c{p}{x} c
),
a{i}{x} AS (
  SELECT vec_id, cid FROM d{i}{x}
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
),
s{i}{x} AS (
  SELECT a.cid, d.d AS dim,
         (SUM(q.v[d.d]) + COUNT(*) * {k_off}) // COUNT(*) - {k_off} AS x
  FROM a{i}{x} a JOIN q{x} q USING (vec_id)
  CROSS JOIN generate_series(1, {dim}) d(d)
  GROUP BY a.cid, d.d
),
c{i}{x} AS (
  SELECT c{p}{x}.cid, COALESCE(s.v, c{p}{x}.v) AS v
  FROM c{p}{x} LEFT JOIN (
    SELECT cid, list(x ORDER BY dim) AS v FROM s{i}{x} GROUP BY cid
  ) s USING (cid)
)""")
    return "".join(parts)


def _kmeans_oracle_sql(iterations: int = 3, dim: int = 64) -> str:
    return _kmeans_ctes(iterations=iterations, dim=dim) + f""",
df AS (
  SELECT q.vec_id, c.cid,
    list_aggregate(list_transform(generate_series(1, {dim}),
      d -> (q.v[d] - c.v[d]) * (q.v[d] - c.v[d])), 'sum') AS d2
  FROM q CROSS JOIN c{iterations} c
)
SELECT vec_id, CAST(cid AS INTEGER) AS cluster FROM df
QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1"""


def _ivf_trained_oracle_sql(
    iterations: int = 3, dim: int = 64, nprobe: int = 2, k: int = 10
) -> str:
    """Trained-quantizer IVF: k-means centroids (c{iterations}) as the
    coarse lists, then the same probe/rerank replay as ann_ivf_topk."""
    return _kmeans_ctes(iterations=iterations, dim=dim) + f""",
cent AS (SELECT cid, v AS cq FROM c{iterations}),
dist AS (
  SELECT q.vec_id, cent.cid,
    list_aggregate(list_transform(generate_series(1, {dim}),
      d -> (q.v[d] - cent.cq[d]) * (q.v[d] - cent.cq[d])), 'sum') AS d2
  FROM q CROSS JOIN cent
),
assign AS (
  SELECT vec_id, cid FROM dist
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
),
qprobe AS (
  SELECT vec_id AS qid, cid FROM dist WHERE vec_id < 8
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) <= {nprobe}
),
cand AS (
  SELECT qp.qid, a.vec_id FROM qprobe qp JOIN assign a ON a.cid = qp.cid
)
SELECT c.qid, c.vec_id,
  ROUND(list_cosine_similarity(e.dv, qe.dv), 4) AS score
FROM cand c
JOIN q e ON e.vec_id = c.vec_id
JOIN q qe ON qe.vec_id = c.qid
QUALIFY row_number() OVER (
  PARTITION BY c.qid
  ORDER BY ROUND(list_cosine_similarity(e.dv, qe.dv), 4) DESC, c.vec_id ASC
) <= {k}"""


ORACLE_SQL["embeddings_kmeans"] = _kmeans_oracle_sql()
ORACLE_SQL["ann_ivf_trained_topk"] = _ivf_trained_oracle_sql()


def _noise_expr(key: str, scale: float, dim: int = 64) -> str:
    """DuckDB replay of the md5-deterministic noise family (same u64
    construction as ops/dedup.py md5_u64; mirrors the dedup_embedding
    oracle)."""
    return f"""list_transform(generate_series(1, {dim}), d -> embedding[d]
      + (CAST(CAST('0x' || substr(md5('{key}:' || CAST(vec_id AS VARCHAR)
           || ':' || CAST(d - 1 AS VARCHAR)), 1, 16) AS UBIGINT) AS DOUBLE)
         / 18446744073709551616.0 * 2 - 1) * {scale})"""


def _semdedup_oracle_sql(
    iterations: int = 3, dim: int = 64, threshold: float = 0.92
) -> str:
    prelude = f"""b0 AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
),
n1 AS (
  SELECT vec_id + 1000000 AS vec_id,
         {_noise_expr('sem1', 0.01, dim)} AS embedding
  FROM b0
),
n2 AS (
  SELECT vec_id + 2000000 AS vec_id,
         {_noise_expr('sem2', 0.1, dim)} AS embedding
  FROM b0
),
aug AS (
  SELECT * FROM b0 UNION ALL SELECT * FROM n1 UNION ALL SELECT * FROM n2
),
"""
    return _kmeans_ctes(
        iterations=iterations, dim=dim, src="aug", prelude=prelude
    ) + f""",
dfin AS (
  SELECT q.vec_id, c.cid,
    list_aggregate(list_transform(generate_series(1, {dim}),
      d -> (q.v[d] - c.v[d]) * (q.v[d] - c.v[d])), 'sum') AS d2
  FROM q CROSS JOIN c{iterations} c
),
asgn AS (
  SELECT vec_id, cid FROM dfin
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
)
SELECT q.vec_id, CAST(a.cid AS INTEGER) AS cluster
FROM q JOIN asgn a USING (vec_id)
WHERE NOT EXISTS (
  SELECT 1 FROM asgn a2 JOIN q q2 ON q2.vec_id = a2.vec_id
  WHERE a2.cid = a.cid AND q2.vec_id < q.vec_id
    AND list_cosine_similarity(q.dv, q2.dv) >= {threshold}
)"""


ORACLE_SQL["embeddings_semdedup"] = _semdedup_oracle_sql()


def _kcore_oracle_sql(k: int = 3, rounds: int = 3) -> str:
    """Unrolled synchronous k-core peels over the shared md5 link graph
    (same edge CTE as the pagerank oracle): degree -> survivors ->
    edge restriction, ``rounds`` times."""
    parts = ["""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM raw WHERE src <> dst)"""]
    prev = "e0"
    for i in range(1, rounds + 1):
        parts.append(f""",
d{i} AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT u AS node FROM {prev} UNION ALL SELECT v AS node FROM {prev}
  ) GROUP BY node
),
s{i} AS (SELECT node FROM d{i} WHERE d >= {k}),
e{i} AS (
  SELECT e.u, e.v FROM {prev} e
  JOIN s{i} a ON a.node = e.u JOIN s{i} b ON b.node = e.v
)""")
        prev = f"e{i}"
    parts.append(f"\nSELECT node FROM s{rounds}")
    return "".join(parts)


ORACLE_SQL["graph_kcore"] = _kcore_oracle_sql()


def _label_propagation_oracle_sql(rounds: int = 3) -> str:
    """Unrolled synchronous LPA over the shared md5 link graph: per round
    a neighbor-label count and a (count DESC, label ASC) argmax;
    no-neighbor nodes keep their label via the LEFT JOIN coalesce."""
    parts = ["""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM raw WHERE src <> dst),
bidir AS (SELECT u AS src, v AS dst FROM e0
          UNION ALL SELECT v AS src, u AS dst FROM e0),
lab0 AS (SELECT CAST(doc_id AS BIGINT) AS node,
                CAST(doc_id AS BIGINT) AS lbl FROM documents)"""]
    for i in range(1, rounds + 1):
        parts.append(f""",
cnt{i} AS (
  SELECT e.dst AS node, l.lbl AS lbl, COUNT(*) AS c
  FROM bidir e JOIN lab{i - 1} l ON l.node = e.src
  GROUP BY e.dst, l.lbl
),
pick{i} AS (
  SELECT node, lbl FROM (
    SELECT node, lbl,
           ROW_NUMBER() OVER (PARTITION BY node
                              ORDER BY c DESC, lbl ASC) AS rn
    FROM cnt{i}) WHERE rn = 1
),
lab{i} AS (
  SELECT l.node, COALESCE(p.lbl, l.lbl) AS lbl
  FROM lab{i - 1} l LEFT JOIN pick{i} p ON p.node = l.node
)""")
    parts.append(f"\nSELECT node, lbl AS label FROM lab{rounds}")
    return "".join(parts)


ORACLE_SQL["graph_label_propagation"] = _label_propagation_oracle_sql()

# SQ8 replay: int8 quantization (floor(x*127+0.5)) -> integer-dot top-40
# candidates per query (ties -> lower vec_id) -> exact cosine top-10.
ORACLE_SQL["ann_sq8_topk"] = """
WITH qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
    list_transform(CAST(embedding AS DOUBLE[]),
                   x -> CAST(floor(x * 127 + 0.5) AS BIGINT)) AS q8
  FROM embeddings
), qq AS (
  SELECT vec_id AS qid, v AS qvv, q8 AS qq8 FROM qv WHERE vec_id < 8
), idot AS (
  SELECT qq.qid, qv.vec_id,
    list_aggregate(list_transform(generate_series(1, 64),
      d -> qq.qq8[d] * qv.q8[d]), 'sum') AS idot
  FROM qv CROSS JOIN qq
), cand AS (
  SELECT qid, vec_id FROM idot
  QUALIFY row_number() OVER (
    PARTITION BY qid ORDER BY idot DESC, vec_id) <= 40
)
SELECT c.qid, c.vec_id,
  ROUND(list_cosine_similarity(e.v, qe.qvv), 4) AS score
FROM cand c
JOIN qv e ON e.vec_id = c.vec_id
JOIN qq qe ON qe.qid = c.qid
QUALIFY row_number() OVER (
  PARTITION BY c.qid
  ORDER BY ROUND(list_cosine_similarity(e.v, qe.qvv), 4) DESC, c.vec_id
) <= 10
"""


# dedup_minhash_keep oracle: composed from the full minhash pair replay --
# transitive closure (recursive CTE) over the candidate pairs, keep the
# cluster-min id plus all unpaired ids.
ORACLE_SQL["dedup_minhash_keep"] = """
WITH RECURSIVE
pairs AS MATERIALIZED (SELECT a, b FROM (""" + ORACLE_SQL["dedup_minhash"] + """) mh),
edges AS (SELECT a AS x, b AS y FROM pairs UNION SELECT b, a FROM pairs),
nodes AS (SELECT DISTINCT x AS node FROM edges),
reach AS (
  SELECT node, node AS r FROM nodes
  UNION
  SELECT reach.node, e.y FROM reach JOIN edges e ON e.x = reach.r
),
roots AS (SELECT node, MIN(r) AS root FROM reach GROUP BY node),
aug AS (SELECT doc_id FROM documents
        UNION ALL SELECT doc_id + 1000000 FROM documents)
SELECT a.doc_id FROM aug a
WHERE NOT EXISTS (SELECT 1 FROM roots
                  WHERE roots.node = a.doc_id AND roots.root <> a.doc_id)
"""


def _corpus_flagship_oracle_sql(shuffled: bool = False,
                                tail_override: str | None = None) -> str:
    """The full corpus-flagship chain in SQL, composed from the shared
    parameterized CTE generators (_minhash_ctes_over, _langid_ctes_over)
    so the oracle replays the exact arithmetic of every stage:
    aug corpus -> md5 exact dedup (min id) -> MinHash candidates ->
    recursive-CTE connected components -> near-dup drop -> langid filter ->
    decontaminate -> redact -> token count -> min-token filter -> md5
    split -> per-split pack offsets (window prefix sum, CAST to BIGINT --
    DuckDB window SUM over BIGINT yields HUGEINT).  With ``shuffled`` the
    pack order is the deterministic md5 training rank (ROW_NUMBER over
    the uint64 key, ties by id -- docs_shuffle_rank's expression) and the
    rank is emitted as a column, replaying
    CorpusConfig(shuffle_order=True).  ``tail_override`` swaps the final
    SELECT for a different consumer of the same chain (the drop-audit
    oracle)."""
    if tail_override is not None:
        tail = tail_override
    elif shuffled:
        tail = r""",
rnk AS (
  SELECT spl.*,
         ROW_NUMBER() OVER (
           ORDER BY CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                          1, 16)) AS UBIGINT),
                    doc_id
         ) - 1 AS rank
  FROM spl
),
packed AS (
  SELECT doc_id, text, lang_pred, n_tokens, split, rank,
    CAST(COALESCE(SUM(n_tokens) OVER (
        PARTITION BY split ORDER BY rank
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
      AS BIGINT) AS start_offset
  FROM rnk
)
SELECT doc_id, text, lang_pred, n_tokens, split,
       CAST(rank AS BIGINT) AS rank, start_offset,
       CAST(start_offset // 512 AS BIGINT) AS pack_id
FROM packed
"""
    else:
        tail = r""",
packed AS (
  SELECT doc_id, text, lang_pred, n_tokens, split,
    CAST(COALESCE(SUM(n_tokens) OVER (
        PARTITION BY split ORDER BY doc_id
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
      AS BIGINT) AS start_offset
  FROM spl
)
SELECT doc_id, text, lang_pred, n_tokens, split, start_offset,
       CAST(start_offset // 512 AS BIGINT) AS pack_id
FROM packed
"""
    return (
        r"""
WITH RECURSIVE
corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents
  UNION ALL
  SELECT doc_id + 2000000,
    CASE WHEN length(regexp_extract_all(text, '\S+')) <= 1 THEN ''
         ELSE array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
              length(regexp_extract_all(text, '\S+')) - 1), ' ') END
  FROM documents
),
dk AS (SELECT MIN(doc_id) AS doc_id FROM corpus
       GROUP BY md5(COALESCE(text, ''))),
d1 AS (SELECT c.doc_id, c.text FROM corpus c JOIN dk USING (doc_id)),
"""
        + _minhash_ctes_over("d1")
        + r""",
prs AS (SELECT a, b FROM est WHERE ej >= 0.7),
edg AS (SELECT a AS x, b AS y FROM prs UNION SELECT b, a FROM prs),
nds AS (SELECT DISTINCT x AS node FROM edg),
reach AS (
  SELECT node, node AS r FROM nds
  UNION
  SELECT reach.node, e.y FROM reach JOIN edg e ON e.x = reach.r
),
roots AS (SELECT node, MIN(r) AS root FROM reach GROUP BY node),
d2 AS (
  SELECT d1.doc_id, d1.text FROM d1
  WHERE NOT EXISTS (SELECT 1 FROM roots
                    WHERE roots.node = d1.doc_id
                      AND roots.root <> d1.doc_id)
),
"""
        + _langid_ctes_over("d2")
        + r""",
spans AS (SELECT substr(text, 1, 48) AS s FROM documents
          WHERE doc_id % 40 = 0 AND substr(text, 1, 48) <> ''),
d3 AS (
  SELECT d2.doc_id, d2.text, lid.lang_pred
  FROM d2 JOIN lid USING (doc_id)
  WHERE lid.lang_pred <> 'und'
    AND NOT EXISTS (SELECT 1 FROM spans WHERE contains(d2.text, spans.s))
),
red AS (
  SELECT doc_id, lang_pred,
    regexp_replace(
        regexp_replace(COALESCE(text, ''),
            '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
            '[EMAIL]', 'g'),
        '[0-9]{4,}', '[NUM]', 'g') AS text
  FROM d3
),
tok AS (
  SELECT doc_id, lang_pred, text,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
  FROM red
),
d4 AS (SELECT * FROM tok WHERE n_tokens >= 20),
spl AS (
  SELECT *,
    CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) < 3221225472 THEN 'train'
         WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) < 3758096384 THEN 'val'
         ELSE 'test' END AS split
  FROM d4
)"""
        + tail
    )


ORACLE_SQL["corpus_flagship_docs"] = _corpus_flagship_oracle_sql()
ORACLE_SQL["corpus_flagship_shuffled"] = _corpus_flagship_oracle_sql(
    shuffled=True
)


# sketch certification: the exact quantiles replay in SQL (the same CTE
# chain as events_value_quantiles); within_bound must be TRUE -- a sketch
# outside its own proven rank-error bound turns this row red.
ORACLE_SQL["events_value_quantile_sketch"] = """
WITH e AS (SELECT CAST(ROUND(value * 100) AS BIGINT) AS v FROM events),
h AS (SELECT v, COUNT(*) AS c FROM e GROUP BY v),
s AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cum FROM h),
nn AS (SELECT COUNT(*) AS n FROM e)
SELECT CAST(t.num AS DOUBLE) / t.den AS q,
       (SELECT MIN(v) FROM s
        WHERE cum >= (t.num * (SELECT n FROM nn) + t.den - 1) // t.den)
         AS value_cents_exact,
       CAST(1 AS BOOLEAN) AS within_bound
FROM (VALUES (1, 2), (9, 10), (99, 100)) t(num, den)
"""


# line-level boilerplate removal: split -> per-line DISTINCT-doc counts ->
# threshold -> in-order reassemble, replayed exactly (parallel unnest
# zips the line with its ordinal; empty results keep the doc with '')
ORACLE_SQL["docs_boilerplate_removed"] = r"""
WITH base AS (
  SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS tk
  FROM documents
), built AS (
  SELECT doc_id,
    ['nav home products about contact login']
    || list_transform(
         generate_series(1, (length(tk) + 7) // 8),
         k -> array_to_string(list_slice(tk, (k - 1) * 8 + 1, k * 8), ' '))
    || ['copyright example site all rights reserved'] AS ls
  FROM base
), lines AS (
  SELECT doc_id,
         unnest(ls) AS line,
         unnest(generate_series(1, length(ls))) AS idx
  FROM built
), hot AS (
  SELECT line FROM (
    SELECT line, COUNT(DISTINCT doc_id) AS c FROM lines GROUP BY line
  ) WHERE c >= 10
), kept AS (
  SELECT doc_id, line, idx FROM lines
  WHERE line NOT IN (SELECT line FROM hot)
)
SELECT b.doc_id,
       COALESCE(string_agg(k.line, chr(10) ORDER BY k.idx), '') AS text
FROM built b LEFT JOIN kept k USING (doc_id)
GROUP BY b.doc_id
"""

ORACLE_SQL["docs_paragraph_dedup"] = r"""
WITH base AS (
  SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS tk
  FROM documents
), built AS (
  SELECT doc_id,
    ['corpus shared header paragraph']
    || list_transform(
         generate_series(1, (length(tk) + 5) // 6),
         k -> array_to_string(list_slice(tk, (k - 1) * 6 + 1, k * 6), ' '))
    || ['corpus shared header paragraph'] AS ls
  FROM base
), paras AS (
  SELECT doc_id,
         unnest(ls) AS para,
         unnest(generate_series(1, length(ls))) AS idx
  FROM built
), winners AS (
  SELECT doc_id, para, idx,
         row_number() OVER (PARTITION BY para ORDER BY doc_id, idx) AS rn
  FROM paras
)
SELECT doc_id, string_agg(para, chr(10) ORDER BY idx) AS text
FROM winners WHERE rn = 1
GROUP BY doc_id
"""

ORACLE_SQL["docs_mixture_flattened"] = r"""
WITH skewed AS (
  SELECT doc_id,
         CASE WHEN doc_id % 10 < 6 THEN 'head'
              WHEN doc_id % 10 < 9 THEN 'mid'
              ELSE 'tail' END AS source
  FROM documents
), c AS (
  SELECT source, COUNT(*)::BIGINT AS n FROM skewed GROUP BY source
), mn AS (
  SELECT MIN(n) AS n_min FROM c
), w AS (
  SELECT source,
         CAST(FLOOR(sqrt(CAST(n_min AS DOUBLE) / CAST(n AS DOUBLE))
                    * 4294967296) AS BIGINT) AS thr
  FROM c, mn
)
SELECT d.doc_id, d.source
FROM skewed d JOIN w USING (source)
WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
      < w.thr
"""

ORACLE_SQL["docs_trigram_bits"] = r"""
WITH norm AS (
  SELECT doc_id,
         regexp_replace(lower(COALESCE(text, '')), '[^a-z ]', '', 'g') AS t
  FROM documents
), tris AS (
  SELECT doc_id,
         unnest(list_transform(
           generate_series(1, GREATEST(length(t) - 2, 0)),
           k -> substr(t, k, 3))) AS tri
  FROM norm
), c3 AS (
  SELECT tri, COUNT(*)::BIGINT AS n3 FROM tris GROUP BY tri
), c2 AS (
  SELECT substr(tri, 1, 2) AS bg, COUNT(*)::BIGINT AS n2
  FROM tris GROUP BY bg
), scored AS (
  SELECT t.doc_id, COUNT(*)::BIGINT AS n_tri,
         CAST(SUM(CAST(floor(
           -log2((c3.n3 + 1.0) / (c2.n2 + 27.0)) * 1e6 + 0.5
         ) AS BIGINT)) AS BIGINT) AS microbits
  FROM tris t
  JOIN c3 USING (tri)
  JOIN c2 ON substr(t.tri, 1, 2) = c2.bg
  GROUP BY t.doc_id
)
SELECT n.doc_id,
       CAST(COALESCE(s.n_tri, 0) AS BIGINT) AS n_tri,
       CAST(COALESCE(s.microbits, 0) AS BIGINT) AS microbits
FROM norm n LEFT JOIN scored s USING (doc_id)
"""

ORACLE_SQL["orders_customer_left_join"] = """
SELECT o.o_orderkey,
       CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS total_cents,
       c.c_name, c.c_mktsegment
FROM orders o
LEFT JOIN (SELECT * FROM customer WHERE c_acctbal > 5000) c
  ON o.o_custkey = c.c_custkey
"""

ORACLE_SQL["nation_counts_full_outer"] = """
WITH cu AS (
  SELECT CAST(c_nationkey AS BIGINT) AS nationkey, COUNT(*)::BIGINT AS n_cust
  FROM customer WHERE c_nationkey < 20 GROUP BY 1
), su AS (
  SELECT CAST(s_nationkey AS BIGINT) AS nationkey, COUNT(*)::BIGINT AS n_supp
  FROM supplier WHERE s_nationkey > 5 GROUP BY 1
)
SELECT COALESCE(cu.nationkey, su.nationkey) AS nationkey,
       cu.n_cust, su.n_supp
FROM cu FULL OUTER JOIN su ON cu.nationkey = su.nationkey
"""

ORACLE_SQL["orders_rollup"] = """
SELECT o_orderstatus, o_orderpriority,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
            AS BIGINT) AS sum_cents,
       COUNT(*)::BIGINT AS n,
       (GROUPING(o_orderstatus) + GROUPING(o_orderpriority))::BIGINT AS lvl
FROM orders
GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
"""

ORACLE_SQL["events_compact_latest"] = """
SELECT user_id,
       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
       event_type,
       CAST(ROUND(value * 100) AS BIGINT) AS value_cents,
       event_id
FROM (
  SELECT *, row_number() OVER (
    PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""

# shared canonicalization chain over the synthesized messy URL (the regex
# subset -- lazy quantifier, classes, alternation, no backrefs -- behaves
# identically in DuckDB RE2 and the engine's polars Rust regex; parity is
# pinned in tests/test_weburl.py)
_URL_CANON_CTES = r"""
WITH u0 AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, n_chars,
         'HTTPS://WWW.' || source || '.Example.COM/Page/'
           || CAST(doc_id % 40 AS VARCHAR) || '/?utm_source=x&sid='
           || CAST(doc_id % 3 AS VARCHAR) || '#f' || CAST(doc_id AS VARCHAR)
           AS url
  FROM documents
), s1 AS (
  SELECT *, regexp_replace(url, '#.*$', '') AS t1 FROM u0
), s2 AS (
  SELECT *, regexp_replace(
    t1, '[?&](utm_[a-z0-9]+|fbclid|gclid|ref)=[^&#]*', '', 'g') AS t2
  FROM s1
), s3 AS (
  SELECT *, regexp_replace(
    regexp_replace(t2, '^([^?]*?)&', '\1?'), '/+\?', '?') AS t3
  FROM s2
), s4 AS (
  SELECT *, regexp_extract(
    t3, '^([A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*)', 1) AS auth
  FROM s3
), canon AS (
  SELECT doc_id, n_chars, url,
         regexp_replace(
           CASE WHEN auth = '' THEN t3
                ELSE lower(auth)
                     || regexp_replace(
                          t3, '^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*', '')
           END, '[/?]+$', '') AS canonical_url
  FROM s4
)
"""

ORACLE_SQL["docs_url_dedup"] = _URL_CANON_CTES + """
SELECT MIN(doc_id) AS doc_id, canonical_url
FROM canon GROUP BY canonical_url
"""

ORACLE_SQL["docs_domain_stats"] = _URL_CANON_CTES + r"""
SELECT regexp_replace(regexp_replace(
         lower(regexp_extract(
           url, '^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]*)', 1)),
         ':[0-9]+$', ''), '^www\.', '') AS domain,
       COUNT(*)::BIGINT AS n_docs,
       CAST(SUM(CAST(n_chars AS BIGINT)) AS BIGINT) AS sum_chars
FROM canon GROUP BY 1
"""

ORACLE_SQL["graph_bfs_levels"] = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
walk(node, lvl) AS (
  SELECT CAST(doc_id AS BIGINT), 0 FROM documents WHERE doc_id % 131 = 0
  UNION
  SELECT e.dst, w.lvl + 1
  FROM walk w JOIN raw e ON e.src = w.node
  WHERE w.lvl < 4
)
SELECT node, MIN(lvl)::BIGINT AS lvl FROM walk GROUP BY node
"""

ORACLE_SQL["orders_cube"] = """
SELECT o_orderstatus, o_orderpriority,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
            AS BIGINT) AS sum_cents,
       COUNT(*)::BIGINT AS n,
       GROUPING(o_orderstatus, o_orderpriority)::BIGINT AS lvl
FROM orders
GROUP BY CUBE(o_orderstatus, o_orderpriority)
"""

ORACLE_SQL["events_coalesced_intervals"] = """
WITH iv AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS s,
         CAST(epoch_us(ts) AS BIGINT) + 1800000000 AS e
  FROM events
), x AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS pm
  FROM iv
), y AS (
  SELECT *, CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END AS brk
  FROM x
), z AS (
  SELECT *, CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY s, e
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                 AS BIGINT) AS island
  FROM y
)
SELECT user_id, MIN(s) AS island_start, MAX(e) AS island_end,
       COUNT(*)::BIGINT AS n_rows
FROM z GROUP BY user_id, island
"""

ORACLE_SQL["docs_span_dedup"] = r"""
WITH base AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
    regexp_extract_all(
      COALESCE(text, '')
        || ' the shared footer slogan appears in every document here'
        || CASE WHEN doc_id % 7 = 0
           THEN ' alpha beta gamma delta epsilon zeta'
                || ' alpha beta gamma delta epsilon zeta'
           ELSE '' END,
      '\S+') AS t
  FROM documents
), win AS (
  SELECT doc_id, g.i AS i,
    substr(md5(array_to_string(t[g.i:g.i + 5], ' ')), 1, 16) AS h
  FROM base,
  LATERAL (SELECT unnest(generate_series(1, len(t) - 5)) AS i) g
), hot AS (
  SELECT h FROM win GROUP BY h HAVING COUNT(*) >= 2
), cov AS (
  SELECT DISTINCT w.doc_id, u.p
  FROM win w JOIN hot USING (h),
  LATERAL (SELECT unnest(generate_series(w.i, w.i + 5)) AS p) u
), toks AS (
  SELECT b.doc_id, u.tok, u.p
  FROM base b,
  LATERAL (SELECT unnest(t) AS tok,
                  unnest(generate_series(1, len(t))) AS p) u
), kept AS (
  SELECT k.doc_id, k.tok, k.p
  FROM toks k
  LEFT JOIN cov c ON c.doc_id = k.doc_id AND c.p = k.p
  WHERE c.p IS NULL
)
SELECT doc_id, string_agg(tok, ' ' ORDER BY p) AS text
FROM kept GROUP BY doc_id
"""


# -- round-4 continuation: rate/mode/moments + Gopher curation + HITS ------


def events_interarrival(sf_dir: str):
    """Per-user inter-arrival gap statistics (ops/windows.py
    interarrival_stats): ONE slim shuffle of (id, user, ts_us) -- value
    and props columns never move -- then a lexsort + diff + segmented
    reduceat pass per bucket.  int64 microseconds throughout, so the
    LAG-window oracle replays bit-for-bit.  Users with one event emit
    nothing."""
    from .ops.windows import interarrival_stats

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    return interarrival_stats(ds)


def events_user_top_type(sf_dir: str):
    """MODE() per group -- each user's most frequent event type, ties to
    the lexicographically smallest type (ops/relational.py mode_per_key):
    per-batch (user, type, count) Arrow combiner BEFORE the single
    shuffle, then a vectorized per-bucket argmax."""
    from .ops.relational import mode_per_key

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return mode_per_key(ds, key_col="user_id", value_col="event_type")


def events_type_value_stats(sf_dir: str):
    """Per-type second moments -- count / mean / sample variance / stddev
    (ops/relational.py grouped_moments): values quantized to integer
    milli-units, exact int64 (n, sum, sumsq) partials per batch, one tiny
    groupby-sum, and a final IEEE-double expression the oracle replays
    operand-for-operand (even the float bits hash equal)."""
    from .ops.relational import grouped_moments

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return grouped_moments(ds, key_col="event_type", value_col="value",
                           scale=1000.0)


def docs_gopher_filter(sf_dir: str):
    """Gopher quality-rule document filter (Rae et al. 2021, public;
    ops/textstats.py gopher_filter): word-count window, mean-word-length
    window, symbol / bullet / ellipsis ratio caps, alpha-word floor and
    a stopword floor -- every threshold integer cross-multiplied, so the
    keep decision is bit-exact in SQL.  Stateless vectorized map; runs at
    read speed, composes in FRONT of dedup at 100 TB."""
    from .ops.textstats import gopher_filter

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return gopher_filter(ds, min_words=50, max_words=100_000)


def docs_token_budget(sf_dir: str):
    """Quality-ranked token-budget selection (ops/corpus.py
    select_token_budget): rank docs by an integer stopword-density score
    (1e6 * stop_hits // words, Gopher signals), keep the (score DESC,
    doc_id) prefix whose cumulative whitespace-token count stays within a
    10k budget.  Distributed two-phase prefix sum keyed by score --
    driver state O(#distinct scores); text never rides the exchange."""
    from .ops.corpus import select_token_budget
    from .ops.textstats import gopher_signals_batch

    def score(b: pa.Table) -> pa.Table:
        s = gopher_signals_batch(b)
        s = s.filter(pc.greater(s["n_words"], 0))
        return pa.table(
            {
                "doc_id": s["doc_id"],
                "score": pc.cast(
                    pc.divide(
                        pc.multiply(s["n_stop_hits"], 1_000_000),
                        s["n_words"],
                    ),
                    pa.int64(),
                ),
                "n_tokens": s["n_words"],
            }
        )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )
    return select_token_budget(ds, 10_000)


def graph_hits(sf_dir: str):
    """HITS hubs/authorities over the shared md5 link graph (ops/graph.py
    hits): 2 rounds of the UNNORMALIZED integer recurrence (ranking
    identical to normalized HITS; every value exact int64), pushed
    through the pagerank bucket machinery -- in-task Arrow joins,
    per-endpoint combiners, zero driver state.  The oracle unrolls both
    rounds as joins."""
    from .ops.graph import hits

    edges, nodes, _ = _md5_link_graph(sf_dir)
    return hits(edges, nodes, rounds=2)


def graph_link_prediction(sf_dir: str):
    """Common-neighbor link prediction over the undirected simple md5
    graph (ops/graph.py common_neighbors_topk): segment-vectorized
    neighbor-pair emission with per-task pair-count combiners, one
    groupby-sum on the packed (u<<32|v) key, existing edges removed by
    the broadcast-or-join anti-join, top-50 by (cnt DESC, u, v)."""
    from .ops.graph import common_neighbors_topk

    edges, _, _ = _md5_link_graph(sf_dir)
    return common_neighbors_topk(edges, k=50)


def graph_link_prediction_aa(sf_dir: str):
    """Adamic--Adar link prediction (ops/graph.py common_neighbors_topk
    with adamic_adar=True): same wedge machinery as the common-neighbor
    variant, but each shared neighbor w contributes
    floor(1e6/ln(deg(w)) + 0.5) integer micro-units (rare shared
    neighbors count more).  Per-wedge weights round BEFORE the sum, so
    int64 addition is order-free and the DuckDB oracle replays the
    score bit-for-bit; top-50 by (score_micro DESC, u, v)."""
    from .ops.graph import common_neighbors_topk

    edges, _, _ = _md5_link_graph(sf_dir)
    return common_neighbors_topk(edges, k=50, adamic_adar=True)


QUERIES["events_interarrival"] = events_interarrival
QUERIES["events_user_top_type"] = events_user_top_type
QUERIES["events_type_value_stats"] = events_type_value_stats
QUERIES["docs_gopher_filter"] = docs_gopher_filter
QUERIES["docs_token_budget"] = docs_token_budget
QUERIES["graph_hits"] = graph_hits
QUERIES["graph_link_prediction"] = graph_link_prediction
QUERIES["graph_link_prediction_aa"] = graph_link_prediction_aa


ORACLE_SQL["events_interarrival"] = """
WITH d AS (
  SELECT user_id,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT user_id, COUNT(*)::BIGINT AS n_gaps,
       MIN(gap)::BIGINT AS min_gap_us, MAX(gap)::BIGINT AS max_gap_us,
       CAST(SUM(gap) AS BIGINT) AS sum_gap_us
FROM d WHERE gap IS NOT NULL GROUP BY user_id
"""

ORACLE_SQL["events_user_top_type"] = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*)::BIGINT AS cnt
  FROM events GROUP BY user_id, event_type
), r AS (
  SELECT user_id, event_type, cnt,
         ROW_NUMBER() OVER (
           PARTITION BY user_id ORDER BY cnt DESC, event_type) AS rn
  FROM c
)
SELECT user_id, event_type AS mode_value, cnt AS mode_count
FROM r WHERE rn = 1
"""

ORACLE_SQL["events_type_value_stats"] = """
WITH q AS (
  SELECT event_type, CAST(ROUND(value * 1000) AS BIGINT) AS vu FROM events
), m AS (
  SELECT event_type, CAST(SUM(vu) AS BIGINT) AS s,
         CAST(SUM(vu * vu) AS BIGINT) AS ss, COUNT(*)::BIGINT AS n
  FROM q GROUP BY event_type
)
SELECT event_type, n AS n_rows,
  (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 1000.0 AS mean_v,
  CASE WHEN n > 1 THEN
    ((CAST(ss AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
        / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0))
      / (1000.0 * 1000.0)
  ELSE NULL END AS var_v,
  CASE WHEN n > 1 THEN
    sqrt(((CAST(ss AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
        / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0))
      / (1000.0 * 1000.0))
  ELSE NULL END AS std_v
FROM m
"""

_GOPHER_SIG_SQL = r"""
  SELECT CAST(doc_id AS BIGINT) AS doc_id,
    CAST(len(toks) AS BIGINT) AS n_words,
    CAST(COALESCE(list_sum(list_transform(toks, x -> length(x))), 0)
         AS BIGINT) AS sum_word_chars,
    CAST(COALESCE(list_sum(list_transform(toks,
         x -> CASE WHEN regexp_matches(x, '[A-Za-z]') THEN 1 ELSE 0 END)),
         0) AS BIGINT) AS n_alpha_words,
    CAST(COALESCE(list_sum(list_transform(toks,
         x -> CASE WHEN lower(trim(x, '.,;:!?"''()')) IN
              ('the','be','to','of','and','that','have','with')
              THEN 1 ELSE 0 END)), 0) AS BIGINT) AS n_stop_hits,
    CAST((length(t) - length(replace(t, '#', '')))
         + (length(t) - length(replace(t, '...', ''))) / 3
         AS BIGINT) AS n_symbols,
    CAST(len(lns) AS BIGINT) AS n_lines,
    CAST(COALESCE(list_sum(list_transform(lns,
         x -> CASE WHEN x LIKE '- %' OR x LIKE '* %' OR x LIKE chr(8226) || '%'
              THEN 1 ELSE 0 END)), 0) AS BIGINT) AS n_bullet_lines,
    CAST(COALESCE(list_sum(list_transform(lns,
         x -> CASE WHEN x LIKE '%...' OR x LIKE '%' || chr(8230)
              THEN 1 ELSE 0 END)), 0) AS BIGINT) AS n_ellipsis_lines
  FROM (
    SELECT doc_id,
      regexp_extract_all(COALESCE(text, ''), '\S+') AS toks,
      string_split(COALESCE(text, ''), chr(10)) AS lns,
      COALESCE(text, '') AS t
    FROM documents
  )
"""

ORACLE_SQL["docs_gopher_filter"] = f"""
WITH s2 AS (
{_GOPHER_SIG_SQL}
)
SELECT * FROM s2
WHERE n_words BETWEEN 50 AND 100000
  AND 3 * n_words <= sum_word_chars AND sum_word_chars <= 10 * n_words
  AND 10 * n_symbols <= n_words
  AND 10 * n_bullet_lines <= 9 * n_lines
  AND 10 * n_ellipsis_lines <= 3 * n_lines
  AND 10 * n_alpha_words >= 8 * n_words
  AND n_stop_hits >= 2
"""

ORACLE_SQL["docs_token_budget"] = f"""
WITH s2 AS (
{_GOPHER_SIG_SQL}
), sc AS (
  SELECT doc_id, n_words AS n_tokens,
         (1000000 * n_stop_hits) // n_words AS score
  FROM s2 WHERE n_words > 0
), c AS (
  SELECT doc_id, score, n_tokens,
    CAST(SUM(n_tokens) OVER (
      ORDER BY score DESC, doc_id ROWS UNBOUNDED PRECEDING)
      AS BIGINT) AS cum_tokens
  FROM sc
)
SELECT doc_id, score, n_tokens, cum_tokens FROM c WHERE cum_tokens <= 10000
"""

_MD5_EDGES_SQL = """
nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
)
"""

ORACLE_SQL["graph_hits"] = f"""
WITH {_MD5_EDGES_SQL},
nodes AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents),
a1 AS (SELECT dst AS node, COUNT(*)::BIGINT AS v FROM edges GROUP BY dst),
h1 AS (SELECT e.src AS node, CAST(SUM(a1.v) AS BIGINT) AS v
       FROM edges e JOIN a1 ON a1.node = e.dst GROUP BY e.src),
a2 AS (SELECT e.dst AS node, CAST(SUM(h1.v) AS BIGINT) AS v
       FROM edges e JOIN h1 ON h1.node = e.src GROUP BY e.dst),
h2 AS (SELECT e.src AS node, CAST(SUM(a2.v) AS BIGINT) AS v
       FROM edges e JOIN a2 ON a2.node = e.dst GROUP BY e.src)
SELECT n.node, COALESCE(h2.v, 0) AS hub, COALESCE(a2.v, 0) AS auth
FROM nodes n
LEFT JOIN h2 ON h2.node = n.node
LEFT JOIN a2 ON a2.node = n.node
"""

ORACLE_SQL["graph_link_prediction"] = f"""
WITH {_MD5_EDGES_SQL},
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
adj AS (SELECT u AS node, v AS nb FROM e0
        UNION ALL SELECT v, u FROM e0),
w AS (
  SELECT a.nb AS u, b.nb AS v, COUNT(*)::BIGINT AS cnt
  FROM adj a JOIN adj b ON a.node = b.node AND a.nb < b.nb
  GROUP BY 1, 2
)
SELECT w.u, w.v, w.cnt FROM w
WHERE NOT EXISTS (SELECT 1 FROM e0 WHERE e0.u = w.u AND e0.v = w.v)
ORDER BY cnt DESC, u, v LIMIT 50
"""

ORACLE_SQL["graph_link_prediction_aa"] = f"""
WITH {_MD5_EDGES_SQL},
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
adj AS (SELECT u AS node, v AS nb FROM e0
        UNION ALL SELECT v, u FROM e0),
deg AS (SELECT node, COUNT(*)::BIGINT AS d FROM adj GROUP BY node),
w AS (
  SELECT a.nb AS u, b.nb AS v,
         CAST(SUM(CAST(FLOOR(1000000.0 / ln(CAST(deg.d AS DOUBLE)) + 0.5)
                       AS BIGINT)) AS BIGINT) AS score_micro
  FROM adj a JOIN adj b ON a.node = b.node AND a.nb < b.nb
  JOIN deg ON deg.node = a.node
  GROUP BY 1, 2
)
SELECT w.u, w.v, w.score_micro FROM w
WHERE NOT EXISTS (SELECT 1 FROM e0 WHERE e0.u = w.u AND e0.v = w.v)
ORDER BY score_micro DESC, u, v LIMIT 50
"""


def events_segment_revenue(sf_dir: str):
    """Fact-to-dim equi-join with explicit hot-key salting (ops/joins.py
    skew_salted_join): hot fact keys (count >= 80 -- low on purpose so
    both the salted and cold paths run at every sf) spread over 8 salt
    partitions while their dim rows replicate; the salt is invisible to
    the result, which a plain-join oracle replays.  Joined rows collapse
    to per-segment (count, integer-cent sum)."""
    from ray.data.aggregate import Count, Sum

    from .functions.numeric import sql_round_i64
    from .ops.joins import skew_salted_join

    fact = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])
    dim = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    dim = dim.map_batches(
        lambda b: pa.table(
            {
                "user_id": pc.cast(b["c_custkey"], pa.int64()),
                "segment": b["c_mktsegment"],
            }
        ),
        batch_format="pyarrow",
    )
    joined = skew_salted_join(
        fact, dim, key="user_id", fact_id_col="event_id",
        salt_factor=8, hot_threshold=80,
    )

    def slim(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "segment": b["segment"],
                "cents": sql_round_i64(b["value"], 100.0),
            }
        )

    return (
        joined.map_batches(slim, batch_format="pyarrow")
        .groupby("segment")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("cents", alias_name="sum_value_cents"),
        )
    )


QUERIES["events_segment_revenue"] = events_segment_revenue

ORACLE_SQL["events_segment_revenue"] = """
SELECT c.c_mktsegment AS segment, COUNT(*)::BIGINT AS n_events,
       CAST(SUM(CAST(ROUND(e.value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_cents
FROM events e JOIN customer c ON e.user_id = c.c_custkey
GROUP BY 1
"""


def docs_dsir_weights(sf_dir: str):
    """DSIR importance weights (ops/lm.py dsir_weights): hashed-bigram
    log-likelihood ratio of the lang='en' target subset vs the raw
    corpus, in exact integer micro-nats (per-bucket lambda floored
    BEFORE the per-doc dot product -- the trigram_bits determinism
    contract).  Pass 1 is a 64-bucket combiner + one tiny groupby-sum
    (O(K) driver state); pass 2 a stateless count-and-dot map."""
    from .ops.lm import dsir_weights

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    ds = ds.map_batches(
        lambda b: pa.table(
            {
                "doc_id": pc.cast(b["doc_id"], pa.int64()),
                "text": b["text"],
                "is_target": pc.equal(b["lang"], "en"),
            }
        ),
        batch_format="pyarrow",
    )
    return dsir_weights(ds)


QUERIES["docs_dsir_weights"] = docs_dsir_weights

ORACLE_SQL["docs_dsir_weights"] = r"""
WITH toks AS (
  SELECT doc_id, lang,
         regexp_extract_all(COALESCE(text, ''), '\S+') AS t
  FROM documents
), big AS (
  SELECT doc_id, lang,
         unnest(list_transform(
           generate_series(1, GREATEST(len(t) - 1, 0)),
           k -> t[k] || ' ' || t[k + 1])) AS bg
  FROM toks
), bk AS (
  SELECT doc_id, lang,
         CAST(('0x' || substr(md5(bg), 1, 8)) AS BIGINT) % 64 AS b
  FROM big
), raw AS (SELECT b, COUNT(*)::BIGINT AS r FROM bk GROUP BY b),
tgt AS (SELECT b, COUNT(*)::BIGINT AS t FROM bk WHERE lang = 'en' GROUP BY b),
tots AS (
  SELECT (SELECT COUNT(*) FROM bk) AS R,
         (SELECT COUNT(*) FROM bk WHERE lang = 'en') AS T
), lam AS (
  SELECT g.b,
    CAST(floor(ln(
      ((COALESCE(t.t, 0) + 1.0) / (tots.T + 64.0))
      / ((g.r + 1.0) / (tots.R + 64.0))
    ) * 1e6 + 0.5) AS BIGINT) AS l
  FROM raw g LEFT JOIN tgt t USING (b), tots
), per AS (
  SELECT bk.doc_id, COUNT(*)::BIGINT AS n_bigrams,
         CAST(SUM(lam.l) AS BIGINT) AS weight_micro
  FROM bk JOIN lam USING (b) GROUP BY bk.doc_id
)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       COALESCE(per.n_bigrams, 0) AS n_bigrams,
       COALESCE(per.weight_micro, 0) AS weight_micro
FROM documents d LEFT JOIN per ON per.doc_id = d.doc_id
"""


def events_iqr_outliers(sf_dir: str):
    """Per-type Tukey-fence outliers (ops/quantiles.py iqr_outliers):
    exact distributed quartiles (histogram partials, one shuffle), an
    O(#groups) driver fence table, then a stateless integer
    cross-multiplied filter map -- event rows never shuffle."""
    from .ops.quantiles import iqr_outliers

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])
    return iqr_outliers(ds, "event_type", "value", "event_id")


QUERIES["events_iqr_outliers"] = events_iqr_outliers

ORACLE_SQL["events_iqr_outliers"] = """
WITH e AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS v FROM events),
h AS (SELECT event_type, v, COUNT(*) AS c FROM e GROUP BY 1, 2),
s AS (SELECT event_type, v,
             SUM(c) OVER (PARTITION BY event_type ORDER BY v) AS cum FROM h),
nn AS (SELECT event_type, COUNT(*) AS n FROM e GROUP BY 1),
q AS (
  SELECT nn.event_type,
    (SELECT MIN(v) FROM s WHERE s.event_type = nn.event_type
       AND cum >= (1 * nn.n + 3) // 4) AS q1,
    (SELECT MIN(v) FROM s WHERE s.event_type = nn.event_type
       AND cum >= (3 * nn.n + 3) // 4) AS q3
  FROM nn
)
SELECT e.event_id, e.event_type, e.v AS value_cents
FROM e JOIN q USING (event_type)
WHERE 2 * e.v < 2 * q.q1 - 3 * (q.q3 - q.q1)
   OR 2 * e.v > 2 * q.q3 + 3 * (q.q3 - q.q1)
"""


def events_user_type_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type mix (ops/relational.py
    grouped_entropy): per-batch (user, type, count) combiner, ONE
    shuffle, vectorized in-task surprisal sum in exact integer
    micro-nats (floored per distinct (c, n) pair before summing -- the
    trigram_bits determinism contract)."""
    from .ops.relational import grouped_entropy

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return grouped_entropy(ds, key_col="user_id", value_col="event_type")


QUERIES["events_user_type_entropy"] = events_user_type_entropy

ORACLE_SQL["events_user_type_entropy"] = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*)::BIGINT AS c
  FROM events GROUP BY 1, 2
), n AS (
  SELECT user_id, CAST(SUM(c) AS BIGINT) AS n FROM c GROUP BY 1
)
SELECT n.user_id, n.n AS n_rows,
  CAST(SUM(c.c * CAST(floor(
    -ln(CAST(c.c AS DOUBLE) / CAST(n.n AS DOUBLE)) * 1e6 + 0.5
  ) AS BIGINT)) AS BIGINT) AS surprisal_micro
FROM c JOIN n USING (user_id) GROUP BY 1, 2
"""


def events_retention_cohorts(sf_dir: str):
    """Weekly cohort-retention matrix (ops/relational.py
    retention_cohorts): activity dedups to (user, week) per batch before
    anything moves, cohorts come from one groupby-Min, ride back as a
    broadcast lookup, and the (cohort, age) distinct-user counts need no
    COUNT DISTINCT -- activity pairs are already unique per user-week."""
    from .ops.relational import retention_cohorts

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return retention_cohorts(ds)


def orders_snapshot_diff(sf_dir: str):
    """CDC snapshot diff (ops/relational.py snapshot_diff) between two
    deterministically derived order snapshots: old drops key%17==3, new
    drops key%13==5 and stars the status of key%7==0 -- so all three
    change kinds (added / removed / changed) appear.  Both sides reduce
    to slim (id, row-hash) pairs before the single full-outer join;
    payloads never shuffle."""
    from .ops.relational import snapshot_diff

    base = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )

    def old_rows(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(k % 17 != 3))

    def new_rows(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(k % 13 != 5))
        kk = t["o_orderkey"].to_numpy(zero_copy_only=False)
        st = pc.if_else(
            pa.array(kk % 7 == 0),
            pc.binary_join_element_wise(
                t["o_orderstatus"], pa.scalar("*"), pa.scalar("")
            ),
            t["o_orderstatus"],
        )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderstatus": st,
                "o_totalprice": t["o_totalprice"],
            }
        )

    old = base.map_batches(old_rows, batch_format="pyarrow")
    new = base.map_batches(new_rows, batch_format="pyarrow")
    return snapshot_diff(
        old, new, id_col="o_orderkey",
        hash_cols=["o_orderstatus", "o_totalprice"],
    )


QUERIES["events_retention_cohorts"] = events_retention_cohorts
QUERIES["orders_snapshot_diff"] = orders_snapshot_diff

ORACLE_SQL["events_retention_cohorts"] = """
WITH a AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS bkt FROM events
), c AS (
  SELECT user_id, MIN(bkt) AS coh FROM a GROUP BY 1
)
SELECT c.coh AS cohort_bucket, a.bkt - c.coh AS age_buckets,
       COUNT(*)::BIGINT AS n_users
FROM a JOIN c USING (user_id) GROUP BY 1, 2
"""

ORACLE_SQL["orders_snapshot_diff"] = """
WITH old AS (
  SELECT o_orderkey AS id, o_orderstatus AS st, o_totalprice AS pr
  FROM orders WHERE o_orderkey % 17 <> 3
), new AS (
  SELECT o_orderkey AS id,
         CASE WHEN o_orderkey % 7 = 0 THEN o_orderstatus || '*'
              ELSE o_orderstatus END AS st,
         o_totalprice AS pr
  FROM orders WHERE o_orderkey % 13 <> 5
)
SELECT COALESCE(o.id, n.id) AS o_orderkey,
       CASE WHEN o.id IS NULL THEN 'added'
            WHEN n.id IS NULL THEN 'removed'
            ELSE 'changed' END AS change
FROM old o FULL OUTER JOIN new n ON o.id = n.id
WHERE o.id IS NULL OR n.id IS NULL OR o.st <> n.st OR o.pr <> n.pr
"""


def events_value_zscores(sf_dir: str):
    """Per-type z-score normalization (ops/relational.py
    zscore_per_group): exact int64 moment sums broadcast as an
    O(#groups) table into a stateless per-row map -- event rows never
    shuffle; the per-row float is the same IEEE expression the oracle
    evaluates, so even the doubles hash equal."""
    from .ops.relational import zscore_per_group

    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "value"])
    return zscore_per_group(
        ds, key_col="event_type", value_col="value", id_col="event_id"
    )


QUERIES["events_value_zscores"] = events_value_zscores

ORACLE_SQL["events_value_zscores"] = """
WITH q AS (
  SELECT event_id, event_type,
         CAST(ROUND(value * 1000) AS BIGINT) AS vu FROM events
), m AS (
  SELECT event_type, CAST(SUM(vu) AS DOUBLE) AS s,
         CAST(SUM(vu * vu) AS DOUBLE) AS ss,
         CAST(COUNT(*) AS DOUBLE) AS n
  FROM q GROUP BY event_type
)
SELECT q.event_id, q.event_type,
       (CAST(q.vu AS DOUBLE) - m.s / m.n)
         / sqrt((m.ss - m.s * m.s / m.n) / (m.n - 1.0)) AS z
FROM q JOIN m USING (event_type)
WHERE m.n > 1 AND (m.ss - m.s * m.s / m.n) / (m.n - 1.0) > 0
"""


def events_type_distinct_users_exact(sf_dir: str):
    """Exact per-type distinct-user counts (ops/relational.py
    grouped_count_distinct) -- the exact complement of the HLL-sketch
    query over the same grouping: pair-dedup combiner, one global
    distinct, one tiny count-sum."""
    from .ops.relational import grouped_count_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_count_distinct(
        ds, key_col="event_type", value_col="user_id"
    )


QUERIES["events_type_distinct_users_exact"] = events_type_distinct_users_exact

ORACLE_SQL["events_type_distinct_users_exact"] = """
SELECT event_type, COUNT(DISTINCT user_id)::BIGINT AS n_distinct
FROM events GROUP BY event_type
"""


def events_user_transitions(sf_dir: str):
    """Markov transition-matrix counts over each user's event timeline
    (ops/windows.py transition_counts): one slim bucketed shuffle, a
    vectorized lexsort + shifted-equality pass per bucket emitting
    per-bucket partials, one tiny (#types^2)-row groupby-sum finish."""
    from .ops.windows import transition_counts

    ds = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )
    return transition_counts(
        ds,
        key_col="user_id",
        ts_col="ts",
        id_col="event_id",
        type_col="event_type",
    )


QUERIES["events_user_transitions"] = events_user_transitions

ORACLE_SQL["events_user_transitions"] = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev
  FROM events
)
SELECT prev AS prev_type, event_type AS next_type,
       COUNT(*)::BIGINT AS n_transitions
FROM s WHERE prev IS NOT NULL
GROUP BY prev, event_type
"""


def orders_status_intervals(sf_dir: str):
    """SCD-type-2 validity intervals of each customer's order status
    (ops/windows.py validity_intervals): collapse consecutive same-status
    runs per customer ordered by (o_orderdate, o_orderkey), stamp each
    surviving row valid_from/valid_to -- the CDC dimension-table build."""
    from .ops.windows import validity_intervals

    ds = _read(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_orderdate"],
    )
    return validity_intervals(
        ds,
        key_col="o_custkey",
        ts_col="o_orderdate",
        id_col="o_orderkey",
        value_col="o_orderstatus",
    )


QUERIES["orders_status_intervals"] = orders_status_intervals

ORACLE_SQL["orders_status_intervals"] = """
WITH s AS (
  SELECT o_custkey, o_orderstatus, o_orderdate, o_orderkey,
         LAG(o_orderstatus) OVER (
           PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
         ) AS prev
  FROM orders
), chg AS (
  SELECT * FROM s WHERE prev IS NULL OR prev <> o_orderstatus
)
SELECT o_custkey, o_orderstatus,
       epoch_us(o_orderdate) AS valid_from_us,
       LEAD(epoch_us(o_orderdate)) OVER (
         PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
       ) AS valid_to_us
FROM chg
"""


def events_hourly_gapfill(sf_dir: str):
    """Dense per-type hourly counts with zero-filled gaps
    (ops/relational.py gapfill_counts): per-batch count combiner ->
    one groupby-sum -> per-key np.arange grid expansion."""
    from .ops.relational import gapfill_counts

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    return gapfill_counts(ds, key_col="event_type", ts_col="ts")


QUERIES["events_hourly_gapfill"] = events_hourly_gapfill

def events_type_top_values(sf_dir: str):
    """Top-3 events per type by (value DESC, event_id ASC)
    (ops/relational.py topk_per_group): a per-batch partial top-k
    combiner cuts each group to at most k rows BEFORE the exchange, so
    the shuffle carries O(k x groups x batches) slim rows; one bucketed
    groupby finishes with the identical lexsort + run-position mask and
    stamps the rank."""
    from .ops.relational import topk_per_group

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])
    return topk_per_group(
        ds, key_col="event_type", value_col="value", id_col="event_id", k=3
    )


QUERIES["events_type_top_values"] = events_type_top_values

ORACLE_SQL["events_type_top_values"] = """
WITH q AS (
  SELECT event_type, event_id,
         CAST(ROUND(value * 1000) AS BIGINT) AS value_units
  FROM events
), r AS (
  SELECT *, ROW_NUMBER() OVER (
    PARTITION BY event_type ORDER BY value_units DESC, event_id
  ) AS rnk FROM q
)
SELECT event_type, event_id, value_units, rnk FROM r WHERE rnk <= 3
"""


def events_rolling_active_users(sf_dir: str):
    """Trailing 7-day distinct active users per day
    (ops/relational.py rolling_distinct_users): rows collapse to
    distinct (user, day) pairs, each pair fans out to the 7 trailing
    days it keeps alive, one more distinct, then count partials -- the
    window COUNT(DISTINCT) SQL cannot express and a per-day recount
    would make 7 passes over."""
    from .ops.relational import rolling_distinct_users

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return rolling_distinct_users(ds, key_col="user_id", ts_col="ts")


QUERIES["events_rolling_active_users"] = events_rolling_active_users

ORACLE_SQL["events_rolling_active_users"] = """
WITH a AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 86400000000 AS d
  FROM events
), w AS (
  SELECT DISTINCT a.user_id, a.d + g.i AS wd
  FROM a, (SELECT unnest(generate_series(0, 6)) AS i) g
  WHERE a.d + g.i <= (SELECT MAX(d) FROM a)
)
SELECT wd AS day_bucket, COUNT(*)::BIGINT AS n_users
FROM w GROUP BY wd
"""


ORACLE_SQL["events_hourly_gapfill"] = """
WITH c AS (
  SELECT event_type,
         epoch_us(date_trunc('hour', ts)) AS bucket_us,
         COUNT(*)::BIGINT AS n
  FROM events GROUP BY event_type, bucket_us
), span AS (
  SELECT event_type, MIN(bucket_us) AS lo, MAX(bucket_us) AS hi
  FROM c GROUP BY event_type
), grid AS (
  SELECT s.event_type,
         unnest(generate_series(s.lo, s.hi, 3600000000)) AS bucket_us
  FROM span s
)
SELECT g.event_type, g.bucket_us, COALESCE(c.n, 0)::BIGINT AS n_events
FROM grid g LEFT JOIN c USING (event_type, bucket_us)
"""


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped three-table join: BUILDING-segment customers'
    orders placed before the cutoff, revenue from lineitems shipped
    after it, top-10 orders by revenue.

    Scale shape: customer and the date-filtered slim orders side are
    byte-budgeted broadcasts (vectorized ``pc.is_in`` semi-joins inside
    map_batches -- the fact table never shuffles) with distributed
    ``ds.join`` fallbacks when either side outgrows the budget; revenue
    partials combine per batch on exact integer micro-units
    (cents x (100 - discount_units)) before ONE small groupby-sum; the
    final top-10 sorts the per-order aggregate, never the data."""
    import datetime as _dt

    import ray
    from ray.data.aggregate import Sum

    cut = pa.scalar(_dt.datetime(1998, 7, 1), pa.timestamp("us"))

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda b: b.filter(
            pc.equal(b["c_mktsegment"], "BUILDING")
        ).select(["c_custkey"]),
        batch_format="pyarrow",
    )
    ctab, cmat = plan.small_side("q3_shipping_priority", cust)

    orders = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def slim_orders(b: pa.Table, ckeys=None) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.timestamp("us"))
        b = b.set_column(
            b.schema.get_field_index("o_orderdate"), "o_orderdate", d
        )
        b = b.filter(pc.less(d, cut))
        if ckeys is not None:
            b = b.filter(pc.is_in(b["o_custkey"], value_set=ckeys))
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_orderdate_us": pc.cast(b["o_orderdate"], pa.int64()),
                "o_orderpriority": b["o_orderpriority"],
            }
        )

    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        orders_slim = orders.map_batches(
            lambda b: slim_orders(b, ckeys), batch_format="pyarrow"
        )
    else:  # scale path: distributed semi join via hash join
        orders_slim = orders.join(
            cmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_custkey",), right_on=("c_custkey",),
        ).map_batches(slim_orders, batch_format="pyarrow")
    otab, omat = plan.small_side("q3_shipping_priority", orders_slim)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(b: pa.Table, okeys=None) -> pa.Table:
        b = b.filter(
            pc.greater(pc.cast(b["l_shipdate"], pa.timestamp("us")), cut)
        )
        if okeys is not None:
            b = b.filter(pc.is_in(b["l_orderkey"], value_set=okeys))
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table({"l_orderkey": b["l_orderkey"], "rev": rev})
        return (
            t.group_by(["l_orderkey"], use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["l_orderkey", "rev"])
        )

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        partials = li.map_batches(
            lambda b: rev_partial(b, okeys), batch_format="pyarrow"
        )
    else:  # scale path
        partials = li.join(
            omat.select_columns(["o_orderkey"]),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(rev_partial, batch_format="pyarrow")

    agg = partials.groupby("l_orderkey").aggregate(
        Sum("rev", alias_name="revenue_micro")
    )

    if otab is not None:
        ref = ray.put(otab)

        class AttachOrder:
            def __init__(self):
                t = ray.get(ref)
                self.keys = t["o_orderkey"].combine_chunks()
                self.dates = t["o_orderdate_us"].combine_chunks()
                self.prio = t["o_orderpriority"].combine_chunks()

            def __call__(self, b: pa.Table) -> pa.Table:
                idx = pc.index_in(b["l_orderkey"], value_set=self.keys)
                return pa.table(
                    {
                        "o_orderkey": b["l_orderkey"],
                        "revenue_micro": b["revenue_micro"],
                        "o_orderdate_us": self.dates.take(idx),
                        "o_orderpriority": self.prio.take(idx),
                    }
                )

        out = agg.map_batches(
            AttachOrder, batch_format="pyarrow", concurrency=2
        )
    else:  # scale path
        from .ops.dedup import normalize_join_blocks

        out = normalize_join_blocks(agg, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["l_orderkey"],
                    "revenue_micro": b["revenue_micro"],
                    "o_orderdate_us": b["o_orderdate_us"],
                    "o_orderpriority": b["o_orderpriority"],
                }
            ),
            batch_format="pyarrow",
        )

    return out.sort(
        ["revenue_micro", "o_orderkey"], descending=[True, False]
    ).limit(10)


QUERIES["q3_shipping_priority"] = q3_shipping_priority

ORACLE_SQL["q3_shipping_priority"] = """
WITH r AS (
  SELECT l.l_orderkey,
         CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
         ) AS BIGINT) AS revenue_micro
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  WHERE c.c_mktsegment = 'BUILDING'
    AND o.o_orderdate < TIMESTAMP '1998-07-01'
    AND l.l_shipdate > TIMESTAMP '1998-07-01'
  GROUP BY l.l_orderkey
)
SELECT o.o_orderkey, r.revenue_micro,
       epoch_us(o.o_orderdate) AS o_orderdate_us,
       o.o_orderpriority
FROM r JOIN orders o ON o.o_orderkey = r.l_orderkey
ORDER BY r.revenue_micro DESC, o.o_orderkey
LIMIT 10
"""


def parts_name_editdist(sf_dir: str):
    """Fuzzy-name entity resolution over part names (ops/dedup.py
    editdist_name_pairs): rows collapse to distinct names with
    multiplicities before any pairing, one first-token block shuffle,
    banded pair-vectorized Levenshtein DP within blocks -- pair work is
    O(vocabulary^2 per block), independent of corpus row count."""
    from .ops.dedup import editdist_name_pairs

    ds = _read(sf_dir, "part", columns=["p_name"])
    return editdist_name_pairs(ds, name_col="p_name", threshold=2)


QUERIES["parts_name_editdist"] = parts_name_editdist

ORACLE_SQL["parts_name_editdist"] = """
WITH n AS (
  SELECT p_name, COUNT(*)::BIGINT AS c FROM part GROUP BY p_name
), b AS (
  SELECT p_name, c, split_part(p_name, ' ', 1) AS blk FROM n
)
SELECT a.p_name AS name_a, bb.p_name AS name_b,
       levenshtein(a.p_name, bb.p_name)::BIGINT AS dist,
       (a.c * bb.c)::BIGINT AS n_pairs
FROM b a JOIN b bb ON a.blk = bb.blk AND a.p_name < bb.p_name
WHERE levenshtein(a.p_name, bb.p_name) <= 2
UNION ALL
SELECT p_name, p_name, 0::BIGINT, (c * (c - 1) // 2)::BIGINT
FROM n WHERE c > 1
"""


def events_type_value_trend(sf_dir: str):
    """Per-type OLS trend of value over time (ops/relational.py
    grouped_linreg): exact int64 sufficient statistics (n, Sx, Sy, Sxy,
    Sxx) combine per batch, one tiny groupby-sum, closed-form IEEE
    finish replayed operand-for-operand in SQL -- float bits hash
    equal."""
    from .ops.relational import grouped_linreg

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return grouped_linreg(
        ds, key_col="event_type", ts_col="ts", value_col="value"
    )


QUERIES["events_type_value_trend"] = events_type_value_trend

ORACLE_SQL["events_type_value_trend"] = """
WITH q AS (
  SELECT event_type,
         epoch_us(ts) // 86400000000 AS x,
         CAST(ROUND(value * 1000) AS BIGINT) AS y
  FROM events
), m AS (
  SELECT event_type,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * y) AS BIGINT) AS sxy,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM q GROUP BY event_type
)
SELECT event_type, n AS n_rows,
       (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
        - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
       / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS slope_units,
       (CAST(sy AS DOUBLE) * CAST(sxx AS DOUBLE)
        - CAST(sx AS DOUBLE) * CAST(sxy AS DOUBLE))
       / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
          - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) AS intercept_units
FROM m
WHERE (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
       - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)) <> 0
"""


def orders_skyline(sf_dir: str):
    """2-D Pareto frontier over orders -- highest price, earliest date
    (ops/relational.py skyline_2d): each batch collapses to its local
    frontier before the exchange (dominance is transitive, so the local
    cut is a sound pre-filter), one small final task repeats the
    identical vectorized sort + strict running-min cut."""
    from .ops.relational import skyline_2d

    ds = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_totalprice", "o_orderdate"],
    )
    return skyline_2d(
        ds, id_col="o_orderkey", max_col="o_totalprice",
        min_col="o_orderdate",
    )


QUERIES["orders_skyline"] = orders_skyline

ORACLE_SQL["orders_skyline"] = """
WITH p AS (
  SELECT o_orderkey,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS x,
         epoch_us(o_orderdate) AS y
  FROM orders
)
SELECT a.o_orderkey, a.x AS max_units, a.y AS min_units
FROM p a
WHERE NOT EXISTS (
  SELECT 1 FROM p b
  WHERE b.x >= a.x AND b.y <= a.y AND (b.x > a.x OR b.y < a.y)
)
"""


def events_user_trigram_paths(sf_dir: str):
    """Length-3 sequential path mining over each user's event timeline
    (ops/windows.py path_trigram_counts): one slim bucketed shuffle,
    vectorized lexsort + shifted-equality per bucket emitting partial
    base-k-coded path counts, (#types)^3-bounded groupby-sum finish."""
    from .ops.windows import path_trigram_counts

    ds = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )
    return path_trigram_counts(
        ds, key_col="user_id", ts_col="ts", id_col="event_id",
        type_col="event_type",
    )


QUERIES["events_user_trigram_paths"] = events_user_trigram_paths

ORACLE_SQL["events_user_trigram_paths"] = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type, 2) OVER w AS p2,
         LAG(event_type, 1) OVER w AS p1
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT p2 AS t0, p1 AS t1, event_type AS t2,
       COUNT(*)::BIGINT AS n_paths
FROM s WHERE p2 IS NOT NULL
GROUP BY p2, p1, event_type
"""


def graph_clustering_coef(sf_dir: str):
    """Per-node local clustering coefficient over the shared md5 link
    graph (ops/graph.py clustering_coefficient): degree-rank-oriented
    triangle LISTING (wedges carry their tail so all three corners get
    credit), per-task np.unique corner combiners, one groupby-sum, LEFT
    join back onto degrees so triangle-free nodes report 0; coefficient
    in exact integer micro-units."""
    from .ops.graph import clustering_coefficient

    edges, _, _ = _md5_link_graph(sf_dir)
    return clustering_coefficient(edges)


QUERIES["graph_clustering_coef"] = graph_clustering_coef

ORACLE_SQL["graph_clustering_coef"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
tri AS (
  SELECT a.u AS x, a.v AS y, b.v AS z
  FROM e0 a JOIN e0 b ON b.u = a.v JOIN e0 c ON c.u = a.u AND c.v = b.v
),
corners AS (
  SELECT x AS node FROM tri
  UNION ALL SELECT y FROM tri
  UNION ALL SELECT z FROM tri
),
t AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
      FROM corners GROUP BY node),
deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0)
        GROUP BY 1)
SELECT d.node, d.deg,
       COALESCE(t.n_tri, 0)::BIGINT AS n_triangles,
       ((2 * COALESCE(t.n_tri, 0) * 1000000)
        // (d.deg * (d.deg - 1)))::BIGINT AS coef_micro
FROM deg d LEFT JOIN t USING (node)
WHERE d.deg >= 2
"""


def events_click_auc(sf_dir: str):
    """Exact ROC-AUC of value as a ranker for click events
    (ops/relational.py exact_auc): Mann--Whitney rank-sum on doubled
    integer ranks (average-rank tie handling kept exact), per-batch
    per-score partials, one groupby-sum, O(#distinct scores) driver
    finish -- the exact_quantiles contract."""
    from .ops.relational import exact_auc

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    return exact_auc(
        ds, score_col="value", label_col="event_type",
        positive_value="click",
    )


QUERIES["events_click_auc"] = events_click_auc

ORACLE_SQL["events_click_auc"] = """
WITH q AS (
  SELECT CAST(ROUND(value * 1000) AS BIGINT) AS s,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS p
  FROM events
), g AS (
  SELECT s, CAST(COUNT(*) AS BIGINT) AS c, CAST(SUM(p) AS BIGINT) AS cp
  FROM q GROUP BY s
), r AS (
  SELECT s, c, cp,
         CAST(COALESCE(SUM(c) OVER (
           ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS BIGINT) AS below
  FROM g
), m AS (
  SELECT CAST(SUM(cp * (2 * below + c + 1)) AS BIGINT) AS sr2,
         CAST((SELECT SUM(cp) FROM g) AS BIGINT) AS np,
         CAST((SELECT SUM(c) - SUM(cp) FROM g) AS BIGINT) AS nn
  FROM r
)
SELECT np AS n_pos, nn AS n_neg,
       ((sr2 - np * (np + 1)) * 1000000 // (2 * np * nn))::BIGINT
         AS auc_micro
FROM m
"""


def graph_reciprocity(sf_dir: str):
    """Directed-edge reciprocity of the md5 link graph
    (ops/graph.py reciprocity): both directions of a node pair
    canonicalize into the same low-endpoint bucket, one vectorized
    dedup + adjacent-equality pass per bucket, O(#buckets) driver sum;
    exact integer micro fraction."""
    from .ops.graph import reciprocity

    edges, _, _ = _md5_link_graph(sf_dir)
    return reciprocity(edges)


QUERIES["graph_reciprocity"] = graph_reciprocity

ORACLE_SQL["graph_reciprocity"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
m AS (
  SELECT CAST((SELECT COUNT(*) FROM e) AS BIGINT) AS n_edges,
         CAST((SELECT COUNT(*) FROM e a JOIN e b
               ON a.src = b.dst AND a.dst = b.src) AS BIGINT) AS n_recip
)
SELECT n_edges, n_recip AS n_reciprocated,
       (n_recip * 1000000 // n_edges)::BIGINT AS reciprocity_micro
FROM m
"""


def events_type_cooccurrence(sf_dir: str):
    """Bipartite projection of the user-type incidence: per unordered
    event-type pair, the number of distinct users who did both
    (ops/relational.py cooccurrence_pairs): distinct incidence pairs
    bucketed BY USER, segmented all-pairs emission with per-task
    np.unique combiners, (#types^2)-bounded groupby-sum finish."""
    from .ops.relational import cooccurrence_pairs

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    return cooccurrence_pairs(
        ds, entity_col="user_id", item_col="event_type"
    )


QUERIES["events_type_cooccurrence"] = events_type_cooccurrence

ORACLE_SQL["events_type_cooccurrence"] = """
WITH i AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS item_a, b.event_type AS item_b,
       COUNT(*)::BIGINT AS n_entities
FROM i a JOIN i b
  ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def _mmr_oracle_sql(k: int = 8, dim: int = 64) -> str:
    """Unrolled greedy-MMR CTE chain -- each step's argmax is a window
    QUALIFY over integer dot products of the same 2^20-quantized
    vectors the Ray operator uses (the _kmeans_ctes precedent)."""
    def dot(a: str, b: str) -> str:
        return (
            f"list_aggregate(list_transform(generate_series(1, {dim}), "
            f"d -> {a}.v[d] * {b}.v[d]), 'sum')"
        )

    sql = f"""
WITH q AS (
  SELECT vec_id, list_transform(CAST(embedding AS DOUBLE[]),
         x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS v
  FROM embeddings
),
qv AS (SELECT v FROM q WHERE vec_id = 0),
rel AS (SELECT t.vec_id, {dot('t', 'qv')} AS rel FROM q t CROSS JOIN qv),
p1 AS (SELECT vec_id, rel AS score, 1 AS step FROM rel
       QUALIFY row_number() OVER (ORDER BY rel DESC, vec_id) = 1),
sel1 AS (SELECT vec_id FROM p1)"""
    for i in range(2, k + 1):
        p = i - 1
        sql += f""",
mx{i} AS (
  SELECT t.vec_id, MAX({dot('t', 's')}) AS m
  FROM q t CROSS JOIN
       (SELECT q.v FROM q JOIN sel{p} USING (vec_id)) s
  WHERE t.vec_id NOT IN (SELECT vec_id FROM sel{p})
  GROUP BY t.vec_id
),
p{i} AS (
  SELECT r.vec_id, r.rel - m.m AS score, {i} AS step
  FROM rel r JOIN mx{i} m USING (vec_id)
  QUALIFY row_number() OVER (ORDER BY score DESC, r.vec_id) = 1
),
sel{i} AS (SELECT vec_id FROM sel{p} UNION ALL SELECT vec_id FROM p{i})"""
    union = " UNION ALL ".join(f"SELECT * FROM p{i}" for i in range(1, k + 1))
    sql += (
        "\nSELECT vec_id, CAST(step AS BIGINT) AS step, "
        "CAST(score AS BIGINT) AS score_units FROM (" + union + ")"
    )
    return sql


def embeddings_mmr_select(sf_dir: str):
    """Greedy Maximal-Marginal-Relevance diverse selection (ops/ann.py
    mmr_select): k integer-GEMM passes over the once-quantized
    materialized vectors, each against the <k-row broadcast selected
    matrix, one best-candidate row per batch per pass -- driver state is
    the k picks, never the corpus."""
    from .ops.ann import mmr_select

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return mmr_select(ds, k=8, query_id=0)


QUERIES["embeddings_mmr_select"] = embeddings_mmr_select
ORACLE_SQL["embeddings_mmr_select"] = _mmr_oracle_sql(k=8, dim=64)


def events_value_winsorized(sf_dir: str):
    """Per-type winsorization at the exact [p10, p90] fences
    (ops/quantiles.py winsorize_per_group): distributed exact grouped
    quantiles -> O(#groups) broadcast fence table -> stateless
    vectorized clamp; event rows never shuffle."""
    from .ops.quantiles import winsorize_per_group

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])
    return winsorize_per_group(
        ds, group_col="event_type", value_col="value", id_col="event_id",
    )


QUERIES["events_value_winsorized"] = events_value_winsorized

ORACLE_SQL["events_value_winsorized"] = """
WITH e AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS v FROM events),
h AS (SELECT event_type, v, COUNT(*) AS c FROM e GROUP BY 1, 2),
s AS (SELECT event_type, v,
             SUM(c) OVER (PARTITION BY event_type ORDER BY v) AS cum FROM h),
nn AS (SELECT event_type, COUNT(*) AS n FROM e GROUP BY 1),
b AS (
  SELECT nn.event_type,
         (SELECT MIN(v) FROM s WHERE s.event_type = nn.event_type
            AND cum >= (1 * nn.n + 9) // 10) AS lo,
         (SELECT MIN(v) FROM s WHERE s.event_type = nn.event_type
            AND cum >= (9 * nn.n + 9) // 10) AS hi
  FROM nn
)
SELECT e.event_id, e.event_type,
       LEAST(GREATEST(e.v, b.lo), b.hi) AS v_winsorized
FROM e JOIN b USING (event_type)
"""


def parts_name_clusters(sf_dir: str):
    """Entity-resolution composition: blocked edit-distance match pairs
    (ops/dedup.py editdist_name_pairs) fed into connected components
    (stages/canonicalize.py) -- fuzzy matches become merge clusters with
    a min-name canonical, exactly the sameAs canonicalization shape the
    KG flagship applies to page entities.  The pair list is orders
    smaller than the corpus, so the budget-gated one-task CC fixpoint
    solves it; over budget it falls back to the distributed
    pointer-doubling rounds."""
    from .ops.dedup import editdist_name_pairs
    from .stages.canonicalize import (
        connected_components,
        connected_components_local,
    )

    pairs = editdist_name_pairs(
        _read(sf_dir, "part", columns=["p_name"]),
        name_col="p_name", threshold=2,
    )
    edges = pairs.map_batches(
        lambda b: pa.table({"subj": b["name_a"], "obj": b["name_b"]}),
        batch_format="pyarrow",
    )
    cc = connected_components_local(edges)
    if cc is None:  # pragma: no cover - scale path
        cc = connected_components(edges, rounds=8)
    return cc


QUERIES["parts_name_clusters"] = parts_name_clusters

ORACLE_SQL["parts_name_clusters"] = """
WITH RECURSIVE n AS (
  SELECT p_name, COUNT(*)::BIGINT AS c FROM part GROUP BY p_name
), b AS (
  SELECT p_name, c, split_part(p_name, ' ', 1) AS blk FROM n
), e AS (
  SELECT a.p_name AS x, bb.p_name AS y
  FROM b a JOIN b bb ON a.blk = bb.blk AND a.p_name < bb.p_name
  WHERE levenshtein(a.p_name, bb.p_name) <= 2
), und AS (
  SELECT x, y FROM e UNION SELECT y, x FROM e
), nodes AS (
  SELECT x AS node FROM und
  UNION SELECT p_name FROM n WHERE c > 1
), reach(node, r) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.node
)
SELECT node, MIN(r) AS root FROM reach GROUP BY node
"""


def events_value_robust_z(sf_dir: str):
    """Median/MAD robust z-scores per type (ops/quantiles.py
    robust_zscore_per_group): two composed exact grouped-quantile passes
    (median, then median absolute deviation), each an O(#groups)
    broadcast; signed milli ratio via the offset-shifted floor division
    so DuckDB's truncating // replays it exactly."""
    from .ops.quantiles import robust_zscore_per_group

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])
    return robust_zscore_per_group(
        ds, group_col="event_type", value_col="value", id_col="event_id",
    )


QUERIES["events_value_robust_z"] = events_value_robust_z

ORACLE_SQL["events_value_robust_z"] = """
WITH e AS (SELECT event_id, event_type,
                  CAST(ROUND(value * 100) AS BIGINT) AS v FROM events),
h AS (SELECT event_type, v, COUNT(*) AS c FROM e GROUP BY 1, 2),
s AS (SELECT event_type, v,
             SUM(c) OVER (PARTITION BY event_type ORDER BY v) AS cum FROM h),
nn AS (SELECT event_type, COUNT(*) AS n FROM e GROUP BY 1),
med AS (
  SELECT nn.event_type,
         (SELECT MIN(v) FROM s WHERE s.event_type = nn.event_type
            AND cum >= (1 * nn.n + 1) // 2) AS med
  FROM nn
),
d AS (SELECT e.event_id, e.event_type, e.v, abs(e.v - med.med) AS dev
      FROM e JOIN med USING (event_type)),
h2 AS (SELECT event_type, dev, COUNT(*) AS c FROM d GROUP BY 1, 2),
s2 AS (SELECT event_type, dev,
              SUM(c) OVER (PARTITION BY event_type ORDER BY dev) AS cum
       FROM h2),
mad AS (
  SELECT nn.event_type,
         (SELECT MIN(dev) FROM s2 WHERE s2.event_type = nn.event_type
            AND cum >= (1 * nn.n + 1) // 2) AS mad
  FROM nn
)
SELECT d.event_id, d.event_type,
       (((d.v - med.med) * 1000 + mad.mad * 100000) // mad.mad
        - 100000)::BIGINT AS rz_milli
FROM d JOIN med USING (event_type) JOIN mad USING (event_type)
WHERE mad.mad > 0
"""


def events_peak_sessions(sf_dir: str):
    """Peak concurrent sessions (ops/windows.py max_concurrency over
    sessionize(with_end=True) intervals): a distributed sweep-line --
    intervals flatten to slim (t, ±1) deltas, per-range-bucket delta
    totals seed each bucket's exclusive prefix, one range shuffle with a
    vectorized cumsum sweep per bucket, O(#buckets) driver fold."""
    from .ops.windows import max_concurrency, sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    sessions = sessionize(ds, with_end=True)
    return max_concurrency(
        sessions, start_col="session_start_us", end_col="session_end_us",
    )


QUERIES["events_peak_sessions"] = events_peak_sessions

ORACLE_SQL["events_peak_sessions"] = """
WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS tus FROM events
), lagd AS (
  SELECT user_id, tus,
    CASE WHEN lag(tus) OVER w IS NULL
           OR tus - lag(tus) OVER w > 1800000000 THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tus)
), sess AS (
  SELECT user_id, tus,
    SUM(brk) OVER (PARTITION BY user_id ORDER BY tus
                   ROWS UNBOUNDED PRECEDING) AS sid
  FROM lagd
), iv AS (
  SELECT MIN(tus) AS s, MAX(tus) AS e FROM sess GROUP BY user_id, sid
), pts AS (
  SELECT s AS t, 1 AS d FROM iv
  UNION ALL SELECT e, -1 FROM iv
), run AS (
  SELECT t, d, SUM(d) OVER (ORDER BY t, d DESC
                            ROWS UNBOUNDED PRECEDING) AS c
  FROM pts
), m AS (SELECT MAX(c) AS mx FROM run)
SELECT CAST(m.mx AS BIGINT) AS max_concurrent,
       CAST((SELECT MIN(t) FROM run WHERE c = m.mx) AS BIGINT)
         AS first_at_us
FROM m
"""


def events_value_ntile(sf_dir: str):
    """Global NTILE(4) equal-frequency binning (ops/relational.py
    ntile): O(#distinct scores) broadcast cumulative table + one
    score-bucketed shuffle with local id sort -- exact global ranks
    without a global row sort."""
    from .ops.relational import ntile

    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    return ntile(ds, score_col="value", id_col="event_id", q=4)


QUERIES["events_value_ntile"] = events_value_ntile

ORACLE_SQL["events_value_ntile"] = """
WITH q AS (
  SELECT event_id, CAST(ROUND(value * 1000) AS BIGINT) AS s FROM events
)
SELECT event_id, s AS score_units,
       CAST(NTILE(4) OVER (ORDER BY s, event_id) AS BIGINT) AS tile
FROM q
"""


def embeddings_dim_stats(sf_dir: str):
    """Per-dimension mean/variance of the embedding table (ops/ann.py
    dim_stats): one (dim, n, sum, sumsq) partial row per dimension per
    batch regardless of batch size, tiny groupby-sum, IEEE finish
    replayed operand-for-operand -- float bits hash equal."""
    from .ops.ann import dim_stats

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return dim_stats(ds)


QUERIES["embeddings_dim_stats"] = embeddings_dim_stats

ORACLE_SQL["embeddings_dim_stats"] = """
WITH q AS (
  SELECT list_transform(CAST(embedding AS DOUBLE[]),
         x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS v
  FROM embeddings
), d AS (
  SELECT g.d AS dim, q.v[g.d] AS x
  FROM q CROSS JOIN generate_series(1, 64) g(d)
), m AS (
  SELECT dim, CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS s,
         CAST(SUM(x * x) AS BIGINT) AS ss
  FROM d GROUP BY dim
)
SELECT dim, n AS n_rows,
       (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) / 1048576.0 AS mean_v,
       ((CAST(ss AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
         / CAST(n AS DOUBLE)) / (CAST(n AS DOUBLE) - 1.0))
       / (1048576.0 * 1048576.0) AS var_v
FROM m
"""


def events_weekly_deltas(sf_dir: str):
    """Week-over-week per-type deltas (ops/relational.py period_deltas):
    per-batch count combiners, one groupby-sum, one key-bucketed shuffle
    of the collapsed counts with a vectorized lexsort + shift."""
    from .ops.relational import period_deltas

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    return period_deltas(ds, key_col="event_type", ts_col="ts")


QUERIES["events_weekly_deltas"] = events_weekly_deltas

ORACLE_SQL["events_weekly_deltas"] = """
WITH c AS (
  SELECT event_type,
         (epoch_us(ts) // 604800000000) * 604800000000 AS bucket_us,
         COUNT(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), d AS (
  SELECT event_type, bucket_us, n,
         LAG(n) OVER (PARTITION BY event_type ORDER BY bucket_us) AS p
  FROM c
)
SELECT event_type, bucket_us, n AS n_events, (n - p)::BIGINT AS delta
FROM d WHERE p IS NOT NULL
"""


def graph_harmonic_seeds(sf_dir: str):
    """Bounded-radius harmonic centrality of the doc_id%100==1 seeds
    over the md5 link graph (ops/graph.py harmonic_centrality): one BFS
    per seed (frontier semi-join / visited anti-join rounds), per-batch
    floor(1e6/d) combiners, O(#seeds) driver state."""
    from .ops.graph import harmonic_centrality

    edges, nodes, _ = _md5_link_graph(sf_dir)

    def pick(b: pa.Table) -> pa.Table:
        v = b["node"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(v % 100 == 1))

    seeds = nodes.map_batches(pick, batch_format="pyarrow")
    return harmonic_centrality(edges, seeds, max_depth=4)


QUERIES["graph_harmonic_seeds"] = graph_harmonic_seeds

ORACLE_SQL["graph_harmonic_seeds"] = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
walk(seed, node, lvl) AS (
  SELECT CAST(doc_id AS BIGINT), CAST(doc_id AS BIGINT), 0
  FROM documents WHERE doc_id % 100 = 1
  UNION
  SELECT w.seed, e.dst, w.lvl + 1
  FROM walk w JOIN raw e ON e.src = w.node
  WHERE w.lvl < 4
),
d AS (SELECT seed, node, MIN(lvl) AS lvl FROM walk GROUP BY 1, 2)
SELECT seed,
       (COUNT(*) FILTER (WHERE lvl > 0))::BIGINT AS n_reached,
       COALESCE(SUM(1000000 // lvl) FILTER (WHERE lvl > 0), 0)::BIGINT
         AS harmonic_micro
FROM d GROUP BY seed
"""


def events_user_gini(sf_dir: str):
    """Gini coefficient of per-user event counts (ops/relational.py
    gini_coefficient) -- the shuffle-key skew diagnostic; count
    combiners, one groupby-sum, O(#keys) driver reduction, exact
    integer micro-units."""
    from .ops.relational import gini_coefficient

    ds = _read(sf_dir, "events", columns=["user_id"])
    return gini_coefficient(ds, key_col="user_id")


QUERIES["events_user_gini"] = events_user_gini

ORACLE_SQL["events_user_gini"] = """
WITH pc AS (SELECT user_id, COUNT(*)::BIGINT AS c FROM events GROUP BY 1),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS i FROM pc),
m AS (SELECT CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(c) AS BIGINT) AS s,
             CAST(SUM(i * c) AS BIGINT) AS sic
      FROM r)
SELECT n AS n_keys, s AS total_rows,
       ((2 * sic - (n + 1) * s) * 1000000 // (n * s))::BIGINT
         AS gini_micro
FROM m
"""


def events_trending_types(sf_dir: str):
    """Trending types per week: weekly per-type counts fed into the
    distributed top-k-per-group cut (ops/relational.py topk_per_group
    with the week as the group) -- a pure composition of two existing
    operators, counts collapse before every exchange."""
    from ray.data.aggregate import Sum

    from .ops.relational import topk_per_group

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    step = pa.scalar(np.int64(604_800_000_000), pa.int64())

    def partial(b: pa.Table) -> pa.Table:
        bucket = pc.multiply(
            pc.divide(pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                              pa.int64()), step),
            step,
        )
        t = pa.table({"bucket_us": bucket, "event_type": b["event_type"]})
        return (
            t.group_by(["bucket_us", "event_type"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["bucket_us", "event_type", "n"])
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["bucket_us", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )
    return topk_per_group(
        counts, key_col="bucket_us", value_col="n", id_col="event_type",
        k=2, cents_factor=None,
    )


QUERIES["events_trending_types"] = events_trending_types

ORACLE_SQL["events_trending_types"] = """
WITH c AS (
  SELECT (epoch_us(ts) // 604800000000) * 604800000000 AS bucket_us,
         event_type, COUNT(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), r AS (
  SELECT bucket_us, event_type, n,
         ROW_NUMBER() OVER (
           PARTITION BY bucket_us ORDER BY n DESC, event_type
         ) AS rnk
  FROM c
)
SELECT bucket_us, event_type, n AS value_units, rnk FROM r WHERE rnk <= 2
"""


def graph_avg_neighbor_degree(sf_dir: str):
    """Average neighbor degree per node (ops/graph.py
    avg_neighbor_degree): distinct canon edges, one partial-combine
    degree groupby broadcast under budget, per-batch scatter combiners
    (each edge credits its endpoint's degree to the other), one
    groupby-sum, exact integer micro mean."""
    from .ops.graph import avg_neighbor_degree

    edges, _, _ = _md5_link_graph(sf_dir)
    return avg_neighbor_degree(edges)


QUERIES["graph_avg_neighbor_degree"] = graph_avg_neighbor_degree

ORACLE_SQL["graph_avg_neighbor_degree"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
und AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
deg AS (SELECT a AS node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM und GROUP BY 1),
s AS (SELECT und.a AS node, CAST(SUM(d2.deg) AS BIGINT) AS sum_nbr_deg
      FROM und JOIN deg d2 ON d2.node = und.b GROUP BY 1)
SELECT s.node, deg.deg, s.sum_nbr_deg,
       (s.sum_nbr_deg * 1000000 // deg.deg)::BIGINT AS and_micro
FROM s JOIN deg USING (node)
"""


def graph_negative_samples(sf_dir: str):
    """Deterministic link-prediction negative sampling (ops/graph.py
    negative_samples): md5 candidate proposals per node, int64-packed
    (src, dst) keys through the shared broadcast-or-join anti-join
    against the existing directed edge set."""
    from .ops.graph import negative_samples

    edges, nodes, n = _md5_link_graph(sf_dir)
    return negative_samples(edges, nodes, n, k=2)


QUERIES["graph_negative_samples"] = graph_negative_samples

ORACLE_SQL["graph_negative_samples"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
cand AS (
  SELECT DISTINCT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':n'
               || CAST(t.t AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS neg_dst
  FROM documents d CROSS JOIN (VALUES (0), (1)) t(t)
)
SELECT c.src, c.neg_dst FROM cand c
WHERE c.src <> c.neg_dst
  AND NOT EXISTS (SELECT 1 FROM raw e
                  WHERE e.src = c.src AND e.dst = c.neg_dst)
"""


def events_class_balanced(sf_dir: str):
    """Class-balanced downsampling: equalize every event type to the
    SMALLEST class's size via the deterministic per-group quota sampler
    (ops/corpus.py per_group_quota_sample) with the quota derived from a
    tiny count aggregate -- the class-imbalance repair step of a
    training-data pipeline, pure composition."""
    from ray.data.aggregate import Sum

    from .ops.corpus import per_group_quota_sample

    ds = _read(sf_dir, "events", columns=["event_type", "event_id"])

    def counts(b: pa.Table) -> pa.Table:
        g = (
            b.select(["event_type"])
            .group_by(["event_type"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["event_type", "c"])

    per_class = (
        ds.map_batches(counts, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("c", alias_name="c"))
    )
    m = int(per_class.min("c"))
    return per_group_quota_sample(
        ds, group_col="event_type", id_col="event_id", quota=m
    )


QUERIES["events_class_balanced"] = events_class_balanced

ORACLE_SQL["events_class_balanced"] = """
WITH m AS (
  SELECT MIN(c)::BIGINT AS m
  FROM (SELECT COUNT(*) AS c FROM events GROUP BY event_type)
), r AS (
  SELECT event_type, event_id,
         ROW_NUMBER() OVER (
           PARTITION BY event_type
           ORDER BY md5(CAST(event_id AS VARCHAR)), event_id
         ) AS rnk
  FROM events
)
SELECT event_type, event_id FROM r WHERE rnk <= (SELECT m FROM m)
"""


def graph_assortativity(sf_dir: str):
    """Degree assortativity of the md5 link graph (ops/graph.py
    assortativity): exact int64 sufficient statistics over the directed
    orientations of the distinct undirected edge set, ONE IEEE divide on
    the driver -- the Pearson "hubs link to hubs" coefficient replayed
    bit-for-bit by the HUGEINT-then-DOUBLE oracle."""
    from .ops.graph import assortativity

    edges, _, _ = _md5_link_graph(sf_dir)
    return assortativity(edges)


QUERIES["graph_assortativity"] = graph_assortativity

ORACLE_SQL["graph_assortativity"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
und AS (SELECT u AS a, v AS b FROM e0 UNION ALL SELECT v, u FROM e0),
deg AS (SELECT a AS node, CAST(COUNT(*) AS BIGINT) AS deg
        FROM und GROUP BY 1),
pairs AS (
  SELECT d1.deg AS du, d2.deg AS dv
  FROM und
  JOIN deg d1 ON d1.node = und.a
  JOIN deg d2 ON d2.node = und.b
),
s AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS m,
         CAST(SUM(du) AS BIGINT) AS sx,
         CAST(SUM(du * dv) AS BIGINT) AS sxy,
         CAST(SUM(du * du) AS BIGINT) AS sxx
  FROM pairs
)
SELECT m, sx, sxy, sxx,
       CAST(CAST(CAST(m AS HUGEINT) * sxy
                 - CAST(sx AS HUGEINT) * sx AS DOUBLE)
            / CAST(CAST(m AS HUGEINT) * sxx
                   - CAST(sx AS HUGEINT) * sx AS DOUBLE)
            AS DOUBLE) AS r_pearson
FROM s
"""


def graph_sssp_weighted(sf_dir: str):
    """Bounded-round weighted shortest paths over the md5 link graph
    (ops/graph.py sssp_weighted): 3 Bellman-Ford relaxations from the
    doc_id % 50 == 0 seed set, md5-derived 1..9 int weights, int64
    min-plus arithmetic throughout -- bit-identical to the unrolled
    DuckDB recurrence."""
    from .ops.graph import sssp_weighted

    edges, nodes, _ = _md5_link_graph(sf_dir)

    def seed_mask(b: pa.Table) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(n % 50 == 0))

    seeds = nodes.map_batches(seed_mask, batch_format="pyarrow")
    return sssp_weighted(edges, seeds, rounds=3)


QUERIES["graph_sssp_weighted"] = graph_sssp_weighted

ORACLE_SQL["graph_sssp_weighted"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
ew AS (
  SELECT src, dst,
         1 + CAST(('0x' || substr(md5(CAST(src AS VARCHAR) || ':'
               || CAST(dst AS VARCHAR) || 'w'), 1, 8)) AS BIGINT) % 9 AS w
  FROM edges
),
d0 AS (
  SELECT CAST(doc_id AS BIGINT) AS node, CAST(0 AS BIGINT) AS dist
  FROM documents WHERE doc_id % 50 = 0
),
c1 AS (SELECT e.dst AS node, d0.dist + e.w AS dist
       FROM ew e JOIN d0 ON d0.node = e.src),
d1 AS (SELECT node, MIN(dist) AS dist FROM
       (SELECT * FROM d0 UNION ALL SELECT * FROM c1) GROUP BY node),
c2 AS (SELECT e.dst AS node, d1.dist + e.w AS dist
       FROM ew e JOIN d1 ON d1.node = e.src),
d2 AS (SELECT node, MIN(dist) AS dist FROM
       (SELECT * FROM d1 UNION ALL SELECT * FROM c2) GROUP BY node),
c3 AS (SELECT e.dst AS node, d2.dist + e.w AS dist
       FROM ew e JOIN d2 ON d2.node = e.src),
d3 AS (SELECT node, MIN(dist) AS dist FROM
       (SELECT * FROM d2 UNION ALL SELECT * FROM c3) GROUP BY node)
SELECT node, dist FROM d3
"""


def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5-shaped six-table star join: revenue per ASIA nation from
    1996 orders whose lineitem supplier sits in the ordering customer's
    own nation.

    Scale shape: region and nation pin the nation-key set on the driver
    (dimension tables, O(10) rows); customer, the date-filtered slim
    orders side, and supplier each go through the byte-budgeted
    broadcast-or-join helper (plan.small_side) -- the lineitem fact table
    NEVER shuffles on the broadcast path: both attachments are
    vectorized ``index_in`` lookups inside one map_batches pass, revenue
    partials combine per batch on exact integer micro-units before ONE
    tiny per-nation groupby-sum, and the nation name attaches from a
    driver-side 5-row map.  Above budget each side degrades to a
    distributed hash join on the same keys (the q3 fallback contract)."""
    import ray
    from ray.data.aggregate import Sum

    import datetime as _dt

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1997, 1, 1), pa.timestamp("us"))

    region = pa.concat_tables(
        ray.get(_read(sf_dir, "region").materialize().to_arrow_refs()),
        promote_options="default",
    )
    rkeys = region.filter(pc.equal(region["r_name"], "ASIA"))[
        "r_regionkey"
    ].combine_chunks()
    nation = pa.concat_tables(
        ray.get(_read(sf_dir, "nation").materialize().to_arrow_refs()),
        promote_options="default",
    )
    nation = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rkeys))
    nkeys = nation["n_nationkey"].combine_chunks()
    nname = dict(
        zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_name"].to_pylist(),
        )
    )

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda b: b.filter(pc.is_in(b["c_nationkey"], value_set=nkeys)),
        batch_format="pyarrow",
    )
    ctab, cmat = plan.small_side("q5_local_supplier_volume", cust)

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def slim_orders(b: pa.Table, ckeys=None, cnk=None) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.timestamp("us"))
        b = b.filter(
            pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        )
        if ckeys is not None:
            idx = pc.index_in(b["o_custkey"], value_set=ckeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            nk = cnk.take(pc.index_in(b["o_custkey"], value_set=ckeys))
            return pa.table({"o_orderkey": b["o_orderkey"], "cust_nk": nk})
        return pa.table(
            {"o_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"]}
        )

    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        cnk = pc.cast(ctab["c_nationkey"], pa.int64()).combine_chunks()
        orders_slim = orders.map_batches(
            lambda b: slim_orders(b, ckeys, cnk), batch_format="pyarrow"
        )
    else:  # pragma: no cover - scale path
        orders_slim = orders.map_batches(
            slim_orders, batch_format="pyarrow"
        ).join(
            cmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_custkey",), right_on=("c_custkey",),
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "cust_nk": pc.cast(b["c_nationkey"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    otab, omat = plan.small_side("q5_local_supplier_volume", orders_slim)

    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    supp = supp.map_batches(
        lambda b: b.filter(pc.is_in(b["s_nationkey"], value_set=nkeys)),
        batch_format="pyarrow",
    )
    stab, smat = plan.small_side("q5_local_supplier_volume", supp)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def rev_partial(b: pa.Table, okeys=None, onk=None,
                    skeys=None, snk=None) -> pa.Table:
        cust_nk = None
        if okeys is not None:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            b = b.filter(pc.is_valid(idx))
            cust_nk = onk.take(
                pc.index_in(b["l_orderkey"], value_set=okeys)
            )
        else:
            cust_nk = pc.cast(b["cust_nk"], pa.int64())
        if skeys is not None:
            sidx = pc.index_in(b["l_suppkey"], value_set=skeys)
            hit = pc.is_valid(sidx)
            b, cust_nk = b.filter(hit), cust_nk.filter(hit)
            supp_nk = snk.take(
                pc.index_in(b["l_suppkey"], value_set=skeys)
            )
        else:
            supp_nk = pc.cast(b["s_nationkey"], pa.int64())
        same = pc.equal(cust_nk, supp_nk)
        b, cust_nk = b.filter(same), cust_nk.filter(same)
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table({"nk": cust_nk, "rev": rev})
        return (
            t.group_by(["nk"], use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["nk", "rev"])
        )

    fact = li
    okeys = onk = skeys = snk = None
    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        onk = pc.cast(otab["cust_nk"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        )
    if stab is not None:
        skeys = stab["s_suppkey"].combine_chunks()
        snk = pc.cast(stab["s_nationkey"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(smat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_suppkey",), right_on=("s_suppkey",),
        )

    partials = fact.map_batches(
        lambda b: rev_partial(b, okeys, onk, skeys, snk),
        batch_format="pyarrow",
    )
    agg = partials.groupby("nk").aggregate(Sum("rev", alias_name="revenue_micro"))

    def attach_name(b: pa.Table) -> pa.Table:
        names = [nname[k] for k in b["nk"].to_pylist()]
        return pa.table(
            {
                "n_name": pa.array(names, pa.string()),
                "revenue_micro": b["revenue_micro"],
            }
        )

    return agg.map_batches(attach_name, batch_format="pyarrow")


QUERIES["q5_local_supplier_volume"] = q5_local_supplier_volume

ORACLE_SQL["q5_local_supplier_volume"] = """
SELECT n.n_name,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
       ) AS BIGINT) AS revenue_micro
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
               AND s.s_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = 'ASIA'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n.n_name
"""


def q4_order_priority(sf_dir: str):
    """TPC-H Q4-shaped EXISTS count: orders placed in 1996Q3 that have at
    least one lineitem shipped more than 60 days after the order date,
    counted per order priority.

    Scale shape: the date-windowed slim orders side (orderkey, date,
    priority) is a byte-budgeted broadcast; lineitem streams ONCE through
    a vectorized semi-join + per-row date predicate and collapses to
    per-batch DISTINCT qualifying orderkeys before the one small global
    distinct (ops/dedup.py distinct_first) -- the EXISTS is set algebra
    over orderkeys, never a row-multiplying join; the final count
    attaches priorities via index_in and sums O(#priorities) partials.
    Above budget the semi-join degrades to a distributed hash join on
    the same keys."""
    import datetime as _dt

    import ray
    from ray.data.aggregate import Sum

    from .ops.dedup import distinct_first

    lo = pa.scalar(_dt.datetime(1996, 7, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 10, 1), pa.timestamp("us"))
    lag_us = 60 * 86400 * 1_000_000

    orders = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def slim(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.timestamp("us"))
        keep = pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        b = b.filter(keep)
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "odate_us": pc.cast(
                    pc.cast(b["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                "o_orderpriority": b["o_orderpriority"],
            }
        )

    otab, omat = plan.small_side(
        "q4_order_priority", orders.map_batches(slim, batch_format="pyarrow")
    )

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        odates = pc.cast(otab["odate_us"], pa.int64()).combine_chunks()

        def qualify(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            od = odates.take(pc.index_in(b["l_orderkey"], value_set=okeys))
            ship = pc.cast(
                pc.cast(b["l_shipdate"], pa.timestamp("us")), pa.int64()
            )
            late = pc.greater(
                ship, pc.add(od, pa.scalar(lag_us, pa.int64()))
            )
            keys = b.filter(late)["l_orderkey"].to_numpy(
                zero_copy_only=False
            )
            return pa.table(
                {"o_orderkey": pa.array(np.unique(keys), pa.int64())}
            )

        qual = li.map_batches(qualify, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        j = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        )

        def qualify_joined(b: pa.Table) -> pa.Table:
            ship = pc.cast(
                pc.cast(b["l_shipdate"], pa.timestamp("us")), pa.int64()
            )
            late = pc.greater(
                ship,
                pc.add(
                    pc.cast(b["odate_us"], pa.int64()),
                    pa.scalar(lag_us, pa.int64()),
                ),
            )
            keys = b.filter(late)["l_orderkey"].to_numpy(
                zero_copy_only=False
            )
            return pa.table(
                {"o_orderkey": pa.array(np.unique(keys), pa.int64())}
            )

        qual = j.map_batches(qualify_joined, batch_format="pyarrow")

    qual = distinct_first(qual, "o_orderkey")

    if otab is not None:
        okeys2 = otab["o_orderkey"].combine_chunks()
        prio = otab["o_orderpriority"].combine_chunks()

        def count_partial(b: pa.Table) -> pa.Table:
            p = prio.take(pc.index_in(b["o_orderkey"], value_set=okeys2))
            t = pa.table({"o_orderpriority": p})
            g = (
                t.group_by(["o_orderpriority"], use_threads=False)
                .aggregate([([], "count_all")])
            )
            return g.rename_columns(["o_orderpriority", "c"])

        partials = qual.map_batches(count_partial, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        partials = normalize_join_blocks(qual, plan.join_partitions()).join(
            normalize_join_blocks(
                omat.select_columns(["o_orderkey", "o_orderpriority"]),
                plan.join_partitions(),
            ),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_orderkey",), right_on=("o_orderkey",),
        ).map_batches(
            lambda b: (
                b.select(["o_orderpriority"])
                .group_by(["o_orderpriority"], use_threads=False)
                .aggregate([([], "count_all")])
                .rename_columns(["o_orderpriority", "c"])
            ),
            batch_format="pyarrow",
        )

    return partials.groupby("o_orderpriority").aggregate(
        Sum("c", alias_name="order_count")
    )


QUERIES["q4_order_priority"] = q4_order_priority

ORACLE_SQL["q4_order_priority"] = """
SELECT o.o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-07-01'
  AND o.o_orderdate < TIMESTAMP '1996-10-01'
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey
      AND l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
  )
GROUP BY o.o_orderpriority
"""


def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17-shaped correlated-average filter: total revenue from
    Brand#13 lineitems whose quantity is below 20% of that part's own
    average lineitem quantity.

    Scale shape: the brand part-key set broadcasts (dimension-sized);
    lineitem streams TWICE -- pass 1 collapses to exact per-part
    (sum_qty, cnt) sufficient statistics via per-batch combiners + one
    tiny groupby (never shipping rows), pass 2 re-applies the broadcast
    stats with the integer cross-multiplied predicate
    ``5 * qty * cnt < sum_qty`` (no float division anywhere) and sums
    revenue cents per batch -- O(1) rows cross the wire per batch.
    Above budget the stats side degrades to a distributed hash join."""
    import ray
    from ray.data.aggregate import Sum

    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"])
    part = part.map_batches(
        lambda b: b.filter(pc.equal(b["p_brand"], "Brand#13")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )
    ptab, pmat = plan.small_side("q17_small_quantity_revenue", part)
    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def stats_partial(b: pa.Table, pkeys=None) -> pa.Table:
        if pkeys is not None:
            b = b.filter(pc.is_in(b["l_partkey"], value_set=pkeys))
        q = sql_round_i64(b["l_quantity"])
        t = pa.table(
            {
                "l_partkey": b["l_partkey"],
                "sq": q,
                "cnt": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        )
        g = (
            t.group_by(["l_partkey"], use_threads=False)
            .aggregate([("sq", "sum"), ("cnt", "sum")])
        )
        return g.rename_columns(["l_partkey", "sq", "cnt"])

    if ptab is not None:
        pkeys = ptab["p_partkey"].combine_chunks()
        stats = li.map_batches(
            lambda b: stats_partial(b, pkeys), batch_format="pyarrow"
        )
    else:  # pragma: no cover - scale path
        stats = li.join(
            pmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_partkey",), right_on=("p_partkey",),
        ).map_batches(stats_partial, batch_format="pyarrow")

    stats = (
        stats.groupby("l_partkey")
        .aggregate(Sum("sq", alias_name="sq"), Sum("cnt", alias_name="cnt"))
    )
    stab, smat = plan.small_side("q17_small_quantity_revenue", stats)

    if stab is not None:
        skeys = stab["l_partkey"].combine_chunks()
        ssq = pc.cast(stab["sq"], pa.int64()).combine_chunks()
        scnt = pc.cast(stab["cnt"], pa.int64()).combine_chunks()

        def rev_partial(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["l_partkey"], value_set=skeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            idx = pc.index_in(b["l_partkey"], value_set=skeys)
            sq = ssq.take(idx)
            cnt = scnt.take(idx)
            q = sql_round_i64(b["l_quantity"])
            keep = pc.less(
                pc.multiply(
                    pc.multiply(q, pa.scalar(5, pa.int64())), cnt
                ),
                sq,
            )
            cents = sql_round_i64(b.filter(keep)["l_extendedprice"], 100.0)
            s = pc.sum(cents).as_py()
            return pa.table(
                {"rc": pa.array([0 if s is None else s], pa.int64())}
            )

        partials = li.map_batches(rev_partial, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        j = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(smat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_partkey",), right_on=("l_partkey",),
        )

        def rev_joined(b: pa.Table) -> pa.Table:
            q = sql_round_i64(b["l_quantity"])
            keep = pc.less(
                pc.multiply(
                    pc.multiply(q, pa.scalar(5, pa.int64())),
                    pc.cast(b["cnt"], pa.int64()),
                ),
                pc.cast(b["sq"], pa.int64()),
            )
            cents = sql_round_i64(b.filter(keep)["l_extendedprice"], 100.0)
            s = pc.sum(cents).as_py()
            return pa.table(
                {"rc": pa.array([0 if s is None else s], pa.int64())}
            )

        partials = j.map_batches(rev_joined, batch_format="pyarrow")

    import ray as _ray

    tot = pa.concat_tables(
        _ray.get(partials.materialize().to_arrow_refs()),
        promote_options="default",
    )
    total = int(pc.sum(tot["rc"]).as_py() or 0)
    return pa.table({"revenue_cents": pa.array([total], pa.int64())})


QUERIES["q17_small_quantity_revenue"] = q17_small_quantity_revenue

ORACLE_SQL["q17_small_quantity_revenue"] = """
SELECT COALESCE(CAST(SUM(
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT), 0)
       AS revenue_cents
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand = 'Brand#13'
  AND CAST(ROUND(l.l_quantity) AS BIGINT) * 5
      * (SELECT COUNT(*) FROM lineitem l2
         WHERE l2.l_partkey = l.l_partkey)
    < (SELECT CAST(SUM(CAST(ROUND(l2.l_quantity) AS BIGINT)) AS BIGINT)
       FROM lineitem l2 WHERE l2.l_partkey = l.l_partkey)
"""


def events_type_hour_chisq(sf_dir: str):
    """Chi-square contingency contributions between event type and
    hour-of-day (ops/relational.py chisq_contingency): exact int64
    counts/marginals/cross terms with a fixed-operand-order IEEE finish
    the DuckDB oracle replays bit-for-bit -- the "is the event mix
    independent of time" drift screen."""
    from .ops.relational import chisq_contingency

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def with_hour(b: pa.Table) -> pa.Table:
        hr = pc.cast(
            pc.hour(pc.cast(b["ts"], pa.timestamp("us"))), pa.int64()
        )
        return pa.table({"event_type": b["event_type"], "hr": hr})

    return chisq_contingency(
        ds.map_batches(with_hour, batch_format="pyarrow"),
        "event_type", "hr",
    )


QUERIES["events_type_hour_chisq"] = events_type_hour_chisq

ORACLE_SQL["events_type_hour_chisq"] = """
WITH cells AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hr,
         CAST(COUNT(*) AS BIGINT) AS obs
  FROM events GROUP BY 1, 2
),
nn AS (SELECT CAST(SUM(obs) AS BIGINT) AS n FROM cells),
rt AS (SELECT event_type, CAST(SUM(obs) AS BIGINT) AS rt
       FROM cells GROUP BY 1),
ct AS (SELECT hr, CAST(SUM(obs) AS BIGINT) AS ct FROM cells GROUP BY 1)
SELECT cells.event_type, cells.hr, cells.obs,
       (CAST(cells.obs * nn.n - rt.rt * ct.ct AS DOUBLE)
        * CAST(cells.obs * nn.n - rt.rt * ct.ct AS DOUBLE))
       / (CAST(rt.rt * ct.ct AS DOUBLE) * CAST(nn.n AS DOUBLE)) AS contrib
FROM cells
JOIN rt USING (event_type)
JOIN ct USING (hr)
CROSS JOIN nn
"""


def graph_link_prediction_jaccard(sf_dir: str):
    """Neighborhood-Jaccard link prediction (ops/graph.py
    common_neighbors_topk with jaccard=True): the common-neighbor wedge
    machinery plus a degree broadcast, scoring candidate pairs
    ``floor(1e6 * cn / (deg(u) + deg(v) - cn))`` in exact integer
    micro-units; top-50 re-ranked by (jac_micro DESC, u, v)."""
    from .ops.graph import common_neighbors_topk

    edges, _, _ = _md5_link_graph(sf_dir)
    return common_neighbors_topk(edges, k=50, jaccard=True)


QUERIES["graph_link_prediction_jaccard"] = graph_link_prediction_jaccard

ORACLE_SQL["graph_link_prediction_jaccard"] = f"""
WITH {_MD5_EDGES_SQL},
e0 AS (SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst GROUP BY 1, 2),
adj AS (SELECT u AS node, v AS nb FROM e0
        UNION ALL SELECT v, u FROM e0),
deg AS (SELECT node, COUNT(*)::BIGINT AS d FROM adj GROUP BY node),
w AS (
  SELECT a.nb AS u, b.nb AS v, COUNT(*)::BIGINT AS cnt
  FROM adj a JOIN adj b ON a.node = b.node AND a.nb < b.nb
  GROUP BY 1, 2
)
SELECT w.u, w.v, w.cnt,
       (w.cnt * 1000000 // (d1.d + d2.d - w.cnt))::BIGINT AS jac_micro
FROM w
JOIN deg d1 ON d1.node = w.u
JOIN deg d2 ON d2.node = w.v
WHERE NOT EXISTS (SELECT 1 FROM e0 WHERE e0.u = w.u AND e0.v = w.v)
ORDER BY jac_micro DESC, u, v LIMIT 50
"""


def events_value_ewma(sf_dir: str):
    """Bounded-window EWMA / trailing weighted sum per user
    (ops/windows.py trailing_weighted_sum): dyadic 8/4/2/1 weights over
    the last 4 events' value cents, ordered (ts, event_id) within user;
    boundary-masked shifted adds after ONE hash(user) shuffle -- all
    integer, replayed bit-for-bit by the unrolled-LAG oracle."""
    from .ops.windows import trailing_weighted_sum

    ds = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return trailing_weighted_sum(ds)


QUERIES["events_value_ewma"] = events_value_ewma

ORACLE_SQL["events_value_ewma"] = """
WITH v AS (
  SELECT event_id, user_id, epoch_us(ts) AS ts_us,
         CAST(ROUND(value * 100) AS BIGINT) AS vc,
         ts
  FROM events
)
SELECT event_id, user_id, ts_us,
       (8 * vc
        + 4 * COALESCE(LAG(vc, 1) OVER w, 0)
        + 2 * COALESCE(LAG(vc, 2) OVER w, 0)
        + 1 * COALESCE(LAG(vc, 3) OVER w, 0))::BIGINT AS wsum_cents
FROM v
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def events_user_rfm(sf_dir: str):
    """RFM scoring composition: per-user recency (last event ts) /
    frequency (event count) / monetary (value cents) sufficient
    statistics via per-batch combiners + ONE groupby, then three
    independent exact global NTILE(4) passes (ops/relational.py ntile --
    no global row sort), joined back onto the user table.  The
    segmentation every retention pipeline computes before a campaign
    split."""
    import ray
    from ray.data.aggregate import Count, Max, Sum

    from .ops.dedup import normalize_join_blocks
    from .ops.relational import ntile

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": pc.cast(b["user_id"], pa.int64()),
                "tus": pc.cast(
                    pc.cast(b["ts"], pa.timestamp("us")), pa.int64()
                ),
                "vc": sql_round_i64(b["value"], 100.0),
                "one": pa.array(np.ones(len(b), np.int64), pa.int64()),
            }
        )
        g = t.group_by(["user_id"], use_threads=False).aggregate(
            [("tus", "max"), ("one", "sum"), ("vc", "sum")]
        )
        return g.rename_columns(["user_id", "r_units", "f_cnt", "m_cents"])

    base = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(
            Max("r_units", alias_name="r_units"),
            Sum("f_cnt", alias_name="f_cnt"),
            Sum("m_cents", alias_name="m_cents"),
        )
        .materialize()
    )

    out = base
    nparts = plan.join_partitions()
    for col, alias in (
        ("r_units", "r_tile"), ("f_cnt", "f_tile"), ("m_cents", "m_tile")
    ):
        tiles = ntile(
            base, score_col=col, id_col="user_id", q=4, scale=1.0
        ).map_batches(
            lambda b, a=alias: pa.table(
                {"user_id": b["user_id"], a: b["tile"]}
            ),
            batch_format="pyarrow",
        )
        out = normalize_join_blocks(out, nparts).join(
            normalize_join_blocks(tiles, nparts),
            join_type="inner", num_partitions=nparts,
            on=("user_id",),
        )

    return out.map_batches(
        lambda b: b.select(
            ["user_id", "r_units", "f_cnt", "m_cents",
             "r_tile", "f_tile", "m_tile"]
        ),
        batch_format="pyarrow",
    )


QUERIES["events_user_rfm"] = events_user_rfm

ORACLE_SQL["events_user_rfm"] = """
WITH a AS (
  SELECT user_id,
         MAX(epoch_us(ts))::BIGINT AS r_units,
         COUNT(*)::BIGINT AS f_cnt,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS m_cents
  FROM events GROUP BY 1
)
SELECT user_id, r_units, f_cnt, m_cents,
       CAST(NTILE(4) OVER (ORDER BY r_units, user_id) AS BIGINT) AS r_tile,
       CAST(NTILE(4) OVER (ORDER BY f_cnt, user_id) AS BIGINT) AS f_tile,
       CAST(NTILE(4) OVER (ORDER BY m_cents, user_id) AS BIGINT) AS m_tile
FROM a
"""


def events_value_cusum(sf_dir: str):
    """Per-user one-sided CUSUM drift scan (ops/windows.py cusum_scan):
    s_i = max(0, s_{i-1} + value_cents - 7500), alarm at s > 20000,
    computed via the prefix identity c - min(0, running_min(c)) -- one
    hash(user) shuffle, segmented cumsum + band-offset cumulative min,
    all integer cents, bit-exact vs the nested-window oracle."""
    from .ops.windows import cusum_scan

    ds = _read(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "value"]
    )
    return cusum_scan(ds)


QUERIES["events_value_cusum"] = events_value_cusum

ORACLE_SQL["events_value_cusum"] = """
WITH v AS (
  SELECT event_id, user_id, ts, epoch_us(ts) AS ts_us,
         CAST(ROUND(value * 100) AS BIGINT) - 7500 AS xk
  FROM events
), c AS (
  SELECT event_id, user_id, ts, ts_us,
         SUM(xk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS c
  FROM v
)
SELECT event_id, user_id, ts_us,
       CAST(c - LEAST(0, MIN(c) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING)) AS BIGINT) AS cusum_cents,
       CASE WHEN c - LEAST(0, MIN(c) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING)) > 20000
            THEN 1 ELSE 0 END::BIGINT AS alarm
FROM c
"""


def docs_setsim_pairs(sf_dir: str):
    """Exact prefix-filtered set-similarity self-join (ops/dedup.py
    setsim_join_exact): ALL document pairs with token-set Jaccard >=
    0.9, candidate generation COMPLETE by the prefix-filter lemma
    (rarest-df-first global token order), verification by memoized
    frozen token sets, threshold tested as the integer
    cross-multiplication inter*1e6 >= 9e5*uni -- no float anywhere."""
    from .ops.dedup import setsim_join_exact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return setsim_join_exact(ds, threshold_micro=900_000)


QUERIES["docs_setsim_pairs"] = docs_setsim_pairs

ORACLE_SQL["docs_setsim_pairs"] = """
WITH tok AS (
  SELECT DISTINCT d.doc_id, u.tok
  FROM documents d,
       unnest(regexp_split_to_array(lower(d.text), '[^a-z0-9]+')) AS u(tok)
  WHERE u.tok <> ''
),
sizes AS (SELECT doc_id, COUNT(*)::BIGINT AS sz FROM tok GROUP BY 1),
inter AS (
  SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*)::BIGINT AS inter
  FROM tok a JOIN tok b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.a, i.b, i.inter,
       (sa.sz + sb.sz - i.inter)::BIGINT AS uni,
       (i.inter * 1000000 // (sa.sz + sb.sz - i.inter))::BIGINT AS jac_micro
FROM inter i
JOIN sizes sa ON sa.doc_id = i.a
JOIN sizes sb ON sb.doc_id = i.b
WHERE i.inter * 1000000 >= 900000 * (sa.sz + sb.sz - i.inter)
"""


def events_value_mlr(sf_dir: str):
    """Per-type two-feature regression value_cents ~ b0 + b1*hour +
    b2*weekday (ops/relational.py grouped_mlr2): exact int64 normal-
    equation partials per batch, ONE tiny groupby-sum, Cramer
    determinants in Python big ints (HUGEINT in the oracle), one IEEE
    divide per coefficient -- bit-replayed by DuckDB."""
    from .ops.relational import grouped_mlr2

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def featurize(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.timestamp("us"))
        return pa.table(
            {
                "event_type": b["event_type"],
                "hr": pc.cast(pc.hour(ts), pa.int64()),
                # Monday=0..Sunday=6 == DuckDB isodow-1
                "dow": pc.cast(pc.day_of_week(ts), pa.int64()),
                "vc": sql_round_i64(b["value"], 100.0),
            }
        )

    out = grouped_mlr2(
        ds.map_batches(featurize, batch_format="pyarrow"),
        group_col="event_type", x1_col="hr", x2_col="dow", y_col="vc",
    )
    return out.rename_columns(["event_type", "n", "det", "b0", "b1", "b2"])


QUERIES["events_value_mlr"] = events_value_mlr

ORACLE_SQL["events_value_mlr"] = """
WITH f AS (
  SELECT event_type,
         CAST(EXTRACT(hour FROM ts) AS BIGINT) AS x1,
         CAST(EXTRACT(isodow FROM ts) - 1 AS BIGINT) AS x2,
         CAST(ROUND(value * 100) AS BIGINT) AS y
  FROM events
), s AS (
  SELECT event_type,
         COUNT(*)::HUGEINT AS n,
         CAST(SUM(x1) AS HUGEINT) AS sx1,
         CAST(SUM(x2) AS HUGEINT) AS sx2,
         CAST(SUM(y) AS HUGEINT) AS sy,
         CAST(SUM(x1 * x1) AS HUGEINT) AS s11,
         CAST(SUM(x1 * x2) AS HUGEINT) AS s12,
         CAST(SUM(x2 * x2) AS HUGEINT) AS s22,
         CAST(SUM(x1 * y) AS HUGEINT) AS s1y,
         CAST(SUM(x2 * y) AS HUGEINT) AS s2y
  FROM f GROUP BY event_type
), d AS (
  SELECT event_type, n,
         n * (s11 * s22 - s12 * s12)
           - sx1 * (sx1 * s22 - s12 * sx2)
           + sx2 * (sx1 * s12 - s11 * sx2) AS det,
         sy * (s11 * s22 - s12 * s12)
           - sx1 * (s1y * s22 - s12 * s2y)
           + sx2 * (s1y * s12 - s11 * s2y) AS det0,
         n * (s1y * s22 - s12 * s2y)
           - sy * (sx1 * s22 - s12 * sx2)
           + sx2 * (sx1 * s2y - s1y * sx2) AS det1,
         n * (s11 * s2y - s1y * s12)
           - sx1 * (sx1 * s2y - s1y * sx2)
           + sy * (sx1 * s12 - s11 * sx2) AS det2
  FROM s
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       CAST(det AS DOUBLE) AS det,
       CAST(det0 AS DOUBLE) / CAST(det AS DOUBLE) AS b0,
       CAST(det1 AS DOUBLE) / CAST(det AS DOUBLE) AS b1,
       CAST(det2 AS DOUBLE) / CAST(det AS DOUBLE) AS b2
FROM d WHERE det <> 0
"""


def q10_returned_items(sf_dir: str):
    """TPC-H Q10-shaped returned-item report: top-20 customers by revenue
    of 'R'-flag lineitems on Q1-1996 orders, with the customer's nation.

    Scale shape: the date-sliced orders side and the slim customer side
    each go through the byte-budgeted broadcast-or-join helper
    (``plan.small_side``); on the broadcast path the lineitem fact table
    never shuffles -- order->customer and customer->name/nation attach
    as vectorized ``index_in`` lookups inside one map_batches pass and
    revenue partials combine per batch on exact integer micro-units
    before ONE tiny per-customer groupby-sum.  The top-20 is a global
    sort of the (small) per-customer aggregate, deterministic under
    ties via the trailing c_custkey sort key (reference analog: ranked
    per-entity reports over converted triples, oai2rdf.rb's ordered
    harvest summaries)."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 4, 1), pa.timestamp("us"))

    nation = _mat_table(_read(sf_dir, "nation"))
    nname = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )

    cust = _read(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    ctab, cmat = plan.small_side("q10_returned_items", cust)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def slim_orders(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.timestamp("us"))
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        return pa.table(
            {"o_orderkey": b["o_orderkey"], "o_custkey": b["o_custkey"]}
        )

    orders_slim = orders.map_batches(slim_orders, batch_format="pyarrow")
    otab, omat = plan.small_side("q10_returned_items", orders_slim)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    )

    def rev_partial(b: pa.Table, okeys=None, ock=None) -> pa.Table:
        b = b.filter(pc.equal(b["l_returnflag"], "R"))
        if okeys is not None:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            ck = ock.take(pc.index_in(b["l_orderkey"], value_set=okeys))
        else:
            ck = pc.cast(b["o_custkey"], pa.int64())
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table({"c_custkey": ck, "rev": rev})
        return (
            t.group_by(["c_custkey"], use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["c_custkey", "rev"])
        )

    fact = li
    okeys = ock = None
    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        ock = pc.cast(otab["o_custkey"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        )
    partials = fact.map_batches(
        lambda b: rev_partial(b, okeys, ock), batch_format="pyarrow"
    )
    agg = partials.groupby("c_custkey").aggregate(
        Sum("rev", alias_name="revenue_micro")
    )

    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        cnames = ctab["c_name"].combine_chunks()
        cnk = pc.cast(ctab["c_nationkey"], pa.int64()).combine_chunks()

        def attach(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["c_custkey"], value_set=ckeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            idx = pc.index_in(b["c_custkey"], value_set=ckeys)
            nk = cnk.take(idx)
            return pa.table(
                {
                    "c_custkey": b["c_custkey"],
                    "c_name": cnames.take(idx),
                    "n_name": pa.array(
                        [nname[k] for k in nk.to_pylist()], pa.string()
                    ),
                    "revenue_micro": b["revenue_micro"],
                }
            )

        out = agg.map_batches(attach, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        out = normalize_join_blocks(agg, plan.join_partitions()).join(
            normalize_join_blocks(cmat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("c_custkey",), right_on=("c_custkey",),
        ).map_batches(
            lambda b: pa.table(
                {
                    "c_custkey": b["c_custkey"],
                    "c_name": b["c_name"],
                    "n_name": pa.array(
                        [nname[k] for k in pc.cast(
                            b["c_nationkey"], pa.int64()).to_pylist()],
                        pa.string(),
                    ),
                    "revenue_micro": b["revenue_micro"],
                }
            ),
            batch_format="pyarrow",
        )

    return out.sort(
        ["revenue_micro", "c_custkey"], descending=[True, False]
    ).limit(20)


QUERIES["q10_returned_items"] = q10_returned_items

ORACLE_SQL["q10_returned_items"] = """
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
       ) AS BIGINT) AS revenue_micro
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate < TIMESTAMP '1996-04-01'
  AND l.l_returnflag = 'R'
GROUP BY c.c_custkey, c.c_name, n.n_name
ORDER BY revenue_micro DESC, c.c_custkey
LIMIT 20
"""


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13-shaped customer order-count distribution: how many
    customers placed exactly k orders, INCLUDING the zero bucket that a
    plain inner join would silently drop.

    Scale shape: per-customer order counts are a per-batch partial
    count combiner followed by ONE groupby-sum keyed on o_custkey (the
    only shuffle that touches fact-table volume); the count-of-counts
    second aggregation runs over at most #customers rows, and the zero
    bucket is computed from two driver scalars (total customers minus
    customers seen in orders) instead of materializing a LEFT-join of
    the full customer table against orders.  Customer-key membership
    semi-joins through the byte-budgeted broadcast with a distributed
    join fallback."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    ctab, cmat = plan.small_side("q13_customer_distribution", cust)
    n_customers = cmat.count()

    orders = _read(sf_dir, "orders", columns=["o_custkey"])

    def count_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"c_custkey": pc.cast(b["o_custkey"], pa.int64())})
        out = (
            t.group_by(["c_custkey"], use_threads=False)
            .aggregate([("c_custkey", "count")])
        )
        return pa.table(
            {"c_custkey": out["c_custkey"],
             "n": pc.cast(out["c_custkey_count"], pa.int64())}
        )

    per_cust = orders.map_batches(
        count_partial, batch_format="pyarrow"
    ).groupby("c_custkey").aggregate(Sum("n", alias_name="c_count"))

    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        per_cust = per_cust.map_batches(
            lambda b: b.filter(pc.is_in(b["c_custkey"], value_set=ckeys)),
            batch_format="pyarrow",
        )
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        nparts = plan.join_partitions()
        per_cust = normalize_join_blocks(per_cust, nparts).join(
            normalize_join_blocks(cmat, nparts),
            join_type="inner", num_partitions=nparts,
            on=("c_custkey",), right_on=("c_custkey",),
        ).select_columns(["c_custkey", "c_count"])

    per_cust = per_cust.materialize()
    n_with_orders = per_cust.count()
    hist = per_cust.groupby("c_count").aggregate(
        Count(alias_name="custdist")
    ).map_batches(
        lambda b: pa.table(
            {"c_count": pc.cast(b["c_count"], pa.int64()),
             "custdist": pc.cast(b["custdist"], pa.int64())}
        ),
        batch_format="pyarrow",
    )
    n_zero = n_customers - n_with_orders
    if n_zero > 0:
        zero = rd.from_arrow(
            pa.table(
                {"c_count": pa.array([0], pa.int64()),
                 "custdist": pa.array([n_zero], pa.int64())}
            )
        )
        hist = hist.union(zero)
    return hist


QUERIES["q13_customer_distribution"] = q13_customer_distribution

ORACLE_SQL["q13_customer_distribution"] = """
SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey, CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
  FROM customer c
  LEFT JOIN orders o ON o.o_custkey = c.c_custkey
  GROUP BY c.c_custkey
)
GROUP BY c_count
"""


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14-shaped promotion effect: revenue from PROMO-type parts
    vs total revenue for one shipping month, reported as the two exact
    integer micro-unit sums (numerator and denominator) instead of the
    lossy percentage -- the caller divides (the ratio is where
    float drift would break bit-exactness, so it stays out of the
    contract; same discipline as docs_dsir_weights' micro-nats).

    Scale shape: part (p_partkey -> is-promo bit) broadcasts under the
    byte budget with a distributed-join fallback; the lineitem scan
    reduces per batch to ONE two-column partial (promo, total), so the
    global finish aggregates #batches rows."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    lo = pa.scalar(_dt.datetime(1996, 6, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 7, 1), pa.timestamp("us"))

    part = _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    ptab, pmat = plan.small_side("q14_promo_revenue", part)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table, pkeys=None, promo=None) -> pa.Table:
        d = pc.cast(b["l_shipdate"], pa.timestamp("us"))
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        if pkeys is not None:
            idx = pc.index_in(b["l_partkey"], value_set=pkeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            is_promo = promo.take(
                pc.index_in(b["l_partkey"], value_set=pkeys)
            )
        else:
            is_promo = pc.equal(b["p_type"], "PROMO")
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        total = pc.sum(rev).as_py() or 0
        promo_rev = pc.sum(
            pc.if_else(is_promo, rev, pa.scalar(0, pa.int64()))
        ).as_py() or 0
        return pa.table(
            {"promo_micro": pa.array([promo_rev], pa.int64()),
             "total_micro": pa.array([total], pa.int64())}
        )

    fact = li
    pkeys = promo = None
    if ptab is not None:
        pkeys = ptab["p_partkey"].combine_chunks()
        promo = pc.equal(ptab["p_type"], "PROMO").combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(pmat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_partkey",), right_on=("p_partkey",),
        )
    partials = fact.map_batches(
        lambda b: partial(b, pkeys, promo), batch_format="pyarrow"
    )
    out = partials.aggregate(
        Sum("promo_micro", alias_name="promo_micro"),
        Sum("total_micro", alias_name="total_micro"),
    )
    return pa.table(
        {
            "promo_micro": pa.array([out["promo_micro"]], pa.int64()),
            "total_micro": pa.array([out["total_micro"]], pa.int64()),
        }
    )


QUERIES["q14_promo_revenue"] = q14_promo_revenue

ORACLE_SQL["q14_promo_revenue"] = """
SELECT
  CAST(SUM(CASE WHEN p.p_type = 'PROMO'
      THEN CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
      ELSE 0 END) AS BIGINT) AS promo_micro,
  CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
      * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
  ) AS BIGINT) AS total_micro
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE l.l_shipdate >= TIMESTAMP '1996-06-01'
  AND l.l_shipdate < TIMESTAMP '1996-07-01'
"""


def q7_volume_shipping(sf_dir: str):
    """TPC-H Q7-shaped volume shipping, widened to the full inter-region
    trade matrix: revenue flowing supplier-region -> customer-region
    (all ordered pairs of DISTINCT regions) by ship year over a
    two-year window.

    Scale shape: nation x region collapse to O(25)-entry driver maps;
    supplier and customer reduce to (key -> region code) sides through
    the byte-budgeted broadcast-or-join helper, orders slims to
    (orderkey, cust region), and the lineitem scan attaches both
    regions with vectorized ``index_in`` lookups, keeps cross-region
    flows, and emits per-batch integer micro revenue partials grouped
    by (supp region, cust region, year) -- at most R*(R-1)*years rows
    per batch cross the final tiny groupby."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1998, 1, 1), pa.timestamp("us"))

    region = _mat_table(_read(sf_dir, "region"))
    rname = dict(
        zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist())
    )
    nation = _mat_table(_read(sf_dir, "nation"))
    nat2reg = dict(
        zip(
            nation["n_nationkey"].to_pylist(),
            nation["n_regionkey"].to_pylist(),
        )
    )

    def to_region(nk_col) -> pa.Array:
        return pa.array(
            [nat2reg[k] for k in nk_col.to_pylist()], pa.int64()
        )

    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    supp = supp.map_batches(
        lambda b: pa.table(
            {"s_suppkey": b["s_suppkey"], "s_reg": to_region(b["s_nationkey"])}
        ),
        batch_format="pyarrow",
    )
    stab, smat = plan.small_side("q7_volume_shipping", supp)

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    cust = cust.map_batches(
        lambda b: pa.table(
            {"c_custkey": b["c_custkey"], "c_reg": to_region(b["c_nationkey"])}
        ),
        batch_format="pyarrow",
    )
    ctab, cmat = plan.small_side("q7_volume_shipping", cust)

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        creg = pc.cast(ctab["c_reg"], pa.int64()).combine_chunks()

        def slim(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["o_custkey"], value_set=ckeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            rg = creg.take(pc.index_in(b["o_custkey"], value_set=ckeys))
            return pa.table({"o_orderkey": b["o_orderkey"], "cust_reg": rg})

        orders_slim = orders.map_batches(slim, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        nparts = plan.join_partitions()
        orders_slim = normalize_join_blocks(orders, nparts).join(
            normalize_join_blocks(cmat, nparts),
            join_type="inner", num_partitions=nparts,
            on=("o_custkey",), right_on=("c_custkey",),
        ).map_batches(
            lambda b: pa.table(
                {"o_orderkey": b["o_orderkey"],
                 "cust_reg": pc.cast(b["c_reg"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    otab, omat = plan.small_side("q7_volume_shipping", orders_slim)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_shipdate",
                 "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table, okeys=None, oreg=None,
                skeys=None, sreg=None) -> pa.Table:
        d = pc.cast(b["l_shipdate"], pa.timestamp("us"))
        keep = pc.and_(pc.greater_equal(d, lo), pc.less(d, hi))
        b, d = b.filter(keep), d.filter(keep)
        if okeys is not None:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            hit = pc.is_valid(idx)
            b, d = b.filter(hit), d.filter(hit)
            cust_reg = oreg.take(
                pc.index_in(b["l_orderkey"], value_set=okeys)
            )
        else:
            cust_reg = pc.cast(b["cust_reg"], pa.int64())
        if skeys is not None:
            sidx = pc.index_in(b["l_suppkey"], value_set=skeys)
            hit = pc.is_valid(sidx)
            b, d, cust_reg = (
                b.filter(hit), d.filter(hit), cust_reg.filter(hit)
            )
            supp_reg = sreg.take(pc.index_in(b["l_suppkey"], value_set=skeys))
        else:
            supp_reg = pc.cast(b["s_reg"], pa.int64())
        cross = pc.not_equal(cust_reg, supp_reg)
        b, d = b.filter(cross), d.filter(cross)
        cust_reg, supp_reg = cust_reg.filter(cross), supp_reg.filter(cross)
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table(
            {
                "supp_reg": supp_reg,
                "cust_reg": cust_reg,
                "l_year": pc.cast(pc.year(d), pa.int64()),
                "rev": rev,
            }
        )
        return (
            t.group_by(["supp_reg", "cust_reg", "l_year"], use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["supp_reg", "cust_reg", "l_year", "rev"])
        )

    fact = li
    okeys = oreg = skeys = sreg = None
    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        oreg = pc.cast(otab["cust_reg"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        )
    if stab is not None:
        skeys = stab["s_suppkey"].combine_chunks()
        sreg = pc.cast(stab["s_reg"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(smat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_suppkey",), right_on=("s_suppkey",),
        )

    agg = fact.map_batches(
        lambda b: partial(b, okeys, oreg, skeys, sreg),
        batch_format="pyarrow",
    ).groupby(["supp_reg", "cust_reg", "l_year"]).aggregate(
        Sum("rev", alias_name="revenue_micro")
    )

    def attach(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "supp_region": pa.array(
                    [rname[k] for k in b["supp_reg"].to_pylist()],
                    pa.string(),
                ),
                "cust_region": pa.array(
                    [rname[k] for k in b["cust_reg"].to_pylist()],
                    pa.string(),
                ),
                "l_year": b["l_year"],
                "revenue_micro": b["revenue_micro"],
            }
        )

    return agg.map_batches(attach, batch_format="pyarrow")


QUERIES["q7_volume_shipping"] = q7_volume_shipping

ORACLE_SQL["q7_volume_shipping"] = """
SELECT sr.r_name AS supp_region, cr.r_name AS cust_region,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
       ) AS BIGINT) AS revenue_micro
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation sn ON sn.n_nationkey = s.s_nationkey
JOIN nation cn ON cn.n_nationkey = c.c_nationkey
JOIN region sr ON sr.r_regionkey = sn.n_regionkey
JOIN region cr ON cr.r_regionkey = cn.n_regionkey
WHERE sr.r_name <> cr.r_name
  AND l.l_shipdate >= TIMESTAMP '1996-01-01'
  AND l.l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY sr.r_name, cr.r_name, l_year
"""


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15-shaped top supplier: the supplier(s) with MAXIMUM
    revenue over one ship quarter -- ties all surface (the reason Q15
    is a view + scalar subquery, not an ORDER BY ... LIMIT 1).

    Scale shape: per-supplier revenue is a per-batch partial combiner
    then ONE groupby-sum keyed on l_suppkey; the global max is an
    ``Aggregate.Max`` over that (#suppliers-sized) result pulled as a
    driver scalar, and the winners filter + name attach run over the
    same small aggregate (supplier broadcast under budget with a join
    fallback)."""
    import datetime as _dt

    from ray.data.aggregate import Max, Sum

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1996, 4, 1), pa.timestamp("us"))

    li = _read(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table) -> pa.Table:
        d = pc.cast(b["l_shipdate"], pa.timestamp("us"))
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        t = pa.table({"s_suppkey": b["l_suppkey"], "rev": rev})
        return (
            t.group_by(["s_suppkey"], use_threads=False)
            .aggregate([("rev", "sum")])
            .rename_columns(["s_suppkey", "rev"])
        )

    per_supp = li.map_batches(partial, batch_format="pyarrow").groupby(
        "s_suppkey"
    ).aggregate(Sum("rev", alias_name="total_rev_micro")).materialize()

    best = per_supp.aggregate(Max("total_rev_micro", alias_name="best"))[
        "best"
    ]

    supp = _read(sf_dir, "supplier", columns=["s_suppkey", "s_name"])
    stab, smat = plan.small_side("q15_top_supplier", supp)

    winners = per_supp.map_batches(
        lambda b: b.filter(pc.equal(b["total_rev_micro"], best)),
        batch_format="pyarrow",
    )
    if stab is not None:
        skeys = stab["s_suppkey"].combine_chunks()
        snames = stab["s_name"].combine_chunks()

        def attach(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["s_suppkey"], value_set=skeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            idx = pc.index_in(b["s_suppkey"], value_set=skeys)
            return pa.table(
                {
                    "s_suppkey": b["s_suppkey"],
                    "s_name": snames.take(idx),
                    "total_rev_micro": b["total_rev_micro"],
                }
            )

        return winners.map_batches(attach, batch_format="pyarrow")
    # pragma: no cover - scale path
    from .ops.dedup import normalize_join_blocks

    return normalize_join_blocks(winners, plan.join_partitions()).join(
        normalize_join_blocks(smat, plan.join_partitions()),
        join_type="inner", num_partitions=plan.join_partitions(),
        on=("s_suppkey",), right_on=("s_suppkey",),
    ).select_columns(["s_suppkey", "s_name", "total_rev_micro"])


QUERIES["q15_top_supplier"] = q15_top_supplier

ORACLE_SQL["q15_top_supplier"] = """
WITH revenue AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
         ) AS BIGINT) AS total_rev_micro
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT s.s_suppkey, s.s_name, r.total_rev_micro
FROM supplier s
JOIN revenue r ON r.s_suppkey = s.s_suppkey
WHERE r.total_rev_micro = (SELECT MAX(total_rev_micro) FROM revenue)
"""


def q18_large_volume_customers(sf_dir: str):
    """TPC-H Q18-shaped large-volume customers: orders whose total
    lineitem quantity exceeds a threshold, with the ordering customer
    and the order's total price.

    Scale shape: the ONLY fact-volume shuffle is the per-orderkey
    quantity sum (per-batch partial combiner first); the surviving
    large-order key set is tiny by construction (the threshold is the
    filter), so it broadcasts into the orders scan as a vectorized
    ``is_in`` semi-join and the customer name attaches from the
    byte-budgeted broadcast with distributed-join fallbacks on both."""
    from ray.data.aggregate import Sum

    threshold = 300

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"o_orderkey": b["l_orderkey"],
             "q": sql_round_i64(b["l_quantity"])}
        )
        return (
            t.group_by(["o_orderkey"], use_threads=False)
            .aggregate([("q", "sum")])
            .rename_columns(["o_orderkey", "q"])
        )

    big = li.map_batches(qty_partial, batch_format="pyarrow").groupby(
        "o_orderkey"
    ).aggregate(Sum("q", alias_name="sum_qty")).map_batches(
        lambda b: b.filter(pc.greater(b["sum_qty"], threshold)),
        batch_format="pyarrow",
    )
    btab, bmat = plan.small_side("q18_large_volume_customers", big)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    if btab is not None:
        bkeys = btab["o_orderkey"].combine_chunks()
        bqty = pc.cast(btab["sum_qty"], pa.int64()).combine_chunks()

        def slim(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["o_orderkey"], value_set=bkeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            q = bqty.take(pc.index_in(b["o_orderkey"], value_set=bkeys))
            return pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "c_custkey": b["o_custkey"],
                    "o_totalprice_cents": sql_round_i64(
                        b["o_totalprice"], 100.0
                    ),
                    "sum_qty": q,
                }
            )

        hits = orders.map_batches(slim, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        hits = normalize_join_blocks(orders, plan.join_partitions()).join(
            normalize_join_blocks(bmat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("o_orderkey",), right_on=("o_orderkey",),
        ).map_batches(
            lambda b: pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "c_custkey": b["o_custkey"],
                    "o_totalprice_cents": sql_round_i64(
                        b["o_totalprice"], 100.0
                    ),
                    "sum_qty": pc.cast(b["sum_qty"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    ctab, cmat = plan.small_side("q18_large_volume_customers", cust)
    if ctab is not None:
        ckeys = ctab["c_custkey"].combine_chunks()
        cnames = ctab["c_name"].combine_chunks()

        def attach(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["c_custkey"], value_set=ckeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            idx = pc.index_in(b["c_custkey"], value_set=ckeys)
            return b.append_column("c_name", cnames.take(idx))

        return hits.map_batches(attach, batch_format="pyarrow")
    # pragma: no cover - scale path
    from .ops.dedup import normalize_join_blocks

    return normalize_join_blocks(hits, plan.join_partitions()).join(
        normalize_join_blocks(cmat, plan.join_partitions()),
        join_type="inner", num_partitions=plan.join_partitions(),
        on=("c_custkey",), right_on=("c_custkey",),
    ).select_columns(
        ["o_orderkey", "c_custkey", "o_totalprice_cents", "sum_qty",
         "c_name"]
    )


QUERIES["q18_large_volume_customers"] = q18_large_volume_customers

ORACLE_SQL["q18_large_volume_customers"] = """
WITH big AS (
  SELECT l_orderkey, CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
         AS sum_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > 300
)
SELECT o.o_orderkey, o.o_custkey AS c_custkey,
       CAST(ROUND(o.o_totalprice * 100) AS BIGINT) AS o_totalprice_cents,
       b.sum_qty, c.c_name
FROM big b
JOIN orders o ON o.o_orderkey = b.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
"""


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19-shaped disjunctive predicate revenue: three OR'd
    (brand, size-range, quantity-range) clause groups over
    lineitem x part, one scalar revenue out.

    Scale shape: part reduces to three broadcast-side columns (key,
    brand code, size) under the byte budget; the lineitem scan
    evaluates the whole disjunction as vectorized boolean algebra
    (no row loop, no post-join filter pass) and each batch emits ONE
    partial-sum row."""
    from ray.data.aggregate import Sum

    clauses = (
        ("Brand#11", 1, 10, 1, 11),
        ("Brand#16", 1, 15, 10, 20),
        ("Brand#21", 1, 20, 20, 30),
    )

    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand", "p_size"])
    ptab, pmat = plan.small_side("q19_disjunctive_revenue", part)

    li = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(b: pa.Table, pkeys=None, pbrand=None, psize=None) -> pa.Table:
        if pkeys is not None:
            idx = pc.index_in(b["l_partkey"], value_set=pkeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            idx = pc.index_in(b["l_partkey"], value_set=pkeys)
            brand, size = pbrand.take(idx), psize.take(idx)
        else:
            brand = b["p_brand"]
            size = pc.cast(b["p_size"], pa.int64())
        qty = sql_round_i64(b["l_quantity"])
        keep = None
        for br, slo, shi, qlo, qhi in clauses:
            m = pc.and_(
                pc.equal(brand, br),
                pc.and_(
                    pc.and_(pc.greater_equal(size, slo),
                            pc.less_equal(size, shi)),
                    pc.and_(pc.greater_equal(qty, qlo),
                            pc.less_equal(qty, qhi)),
                ),
            )
            keep = m if keep is None else pc.or_(keep, m)
        b = b.filter(keep)
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.sum(
            pc.multiply(cents,
                        pc.subtract(pa.scalar(100, pa.int64()), disc))
        ).as_py() or 0
        return pa.table({"revenue_micro": pa.array([rev], pa.int64())})

    fact = li
    pkeys = pbrand = psize = None
    if ptab is not None:
        pkeys = ptab["p_partkey"].combine_chunks()
        pbrand = ptab["p_brand"].combine_chunks()
        psize = pc.cast(ptab["p_size"], pa.int64()).combine_chunks()
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(fact, plan.join_partitions()).join(
            normalize_join_blocks(pmat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_partkey",), right_on=("p_partkey",),
        )
    out = fact.map_batches(
        lambda b: partial(b, pkeys, pbrand, psize), batch_format="pyarrow"
    ).aggregate(Sum("revenue_micro", alias_name="revenue_micro"))
    return pa.table(
        {"revenue_micro": pa.array([out["revenue_micro"]], pa.int64())}
    )


QUERIES["q19_disjunctive_revenue"] = q19_disjunctive_revenue

ORACLE_SQL["q19_disjunctive_revenue"] = """
SELECT CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
    * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
) AS BIGINT) AS revenue_micro
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE
  (p.p_brand = 'Brand#11' AND p.p_size BETWEEN 1 AND 10
   AND CAST(ROUND(l.l_quantity) AS BIGINT) BETWEEN 1 AND 11)
  OR
  (p.p_brand = 'Brand#16' AND p.p_size BETWEEN 1 AND 15
   AND CAST(ROUND(l.l_quantity) AS BIGINT) BETWEEN 10 AND 20)
  OR
  (p.p_brand = 'Brand#21' AND p.p_size BETWEEN 1 AND 20
   AND CAST(ROUND(l.l_quantity) AS BIGINT) BETWEEN 20 AND 30)
"""


def q22_idle_balance(sf_dir: str):
    """TPC-H Q22-shaped global sales opportunity: customers whose
    account balance beats the average POSITIVE balance and who placed
    no RECENT orders (none on/after 2000-01-01 -- every synthetic
    customer has at least one lifetime order, so the classic
    no-orders-ever predicate selects nothing at any scale), bucketed by a derived country code (here c_custkey % 10
    -- the synthetic schema has no phone column), reporting customer
    count and total balance per bucket.

    The above-average comparison is EXACT: balances quantize to integer
    cents and ``bal * n_pos > sum_pos`` cross-multiplies instead of
    dividing (the docs_gopher_filter discipline), so no float average
    ever exists to drift.  Scale shape: (n_pos, sum_pos) is one
    driver-scalar aggregate pass; the no-orders test reuses
    ``anti_join_filter`` -- distinct order custkeys broadcast under the
    byte budget, distributed left-outer anti-join above it; the final
    per-bucket rollup aggregates <= 10 groups."""
    from ray.data.aggregate import Count, Sum

    from .ops.dedup import anti_join_filter

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])
    cents = cust.map_batches(
        lambda b: pa.table(
            {"c_custkey": b["c_custkey"],
             "bal_cents": sql_round_i64(b["c_acctbal"], 100.0)}
        ),
        batch_format="pyarrow",
    )
    pos = cents.map_batches(
        lambda b: b.filter(pc.greater(b["bal_cents"], 0)),
        batch_format="pyarrow",
    ).aggregate(Count(alias_name="n"), Sum("bal_cents", alias_name="s"))
    n_pos, sum_pos = int(pos["n"]), int(pos["s"])

    rich = cents.map_batches(
        lambda b: b.filter(
            pc.greater(pc.multiply(b["bal_cents"], n_pos), sum_pos)
        ),
        batch_format="pyarrow",
    )

    import datetime as _dt

    cutoff = pa.scalar(_dt.datetime(2000, 1, 1), pa.timestamp("us"))
    order_custs = _read(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate"]
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": pc.unique(
                    b.filter(
                        pc.greater_equal(
                            pc.cast(b["o_orderdate"], pa.timestamp("us")),
                            cutoff,
                        )
                    )["o_custkey"]
                )
            }
        ),
        batch_format="pyarrow",
    )
    idle = anti_join_filter(rich, order_custs, "c_custkey")

    return idle.map_batches(
        lambda b: pa.table(
            {
                "cntrycode": pc.subtract(
                    b["c_custkey"],
                    pc.multiply(pc.divide(b["c_custkey"], 10),
                                pa.scalar(10, pa.int64())),
                ),
                "bal_cents": b["bal_cents"],
            }
        ),
        batch_format="pyarrow",
    ).groupby("cntrycode").aggregate(
        Count(alias_name="numcust"),
        Sum("bal_cents", alias_name="totacctbal_cents"),
    ).map_batches(
        lambda b: pa.table(
            {
                "cntrycode": pc.cast(b["cntrycode"], pa.int64()),
                "numcust": pc.cast(b["numcust"], pa.int64()),
                "totacctbal_cents": pc.cast(
                    b["totacctbal_cents"], pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES["q22_idle_balance"] = q22_idle_balance

ORACLE_SQL["q22_idle_balance"] = """
WITH cents AS (
  SELECT c_custkey, CAST(ROUND(c_acctbal * 100) AS BIGINT) AS bal_cents
  FROM customer
), pos AS (
  SELECT COUNT(*)::BIGINT AS n, CAST(SUM(bal_cents) AS BIGINT) AS s
  FROM cents WHERE bal_cents > 0
)
SELECT c.c_custkey % 10 AS cntrycode,
       CAST(COUNT(*) AS BIGINT) AS numcust,
       CAST(SUM(c.bal_cents) AS BIGINT) AS totacctbal_cents
FROM cents c, pos
WHERE c.bal_cents * pos.n > pos.s
  AND NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey
      AND o.o_orderdate >= TIMESTAMP '2000-01-01'
  )
GROUP BY cntrycode
"""


def embeddings_gram_matrix(sf_dir: str):
    """Exact integer Gram (second-moment) matrix over the embeddings
    table (ops/ann.py embedding_gram) -- the distributed statistics
    pass feeding PCA / whitening, d*(d+1)/2 int64 rows out, vectors
    never leave their tasks."""
    from .ops.ann import embedding_gram

    return embedding_gram(_read(sf_dir, "embeddings"))


QUERIES["embeddings_gram_matrix"] = embeddings_gram_matrix

ORACLE_SQL["embeddings_gram_matrix"] = """
WITH q AS (
  SELECT vec_id,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS i,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000) AS BIGINT) AS v
  FROM embeddings
)
SELECT a.i AS i, b.i AS j, CAST(SUM(a.v * b.v) AS BIGINT) AS g
FROM q a JOIN q b ON a.vec_id = b.vec_id AND b.i >= a.i
GROUP BY a.i, b.i
"""


def events_locf_hourly(sf_dir: str):
    """Dense hourly per-user grid with last-observation-carried-forward
    (ops/windows.py locf_gapfill): each user's span of hours between
    their first and last event, carrying the hour's closing value (max
    (ts, event_id) within the hour) across gap hours -- time-series
    densification as one bucket shuffle + numpy index algebra."""
    from .ops.windows import locf_gapfill

    return locf_gapfill(_read(sf_dir, "events"))


QUERIES["events_locf_hourly"] = events_locf_hourly

ORACLE_SQL["events_locf_hourly"] = """
WITH per AS (
  SELECT user_id,
         CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS h,
         CAST(ROUND(value * 100) AS BIGINT) AS vc,
         ROW_NUMBER() OVER (
           PARTITION BY user_id, epoch_us(ts) // 3600000000
           ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
), hourly AS (
  SELECT user_id, h, vc FROM per WHERE rn = 1
), bounds AS (
  SELECT user_id, MIN(h) AS lo, MAX(h) AS hi FROM hourly GROUP BY user_id
), grid AS (
  SELECT user_id, UNNEST(generate_series(lo, hi)) AS h FROM bounds
)
SELECT g.user_id, g.h AS hour,
       LAST_VALUE(o.vc IGNORE NULLS) OVER (
         PARTITION BY g.user_id ORDER BY g.h
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ) AS value_cents
FROM grid g LEFT JOIN hourly o ON o.user_id = g.user_id AND o.h = g.h
"""


def dedup_cluster_sizes(sf_dir: str):
    """Near-dup observability: the histogram of MinHash-LSH duplicate
    CLUSTER sizes over the perturbed-augmented corpus -- (cluster_size,
    n_clusters), the first diagnostic a 100-TB dedup run reads (one
    mega-cluster = boilerplate eating the corpus; all-2-clusters =
    mirrors).  Pairs -> connected components (converged one-task solve
    under the broadcast budget, distributed hashmin rounds above it,
    corpus-flagship shape) -> per-root counts -> count-of-counts.

    Both aggregations run over pair/cluster-scale data (orders smaller
    than the corpus); document text never moves past the LSH stage."""
    from ray.data.aggregate import Count

    from .ops.dedup import minhash_lsh_pairs
    from .stages.canonicalize import (
        connected_components,
        connected_components_local,
    )

    pairs = minhash_lsh_pairs(_augmented_docs(sf_dir, perturb=True),
                              threshold=0.7)
    edges = pairs.map_batches(
        lambda b: pa.table({"subj": b["a"], "obj": b["b"]}),
        batch_format="pyarrow",
    )
    comp = connected_components_local(edges)
    if comp is None:  # pragma: no cover - scale path
        comp = connected_components(edges, rounds=4)
    sizes = comp.groupby("root").aggregate(Count(alias_name="cluster_size"))
    return sizes.groupby("cluster_size").aggregate(
        Count(alias_name="n_clusters")
    ).map_batches(
        lambda b: pa.table(
            {
                "cluster_size": pc.cast(b["cluster_size"], pa.int64()),
                "n_clusters": pc.cast(b["n_clusters"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES["dedup_cluster_sizes"] = dedup_cluster_sizes

ORACLE_SQL["dedup_cluster_sizes"] = _MINHASH_CTES.replace(
    "WITH aug", "WITH RECURSIVE aug", 1
) + """,
pairs AS (
  SELECT a, b FROM est WHERE ej >= 0.7
), und AS (
  SELECT a AS x, b AS y FROM pairs UNION SELECT b, a FROM pairs
), nodes AS (
  SELECT DISTINCT x AS node FROM und
), reach(node, r) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.node
), roots AS (
  SELECT node, MIN(r) AS root FROM reach GROUP BY node
), sizes AS (
  SELECT root, COUNT(*)::BIGINT AS cluster_size FROM roots GROUP BY root
)
SELECT cluster_size, COUNT(*)::BIGINT AS n_clusters
FROM sizes GROUP BY cluster_size
"""


def ann_recall_eval(sf_dir: str):
    """ANN quality gate: recall@10 of the IVF index (nprobe=2) against
    exact brute-force cosine top-10, per query -- the evaluation loop a
    production similarity-search deployment runs before trusting an
    approximate index at scale.

    Both sides are existing contract operators (ann_brute_topk /
    ann_ivf_topk) whose outputs are k x Q rows -- legitimately tiny, so
    the set intersection runs on the driver (the distributed work IS the
    two top-k computations)."""
    exact = ann_brute_topk(sf_dir).to_pandas()
    approx = ann_ivf_topk(sf_dir).to_pandas()
    want = exact.groupby("qid")["vec_id"].apply(set)
    got = approx.groupby("qid")["vec_id"].apply(set)
    qids = sorted(want.index)
    hits = [len(want[q] & got.get(q, set())) for q in qids]
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "hits": pa.array(hits, pa.int64()),
            "recall": pa.array([h / 10.0 for h in hits], pa.float64()),
        }
    )


QUERIES["ann_recall_eval"] = ann_recall_eval

ORACLE_SQL["ann_recall_eval"] = """
WITH qv AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v,
    list_transform(CAST(embedding AS DOUBLE[]),
                   x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS q
  FROM embeddings
), cent AS (
  SELECT vec_id AS cid, q AS cq FROM qv WHERE vec_id < 16
), dist AS (
  SELECT qv.vec_id, cent.cid,
    list_aggregate(list_transform(generate_series(1, 64),
      d -> (qv.q[d] - cent.cq[d]) * (qv.q[d] - cent.cq[d])), 'sum') AS d2
  FROM qv CROSS JOIN cent
), assign AS (
  SELECT vec_id, cid FROM dist
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
), qprobe AS (
  SELECT vec_id AS qid, cid FROM dist WHERE vec_id < 8
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) <= 2
), cand AS (
  SELECT qp.qid, a.vec_id FROM qprobe qp JOIN assign a ON a.cid = qp.cid
), ivf AS (
  SELECT c.qid, c.vec_id
  FROM cand c
  JOIN qv e ON e.vec_id = c.vec_id
  JOIN qv qe ON qe.vec_id = c.qid
  QUALIFY row_number() OVER (
    PARTITION BY c.qid
    ORDER BY ROUND(list_cosine_similarity(e.v, qe.v), 4) DESC,
             c.vec_id ASC) <= 10
), exact AS (
  SELECT qq.vec_id AS qid, e.vec_id
  FROM qv e CROSS JOIN (SELECT vec_id, v FROM qv WHERE vec_id < 8) qq
  QUALIFY row_number() OVER (
    PARTITION BY qq.vec_id
    ORDER BY list_cosine_similarity(e.v, qq.v) DESC, e.vec_id ASC) <= 10
)
SELECT x.qid, CAST(COUNT(i.vec_id) AS BIGINT) AS hits,
       CAST(COUNT(i.vec_id) AS DOUBLE) / 10.0 AS recall
FROM exact x
LEFT JOIN ivf i ON i.qid = x.qid AND i.vec_id = x.vec_id
GROUP BY x.qid
"""


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21-shaped suppliers-who-kept-orders-waiting, adapted to
    the available columns: within finished ('F') orders, find suppliers
    whose lineitem shipped >100 days after the order date while EVERY
    other supplier on the same (multi-supplier) order shipped on time
    -- the classic EXISTS + NOT-EXISTS double correlated subquery
    (reference analog: the MINUS anti-join family, J2/J5,
    batch_harvest.rb:108-129).

    Scale shape: no EXISTS evaluation anywhere -- the two correlated
    subqueries collapse into ONE (orderkey, suppkey) groupby with a
    per-batch combiner, then an order-level aggregate where
    ``sum(late * suppkey)`` recovers the sole late supplier's key
    without carrying per-supplier rows (valid exactly when
    ``sum(late) == 1``, which is the filter).  Orders broadcast under
    the byte budget with a hash-join fallback; the final numwait count
    crosses the exchange as per-batch partials."""
    from ray.data.aggregate import Count, Max, Sum

    late_us = np.int64(100 * 86_400_000_000)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate", "o_orderstatus"])
    orders = orders.map_batches(
        lambda b: pa.table(
            {"o_orderkey": b["o_orderkey"],
             "o_us": pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")),
                             pa.int64())}
        ).filter(pc.equal(b["o_orderstatus"], "F")),
        batch_format="pyarrow",
    )
    otab, omat = plan.small_side("q21_waiting_suppliers", orders)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate"])

    def partial(b: pa.Table, okeys=None, ous=None) -> pa.Table:
        ship = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")),
                       pa.int64())
        if okeys is not None:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            hit = pc.is_valid(idx)
            b, ship = b.filter(hit), ship.filter(hit)
            ous_row = ous.take(pc.index_in(b["l_orderkey"], value_set=okeys))
        else:
            ous_row = b["o_us"]
        late = pc.cast(
            pc.greater(ship, pc.add(ous_row, pa.scalar(late_us, pa.int64()))),
            pa.int64(),
        )
        t = pa.table(
            {"l_orderkey": b["l_orderkey"], "l_suppkey": b["l_suppkey"],
             "late": late}
        )
        return (
            t.group_by(["l_orderkey", "l_suppkey"], use_threads=False)
            .aggregate([("late", "max")])
            .rename_columns(["l_orderkey", "l_suppkey", "late"])
        )

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        ous = pc.cast(otab["o_us"], pa.int64()).combine_chunks()
        fact = li.map_batches(
            lambda b: partial(b, okeys, ous), batch_format="pyarrow"
        )
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(partial, batch_format="pyarrow")

    per_supp = fact.groupby(["l_orderkey", "l_suppkey"]).aggregate(
        Max("late", alias_name="late")
    )

    def order_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": b["l_orderkey"],
                "one": pa.array(np.ones(b.num_rows, np.int64)),
                "late": pc.cast(b["late"], pa.int64()),
                "late_skey": pc.multiply(pc.cast(b["late"], pa.int64()),
                                         b["l_suppkey"]),
            }
        )
        return (
            t.group_by(["l_orderkey"], use_threads=False)
            .aggregate([("one", "sum"), ("late", "sum"), ("late_skey", "sum")])
            .rename_columns(["l_orderkey", "ns", "nl", "lsk"])
        )

    st = per_supp.map_batches(order_partial, batch_format="pyarrow").groupby(
        "l_orderkey"
    ).aggregate(
        Sum("ns", alias_name="ns"), Sum("nl", alias_name="nl"),
        Sum("lsk", alias_name="lsk"),
    )

    waits = st.map_batches(
        lambda b: pa.table(
            {"s_suppkey": b["lsk"].filter(
                pc.and_(pc.equal(b["nl"], 1), pc.greater(b["ns"], 1))
            )}
        ),
        batch_format="pyarrow",
    ).groupby("s_suppkey").aggregate(Count(alias_name="numwait"))

    supp = _mat_table(_read(sf_dir, "supplier",
                            columns=["s_suppkey", "s_name"]))
    sname = dict(zip(supp["s_suppkey"].to_pylist(),
                     supp["s_name"].to_pylist()))

    def attach(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "s_name": pa.array(
                    [sname[k] for k in b["s_suppkey"].to_pylist()],
                    pa.string(),
                ),
                "numwait": pc.cast(b["numwait"], pa.int64()),
            }
        )
        return (
            t.group_by(["s_name"], use_threads=False)
            .aggregate([("numwait", "sum")])
            .rename_columns(["s_name", "numwait"])
        )

    return waits.map_batches(attach, batch_format="pyarrow")


QUERIES["q21_waiting_suppliers"] = q21_waiting_suppliers

ORACLE_SQL["q21_waiting_suppliers"] = """
WITH ls AS (
  SELECT l_orderkey AS okey, l_suppkey AS skey,
         MAX(CASE WHEN l_shipdate > o_orderdate + INTERVAL 100 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE o_orderstatus = 'F'
  GROUP BY 1, 2
), st AS (
  SELECT okey, COUNT(*) AS ns, SUM(late) AS nl, SUM(late * skey) AS lsk
  FROM ls GROUP BY okey
)
SELECT s.s_name, CAST(COUNT(*) AS BIGINT) AS numwait
FROM st JOIN supplier s ON s.s_suppkey = st.lsk
WHERE st.nl = 1 AND st.ns > 1
GROUP BY s.s_name
"""


def q8_market_share(sf_dir: str):
    """TPC-H Q8-shaped national market share: NATION_12's share of
    ASIA-region customers' revenue on PROMO parts per order year
    (1996-1997).  The two-role nation join (supplier nation in the
    numerator, customer nation restricting the region) is the Q8
    signature.

    Scale shape: part keys, region membership, and the supplier ->
    target-nation flag are O(dimension) driver maps; orders slim to
    (orderkey, year) through the byte-budgeted broadcast (join
    fallback); the lineitem scan emits per-batch integer-micro
    (numerator, denominator) partials keyed by year -- 2 rows per batch
    cross the final groupby.  The share itself is ONE float division
    on exact int64 sums, bit-replayed in the oracle."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    lo = pa.scalar(_dt.datetime(1996, 1, 1), pa.timestamp("us"))
    hi = pa.scalar(_dt.datetime(1998, 1, 1), pa.timestamp("us"))

    nation = _mat_table(_read(sf_dir, "nation"))
    nat2reg = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_regionkey"].to_pylist()))
    region = _mat_table(_read(sf_dir, "region"))
    asia = next(k for k, v in zip(region["r_regionkey"].to_pylist(),
                                  region["r_name"].to_pylist())
                if v == "ASIA")
    target = next(k for k, v in zip(nation["n_nationkey"].to_pylist(),
                                    nation["n_name"].to_pylist())
                  if v == "NATION_12")

    part = _mat_table(
        _read(sf_dir, "part", columns=["p_partkey", "p_type"])
    )
    pkeys = pa.array(
        [k for k, t in zip(part["p_partkey"].to_pylist(),
                           part["p_type"].to_pylist()) if t == "PROMO"],
        pa.int64(),
    )

    cust = _mat_table(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    )
    asia_cust = pa.array(
        [k for k, nk in zip(cust["c_custkey"].to_pylist(),
                            cust["c_nationkey"].to_pylist())
         if nat2reg[nk] == asia],
        pa.int64(),
    )

    supp = _mat_table(
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    )
    skeys = pc.cast(supp["s_suppkey"], pa.int64()).combine_chunks()
    sflag = pa.array(
        [1 if nk == target else 0 for nk in supp["s_nationkey"].to_pylist()],
        pa.int64(),
    )

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def slim(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.timestamp("us"))
        keep = pc.and_(
            pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)),
            pc.is_in(b["o_custkey"], value_set=asia_cust),
        )
        b, d = b.filter(keep), d.filter(keep)
        return pa.table(
            {"o_orderkey": b["o_orderkey"],
             "o_year": pc.cast(pc.year(d), pa.int64())}
        )

    otab, omat = plan.small_side(
        "q8_market_share", orders.map_batches(slim, batch_format="pyarrow")
    )

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])

    def partial(b: pa.Table, okeys=None, oyr=None) -> pa.Table:
        b = b.filter(pc.is_in(b["l_partkey"], value_set=pkeys))
        if okeys is not None:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            hit = pc.is_valid(idx)
            b = b.filter(hit)
            yr = oyr.take(pc.index_in(b["l_orderkey"], value_set=okeys))
        else:
            yr = pc.cast(b["o_year"], pa.int64())
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        disc = sql_round_i64(b["l_discount"], 100.0)
        rev = pc.multiply(cents,
                          pc.subtract(pa.scalar(100, pa.int64()), disc))
        flag = sflag.take(pc.index_in(b["l_suppkey"], value_set=skeys))
        t = pa.table(
            {"o_year": yr, "den": rev, "num": pc.multiply(rev, flag)}
        )
        return (
            t.group_by(["o_year"], use_threads=False)
            .aggregate([("den", "sum"), ("num", "sum")])
            .rename_columns(["o_year", "den", "num"])
        )

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        oyr = pc.cast(otab["o_year"], pa.int64()).combine_chunks()
        fact = li.map_batches(
            lambda b: partial(b, okeys, oyr), batch_format="pyarrow"
        )
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(partial, batch_format="pyarrow")

    agg = fact.groupby("o_year").aggregate(
        Sum("num", alias_name="share_num_micro"),
        Sum("den", alias_name="share_den_micro"),
    )

    return agg.map_batches(
        lambda b: pa.table(
            {
                "o_year": b["o_year"],
                "share_num_micro": b["share_num_micro"],
                "share_den_micro": b["share_den_micro"],
                "mkt_share": pc.divide(
                    pc.cast(b["share_num_micro"], pa.float64()),
                    pc.cast(b["share_den_micro"], pa.float64()),
                ),
            }
        ),
        batch_format="pyarrow",
    )


QUERIES["q8_market_share"] = q8_market_share

ORACLE_SQL["q8_market_share"] = """
WITH f AS (
  SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)) AS rev,
         CASE WHEN sn.n_name = 'NATION_12' THEN 1 ELSE 0 END AS flag
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation cn ON cn.n_nationkey = c.c_nationkey
  JOIN region cr ON cr.r_regionkey = cn.n_regionkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation sn ON sn.n_nationkey = s.s_nationkey
  JOIN part p ON p.p_partkey = l.l_partkey
  WHERE cr.r_name = 'ASIA' AND p.p_type = 'PROMO'
    AND o.o_orderdate >= TIMESTAMP '1996-01-01'
    AND o.o_orderdate < TIMESTAMP '1998-01-01'
)
SELECT o_year,
       CAST(SUM(rev * flag) AS BIGINT) AS share_num_micro,
       CAST(SUM(rev) AS BIGINT) AS share_den_micro,
       CAST(CAST(SUM(rev * flag) AS BIGINT) AS DOUBLE)
         / CAST(CAST(SUM(rev) AS BIGINT) AS DOUBLE) AS mkt_share
FROM f GROUP BY o_year
"""


def events_rollup_report(sf_dir: str):
    """OLAP ROLLUP over (event_type, hour-of-day): counts and exact
    integer-micro value sums at three levels -- finest, per-type, and
    grand total -- in ONE pass over events.

    Scale shape: the classic partial-aggregate-reuse cube trick.  Only
    the FINEST level (#types x 24 groups) is computed distributed
    (per-batch combiners, one tiny groupby); both supergroup levels are
    derived by re-aggregating that <=O(types*24)-row result on the
    driver -- additive measures roll up without touching the fact table
    again.  Sentinels ('ALL', -1) stand for the rolled-up levels so the
    hash compare never depends on NULL-ordering conventions."""
    from ray.data.aggregate import Sum

    hour_us = pa.scalar(np.int64(3_600_000_000), pa.int64())

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")), pa.int64())
        # pyarrow.compute has no mod kernel in this version; epoch us are
        # non-negative so numpy remainder matches SQL semantics exactly.
        hod = pa.array(
            (pc.divide(us, hour_us).to_numpy(zero_copy_only=False) % 24)
            .astype(np.int64)
        )
        t = pa.table(
            {
                "event_type": b["event_type"],
                "hod": hod,
                "n_events": pa.array(np.ones(b.num_rows, np.int64)),
                "value_micro": sql_round_i64(b["value"], 1e6),
            }
        )
        return (
            t.group_by(["event_type", "hod"], use_threads=False)
            .aggregate([("n_events", "sum"), ("value_micro", "sum")])
            .rename_columns(["event_type", "hod", "n_events", "value_micro"])
        )

    finest = _mat_table(
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hod"])
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("value_micro", alias_name="value_micro"))
    )

    per_type = (
        finest.group_by(["event_type"], use_threads=False)
        .aggregate([("n_events", "sum"), ("value_micro", "sum")])
        .rename_columns(["event_type", "n_events", "value_micro"])
    )
    n_all = pc.sum(finest["n_events"]).as_py()
    v_all = pc.sum(finest["value_micro"]).as_py()

    neg1 = pa.array(
        np.full(per_type.num_rows, -1, np.int64)
    )
    out = pa.concat_tables(
        [
            finest.select(["event_type", "hod", "n_events", "value_micro"]),
            pa.table(
                {
                    "event_type": per_type["event_type"],
                    "hod": pa.chunked_array([neg1]),
                    "n_events": per_type["n_events"],
                    "value_micro": per_type["value_micro"],
                }
            ),
            pa.table(
                {
                    "event_type": pa.array(["ALL"], pa.string()),
                    "hod": pa.array([-1], pa.int64()),
                    "n_events": pa.array([n_all], pa.int64()),
                    "value_micro": pa.array([v_all], pa.int64()),
                }
            ),
        ]
    )
    return out


QUERIES["events_rollup_report"] = events_rollup_report

ORACLE_SQL["events_rollup_report"] = """
WITH f AS (
  SELECT event_type,
         CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hod,
         CAST(ROUND(value * 1000000) AS BIGINT) AS vm
  FROM events
)
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(hod, -1) AS hod,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(vm) AS BIGINT) AS value_micro
FROM f
GROUP BY ROLLUP (event_type, hod)
"""


def embeddings_random_projection(sf_dir: str):
    """Johnson-Lindenstrauss random projection 64 -> 16 dims with a
    deterministic LCG-derived +/-1 matrix, in exact int64 arithmetic
    (embeddings quantized at 2^20 like the ANN oracles) -- the
    dimensionality-reduction front end a 100-TB embedding pipeline runs
    before sketching/bucketing.

    Scale shape: stateless vectorized map -- the 64x16 sign matrix is
    rebuilt from the LCG formula inside each task (microseconds, no
    broadcast needed) and each batch is ONE int64 GEMM; output is the
    long (vec_id, out_dim, proj_val) form, 16 rows per vector, no
    shuffle anywhere."""
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def project(b: pa.Table) -> pa.Table:
        emb = b["embedding"].combine_chunks()
        n = len(emb)
        dim = 64 if n == 0 else len(emb[0])
        x = np.asarray(emb.flatten().to_numpy(zero_copy_only=False),
                       np.float64).reshape(n, dim)
        q = np.floor(x * 1048576.0 + 0.5).astype(np.int64)
        idx = 64 * np.arange(16, dtype=np.int64)[None, :] \
            + np.arange(dim, dtype=np.int64)[:, None]
        sgn = np.where(
            ((1103515245 * idx + 12345) % 2147483648) // 65536 % 2 == 0,
            np.int64(1), np.int64(-1),
        )
        proj = q @ sgn  # (n, 16) exact int64
        vec_ids = np.asarray(b["vec_id"].to_numpy(zero_copy_only=False),
                             np.int64)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vec_ids, 16)),
                "out_dim": pa.array(
                    np.tile(np.arange(16, dtype=np.int64), n)
                ),
                "proj_val": pa.array(proj.reshape(-1)),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


QUERIES["embeddings_random_projection"] = embeddings_random_projection

ORACLE_SQL["embeddings_random_projection"] = """
WITH qv AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1048576 + 0.5) AS BIGINT)) AS q
  FROM embeddings
), s AS (
  SELECT d.d, o.o,
         CASE WHEN (((1103515245 * (64 * o.o + d.d) + 12345)
                     % 2147483648) // 65536) % 2 = 0
              THEN 1 ELSE -1 END AS sgn
  FROM (SELECT UNNEST(generate_series(0, 63)) AS d) d
  CROSS JOIN (SELECT UNNEST(generate_series(0, 15)) AS o) o
)
SELECT qv.vec_id, s.o AS out_dim,
       CAST(SUM(qv.q[s.d + 1] * s.sgn) AS BIGINT) AS proj_val
FROM qv CROSS JOIN s
GROUP BY qv.vec_id, s.o
"""


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6-shaped forecast-revenue: one filter + one global sum over
    lineitem (shipdate in 1996, discount 5-7%, quantity < 24), revenue =
    SUM(extendedprice * discount) in exact cents*pct integer units
    (reference analog: the single-pass counter aggregations, SURVEY
    SS2.6 A2/A3).

    Scale shape: the minimal streaming aggregate -- column-pruned read,
    per-batch predicate + one-row partial sums, O(#batches) rows to the
    driver, no shuffle at all.  This is the floor every other query's
    overhead is judged against."""
    lo = np.int64(pa.scalar(
        pa.scalar("1996-01-01").cast(pa.timestamp("us"))).cast(
            pa.int64()).as_py())
    hi = np.int64(pa.scalar(
        pa.scalar("1997-01-01").cast(pa.timestamp("us"))).cast(
            pa.int64()).as_py())

    li = _read(sf_dir, "lineitem",
               columns=["l_shipdate", "l_discount", "l_quantity",
                        "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")),
                     pa.int64())
        disc_pct = sql_round_i64(b["l_discount"], 100.0)
        qty = sql_round_i64(b["l_quantity"])
        keep = pc.and_(
            pc.and_(pc.greater_equal(us, pa.scalar(lo, pa.int64())),
                    pc.less(us, pa.scalar(hi, pa.int64()))),
            pc.and_(
                pc.and_(pc.greater_equal(disc_pct, pa.scalar(5, pa.int64())),
                        pc.less_equal(disc_pct, pa.scalar(7, pa.int64()))),
                pc.less(qty, pa.scalar(24, pa.int64())),
            ),
        )
        f = b.filter(keep)
        rev = pc.sum(pc.multiply(
            sql_round_i64(f["l_extendedprice"], 100.0),
            sql_round_i64(f["l_discount"], 100.0),
        )).as_py()
        return pa.table({"rc": pa.array([0 if rev is None else rev],
                                        pa.int64())})

    parts = _mat_table(li.map_batches(partial, batch_format="pyarrow"))
    total = int(pc.sum(parts["rc"]).as_py() or 0)
    return pa.table({"revenue_cents_pct": pa.array([total], pa.int64())})


QUERIES["q6_forecast_revenue"] = q6_forecast_revenue

ORACLE_SQL["q6_forecast_revenue"] = """
SELECT COALESCE(CAST(SUM(
         CAST(ROUND(l_extendedprice * 100) AS BIGINT)
         * CAST(ROUND(l_discount * 100) AS BIGINT)) AS BIGINT), 0)
       AS revenue_cents_pct
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND CAST(ROUND(l_quantity) AS BIGINT) < 24
"""


def q12_priority_by_delay(sf_dir: str):
    """TPC-H Q12-shaped priority split, adapted to the available columns
    (no l_shipmode/commitdate in this table): bucket 1997-shipped
    lineitems into FAST (shipped within 30 days of the order date) vs
    SLOW, and count high-priority (1-URGENT/2-HIGH) vs low-priority
    order lines per bucket -- the CASE-sum aggregation shape.

    Scale shape: the slim (o_orderkey, o_us, hi) order side broadcasts
    under the byte budget (hash-join fallback above it); lineitem
    streams once with per-batch (bucket, hi, lo) count partials -- four
    numbers per batch cross the wire ahead of one tiny groupby."""
    from ray.data.aggregate import Sum

    lo_96 = np.int64(pa.scalar(
        pa.scalar("1997-01-01").cast(pa.timestamp("us"))).cast(
            pa.int64()).as_py())
    hi_96 = np.int64(pa.scalar(
        pa.scalar("1998-01-01").cast(pa.timestamp("us"))).cast(
            pa.int64()).as_py())
    month_us = np.int64(30 * 86_400_000_000)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def slim(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_us": pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")),
                            pa.int64()),
            "hi": pc.cast(pc.is_in(
                b["o_orderpriority"],
                value_set=pa.array(["1-URGENT", "2-HIGH"])), pa.int64()),
        })

    otab, omat = plan.small_side(
        "q12_priority_by_delay",
        orders.map_batches(slim, batch_format="pyarrow"),
    )
    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")),
                       pa.int64())
        keep = pc.and_(pc.greater_equal(ship, pa.scalar(lo_96, pa.int64())),
                       pc.less(ship, pa.scalar(hi_96, pa.int64())))
        b, ship = b.filter(keep), ship.filter(keep)
        if "o_us" in b.column_names:  # join fallback path
            ous, hi = b["o_us"], b["hi"]
        else:
            idx = pc.index_in(b["l_orderkey"], value_set=okeys)
            ok = pc.is_valid(idx)
            b, ship, idx = b.filter(ok), ship.filter(ok), idx.filter(ok)
            ous, hi = o_us.take(idx), o_hi.take(idx)
        fast = pc.less_equal(
            pc.subtract(ship, ous),
            pa.scalar(month_us, pa.int64()),
        )
        hi64 = pc.cast(hi, pa.int64())
        t = pa.table({
            "bucket": pc.if_else(fast, pa.scalar("FAST"), pa.scalar("SLOW")),
            "hi_lines": hi64,
            "lo_lines": pc.subtract(pa.scalar(1, pa.int64()), hi64),
        })
        g = (t.group_by(["bucket"], use_threads=False)
             .aggregate([("hi_lines", "sum"), ("lo_lines", "sum")]))
        return g.rename_columns(["bucket", "hi_lines", "lo_lines"])

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        o_us = pc.cast(otab["o_us"], pa.int64()).combine_chunks()
        o_hi = pc.cast(otab["hi"], pa.int64()).combine_chunks()
        fact = li.map_batches(partial, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(partial, batch_format="pyarrow")

    return fact.groupby("bucket").aggregate(
        Sum("hi_lines", alias_name="hi_lines"),
        Sum("lo_lines", alias_name="lo_lines"),
    )


QUERIES["q12_priority_by_delay"] = q12_priority_by_delay

ORACLE_SQL["q12_priority_by_delay"] = """
SELECT CASE WHEN l.l_shipdate - o.o_orderdate
              <= INTERVAL '30 days' THEN 'FAST' ELSE 'SLOW' END AS bucket,
       CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS hi_lines,
       CAST(SUM(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS lo_lines
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1997-01-01'
  AND l.l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1
"""


def q11_important_parts(sf_dir: str):
    """TPC-H Q11-shaped important-stock scan, adapted to the available
    tables (no partsupp; lineitem is the part-supplier incidence):
    parts whose total extended-price value from EUROPE-region suppliers
    exceeds 1/1000 of that region's total -- the group-sum vs
    global-sum fraction filter.

    Scale shape: the supplier->region membership is dimension-sized and
    pins driver-side; lineitem streams ONCE into per-batch per-part
    cent partials -> one groupby-sum; the global total then derives
    from the per-part aggregate itself (no second pass) and the
    fraction test is the integer cross-multiply ``1000 * value >
    total`` -- no float division, no re-scan."""
    from ray.data.aggregate import Sum

    sup = _mat_table(_read(sf_dir, "supplier",
                           columns=["s_suppkey", "s_nationkey"]))
    nat = _mat_table(_read(sf_dir, "nation",
                           columns=["n_nationkey", "n_regionkey"]))
    reg = _mat_table(_read(sf_dir, "region",
                           columns=["r_regionkey", "r_name"]))
    rkey = reg.filter(pc.equal(reg["r_name"], "EUROPE"))["r_regionkey"]
    nkeys = nat.filter(pc.is_in(nat["n_regionkey"],
                                value_set=rkey.combine_chunks()))[
                                    "n_nationkey"]
    skeys = sup.filter(pc.is_in(sup["s_nationkey"],
                                value_set=nkeys.combine_chunks()))[
                                    "s_suppkey"].combine_chunks()

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b["l_suppkey"], value_set=skeys))
        t = pa.table({
            "p_partkey": b["l_partkey"],
            "value_cents": sql_round_i64(b["l_extendedprice"], 100.0),
        })
        g = (t.group_by(["p_partkey"], use_threads=False)
             .aggregate([("value_cents", "sum")]))
        return g.rename_columns(["p_partkey", "value_cents"])

    per_part = _mat_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("value_cents", alias_name="value_cents"))
    )
    total = int(pc.sum(per_part["value_cents"]).as_py() or 0)
    vals = pc.cast(per_part["value_cents"], pa.int64())
    keep = pc.greater(
        pc.multiply(vals, pa.scalar(1000, pa.int64())),
        pa.scalar(total, pa.int64()),
    )
    return per_part.filter(keep).select(["p_partkey", "value_cents"])


QUERIES["q11_important_parts"] = q11_important_parts

ORACLE_SQL["q11_important_parts"] = """
WITH v AS (
  SELECT l.l_partkey AS p_partkey,
         CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT))
              AS BIGINT) AS value_cents
  FROM lineitem l
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  WHERE r.r_name = 'EUROPE'
  GROUP BY l.l_partkey
)
SELECT p_partkey, value_cents FROM v
WHERE value_cents * 1000 > (SELECT CAST(SUM(value_cents) AS BIGINT) FROM v)
"""


def q9_product_profit(sf_dir: str):
    """TPC-H Q9-shaped product-profit report: for parts named like
    '%bolt%', profit by (supplier nation, order year), where profit =
    extendedprice*(1-discount) - retailprice*quantity in exact
    micro-dollar integers (cents x pct; no partsupp table in this
    corpus, so retailprice stands in for supplycost).

    Scale shape: part-key set and supplier->nation map are
    dimension-sized driver pins; the slim (o_orderkey, o_year) order
    side broadcasts under the byte budget with a hash-join fallback;
    lineitem streams ONCE into per-batch (nation, year) profit
    partials -- O(#nations x #years) rows per batch cross the wire
    ahead of one tiny groupby."""
    from ray.data.aggregate import Sum

    part = _mat_table(_read(sf_dir, "part",
                            columns=["p_partkey", "p_name",
                                     "p_retailprice"]))
    hit = pc.match_substring(part["p_name"], "bolt")
    part = part.filter(hit)
    pkeys = part["p_partkey"].combine_chunks()
    pretail = sql_round_i64(part["p_retailprice"], 100.0).combine_chunks()

    sup = _mat_table(_read(sf_dir, "supplier",
                           columns=["s_suppkey", "s_nationkey"]))
    nat = _mat_table(_read(sf_dir, "nation",
                           columns=["n_nationkey", "n_name"]))
    nidx = pc.index_in(sup["s_nationkey"], value_set=nat["n_nationkey"]
                       .combine_chunks())
    snation = pc.take(nat["n_name"].combine_chunks(), nidx).combine_chunks()
    skeys = sup["s_suppkey"].combine_chunks()

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda b: pa.table({
            "o_orderkey": b["o_orderkey"],
            "o_year": pc.cast(pc.year(pc.cast(b["o_orderdate"],
                                              pa.timestamp("us"))),
                              pa.int64()),
        }),
        batch_format="pyarrow",
    )
    otab, omat = plan.small_side("q9_product_profit", orders)

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_quantity", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        pidx = pc.index_in(b["l_partkey"], value_set=pkeys)
        keep = pc.is_valid(pidx)
        b, pidx = b.filter(keep), pidx.filter(keep)
        if "o_year" in b.column_names:  # join fallback carried the year
            oyear = b["o_year"]
        else:
            oidx = pc.index_in(b["l_orderkey"], value_set=okeys)
            ok = pc.is_valid(oidx)
            b, pidx, oidx = b.filter(ok), pidx.filter(ok), oidx.filter(ok)
            oyear = o_year.take(oidx)
        sidx = pc.index_in(b["l_suppkey"], value_set=skeys)
        nation = snation.take(sidx)
        retail = pretail.take(pidx)
        cents = sql_round_i64(b["l_extendedprice"], 100.0)
        pct = pc.subtract(pa.scalar(100, pa.int64()),
                          sql_round_i64(b["l_discount"], 100.0))
        qty = sql_round_i64(b["l_quantity"])
        profit = pc.subtract(
            pc.multiply(cents, pct),
            pc.multiply(pc.multiply(qty, retail),
                        pa.scalar(100, pa.int64())),
        )
        t = pa.table({"n_name": nation, "o_year": oyear,
                      "profit_micro": profit})
        g = (t.group_by(["n_name", "o_year"], use_threads=False)
             .aggregate([("profit_micro", "sum")]))
        return g.rename_columns(["n_name", "o_year", "profit_micro"])

    if otab is not None:
        okeys = otab["o_orderkey"].combine_chunks()
        o_year = pc.cast(otab["o_year"], pa.int64()).combine_chunks()
        fact = li.map_batches(partial, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        fact = normalize_join_blocks(li, plan.join_partitions()).join(
            normalize_join_blocks(omat, plan.join_partitions()),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("l_orderkey",), right_on=("o_orderkey",),
        ).map_batches(partial, batch_format="pyarrow")

    return fact.groupby(["n_name", "o_year"]).aggregate(
        Sum("profit_micro", alias_name="profit_micro")
    )


QUERIES["q9_product_profit"] = q9_product_profit

ORACLE_SQL["q9_product_profit"] = """
SELECT n.n_name, CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
       CAST(SUM(
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
         - CAST(ROUND(l.l_quantity) AS BIGINT)
           * CAST(ROUND(p.p_retailprice * 100) AS BIGINT) * 100
       ) AS BIGINT) AS profit_micro
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE p.p_name LIKE '%bolt%'
GROUP BY n.n_name, o_year
"""


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2-shaped min-cost-supplier lookup, adapted to the
    available tables (lineitem is the part-supplier incidence; the
    observed minimum extendedprice cents per (part, supplier) stands in
    for ps_supplycost): for every LARGE-type part, list the
    EUROPE-region supplier(s) whose best observed price equals the
    part's region-wide minimum -- the correlated-MIN-subquery shape.

    Scale shape: region membership is a dimension-sized driver pin;
    lineitem streams ONCE into per-batch (part, supp) MIN partials ->
    one groupby-min; the per-part global min then derives from that
    aggregate itself (local re-aggregation of an already-tiny table),
    and the winners filter is a vectorized dictionary lookup -- no
    second fact scan, no float anywhere."""
    from ray.data.aggregate import Min

    part = _mat_table(_read(sf_dir, "part",
                            columns=["p_partkey", "p_type"]))
    pkeys = part.filter(pc.equal(part["p_type"], "LARGE"))[
        "p_partkey"].combine_chunks()

    sup = _mat_table(_read(sf_dir, "supplier",
                           columns=["s_suppkey", "s_name",
                                    "s_nationkey"]))
    nat = _mat_table(_read(sf_dir, "nation",
                           columns=["n_nationkey", "n_regionkey"]))
    reg = _mat_table(_read(sf_dir, "region",
                           columns=["r_regionkey", "r_name"]))
    rkey = reg.filter(pc.equal(reg["r_name"], "EUROPE"))["r_regionkey"]
    nkeys = nat.filter(pc.is_in(nat["n_regionkey"],
                                value_set=rkey.combine_chunks()))[
                                    "n_nationkey"]
    sup_eu = sup.filter(pc.is_in(sup["s_nationkey"],
                                 value_set=nkeys.combine_chunks()))
    skeys = sup_eu["s_suppkey"].combine_chunks()
    snames = sup_eu["s_name"].combine_chunks()

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_in(b["l_partkey"], value_set=pkeys),
                       pc.is_in(b["l_suppkey"], value_set=skeys))
        b = b.filter(keep)
        t = pa.table({
            "p_partkey": b["l_partkey"],
            "s_suppkey": b["l_suppkey"],
            "cost_cents": sql_round_i64(b["l_extendedprice"], 100.0),
        })
        g = (t.group_by(["p_partkey", "s_suppkey"], use_threads=False)
             .aggregate([("cost_cents", "min")]))
        return g.rename_columns(["p_partkey", "s_suppkey", "cost_cents"])

    pairs = _mat_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["p_partkey", "s_suppkey"])
        .aggregate(Min("cost_cents", alias_name="cost_cents"))
    )
    best = (pairs.group_by(["p_partkey"], use_threads=False)
            .aggregate([("cost_cents", "min")])
            .rename_columns(["p_partkey", "best_cents"]))
    bidx = pc.index_in(pairs["p_partkey"],
                       value_set=best["p_partkey"].combine_chunks())
    bmin = pc.take(pc.cast(best["best_cents"], pa.int64()).combine_chunks(),
                   bidx)
    win = pairs.filter(pc.equal(pc.cast(pairs["cost_cents"], pa.int64()),
                                bmin))
    sidx = pc.index_in(win["s_suppkey"], value_set=skeys)
    return pa.table({
        "p_partkey": win["p_partkey"],
        "s_suppkey": win["s_suppkey"],
        "s_name": pc.take(snames, sidx),
        "cost_cents": pc.cast(win["cost_cents"], pa.int64()),
    })


QUERIES["q2_min_cost_supplier"] = q2_min_cost_supplier

ORACLE_SQL["q2_min_cost_supplier"] = """
WITH pairs AS (
  SELECT l.l_partkey AS p_partkey, l.l_suppkey AS s_suppkey,
         CAST(MIN(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT))
              AS BIGINT) AS cost_cents
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey AND p.p_type = 'LARGE'
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey AND r.r_name = 'EUROPE'
  GROUP BY 1, 2
)
SELECT pr.p_partkey, pr.s_suppkey, s.s_name, pr.cost_cents
FROM pairs pr
JOIN supplier s ON s.s_suppkey = pr.s_suppkey
WHERE pr.cost_cents = (SELECT MIN(p2.cost_cents) FROM pairs p2
                       WHERE p2.p_partkey = pr.p_partkey)
"""


def q16_supplier_counts(sf_dir: str):
    """TPC-H Q16-shaped supplier-relationship count: distinct suppliers
    per (p_brand, p_type, p_size) over the lineitem incidence, for
    small-size parts, excluding Brand#13 and excluding suppliers with a
    negative account balance (the 'complaints' NOT-IN analog).

    Scale shape: the part attribute map and the excluded-supplier set
    are dimension-sized driver pins; lineitem collapses per batch to
    DISTINCT (brand, type, size, suppkey) incidence rows before ONE
    global distinct pass, then an O(#groups) count -- raw rows never
    shuffle, and the count-distinct is exact."""
    from ray.data.aggregate import Count

    part = _mat_table(_read(sf_dir, "part",
                            columns=["p_partkey", "p_brand", "p_type",
                                     "p_size"]))
    keep = pc.and_(
        pc.invert(pc.equal(part["p_brand"], "Brand#13")),
        pc.less_equal(part["p_size"], 10),
    )
    part = part.filter(keep)
    pkeys = part["p_partkey"].combine_chunks()
    pbrand = part["p_brand"].combine_chunks()
    ptype = part["p_type"].combine_chunks()
    psize = pc.cast(part["p_size"], pa.int64()).combine_chunks()

    sup = _mat_table(_read(sf_dir, "supplier",
                           columns=["s_suppkey", "s_acctbal"]))
    bad = sup.filter(pc.less(sup["s_acctbal"], 0.0))[
        "s_suppkey"].combine_chunks()

    def partial(b: pa.Table) -> pa.Table:
        pidx = pc.index_in(b["l_partkey"], value_set=pkeys)
        ok = pc.and_(pc.is_valid(pidx),
                     pc.invert(pc.is_in(b["l_suppkey"], value_set=bad)))
        b, pidx = b.filter(ok), pidx.filter(ok)
        t = pa.table({
            "p_brand": pbrand.take(pidx),
            "p_type": ptype.take(pidx),
            "p_size": psize.take(pidx),
            "s_suppkey": b["l_suppkey"],
        })
        # per-batch distinct: only unique incidence rows cross the wire
        return (t.group_by(["p_brand", "p_type", "p_size", "s_suppkey"],
                           use_threads=False)
                .aggregate([]))

    inc = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]
                ).map_batches(partial, batch_format="pyarrow")
    distinct = inc.groupby(
        ["p_brand", "p_type", "p_size", "s_suppkey"]).aggregate(
            Count(alias_name="_n"))
    return distinct.map_batches(
        lambda b: (
            b.select(["p_brand", "p_type", "p_size"])
            .group_by(["p_brand", "p_type", "p_size"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["p_brand", "p_type", "p_size",
                             "supplier_cnt"])
        ),
        batch_format="pyarrow",
    ).groupby(["p_brand", "p_type", "p_size"]).sum("supplier_cnt").map_batches(
        lambda b: b.rename_columns(
            ["p_brand", "p_type", "p_size", "supplier_cnt"]),
        batch_format="pyarrow",
    )


QUERIES["q16_supplier_counts"] = q16_supplier_counts

ORACLE_SQL["q16_supplier_counts"] = """
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
WHERE p.p_brand <> 'Brand#13' AND p.p_size <= 10
  AND l.l_suppkey NOT IN
      (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY 1, 2, 3
"""


def q20_dominant_suppliers(sf_dir: str):
    """TPC-H Q20-shaped nested-aggregate semi-join, adapted (no
    partsupp/availqty): suppliers in the EUROPE region who shipped MORE
    THAN AN EIGHTH of some PROMO part's total 1996+ shipped quantity --
    the supplier-dominance screen (exists-a-part-where nested
    aggregation; the 1/8 share clears the ~1/#suppliers noise floor at
    every test scale where 1/2 matches nothing).

    Scale shape: per-batch (part, supp) quantity partials -> one
    groupby-sum; the per-part totals re-derive from that aggregate
    locally (no second fact scan); dominance is the integer
    cross-multiply ``8 * qty_sp > qty_p``; region/part memberships are
    dimension-sized driver pins."""
    from ray.data.aggregate import Sum

    part = _mat_table(_read(sf_dir, "part",
                            columns=["p_partkey", "p_type"]))
    pkeys = part.filter(pc.equal(part["p_type"], "PROMO"))[
        "p_partkey"].combine_chunks()

    sup = _mat_table(_read(sf_dir, "supplier",
                           columns=["s_suppkey", "s_name", "s_nationkey"]))
    nat = _mat_table(_read(sf_dir, "nation",
                           columns=["n_nationkey", "n_regionkey"]))
    reg = _mat_table(_read(sf_dir, "region",
                           columns=["r_regionkey", "r_name"]))
    rkey = reg.filter(pc.equal(reg["r_name"], "EUROPE"))["r_regionkey"]
    nkeys = nat.filter(pc.is_in(nat["n_regionkey"],
                                value_set=rkey.combine_chunks()))[
                                    "n_nationkey"]
    sup_eu = sup.filter(pc.is_in(sup["s_nationkey"],
                                 value_set=nkeys.combine_chunks()))
    skeys = sup_eu["s_suppkey"].combine_chunks()
    snames = sup_eu["s_name"].combine_chunks()

    cutoff = np.int64(pa.scalar(
        pa.scalar("1996-01-01").cast(pa.timestamp("us"))).cast(
            pa.int64()).as_py())

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_quantity",
                        "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(b["l_shipdate"], pa.timestamp("us")),
                       pa.int64())
        keep = pc.and_(
            pc.is_in(b["l_partkey"], value_set=pkeys),
            pc.greater_equal(ship, pa.scalar(cutoff, pa.int64())),
        )
        b = b.filter(keep)
        t = pa.table({
            "p_partkey": b["l_partkey"],
            "s_suppkey": b["l_suppkey"],
            "qty": sql_round_i64(b["l_quantity"]),
        })
        g = (t.group_by(["p_partkey", "s_suppkey"], use_threads=False)
             .aggregate([("qty", "sum")]))
        return g.rename_columns(["p_partkey", "s_suppkey", "qty"])

    pairs = _mat_table(
        li.map_batches(partial, batch_format="pyarrow")
        .groupby(["p_partkey", "s_suppkey"])
        .aggregate(Sum("qty", alias_name="qty"))
    )
    tot = (pairs.group_by(["p_partkey"], use_threads=False)
           .aggregate([("qty", "sum")])
           .rename_columns(["p_partkey", "qty_tot"]))
    tidx = pc.index_in(pairs["p_partkey"],
                       value_set=tot["p_partkey"].combine_chunks())
    qtot = pc.take(pc.cast(tot["qty_tot"], pa.int64()).combine_chunks(),
                   tidx)
    dom = pairs.filter(pc.greater(
        pc.multiply(pc.cast(pairs["qty"], pa.int64()),
                    pa.scalar(8, pa.int64())),
        qtot,
    ))
    # EUROPE suppliers only, then distinct winners
    eu = dom.filter(pc.is_in(dom["s_suppkey"], value_set=skeys))
    winners = (eu.select(["s_suppkey"])
               .group_by(["s_suppkey"], use_threads=False)
               .aggregate([]))
    sidx = pc.index_in(winners["s_suppkey"], value_set=skeys)
    return pa.table({
        "s_suppkey": winners["s_suppkey"],
        "s_name": pc.take(snames, sidx),
    })


QUERIES["q20_dominant_suppliers"] = q20_dominant_suppliers

ORACLE_SQL["q20_dominant_suppliers"] = """
WITH pairs AS (
  SELECT l.l_partkey, l.l_suppkey,
         CAST(SUM(CAST(ROUND(l.l_quantity) AS BIGINT)) AS BIGINT) AS qty
  FROM lineitem l
  JOIN part p ON p.p_partkey = l.l_partkey AND p.p_type = 'PROMO'
  WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
  GROUP BY 1, 2
)
SELECT DISTINCT pr.l_suppkey AS s_suppkey, s.s_name
FROM pairs pr
JOIN supplier s ON s.s_suppkey = pr.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey AND r.r_name = 'EUROPE'
WHERE pr.qty * 8 > (SELECT CAST(SUM(p2.qty) AS BIGINT) FROM pairs p2
                    WHERE p2.l_partkey = pr.l_partkey)
"""


def kg_bgp_star(sf_dir: str):
    """SPARQL-style star BGP over the rule-lowered document graph:

        ?doc  dc:language  ?lang .
        ?doc  dc:source    ?src .
        ?doc  deich:nChars ?nchars .

    executed by ops/bgp.bgp_star_match -- the Ray-native analog of the
    reference's pattern-shaped SPARQL SELECT/UPDATE blocks against its
    materialized store (sparql_update.rb; rdfmodeler.rb:314-324 writes
    the triples those patterns run against).

    Scale shape: one subject-hash bucket shuffle of slim (subj, int8
    pattern-index, obj) rows -- non-matching predicates never leave the
    scan -- then per-bucket DISTINCT + in-task Arrow hash joins (SPARQL
    set semantics; the rule engine's deliberate duplicate language
    emission collapses here)."""
    from .ops.bgp import bgp_star_match

    return bgp_star_match(
        _lower_docs(
            _read(sf_dir, "documents", target_rows=4096),
            predicates={DC_LANGUAGE, DC_SOURCE, DEICH_NCHARS},
        ),
        [
            (DC_LANGUAGE, "lang"),
            (DC_SOURCE, "src"),
            (DEICH_NCHARS, "nchars"),
        ],
    )


QUERIES["kg_bgp_star"] = kg_bgp_star

ORACLE_SQL["kg_bgp_star"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL}))
SELECT a.subj, a.obj AS lang, b.obj AS src, c.obj AS nchars
FROM t a
JOIN t b ON b.subj = a.subj
JOIN t c ON c.subj = a.subj
WHERE a.pred = 'http://purl.org/dc/terms/language'
  AND b.pred = 'http://purl.org/dc/terms/source'
  AND c.pred = 'http://data.deichman.no/nChars'
"""


def kg_predicate_stats(sf_dir: str):
    """VoID-style dataset profiling of the document graph: per predicate,
    the DISTINCT-triple count and the distinct subject / object
    cardinalities (ops/bgp.predicate_stats) -- the partition statistics
    the reference tracks per conversion cycle, generalized to the
    ontology level.

    Scale shape: triples lower to slim (pred, role, val) rows with
    per-batch local dedup before ONE global distinct groupby; the final
    pivot is O(#preds) driver work."""
    from .ops.bgp import predicate_stats

    return predicate_stats(kg_triples(sf_dir))


QUERIES["kg_predicate_stats"] = kg_predicate_stats

ORACLE_SQL["kg_predicate_stats"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL}))
SELECT pred,
       CAST(COUNT(*) AS BIGINT) AS n_triples,
       CAST(COUNT(DISTINCT subj) AS BIGINT) AS n_subjects,
       CAST(COUNT(DISTINCT obj) AS BIGINT) AS n_objects
FROM t GROUP BY pred
"""


def kg_chain_language(sf_dir: str):
    """SPARQL chain BGP (property-path shape) over the flagship graph:

        ?doc  owl:sameAs   ?canon .
        ?canon dc:language ?lang .

    -- 'resolve every aliased document's language through its sameAs
    link', the lookup the reference's SPARQL store answers after
    sameAs merging (sparql_update.rb patterns over rdfmodeler.rb
    output).  Executed by ops/bgp.bgp_chain_match: one slim pass tags
    each hop's triples, distributed hash joins connect obj->subj, one
    global distinct enforces SPARQL set semantics.

    Scale shape: k-1 binding-column-only exchanges for a k-hop chain;
    non-pattern triples never leave the scan."""
    from .ops.bgp import bgp_chain_match
    from .stages.canonicalize import sameas_by_shared_key, symmetry_closure

    docs = _read(sf_dir, "documents", target_rows=4096)

    def shift(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in batch.column_names}
        cols["doc_id"] = pc.add(batch["doc_id"], pa.scalar(1000000))
        return pa.table(cols)

    aug = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    base = _lower_docs(aug, predicates={DC_LANGUAGE})
    sameas = symmetry_closure(
        sameas_by_shared_key(_augmented_doc_hashes(sf_dir), "hash"),
        dedup=False,
    )
    slim3 = lambda b: b.select(["subj", "pred", "obj"])  # noqa: E731
    triples = base.map_batches(slim3, batch_format="pyarrow").union(
        sameas.map_batches(slim3, batch_format="pyarrow")
    )
    return bgp_chain_match(
        triples,
        ["http://www.w3.org/2002/07/owl#sameAs", DC_LANGUAGE],
        ["doc", "canon", "lang"],
    )


QUERIES["kg_chain_language"] = kg_chain_language

ORACLE_SQL["kg_chain_language"] = """
WITH hashes AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), m AS (
  SELECT h, min(subj) AS canon FROM hashes GROUP BY h
), sameas AS (
  SELECT a.subj AS s, m.canon AS o FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
  UNION ALL
  SELECT m.canon, a.subj FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
), langs AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS s,
         'http://lexvo.org/id/iso639-3/' || lang AS o FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         'http://lexvo.org/id/iso639-3/' || lang FROM documents
)
SELECT DISTINCT sa.s AS doc, sa.o AS canon, l.o AS lang
FROM sameas sa JOIN langs l ON l.s = sa.o
"""


def kg_inferred_types(sf_dir: str):
    """RDFS subclass-closure materialization (ops/bgp.infer_types) over
    the document graph: with the T-Box ``foaf:Document [= sdo:CreativeWork
    [= sdo:Thing``, emit every inferred transitive rdf:type triple --
    the forward-chaining step a KG store runs after the converter's
    asserted types (reference: the type emission, rdfmodeler.rb set_type
    / SURVEY SS2.3 M1, composed with ontology knowledge).

    Scale shape: the ontology closes transitively ON THE DRIVER
    (T-Boxes are ontology-sized) and rides into tasks as a broadcast
    constant; instances expand via one vectorized run-gather; only the
    final distinct shuffles."""
    from .ops.bgp import infer_types

    return infer_types(
        _lower_docs(_read(sf_dir, "documents"), predicates={RDF_TYPE}),
        [
            ("http://xmlns.com/foaf/0.1/Document",
             "https://schema.org/CreativeWork"),
            ("https://schema.org/CreativeWork", "https://schema.org/Thing"),
        ],
    )


QUERIES["kg_inferred_types"] = kg_inferred_types

ORACLE_SQL["kg_inferred_types"] = f"""
WITH RECURSIVE t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL})),
tbox(sub, sup) AS (VALUES
  ('http://xmlns.com/foaf/0.1/Document', 'https://schema.org/CreativeWork'),
  ('https://schema.org/CreativeWork', 'https://schema.org/Thing')
), closure AS (
  SELECT sub, sup FROM tbox
  UNION
  SELECT c.sub, b.sup FROM closure c JOIN tbox b ON b.sub = c.sup
)
SELECT DISTINCT t.subj,
       'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pred,
       c.sup AS obj, 'uri' AS obj_kind
FROM t
JOIN closure c ON c.sub = t.obj
WHERE t.pred = 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'
"""


def kg_bgp_optional(sf_dir: str):
    """SPARQL OPTIONAL over the flagship graph:

        ?doc dc:language ?lang .
        OPTIONAL { ?doc owl:sameAs ?canon }

    -- every document's language, plus its sameAs link where one exists
    (NULL otherwise): the left-outer BGP shape
    (ops/bgp.bgp_star_match_optional), same one-bucket-shuffle execution
    as the inner star with a per-bucket left outer Arrow join."""
    from .ops.bgp import bgp_star_match_optional
    from .stages.canonicalize import sameas_by_shared_key, symmetry_closure

    docs = _read(sf_dir, "documents", target_rows=4096)

    def shift(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in batch.column_names}
        cols["doc_id"] = pc.add(batch["doc_id"], pa.scalar(1000000))
        return pa.table(cols)

    aug = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    base = _lower_docs(aug, predicates={DC_LANGUAGE})
    sameas = symmetry_closure(
        sameas_by_shared_key(_augmented_doc_hashes(sf_dir), "hash"),
        dedup=False,
    )
    slim3 = lambda b: b.select(["subj", "pred", "obj"])  # noqa: E731
    triples = base.map_batches(slim3, batch_format="pyarrow").union(
        sameas.map_batches(slim3, batch_format="pyarrow")
    )
    return bgp_star_match_optional(
        triples,
        [("http://purl.org/dc/terms/language", "lang")],
        [("http://www.w3.org/2002/07/owl#sameAs", "canon")],
    )


QUERIES["kg_bgp_optional"] = kg_bgp_optional

ORACLE_SQL["kg_bgp_optional"] = """
WITH hashes AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), m AS (
  SELECT h, min(subj) AS canon FROM hashes GROUP BY h
), sameas AS (
  SELECT a.subj AS s, m.canon AS o FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
  UNION ALL
  SELECT m.canon, a.subj FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
), langs AS (
  SELECT DISTINCT
         'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS s,
         'http://lexvo.org/id/iso639-3/' || lang AS o FROM documents
  UNION
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         'http://lexvo.org/id/iso639-3/' || lang FROM documents
)
SELECT l.s AS subj, l.o AS lang, sa.o AS canon
FROM langs l LEFT JOIN sameas sa ON sa.s = l.s
"""


def kg_update_language(sf_dir: str):
    """SPARQL UPDATE analog (ops/bgp.update_where) over the document
    graph -- the reference's DELETE/INSERT pattern blocks
    (sparql_update.rb; SURVEY §2.2 K4) lifted to a distributed rewrite:

        DELETE { ?doc dc:language ?lang }
        INSERT { ?doc dc:language <iso639-3/deu> .
                 ?doc ex:langNormalized "true" }
        WHERE  { ?doc dc:language ?lang . ?doc dc:source ?src
                 FILTER(?lang = <iso639-3/de>) }

    i.e. retag ISO-639-1 'de' docs with the 639-3 code and stamp a
    provenance marker, leaving every other triple intact.  Returns the
    full rewritten graph (distinct).

    Scale shape: bindings from one star-BGP bucket exchange; the delete
    set applies as a byte-budgeted broadcast anti-join on the composite
    triple key (distributed join fallback); one final global
    distinct."""
    from .ops.bgp import update_where

    LX = "http://lexvo.org/id/iso639-3/"
    return update_where(
        kg_triples(sf_dir),
        [("http://purl.org/dc/terms/language", "lang"),
         ("http://purl.org/dc/terms/source", "src")],
        delete_templates=[
            ("?subj", "http://purl.org/dc/terms/language", "?lang", "uri"),
        ],
        insert_templates=[
            ("?subj", "http://purl.org/dc/terms/language", LX + "deu",
             "uri"),
            ("?subj", "http://example.org/langNormalized", "true",
             "literal"),
        ],
        filters={"lang": LX + "de"},
    )


QUERIES["kg_update_language"] = kg_update_language

ORACLE_SQL["kg_update_language"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj, obj_kind
           FROM ({_KG_TRIPLES_SQL})),
hits AS (
  SELECT subj FROM t
  WHERE pred = 'http://purl.org/dc/terms/language'
    AND obj = 'http://lexvo.org/id/iso639-3/de'
),
kept AS (
  SELECT * FROM t
  WHERE NOT (pred = 'http://purl.org/dc/terms/language'
             AND subj IN (SELECT subj FROM hits))
),
ins AS (
  SELECT subj, 'http://purl.org/dc/terms/language' AS pred,
         'http://lexvo.org/id/iso639-3/deu' AS obj, 'uri' AS obj_kind
  FROM hits
  UNION ALL
  SELECT subj, 'http://example.org/langNormalized', 'true', 'literal'
  FROM hits
)
SELECT DISTINCT * FROM (SELECT * FROM kept UNION ALL SELECT * FROM ins)
"""


def kg_construct_schemaorg(sf_dir: str):
    """SPARQL CONSTRUCT analog (ops/bgp.construct_from_pattern):
    vocabulary translation of the DC document graph into schema.org
    terms --

        CONSTRUCT { ?doc rdf:type      sdo:CreativeWork .
                    ?doc sdo:inLanguage ?lang .
                    ?doc sdo:provider   ?src }
        WHERE     { ?doc dc:language ?lang . ?doc dc:source ?src }

    The reference's whole premise is mapping-driven re-emission of one
    vocabulary as another (SURVEY §2.3); this lifts it to graph->graph.

    Scale shape: one star-match bucket exchange, vectorized template
    instantiation, one global distinct."""
    from .ops.bgp import construct_from_pattern

    SDO = "https://schema.org/"
    return construct_from_pattern(
        _lower_docs(
            _read(sf_dir, "documents"),
            predicates={DC_LANGUAGE, DC_SOURCE},
        ),
        [(DC_LANGUAGE, "lang"),
         (DC_SOURCE, "src")],
        [
            ("?subj", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
             SDO + "CreativeWork", "uri"),
            ("?subj", SDO + "inLanguage", "?lang", "uri"),
            ("?subj", SDO + "provider", "?src", "uri"),
        ],
    )


QUERIES["kg_construct_schemaorg"] = kg_construct_schemaorg

ORACLE_SQL["kg_construct_schemaorg"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL})),
b AS (
  SELECT l.subj, l.obj AS lang, s.obj AS src
  FROM t l JOIN t s ON s.subj = l.subj
  WHERE l.pred = 'http://purl.org/dc/terms/language'
    AND s.pred = 'http://purl.org/dc/terms/source'
)
SELECT DISTINCT * FROM (
  SELECT subj, 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type' AS pred,
         'https://schema.org/CreativeWork' AS obj, 'uri' AS obj_kind FROM b
  UNION ALL
  SELECT subj, 'https://schema.org/inLanguage', lang, 'uri' FROM b
  UNION ALL
  SELECT subj, 'https://schema.org/provider', src, 'uri' FROM b
)
"""


def kg_graph_diff(sf_dir: str):
    """Explicit change set between two graph versions
    (ops/bgp.graph_diff): the base document graph vs the
    kg_update_language rewrite -- '+' rows are the inserted deu/
    provenance triples, '-' rows the deleted 'de' language triples; the
    delta the reference's daily update cycle applies implicitly
    (scheduler.rb:327-350), made shippable.

    Scale shape: both sides collapse to distinct composite keys; each
    direction is ONE byte-budgeted broadcast anti-join (distributed
    fallback); one final distinct."""
    from .ops.bgp import graph_diff
    from .stages.canonicalize import dedup_triples

    old = dedup_triples(kg_triples(sf_dir),
                        columns=["subj", "pred", "obj", "obj_kind"])
    new = kg_update_language(sf_dir)
    return graph_diff(old, new)


QUERIES["kg_graph_diff"] = kg_graph_diff

ORACLE_SQL["kg_graph_diff"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj, obj_kind
           FROM ({_KG_TRIPLES_SQL})),
hits AS (
  SELECT subj FROM t
  WHERE pred = 'http://purl.org/dc/terms/language'
    AND obj = 'http://lexvo.org/id/iso639-3/de'
),
kept AS (
  SELECT * FROM t
  WHERE NOT (pred = 'http://purl.org/dc/terms/language'
             AND subj IN (SELECT subj FROM hits))
),
ins AS (
  SELECT subj, 'http://purl.org/dc/terms/language' AS pred,
         'http://lexvo.org/id/iso639-3/deu' AS obj, 'uri' AS obj_kind
  FROM hits
  UNION ALL
  SELECT subj, 'http://example.org/langNormalized', 'true', 'literal'
  FROM hits
),
newg AS (SELECT DISTINCT *
         FROM (SELECT * FROM kept UNION ALL SELECT * FROM ins))
SELECT '+' AS op, * FROM (SELECT * FROM newg EXCEPT SELECT * FROM t)
UNION ALL
SELECT '-' AS op, * FROM (SELECT * FROM t EXCEPT SELECT * FROM newg)
"""


def kg_validate_types(sf_dir: str):
    """SHACL-style cardinality gate (ops/bgp.validate_cardinality) over
    the inference-enriched graph: after RDFS subclass materialization
    every document carries 3 rdf:type values, so a max-1 type constraint
    flags them all -- the publish-time shape check (reference analog:
    per-record field-shape assertions, SURVEY §2.3 M17/M19, lifted to
    graph level).  Returns (subj, n_values) for violators.

    Scale shape: scan slims to one predicate's (subj, obj) pairs with
    per-batch DISTINCT collapse, one global distinct groupby, O(#viol)
    filter."""
    from .ops.bgp import validate_cardinality

    enriched = _lower_docs(
        _read(sf_dir, "documents"), predicates={RDF_TYPE}
    ).union(kg_inferred_types(sf_dir))
    return validate_cardinality(
        enriched, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
        min_count=1, max_count=1,
    )


QUERIES["kg_validate_types"] = kg_validate_types

ORACLE_SQL["kg_validate_types"] = f"""
WITH RECURSIVE t AS (SELECT DISTINCT subj, pred, obj
                     FROM ({_KG_TRIPLES_SQL})),
tbox(sub, sup) AS (VALUES
  ('http://xmlns.com/foaf/0.1/Document', 'https://schema.org/CreativeWork'),
  ('https://schema.org/CreativeWork', 'https://schema.org/Thing')
), closure AS (
  SELECT sub, sup FROM tbox
  UNION
  SELECT c.sub, b.sup FROM closure c JOIN tbox b ON b.sub = c.sup
), allt AS (
  SELECT subj, obj FROM t
  WHERE pred = 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'
  UNION
  SELECT t.subj, c.sup FROM t
  JOIN closure c ON c.sub = t.obj
  WHERE t.pred = 'http://www.w3.org/1999/02/22-rdf-syntax-ns#type'
)
SELECT subj, CAST(COUNT(DISTINCT obj) AS BIGINT) AS n_values
FROM allt GROUP BY subj
HAVING COUNT(DISTINCT obj) < 1 OR COUNT(DISTINCT obj) > 1
"""


def events_click_error_overlap(sf_dir: str):
    """Keyless interval-overlap join (ops/joins.interval_overlap_join):
    every (click, error) event pair whose 5-minute activity windows
    overlap -- the session-vs-incident correlation that SQL writes as an
    inequality join and hash joins cannot execute.

    Scale shape: 15-minute time tiles with replicate-and-own semantics
    (a pair emits only in the tile holding max(start_l, start_r), so
    replicas never double-count); in-tile pairing is one sort +
    binary-search + repeat/arange emission, all columnar; a tile whose
    candidate count exceeds the cap fails LOUDLY with the tile id."""
    from .ops.joins import interval_overlap_join

    five_min = np.int64(5 * 60 * 1_000_000)

    def side(event_type: str):
        ds = _read(sf_dir, "events",
                   columns=["event_id", "event_type", "ts"])

        def prep(b: pa.Table, _t=event_type) -> pa.Table:
            hit = pc.equal(b["event_type"], _t)
            us = pc.cast(
                pc.cast(b["ts"].filter(hit), pa.timestamp("us")), pa.int64()
            )
            return pa.table(
                {
                    "id": pc.cast(b["event_id"].filter(hit), pa.int64()),
                    "s": us,
                    "e": pc.add(us, pa.scalar(five_min, pa.int64())),
                }
            )

        return ds.map_batches(prep, batch_format="pyarrow")

    return interval_overlap_join(
        side("click"), side("error"),
        width_us=15 * 60 * 1_000_000,
    )


QUERIES["events_click_error_overlap"] = events_click_error_overlap

ORACLE_SQL["events_click_error_overlap"] = """
WITH l AS (
  SELECT event_id, ts AS s, ts + INTERVAL 5 MINUTE AS e
  FROM events WHERE event_type = 'click'
), r AS (
  SELECT event_id, ts AS s, ts + INTERVAL 5 MINUTE AS e
  FROM events WHERE event_type = 'error'
)
SELECT l.event_id AS left_id, r.event_id AS right_id
FROM l JOIN r ON l.s < r.e AND r.s < l.e
"""


def graph_ktruss(sf_dir: str):
    """3-truss peeling (ops/graph.ktruss), 3 synchronous rounds over the
    undirected simple form of the md5 link graph: per round one
    triangle-listing support pass (degree-rank oriented wedges, bucketed
    pair-key join, per-task np.unique edge combiner) and one
    broadcast-or-join edge filter -- the edge-level cohesive-subgraph
    cleanup the reference's authority passes approximate at node level
    (SURVEY SS2.8 U3; kcore's edge-dual)."""
    from .ops.graph import ktruss

    edges, _, _ = _md5_link_graph(sf_dir)
    return ktruss(edges, k=3, rounds=3)


QUERIES["graph_ktruss"] = graph_ktruss


def _ktruss_oracle_sql(k: int = 3, rounds: int = 3) -> str:
    """Unrolled synchronous k-truss: per round, per-edge support =
    |N(u) & N(v)| via the wedge-join triangle count, then the
    support >= k-2 filter."""
    parts = [f"""
WITH {_MD5_EDGES_SQL},
e0 AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst)"""]
    for i in range(rounds):
        parts.append(f""",
adj{i} AS (SELECT u AS c, v AS nb FROM e{i}
           UNION ALL SELECT v AS c, u AS nb FROM e{i}),
sup{i} AS (
  SELECT a.nb AS u, b.nb AS v, CAST(COUNT(*) AS BIGINT) AS s
  FROM adj{i} a
  JOIN adj{i} b ON b.c = a.c AND a.nb < b.nb
  JOIN e{i} t ON t.u = a.nb AND t.v = b.nb
  GROUP BY a.nb, b.nb
),
e{i + 1} AS (
  SELECT e.u, e.v FROM e{i} e
  JOIN sup{i} s ON s.u = e.u AND s.v = e.v
  WHERE s.s >= {k - 2}
)""")
    parts.append(f"\nSELECT u, v FROM e{rounds}")
    return "".join(parts)


ORACLE_SQL["graph_ktruss"] = _ktruss_oracle_sql()


def events_hourly_ohlc(sf_dir: str):
    """Per (event_type, hour) OHLC bars: open = value of the earliest
    event (ties: min event_id), close = value of the latest (ties: max
    event_id), high/low = value extrema -- the time-series compaction a
    metrics/feature store runs over raw event streams (reference analog:
    the per-cycle counter reports, SURVEY SS2.6 A3, lifted to
    first/last-aware aggregates SQL needs window functions for).

    Scale shape: each batch collapses to AT MOST ONE partial row per
    (type, hour) via lexsort + reduceat (open/close candidates carry
    their (ts, event_id) order key), so the exchange is O(groups x
    batches); a tiny groupby-merge resolves the global argmin/argmax.
    No arithmetic touches ``value`` -- floats pass through exactly, so
    the DuckDB window-function oracle hash-matches."""
    ds = _read(sf_dir, "events",
               columns=["event_id", "event_type", "ts", "value"])

    H = 3_600_000_000

    def partial(b: pa.Table) -> pa.Table:
        epoch_us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                           pa.int64()).to_numpy(zero_copy_only=False)
        hour = np.floor_divide(epoch_us, H)
        et = b["event_type"].to_numpy(zero_copy_only=False)
        eid = b["event_id"].to_numpy(zero_copy_only=False)
        val = b["value"].to_numpy(zero_copy_only=False)
        # dictionary-encode the type for a pure-int lexsort
        types, tcode = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, epoch_us, hour, tcode))
        tcode, hour = tcode[order], hour[order]
        epoch_us, eid, val = epoch_us[order], eid[order], val[order]
        brk = np.empty(len(order), bool)
        brk[:1] = True
        if len(order) > 1:
            brk[1:] = (tcode[1:] != tcode[:-1]) | (hour[1:] != hour[:-1])
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(order)) - 1
        return pa.table(
            {
                "event_type": pa.array(types[tcode[starts]], pa.string()),
                "hour": pa.array(hour[starts], pa.int64()),
                "o_ts": pa.array(epoch_us[starts], pa.int64()),
                "o_id": pa.array(eid[starts], pa.int64()),
                "open": pa.array(val[starts], pa.float64()),
                "c_ts": pa.array(epoch_us[ends], pa.int64()),
                "c_id": pa.array(eid[ends], pa.int64()),
                "close": pa.array(val[ends], pa.float64()),
                "low": pa.array(np.minimum.reduceat(val, starts),
                                pa.float64()),
                "high": pa.array(np.maximum.reduceat(val, starts),
                                 pa.float64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        o = np.lexsort((g["o_id"].to_numpy(zero_copy_only=False),
                        g["o_ts"].to_numpy(zero_copy_only=False)))[0]
        c = np.lexsort((g["c_id"].to_numpy(zero_copy_only=False),
                        g["c_ts"].to_numpy(zero_copy_only=False)))[-1]
        return pa.table(
            {
                "event_type": g["event_type"].slice(0, 1),
                "hour": g["hour"].slice(0, 1),
                "open": g["open"].slice(o, 1),
                "high": pa.array(
                    [pc.max(g["high"]).as_py()], pa.float64()),
                "low": pa.array([pc.min(g["low"]).as_py()], pa.float64()),
                "close": g["close"].slice(c, 1),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .map_groups(merge, batch_format="pyarrow")
    )


QUERIES["events_hourly_ohlc"] = events_hourly_ohlc

ORACLE_SQL["events_hourly_ohlc"] = """
WITH b AS (
  SELECT event_type, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
         value, ts, event_id
  FROM events
), w AS (
  SELECT *,
         ROW_NUMBER() OVER (PARTITION BY event_type, hour
                            ORDER BY ts, event_id) AS rn_a,
         ROW_NUMBER() OVER (PARTITION BY event_type, hour
                            ORDER BY ts DESC, event_id DESC) AS rn_d
  FROM b
)
SELECT event_type, hour,
       MAX(CASE WHEN rn_a = 1 THEN value END) AS open,
       MAX(value) AS high,
       MIN(value) AS low,
       MAX(CASE WHEN rn_d = 1 THEN value END) AS close
FROM w GROUP BY event_type, hour
"""


def ri_orphan_audit(sf_dir: str):
    """Referential-integrity audit after a simulated partial load: for
    each FK relation, how many child rows (and distinct keys) point at a
    parent that did not arrive -- the load-QA gate a warehouse runs
    before publishing a snapshot (reference analog: the conversion
    cycle's per-table sanity counters, SURVEY SS2.6 T4/A3).  The partial
    load drops parents on a deterministic modulus (customers % 97,
    orders % 89, parts % 83 == 0) so every relation reports real
    orphans.

    Scale shape: per relation, ONE broadcast-or-anti-join membership
    filter (ops/dedup.anti_join_filter: surviving parent keys broadcast
    under the byte budget, distributed anti join above it) over the
    pruned child column, then a count and a bucketed distinct count --
    child tables never shuffle whole rows; the driver holds 3 scalars."""
    from .ops.dedup import anti_join_filter, distinct_first

    def audit(child, fk_col, parent, pk_col, modulus):
        def survivors(b: pa.Table, _p=pk_col, _f=fk_col, _m=modulus):
            k = b[_p].to_numpy(zero_copy_only=False)
            return pa.table({_f: pa.array(k[k % _m != 0], pa.int64())})

        parents = _read(sf_dir, parent, columns=[pk_col]).map_batches(
            survivors, batch_format="pyarrow"
        )
        orphans = anti_join_filter(
            _read(sf_dir, child, columns=[fk_col]), parents, fk_col
        ).materialize()
        return orphans.count(), distinct_first(orphans, fk_col).count()

    rows = [
        ("orders->customer",
         *audit("orders", "o_custkey", "customer", "c_custkey", 97)),
        ("lineitem->orders",
         *audit("lineitem", "l_orderkey", "orders", "o_orderkey", 89)),
        ("lineitem->part",
         *audit("lineitem", "l_partkey", "part", "p_partkey", 83)),
    ]
    return pa.table(
        {
            "relation": pa.array([r[0] for r in rows], pa.string()),
            "n_orphan_rows": pa.array([r[1] for r in rows], pa.int64()),
            "n_orphan_keys": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


QUERIES["ri_orphan_audit"] = ri_orphan_audit

ORACLE_SQL["ri_orphan_audit"] = """
SELECT 'orders->customer' AS relation,
       CAST(COUNT(*) AS BIGINT) AS n_orphan_rows,
       CAST(COUNT(DISTINCT o_custkey) AS BIGINT) AS n_orphan_keys
FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer
                        WHERE c_custkey % 97 != 0)
UNION ALL
SELECT 'lineitem->orders',
       CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(DISTINCT l_orderkey) AS BIGINT)
FROM lineitem
WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders
                         WHERE o_orderkey % 89 != 0)
UNION ALL
SELECT 'lineitem->part',
       CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(DISTINCT l_partkey) AS BIGINT)
FROM lineitem
WHERE l_partkey NOT IN (SELECT p_partkey FROM part
                        WHERE p_partkey % 83 != 0)
"""


def kg_validate_datatypes(sf_dir: str):
    """SHACL-style sh:pattern validation report (ops/bgp.validate_pattern)
    over the document graph, two shapes:

    - dc:language values must be 3-letter ISO-639-3 lexvo URIs -- the
      converter emits 2-letter 639-1 codes, so every language triple is
      a violation (the migration-audit a vocabulary upgrade runs first);
    - deich:nChars values must be decimal integers -- all conform,
      contributing zero rows (a clean constraint stays clean).

    Scale shape: per shape, predicate filter at scan + vectorized RE2
    mismatch BEFORE the exchange; conforming values never shuffle."""
    from .ops.bgp import validate_pattern

    triples = _lower_docs(
        _read(sf_dir, "documents"),
        predicates={DC_LANGUAGE, DEICH_NCHARS},
    )
    lang = validate_pattern(
        triples, DC_LANGUAGE,
        r"^http://lexvo\.org/id/iso639-3/[a-z]{3}$",
        check_name="lang_iso639_3",
    )
    nchars = validate_pattern(
        triples, DEICH_NCHARS, r"^[0-9]+$",
        check_name="nchars_integer",
    )
    return lang.union(nchars)


QUERIES["kg_validate_datatypes"] = kg_validate_datatypes

ORACLE_SQL["kg_validate_datatypes"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL}))
SELECT subj, obj, 'lang_iso639_3' AS "check" FROM t
WHERE pred = 'http://purl.org/dc/terms/language'
  AND NOT regexp_matches(obj, '^http://lexvo\\.org/id/iso639-3/[a-z]{{3}}$')
UNION ALL
SELECT subj, obj, 'nchars_integer' FROM t
WHERE pred = 'http://data.deichman.no/nChars'
  AND NOT regexp_matches(obj, '^[0-9]+$')
"""


def parts_golden_records(sf_dir: str):
    """ER survivorship: collapse each fuzzy-name merge cluster
    (parts_name_clusters) to ONE golden record -- canonical name,
    member count, max list price, and the brand of the earliest-loaded
    member (min p_partkey wins, the first-writer survivorship rule) --
    the master-data step after matching, the same merge the reference's
    sameAs canonicalization performs on page entities lifted to
    attribute level (SURVEY SS2.5 J4 composed with A1).

    Scale shape: the name->root cluster map is vocabulary-sized and
    broadcasts once (ray.put; distributed-join fallback above the byte
    budget); parts collapse to <=1 partial row per canon per batch
    (argmin carries its brand payload) before ONE small groupby-merge."""
    import ray

    cc = parts_name_clusters(sf_dir)
    ctab, cmat = plan.small_side("parts_golden_records", cc)

    parts = _read(
        sf_dir, "part",
        columns=["p_partkey", "p_name", "p_brand", "p_retailprice"],
    )

    def with_canon_broadcast(ref):
        def attach(b: pa.Table) -> pa.Table:
            t = ray.get(ref)
            idx = pc.index_in(b["p_name"], value_set=t["node"])
            root = pc.take(t["root"], idx)
            return b.append_column(
                "canon", pc.coalesce(root, b["p_name"])
            )

        return parts.map_batches(attach, batch_format="pyarrow")

    if ctab is not None:
        ref = ray.put(
            pa.table({"node": ctab["node"].combine_chunks(),
                      "root": ctab["root"].combine_chunks()})
        )
        tagged = with_canon_broadcast(ref)
    else:  # pragma: no cover - scale path
        tagged = parts.join(
            cmat, join_type="left_outer",
            num_partitions=plan.join_partitions(),
            on=("p_name",), right_on=("node",),
        ).map_batches(
            lambda b: b.append_column(
                "canon", pc.coalesce(b["root"], b["p_name"])
            ).drop_columns(["root"]),
            batch_format="pyarrow",
        )

    def partial(b: pa.Table) -> pa.Table:
        canon = b["canon"].to_numpy(zero_copy_only=False)
        key = b["p_partkey"].to_numpy(zero_copy_only=False)
        cents = sql_round_i64(b["p_retailprice"], 100.0).to_numpy(
            zero_copy_only=False
        )
        roots, code = np.unique(canon, return_inverse=True)
        order = np.lexsort((key, code))
        code, key, cents = code[order], key[order], cents[order]
        brand = b["p_brand"].to_numpy(zero_copy_only=False)[order]
        brk = np.empty(len(code), bool)
        brk[:1] = True
        if len(code) > 1:
            brk[1:] = code[1:] != code[:-1]
        starts = np.flatnonzero(brk)
        return pa.table(
            {
                "golden_name": pa.array(roots[code[starts]], pa.string()),
                "first_partkey": pa.array(key[starts], pa.int64()),
                "brand": pa.array(brand[starts], pa.string()),
                "max_retail_cents": pa.array(
                    np.maximum.reduceat(cents, starts), pa.int64()),
                "n_members": pa.array(
                    np.diff(np.append(starts, len(code))), pa.int64()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        i = int(np.argmin(g["first_partkey"].to_numpy(
            zero_copy_only=False)))
        return pa.table(
            {
                "golden_name": g["golden_name"].slice(0, 1),
                "brand": g["brand"].slice(i, 1),
                "max_retail_cents": pa.array(
                    [pc.max(g["max_retail_cents"]).as_py()], pa.int64()),
                "n_members": pa.array(
                    [pc.sum(g["n_members"]).as_py()], pa.int64()),
            }
        )

    return (
        tagged.map_batches(partial, batch_format="pyarrow")
        .groupby("golden_name")
        .map_groups(merge, batch_format="pyarrow")
    )


QUERIES["parts_golden_records"] = parts_golden_records

ORACLE_SQL["parts_golden_records"] = """
WITH RECURSIVE n AS (
  SELECT p_name, COUNT(*)::BIGINT AS c FROM part GROUP BY p_name
), b AS (
  SELECT p_name, c, split_part(p_name, ' ', 1) AS blk FROM n
), e AS (
  SELECT a.p_name AS x, bb.p_name AS y
  FROM b a JOIN b bb ON a.blk = bb.blk AND a.p_name < bb.p_name
  WHERE levenshtein(a.p_name, bb.p_name) <= 2
), und AS (
  SELECT x, y FROM e UNION SELECT y, x FROM e
), nodes AS (
  SELECT x AS node FROM und
  UNION SELECT p_name FROM n WHERE c > 1
), reach(node, r) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.node
), canon AS (
  SELECT node, MIN(r) AS root FROM reach GROUP BY node
)
SELECT COALESCE(c.root, p.p_name) AS golden_name,
       arg_min(p.p_brand, p.p_partkey) AS brand,
       CAST(MAX(CAST(ROUND(p.p_retailprice * 100) AS BIGINT)) AS BIGINT)
         AS max_retail_cents,
       CAST(COUNT(*) AS BIGINT) AS n_members
FROM part p LEFT JOIN canon c ON c.node = p.p_name
GROUP BY COALESCE(c.root, p.p_name)
"""


def ann_pq_topk(sf_dir: str):
    """Product-quantization ANN (ops/ann.pq_topk): 2 subspaces x 8-code
    codebooks trained by the shared integer Lloyd recurrence, ADC
    integer-distance candidate scan (vectors ship as 2 small codes),
    exact float64 cosine rescore of the top-40 to top-10 -- the
    compression family (Jegou 2011) beyond SQ8's scalar path.  The
    DuckDB oracle composes TWO suffixed _kmeans_ctes chains over the
    vector halves and replays codebooks, codes, LUTs, ADC ranking and
    the rounded rescore bit-for-bit."""
    from .ops.ann import pq_topk

    ids, mat = _query_vectors(sf_dir)
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return pq_topk(emb, ids, mat, k=10, n_sub=2, ksub=8, iterations=2,
                   oversample=4)


QUERIES["ann_pq_topk"] = ann_pq_topk


def _pq_oracle_sql(
    dim: int = 64, n_sub: int = 2, ksub: int = 8, iterations: int = 2,
    n_queries: int = 8, k: int = 10, oversample: int = 4,
) -> str:
    dsub = dim // n_sub
    it = iterations
    m = k * oversample
    pre = ["WITH "]
    for s in range(n_sub):
        lo, hi = s * dsub + 1, (s + 1) * dsub
        pre.append(
            f"subp{s} AS (SELECT vec_id, embedding[{lo}:{hi}] AS embedding "
            f"FROM embeddings){',' if s + 1 < n_sub else ''}\n"
        )
    parts = ["".join(pre)]
    for s in range(n_sub):
        parts.append(_kmeans_ctes(
            iterations=it, n_clusters=ksub, dim=dsub,
            src=f"subp{s}", suffix=f"p{s}", lead=",",
        ))
    for s in range(n_sub):
        parts.append(f""",
dall{s} AS (
  SELECT q.vec_id, c.cid,
    list_aggregate(list_transform(generate_series(1, {dsub}),
      d -> (q.v[d] - c.v[d]) * (q.v[d] - c.v[d])), 'sum') AS d2
  FROM qp{s} q CROSS JOIN c{it}p{s} c
),
codes{s} AS (
  SELECT vec_id, cid FROM dall{s}
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY d2, cid) = 1
),
lut{s} AS (
  SELECT vec_id AS qid, cid, d2 FROM dall{s} WHERE vec_id < {n_queries}
)""")
    joins = "JOIN lut0 l0 ON l0.cid = c0.cid" + "".join(
        f"\n  JOIN codes{s} c{s} ON c{s}.vec_id = c0.vec_id"
        f"\n  JOIN lut{s} l{s} ON l{s}.cid = c{s}.cid"
        f" AND l{s}.qid = l0.qid"
        for s in range(1, n_sub)
    )
    adc_sum = " + ".join(f"l{s}.d2" for s in range(n_sub))
    parts.append(f""",
adc AS (
  SELECT l0.qid, c0.vec_id, {adc_sum} AS adc
  FROM codes0 c0
  {joins}
),
cand AS (
  SELECT qid, vec_id FROM adc
  QUALIFY row_number() OVER (PARTITION BY qid ORDER BY adc, vec_id)
    <= {m}
),
fv AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings),
fq AS (SELECT vec_id AS qid, v AS qvv FROM fv WHERE vec_id < {n_queries})
SELECT c.qid, c.vec_id,
  ROUND(list_cosine_similarity(e.v, qe.qvv), 4) AS score
FROM cand c
JOIN fv e ON e.vec_id = c.vec_id
JOIN fq qe ON qe.qid = c.qid
QUALIFY row_number() OVER (
  PARTITION BY c.qid
  ORDER BY ROUND(list_cosine_similarity(e.v, qe.qvv), 4) DESC, c.vec_id
) <= {k}""")
    return "".join(parts)


ORACLE_SQL["ann_pq_topk"] = _pq_oracle_sql()


def orders_zorder_layout(sf_dir: str):
    """Z-order (Morton) layout audit (ops/relational.zorder_key): orders
    get a 2-D interleave key over (o_custkey, order-date days), then the
    layout report groups rows into 256 key ranges and shows each range's
    bounding box in BOTH dimensions -- the locality evidence behind
    OPTIMIZE ZORDER-style table clustering: a range predicate on either
    customer or date prunes whole key ranges of a z-sorted Parquet
    layout (at 100 TB this is the difference between a full scan and a
    few row groups).

    Scale shape: key assignment is a stateless integer bit-interleave
    per batch; the audit is one groupby over 256 range ids with min/max
    partials -- no row-level exchange."""
    from ray.data.aggregate import Count, Max, Min

    from .ops.relational import zorder_key

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(
            pc.divide(
                pc.cast(pc.cast(b["o_orderdate"], pa.timestamp("us")),
                        pa.int64()),
                pa.scalar(86_400_000_000, pa.int64()),
            ),
            pa.int64(),
        )
        return pa.table({"o_custkey": b["o_custkey"], "days": days})

    keyed = zorder_key(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["o_custkey", "days"], bits=16,
    )

    def to_range(b: pa.Table) -> pa.Table:
        # pyarrow 16 has no bit_wise_shift_right; zkeys are non-negative
        # so >> 20 == floor-divide by 2^20 (range granularity sized to
        # the key magnitudes of this corpus)
        z = b["zkey"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "zrange": pa.array(z >> 20, pa.int64()),
                "o_custkey": b["o_custkey"],
                "days": b["days"],
            }
        )

    return (
        keyed.map_batches(to_range, batch_format="pyarrow")
        .groupby("zrange")
        .aggregate(
            Count(alias_name="n_rows"),
            Min("o_custkey", alias_name="cust_min"),
            Max("o_custkey", alias_name="cust_max"),
            Min("days", alias_name="day_min"),
            Max("days", alias_name="day_max"),
        )
    )


QUERIES["orders_zorder_layout"] = orders_zorder_layout


def _zkey_sql_expr(cols: list[str], bits: int = 16) -> str:
    """The same bit-interleave as ops/relational.zorder_key, unrolled."""
    terms = []
    for ci, c in enumerate(cols):
        masked = f"(({c}) & {(1 << bits) - 1})"
        for i in range(bits):
            terms.append(
                f"((({masked} >> {i}) & 1) << {i * len(cols) + ci})"
            )
    return " | ".join(terms)


ORACLE_SQL["orders_zorder_layout"] = f"""
WITH b AS (
  SELECT o_custkey,
         CAST(floor(epoch(o_orderdate) / 86400) AS BIGINT) AS days
  FROM orders
), z AS (
  SELECT o_custkey, days,
         ({_zkey_sql_expr(["o_custkey", "days"])}) AS zkey
  FROM b
)
SELECT zkey >> 20 AS zrange,
       CAST(COUNT(*) AS BIGINT) AS n_rows,
       MIN(o_custkey) AS cust_min, MAX(o_custkey) AS cust_max,
       MIN(days) AS day_min, MAX(days) AS day_max
FROM z GROUP BY zrange
"""


def orders_profile(sf_dir: str):
    """Column profile of the orders table (ops/relational.table_profile):
    per column, exact row / null / distinct-value counts in ONE pass --
    values cross the exchange only as 128-bit hash identities, so a
    100-TB table profiles at hash-row cost."""
    from .ops.relational import table_profile

    return table_profile(
        _read(sf_dir, "orders",
              columns=["o_orderkey", "o_custkey", "o_orderstatus",
                       "o_totalprice", "o_orderdate", "o_orderpriority"]),
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
         "o_orderdate", "o_orderpriority"],
    )


QUERIES["orders_profile"] = orders_profile

ORACLE_SQL["orders_profile"] = """
SELECT 'o_orderkey' AS col, CAST(COUNT(*) AS BIGINT) AS n_rows,
       CAST(COUNT(*) - COUNT(o_orderkey) AS BIGINT) AS n_nulls,
       CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct
FROM orders
UNION ALL
SELECT 'o_custkey', CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(*) - COUNT(o_custkey) AS BIGINT),
       CAST(COUNT(DISTINCT o_custkey) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_orderstatus', CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(*) - COUNT(o_orderstatus) AS BIGINT),
       CAST(COUNT(DISTINCT o_orderstatus) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_totalprice', CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(*) - COUNT(o_totalprice) AS BIGINT),
       CAST(COUNT(DISTINCT o_totalprice) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_orderdate', CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(*) - COUNT(o_orderdate) AS BIGINT),
       CAST(COUNT(DISTINCT o_orderdate) AS BIGINT) FROM orders
UNION ALL
SELECT 'o_orderpriority', CAST(COUNT(*) AS BIGINT),
       CAST(COUNT(*) - COUNT(o_orderpriority) AS BIGINT),
       CAST(COUNT(DISTINCT o_orderpriority) AS BIGINT) FROM orders
"""


def events_seasonal_baseline(sf_dir: str):
    """Weekly seasonal profile: per (day-of-week, hour-of-day), event
    count and the exact floored mean value in micro-cents -- the
    baseline a forecaster/anomaly detector subtracts before looking at
    residuals (the per-cycle counter reports, SURVEY SS2.6 A3, lifted to
    calendar seasonality).  The mean uses the shared offset-floor trick
    ((S*10000 + n*K) // n - K) so DuckDB's truncating // replays
    numpy's floor division bit-for-bit on possibly-negative sums.

    Scale shape: stateless bucket derivation (pure integer epoch
    arithmetic -- no calendar functions, so both engines compute the
    SAME dow) + ONE tiny groupby over <=168 cells."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", columns=["ts", "value"])
    K = np.int64(1) << np.int64(40)

    def buckets(b: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(b["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        days = np.floor_divide(us, 86_400_000_000)
        hours = np.floor_divide(us, 3_600_000_000)
        return pa.table(
            {
                # epoch day 0 = Thursday = 4 in the Sunday=0 convention
                "dow": pa.array((days + 4) % 7, pa.int64()),
                "hour": pa.array(hours % 24, pa.int64()),
                "cents": sql_round_i64(b["value"], 100.0),
            }
        )

    agg = (
        ds.map_batches(buckets, batch_format="pyarrow")
        .groupby(["dow", "hour"])
        .aggregate(Count(alias_name="n_events"),
                   Sum("cents", alias_name="s"))
    )

    def finish(b: pa.Table) -> pa.Table:
        s = b["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = b["n_events"].to_numpy(zero_copy_only=False).astype(np.int64)
        mean = (s * 10000 + n * K) // n - K
        return pa.table(
            {
                "dow": b["dow"],
                "hour": b["hour"],
                "n_events": pa.array(n, pa.int64()),
                "mean_microcents": pa.array(mean, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


QUERIES["events_seasonal_baseline"] = events_seasonal_baseline

ORACLE_SQL["events_seasonal_baseline"] = """
WITH b AS (
  SELECT (CAST(floor(epoch(ts) / 86400) AS BIGINT) + 4) % 7 AS dow,
         CAST(floor(epoch(ts) / 3600) AS BIGINT) % 24 AS hour,
         CAST(ROUND(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT dow, hour, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST((SUM(cents) * 10000 + COUNT(*) * 1099511627776)
            // COUNT(*) - 1099511627776 AS BIGINT) AS mean_microcents
FROM b GROUP BY dow, hour
"""


def events_funnel_latency(sf_dir: str):
    """Per-user conversion latency: microseconds from the user's FIRST
    'view' to their first 'purchase' at-or-after it -- the time-to-convert
    metric next to events_funnel's step counts.  Users who never view or
    never purchase after viewing drop out (inner funnel semantics).

    Scale shape: two slim passes -- (1) per-user first-view via per-batch
    min partials + one tiny groupby, broadcast back (byte-budgeted with
    a join fallback); (2) per-batch min-purchase-after-t0 partials over
    the filtered stream + one tiny groupby.  Timestamps cross the
    exchange as int64 micros; no full-row shuffle anywhere."""
    import ray

    from ray.data.aggregate import Min

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def slim(event_type: str):
        def prep(b: pa.Table, _t=event_type) -> pa.Table:
            hit = pc.equal(b["event_type"], _t)
            return pa.table(
                {
                    "user_id": b["user_id"].filter(hit),
                    "us": pc.cast(
                        pc.cast(b["ts"].filter(hit), pa.timestamp("us")),
                        pa.int64(),
                    ),
                }
            )

        return ds.map_batches(prep, batch_format="pyarrow")

    first_view = (
        slim("view").groupby("user_id").aggregate(Min("us", alias_name="t0"))
    )
    vtab, vmat = plan.small_side("events_funnel_latency", first_view)
    if vtab is not None:
        ref = ray.put(
            pa.table({"user_id": vtab["user_id"].combine_chunks(),
                      "t0": vtab["t0"].combine_chunks()})
        )

        def after_t0(b: pa.Table) -> pa.Table:
            t = ray.get(ref)
            idx = pc.index_in(b["user_id"], value_set=t["user_id"])
            t0 = pc.take(t["t0"], idx)
            keep = pc.and_kleene(pc.is_valid(t0),
                                 pc.greater_equal(b["us"], t0))
            keep = pc.fill_null(keep, False)
            f = b.filter(keep)
            return pa.table(
                {
                    "user_id": f["user_id"],
                    "us": f["us"],
                    "t0": pc.take(t["t0"], pc.index_in(
                        f["user_id"], value_set=t["user_id"])),
                }
            )

        purchases = slim("purchase").map_batches(
            after_t0, batch_format="pyarrow"
        )
    else:  # pragma: no cover - scale path
        purchases = slim("purchase").join(
            vmat, join_type="inner", num_partitions=plan.join_partitions(),
            on=("user_id",),
        ).filter(expr="us >= t0")

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b["user_id"],
                "latency_us": pc.subtract(b["t1"], b["t0"]),
            }
        )

    return (
        purchases.groupby(["user_id", "t0"])
        .aggregate(Min("us", alias_name="t1"))
        .map_batches(finish, batch_format="pyarrow")
    )


QUERIES["events_funnel_latency"] = events_funnel_latency

ORACLE_SQL["events_funnel_latency"] = """
WITH v AS (
  SELECT user_id, MIN(CAST(epoch_us(ts) AS BIGINT)) AS t0
  FROM events WHERE event_type = 'view' GROUP BY user_id
), p AS (
  SELECT e.user_id, MIN(CAST(epoch_us(e.ts) AS BIGINT)) AS t1
  FROM events e JOIN v ON v.user_id = e.user_id
  WHERE e.event_type = 'purchase'
    AND CAST(epoch_us(e.ts) AS BIGINT) >= v.t0
  GROUP BY e.user_id
)
SELECT v.user_id, p.t1 - v.t0 AS latency_us
FROM v JOIN p ON p.user_id = v.user_id
"""


def kg_bgp_minus(sf_dir: str):
    """SPARQL MINUS over the flagship graph:

        SELECT ?doc ?lang WHERE {
          ?doc dc:language ?lang .
          MINUS { ?doc owl:sameAs ?canon } }

    -- every document's language EXCEPT aliased documents (those carrying
    a sameAs link): the negation shape (ops/bgp.bgp_minus), executed as
    the star match plus ONE broadcast-or-anti-join on the distinct
    excluded-subject set.  Only doc_id % 3 == 0 documents get shifted
    copies here, so the graph holds BOTH aliased and clean documents
    (full augmentation would alias everything and MINUS the graph away)."""
    import ray.data as rd  # noqa: F401

    from .ops.bgp import bgp_minus
    from .stages.canonicalize import sameas_by_shared_key, symmetry_closure

    docs = _read(sf_dir, "documents", target_rows=4096)

    def shift_third(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        keep = pa.array(ids % 3 == 0)
        f = batch.filter(keep)
        cols = {c: f[c] for c in f.column_names}
        cols["doc_id"] = pc.add(f["doc_id"], pa.scalar(1000000))
        return pa.table(cols)

    aug = docs.union(docs.map_batches(shift_third, batch_format="pyarrow"))
    base = _lower_docs(aug, predicates={DC_LANGUAGE})

    def hash_triples(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        texts = b["text"].to_pylist()
        n = len(ids)
        return pa.table(
            {
                "subj": pa.array([f"{DOC_BASE}{i}" for i in ids],
                                 pa.string()),
                "pred": pa.array(["hash"] * n, pa.string()),
                "obj": pa.array(
                    [hashlib.md5((t or "").encode()).hexdigest()
                     for t in texts], pa.string()),
                "obj_kind": pa.array(["literal"] * n, pa.string()),
                "lang": pa.array([None] * n, pa.string()),
                "src": pa.array([f"{DOC_BASE}{i}" for i in ids],
                                pa.string()),
            }
        )

    sameas = symmetry_closure(
        sameas_by_shared_key(
            aug.map_batches(hash_triples, batch_format="pyarrow"), "hash"
        ),
        dedup=False,
    )
    slim3 = lambda b: b.select(["subj", "pred", "obj"])  # noqa: E731
    triples = base.map_batches(slim3, batch_format="pyarrow").union(
        sameas.map_batches(slim3, batch_format="pyarrow")
    )
    return bgp_minus(
        triples, [(DC_LANGUAGE, "lang")],
        "http://www.w3.org/2002/07/owl#sameAs",
    )


QUERIES["kg_bgp_minus"] = kg_bgp_minus

ORACLE_SQL["kg_bgp_minus"] = """
WITH aug AS (
  SELECT doc_id, text, lang FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text, lang FROM documents WHERE doc_id % 3 = 0
), hashes AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM aug
), m AS (
  SELECT h, min(subj) AS canon FROM hashes GROUP BY h
), aliased AS (
  SELECT a.subj FROM hashes a JOIN m ON a.h = m.h WHERE a.subj <> m.canon
  UNION
  SELECT m.canon FROM hashes a JOIN m ON a.h = m.h WHERE a.subj <> m.canon
), langs AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         'http://lexvo.org/id/iso639-3/' || lang AS lang FROM aug
)
SELECT DISTINCT subj, lang FROM langs
WHERE subj NOT IN (SELECT subj FROM aliased)
"""


def events_type_lift(sf_dir: str):
    """Association-rule lift per unordered event-type pair:
    lift_micro = floor(1e6 * N * n_ab / (n_a * n_b)) over distinct-user
    incidence (N = users doing anything, n_x = users doing x, n_ab =
    users doing both) -- the market-basket strength metric on top of
    events_type_cooccurrence's raw counts; > 1e6 means positive
    association.  Exact integer arithmetic throughout (one floor
    division, numerator <= N^3 < 2^63 at any realistic type
    cardinality).

    Scale shape: pair counts from the bucketed cooccurrence machinery;
    per-type and total marginals are two tiny distinct-count aggregates
    broadcast into an O(#types^2) driver-free finish map."""
    import ray

    from ray.data.aggregate import Count

    from .ops.dedup import distinct_first
    from .ops.relational import cooccurrence_pairs

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    pairs = cooccurrence_pairs(
        ds, entity_col="user_id", item_col="event_type"
    )

    def slim(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"user_id": b["user_id"], "event_type": b["event_type"]}
        )
        return t.group_by(
            ["user_id", "event_type"], use_threads=False
        ).aggregate([])

    incidence = (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .count()
        .select_columns(["user_id", "event_type"])
        .materialize()
    )
    per_type = _mat_table(
        incidence.groupby("event_type").aggregate(Count(alias_name="n"))
    )
    n_users = distinct_first(incidence, "user_id").count()
    marg = dict(zip(per_type["event_type"].to_pylist(),
                    per_type["n"].to_pylist()))
    mref = ray.put(marg)

    def finish(b: pa.Table) -> pa.Table:
        m = ray.get(mref)
        na = np.array([m[x] for x in b["item_a"].to_pylist()], np.int64)
        nb = np.array([m[x] for x in b["item_b"].to_pylist()], np.int64)
        nab = b["n_entities"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        lift = (np.int64(1_000_000) * np.int64(n_users) * nab) // (na * nb)
        return pa.table(
            {
                "item_a": b["item_a"],
                "item_b": b["item_b"],
                "n_entities": pa.array(nab, pa.int64()),
                "lift_micro": pa.array(lift, pa.int64()),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


QUERIES["events_type_lift"] = events_type_lift

ORACLE_SQL["events_type_lift"] = """
WITH i AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT COUNT(DISTINCT user_id)::BIGINT AS nu FROM i),
m AS (SELECT event_type, COUNT(*)::BIGINT AS c FROM i GROUP BY 1),
p AS (
  SELECT a.event_type AS item_a, b.event_type AS item_b,
         COUNT(*)::BIGINT AS n_entities
  FROM i a JOIN i b
    ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT p.item_a, p.item_b, p.n_entities,
       CAST((1000000 * n.nu * p.n_entities) // (ma.c * mb.c) AS BIGINT)
         AS lift_micro
FROM p, n
JOIN m ma ON ma.event_type = p.item_a
JOIN m mb ON mb.event_type = p.item_b
"""


def docs_ccnet_buckets(sf_dir: str):
    """CCNet head/middle/tail split: every document's mean LM cost in
    integer micro-bits per trigram (docs_trigram_bits; lower = closer to
    the corpus LM) ranked into exact terciles (ops/relational.ntile) --
    the quality bucketing CCNet applies before keeping 'head' shards
    (Wenzek et al. 2020, public).  Docs with no trigrams drop out.

    Scale shape: the trigram model trains in one bincount-partial pass
    and broadcasts; the tercile split is the distributed-NTILE shape
    (O(#distinct scores) driver cumulative table, one score-bucketed
    shuffle, NO global row sort)."""
    from .ops.relational import ntile

    tb = docs_trigram_bits(sf_dir)

    def score(b: pa.Table) -> pa.Table:
        n = b["n_tri"].to_numpy(zero_copy_only=False).astype(np.int64)
        mb = b["microbits"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = n > 0
        # both positive -> truncation == floor == DuckDB //
        return pa.table(
            {
                "doc_id": pa.array(
                    b["doc_id"].to_numpy(zero_copy_only=False)[keep],
                    pa.int64()),
                "mean_mb": pa.array(mb[keep] // n[keep], pa.int64()),
            }
        )

    nt = ntile(tb.map_batches(score, batch_format="pyarrow"),
               score_col="mean_mb", id_col="doc_id", q=3, scale=1.0)

    def label(b: pa.Table) -> pa.Table:
        t = b["tile"].to_numpy(zero_copy_only=False)
        names = np.array(["head", "middle", "tail"])
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "score_units": b["score_units"],
                "tile": b["tile"],
                "bucket": pa.array(names[t - 1], pa.string()),
            }
        )

    return nt.map_batches(label, batch_format="pyarrow")


QUERIES["docs_ccnet_buckets"] = docs_ccnet_buckets

ORACLE_SQL["docs_ccnet_buckets"] = f"""
WITH tb AS ({ORACLE_SQL["docs_trigram_bits"]}),
s AS (
  SELECT doc_id, microbits // n_tri AS mean_mb FROM tb WHERE n_tri > 0
)
SELECT doc_id, mean_mb AS score_units,
       CAST(NTILE(3) OVER (ORDER BY mean_mb, doc_id) AS BIGINT) AS tile,
       CASE NTILE(3) OVER (ORDER BY mean_mb, doc_id)
            WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail'
       END AS bucket
FROM s
"""


def graph_random_walks(sf_dir: str):
    """Deterministic 3-step random-walk corpus (ops/graph.random_walks)
    over the md5 link graph -- the DeepWalk/node2vec walk-generation
    step; every hop choice is md5(node:step) % outdeg in dst-sorted
    order, so the oracle replays each walk exactly.  Walks start at
    every node with out-edges; a sink truncates the walk (NULL tail)."""
    from .ops.graph import random_walks

    edges, _, _ = _md5_link_graph(sf_dir)
    return random_walks(edges, steps=3)


QUERIES["graph_random_walks"] = graph_random_walks

_WALK_PICK = ("CAST(('0x' || substr(md5(CAST({node} AS VARCHAR) || ':{st}'),"
              " 1, 8)) AS BIGINT)")

ORACLE_SQL["graph_random_walks"] = f"""
WITH {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src AS node, dst AS nbr FROM edges WHERE src <> dst),
adj AS (
  SELECT node, nbr,
         ROW_NUMBER() OVER (PARTITION BY node ORDER BY nbr) - 1 AS idx,
         COUNT(*) OVER (PARTITION BY node) AS deg
  FROM e
),
starts AS (SELECT DISTINCT node AS start FROM e),
w1 AS (
  SELECT s.start, a.nbr AS s1
  FROM starts s JOIN adj a ON a.node = s.start
   AND a.idx = {_WALK_PICK.format(node='s.start', st=1)} % a.deg
),
w2 AS (
  SELECT w1.start, w1.s1, a.nbr AS s2
  FROM w1 LEFT JOIN adj a ON a.node = w1.s1
   AND a.idx = {_WALK_PICK.format(node='w1.s1', st=2)} % a.deg
),
w3 AS (
  SELECT w2.start, w2.s1, w2.s2, a.nbr AS s3
  FROM w2 LEFT JOIN adj a ON a.node = w2.s2
   AND a.idx = {_WALK_PICK.format(node='w2.s2', st=3)} % a.deg
)
SELECT start, s1, s2, s3 FROM w3
"""


def graph_walk_skipgrams(sf_dir: str):
    """Skip-gram training pairs from the deterministic walks
    (graph_random_walks): each walk [start, s1, s2, s3] emits every
    (center, context) pair within window 1 plus distance-2 pairs --
    window 2 in DeepWalk terms -- skipping NULL (truncated) positions;
    the distinct pair set with multiplicity is the node-embedding
    training corpus (Perozzi 2014).  Returns (center, context, n_pairs).

    Scale shape: pair expansion is a stateless vectorized shift over the
    walk columns inside each batch (walks never join anything); ONE
    (center, context) groupby-count finishes, with per-batch local
    collapse ahead of it."""
    from ray.data.aggregate import Sum

    walks = graph_random_walks(sf_dir)

    def expand(b: pa.Table) -> pa.Table:
        seq = np.stack(
            [
                pc.fill_null(b[c], -1).to_numpy(zero_copy_only=False)
                for c in ("start", "s1", "s2", "s3")
            ]
        )  # (4, n)
        centers, contexts = [], []
        for i in range(4):
            for j in range(4):
                if i != j and abs(i - j) <= 2:
                    a, c = seq[i], seq[j]
                    ok = (a >= 0) & (c >= 0)
                    centers.append(a[ok])
                    contexts.append(c[ok])
        t = pa.table(
            {
                "center": pa.array(np.concatenate(centers), pa.int64()),
                "context": pa.array(np.concatenate(contexts), pa.int64()),
                "n": pa.array(
                    np.ones(sum(len(x) for x in centers), np.int64)),
            }
        )
        return (
            t.group_by(["center", "context"], use_threads=False)
            .aggregate([("n", "sum")])
            .rename_columns(["center", "context", "n"])
        )

    return (
        walks.map_batches(expand, batch_format="pyarrow")
        .groupby(["center", "context"])
        .aggregate(Sum("n", alias_name="n_pairs"))
    )


QUERIES["graph_walk_skipgrams"] = graph_walk_skipgrams

ORACLE_SQL["graph_walk_skipgrams"] = f"""
WITH w AS ({ORACLE_SQL["graph_random_walks"]}),
pos AS (
  SELECT start AS p0, s1 AS p1, s2 AS p2, s3 AS p3 FROM w
),
pairs AS (
  SELECT p0 AS center, p1 AS context FROM pos
  UNION ALL SELECT p0, p2 FROM pos
  UNION ALL SELECT p1, p0 FROM pos
  UNION ALL SELECT p1, p2 FROM pos
  UNION ALL SELECT p1, p3 FROM pos
  UNION ALL SELECT p2, p0 FROM pos
  UNION ALL SELECT p2, p1 FROM pos
  UNION ALL SELECT p2, p3 FROM pos
  UNION ALL SELECT p3, p1 FROM pos
  UNION ALL SELECT p3, p2 FROM pos
)
SELECT center, context, CAST(COUNT(*) AS BIGINT) AS n_pairs
FROM pairs
WHERE center IS NOT NULL AND context IS NOT NULL
GROUP BY center, context
"""


def dedup_provenance(sf_dir: str):
    """Dedup LINEAGE: one row per DROPPED document mapping it to its
    survivor with the reason -- ('exact': same md5 content, survivor =
    min id of the hash group; 'near': MinHash-LSH + connected-components
    cluster over the exact survivors, survivor = cluster-min id).  The
    audit table a filtering pipeline must keep to explain every removal
    (the corpus flagship drops these docs; this op preserves WHY) --
    provenance the reference keeps per conversion cycle (SURVEY SS2.6
    T4), lifted to record level.  Corpus: documents ∪ exact copies
    (+1e6) ∪ last-word-dropped near copies (+2e6), so both reasons fire.

    Scale shape: the exact stage broadcasts the (hash -> survivor) group
    table under the byte budget (distributed hash join above it); the
    near stage is the bucketed LSH + CC machinery; nothing rescans
    texts after the survivor filter."""
    import ray

    from .ops.dedup import add_content_hash, exact_dedup_groups, \
        minhash_lsh_pairs
    from .stages.canonicalize import connected_components

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def copies(shift: int, perturb: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = [i + shift for i in b["doc_id"].to_pylist()]
            texts = b["text"].to_pylist()
            if perturb:
                texts = [" ".join((t or "").split()[:-1]) for t in texts]
            return pa.table(
                {"doc_id": pa.array(ids, pa.int64()),
                 "text": pa.array(texts, pa.string())}
            )

        return docs.map_batches(f, batch_format="pyarrow")

    aug3 = docs.union(copies(1000000, False)).union(copies(2000000, True))
    groups = exact_dedup_groups(aug3)  # (content_hash, doc_id=min, cnt)
    gtab, gmat = plan.small_side("dedup_provenance", groups)

    if gtab is not None:
        ref = ray.put(
            pa.table({"h": gtab["content_hash"].combine_chunks(),
                      "m": pc.cast(gtab["doc_id"], pa.int64())
                      .combine_chunks()})
        )

        def tag(b: pa.Table) -> pa.Table:
            t = ray.get(ref)
            hb = add_content_hash(b, "text")
            idx = pc.index_in(hb["content_hash"], value_set=t["h"])
            return pa.table(
                {
                    "doc_id": pc.cast(b["doc_id"], pa.int64()),
                    "text": b["text"],
                    "survivor_id": pc.take(t["m"], idx),
                }
            )

        tagged = aug3.map_batches(tag, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        hashed = aug3.map_batches(
            lambda b: add_content_hash(b, "text"), batch_format="pyarrow"
        )
        tagged = hashed.join(
            gmat.map_batches(
                lambda b: pa.table(
                    {"content_hash": b["content_hash"],
                     "survivor_id": pc.cast(b["doc_id"], pa.int64())}
                ),
                batch_format="pyarrow",
            ),
            join_type="inner", num_partitions=plan.join_partitions(),
            on=("content_hash",),
        )
    tagged = tagged.materialize()

    exact_prov = tagged.map_batches(
        lambda b: (lambda f: pa.table(
            {
                "doc_id": f["doc_id"],
                "survivor_id": f["survivor_id"],
                "reason": pa.array(["exact"] * len(f), pa.string()),
            }
        ))(b.filter(pc.not_equal(b["doc_id"], b["survivor_id"]))),
        batch_format="pyarrow",
    )
    survivors = tagged.map_batches(
        lambda b: b.filter(
            pc.equal(b["doc_id"], b["survivor_id"])
        ).select(["doc_id", "text"]),
        batch_format="pyarrow",
    )

    pairs = minhash_lsh_pairs(survivors, threshold=0.7)
    edges = pairs.map_batches(
        lambda b: pa.table({"subj": b["a"], "obj": b["b"]}),
        batch_format="pyarrow",
    )
    comp = connected_components(edges, rounds=4)
    near_prov = comp.map_batches(
        lambda b: (lambda f: pa.table(
            {
                "doc_id": pc.cast(f["node"], pa.int64()),
                "survivor_id": pc.cast(f["root"], pa.int64()),
                "reason": pa.array(["near"] * len(f), pa.string()),
            }
        ))(b.filter(pc.not_equal(b["node"], b["root"]))),
        batch_format="pyarrow",
    )
    return exact_prov.union(near_prov)


QUERIES["dedup_provenance"] = dedup_provenance

ORACLE_SQL["dedup_provenance"] = r"""
WITH RECURSIVE aug3 AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents
  UNION ALL
  SELECT doc_id + 2000000,
    CASE WHEN length(regexp_extract_all(text, '\S+')) <= 1 THEN ''
         ELSE array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
              length(regexp_extract_all(text, '\S+')) - 1), ' ') END
  FROM documents
), g AS (
  SELECT doc_id, md5(COALESCE(text, '')) AS h FROM aug3
), m AS (
  SELECT h, MIN(doc_id) AS survivor FROM g GROUP BY h
), surv AS (
  SELECT a.doc_id, a.text FROM aug3 a JOIN m ON m.survivor = a.doc_id
), """ + _minhash_ctes_over("surv") + r""",
prs AS (SELECT a, b FROM est WHERE ej >= 0.7),
und AS (SELECT a AS x, b AS y FROM prs UNION SELECT b, a FROM prs),
nds AS (SELECT DISTINCT x AS node FROM und),
reach(node, r) AS (
  SELECT node, node FROM nds
  UNION
  SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.node
),
roots AS (SELECT node, MIN(r) AS root FROM reach GROUP BY node)
SELECT g.doc_id, m.survivor AS survivor_id, 'exact' AS reason
FROM g JOIN m ON m.h = g.h WHERE g.doc_id <> m.survivor
UNION ALL
SELECT node, root, 'near' FROM roots WHERE node <> root
"""


def events_selfjoin_size_cms(sf_dir: str):
    """Join-size estimation (optimizer statistics): the exact
    user_id-self-join size of events (sum of per-user count squares)
    next to the count-min F2 upper bound (ops/sketches.cms_f2_estimate:
    per grid row SUM(bucket^2), MIN over rows) -- the sketch an engine
    consults before choosing broadcast vs shuffle, certified against
    the exact answer it approximates.

    Scale shape: exact side = per-batch per-key partials -> one groupby
    -> sum of squares partials (keys shuffle once as counts); sketch
    side never ships keys at all (depth x width grid partials)."""
    from ray.data.aggregate import Sum

    from .ops.sketches import cms_f2_estimate

    ds = _read(sf_dir, "events", columns=["user_id"])

    def key_partial(b: pa.Table) -> pa.Table:
        u, c = np.unique(
            b["user_id"].to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        return pa.table(
            {"user_id": pa.array(u, pa.int64()),
             "c": pa.array(c.astype(np.int64), pa.int64())}
        )

    per_user = (
        ds.map_batches(key_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("c", alias_name="c"))
    )

    def sq_partial(b: pa.Table) -> pa.Table:
        c = b["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"s": pa.array([int((c * c).sum())], pa.int64())})

    exact = int(
        _mat_table(
            per_user.map_batches(sq_partial, batch_format="pyarrow")
            .groupby(None)
            .aggregate(Sum("s", alias_name="s"))
        )["s"][0].as_py()
    )
    sk = cms_f2_estimate(ds, "user_id", depth=4, width=1024)
    return pa.table(
        {
            "exact_size": pa.array([exact], pa.int64()),
            "cms_estimate": pa.array([sk["estimate"][0].as_py()],
                                     pa.int64()),
        }
    )


QUERIES["events_selfjoin_size_cms"] = events_selfjoin_size_cms

ORACLE_SQL["events_selfjoin_size_cms"] = """
WITH rows_(r) AS (VALUES (0), (1), (2), (3)),
g AS (
  SELECT r.r AS row,
         CAST(CAST(('0x' || substr(md5(CAST(r.r AS VARCHAR)
                                        || CAST(user_id AS VARCHAR)), 1, 16))
                   AS UBIGINT) % 1024 AS BIGINT) AS bucket,
         COUNT(*) AS cnt
  FROM events, rows_ r GROUP BY 1, 2
),
per_row AS (
  SELECT row, SUM(cnt * cnt) AS f2 FROM g GROUP BY row
),
exact AS (
  SELECT CAST(SUM(c * c) AS BIGINT) AS exact_size
  FROM (SELECT COUNT(*) AS c FROM events GROUP BY user_id)
)
SELECT exact.exact_size,
       CAST((SELECT MIN(f2) FROM per_row) AS BIGINT) AS cms_estimate
FROM exact
"""


def graph_temporal_reachability(sf_dir: str):
    """Bounded-round earliest-arrival over the temporal md5 link graph
    (ops/graph.py temporal_reachability): 3 relaxations from the
    doc_id % 25 == 0 seed set; each edge carries an md5-derived
    departure stamp t in 0..999 and duration 1..5 and is traversable
    only when t >= the walker's arrival at its source -- the
    time-respecting-path semantics (contact networks, crawl recency)
    that a plain shortest path cannot express.  int64 mins of int64
    sums gated by int64 comparisons: bit-identical to the unrolled
    DuckDB recurrence."""
    from .ops.graph import temporal_reachability

    edges, nodes, _ = _md5_link_graph(sf_dir)

    def seed_mask(b: pa.Table) -> pa.Table:
        n = b["node"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(n % 25 == 0))

    seeds = nodes.map_batches(seed_mask, batch_format="pyarrow")
    return temporal_reachability(edges, seeds, rounds=3)


QUERIES["graph_temporal_reachability"] = graph_temporal_reachability

ORACLE_SQL["graph_temporal_reachability"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
edges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
ew AS (
  SELECT src, dst,
         CAST(('0x' || substr(md5(CAST(src AS VARCHAR) || ':'
               || CAST(dst AS VARCHAR) || 't'), 1, 8)) AS BIGINT)
           % 1000 AS t,
         1 + CAST(('0x' || substr(md5(CAST(src AS VARCHAR) || ':'
               || CAST(dst AS VARCHAR) || 't'), 9, 8)) AS BIGINT) % 5 AS dur
  FROM edges
),
a0 AS (
  SELECT CAST(doc_id AS BIGINT) AS node, CAST(0 AS BIGINT) AS arrival
  FROM documents WHERE doc_id % 25 = 0
),
c1 AS (SELECT e.dst AS node, e.t + e.dur AS arrival
       FROM ew e JOIN a0 ON a0.node = e.src WHERE e.t >= a0.arrival),
a1 AS (SELECT node, MIN(arrival) AS arrival FROM
       (SELECT * FROM a0 UNION ALL SELECT * FROM c1) GROUP BY node),
c2 AS (SELECT e.dst AS node, e.t + e.dur AS arrival
       FROM ew e JOIN a1 ON a1.node = e.src WHERE e.t >= a1.arrival),
a2 AS (SELECT node, MIN(arrival) AS arrival FROM
       (SELECT * FROM a1 UNION ALL SELECT * FROM c2) GROUP BY node),
c3 AS (SELECT e.dst AS node, e.t + e.dur AS arrival
       FROM ew e JOIN a2 ON a2.node = e.src WHERE e.t >= a2.arrival),
a3 AS (SELECT node, MIN(arrival) AS arrival FROM
       (SELECT * FROM a2 UNION ALL SELECT * FROM c3) GROUP BY node)
SELECT node, arrival FROM a3
"""


def graph_boruvka_msf(sf_dir: str):
    """Two Boruvka minimum-spanning-forest rounds over the undirected md5
    link graph (ops/graph.py boruvka_msf): each round every component
    picks its minimum outgoing edge under the strict total order
    (w, u, v) with md5-derived 48-bit integer weights, selected edges
    contract via the budget-gated CC fast path.  Fixed-round semantics
    (the ktruss contract): the oracle unrolls both rounds, relabeling
    between them with the recursive min-reach closure.  The fixpoint
    variant (rounds=None) is proven equal to an independent union-find
    Kruskal in tests/test_graph_msf.py."""
    from .ops.graph import boruvka_msf

    edges, nodes, _ = _md5_link_graph(sf_dir)
    return boruvka_msf(edges, nodes, rounds=2)


QUERIES["graph_boruvka_msf"] = graph_boruvka_msf

ORACLE_SQL["graph_boruvka_msf"] = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS n FROM documents),
dedges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
und AS (
  SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM dedges WHERE src <> dst GROUP BY 1, 2
),
ew AS (
  SELECT u, v,
         CAST(('0x' || substr(md5(CAST(u AS VARCHAR) || '~'
               || CAST(v AS VARCHAR) || 'm'), 1, 12)) AS BIGINT) AS w
  FROM und
),
inc1 AS (
  SELECT u AS comp, w, u, v FROM ew
  UNION ALL SELECT v AS comp, w, u, v FROM ew
),
sel1 AS (
  SELECT comp, w, u, v FROM inc1
  QUALIFY ROW_NUMBER() OVER (PARTITION BY comp ORDER BY w, u, v) = 1
),
s1 AS (SELECT DISTINCT u, v, w FROM sel1),
und1 AS (SELECT u AS x, v AS y FROM s1 UNION SELECT v, u FROM s1),
allnodes AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents),
reach(node, r) AS (
  SELECT node, node FROM allnodes
  UNION
  SELECT u.y, reach.r FROM reach JOIN und1 u ON u.x = reach.node
),
comp1 AS (SELECT node, MIN(r) AS root FROM reach GROUP BY node),
ec2 AS (
  SELECT e.w, e.u, e.v, cu.root AS cu, cv.root AS cv
  FROM ew e
  JOIN comp1 cu ON cu.node = e.u
  JOIN comp1 cv ON cv.node = e.v
  WHERE cu.root <> cv.root
),
inc2 AS (
  SELECT cu AS comp, w, u, v FROM ec2
  UNION ALL SELECT cv AS comp, w, u, v FROM ec2
),
sel2 AS (
  SELECT comp, w, u, v FROM inc2
  QUALIFY ROW_NUMBER() OVER (PARTITION BY comp ORDER BY w, u, v) = 1
),
s2 AS (SELECT DISTINCT u, v, w FROM sel2)
SELECT u AS src, v AS dst, w
FROM (SELECT * FROM s1 UNION SELECT * FROM s2)
"""


def docs_crawl_frontier(sf_dir: str):
    """Politeness-capped crawl frontier: doc i emits (i % 5) md5-derived
    outlinks into a 3x-larger URL universe; links already crawled
    (present in documents) drop via the broadcast-or-anti-join filter
    (ops/dedup.py anti_join_filter); surviving targets aggregate
    in-link counts (per-batch unique combiner -> one groupby-sum); each
    target hashes to a host shard (url_id % 17) and every host keeps
    its top-5 targets by (in-links DESC, url_id ASC) via the partial
    top-k combiner (ops/relational.py topk_per_group) -- the crawl
    scheduler's next-wave selection (reference analog: the OAI
    harvester's next-window record pull, oai.rb), re-expressed as a
    frontier build over web-scale link tables.

    Scale shape: the link fan-out never materializes per-URL strings
    (int64 ids only); the crawled set broadcasts under a byte budget
    and degrades to a distributed anti-join; at most 5 rows per host
    per batch cross the final exchange."""
    import hashlib as _hl

    from .ops.dedup import anti_join_filter
    from .ops.relational import topk_per_group
    from ray.data.aggregate import Sum

    docs = _read(sf_dir, "documents", columns=["doc_id"])
    n = docs.count()

    def links(b: pa.Table) -> pa.Table:
        tgt = []
        for i in b["doc_id"].to_pylist():
            for k in range(i % 5):
                tgt.append(
                    int(
                        _hl.md5(f"{i}:{k}f".encode()).hexdigest()[:8], 16
                    ) % (3 * n)
                )
        u, c = np.unique(np.asarray(tgt, np.int64), return_counts=True)
        return pa.table(
            {"url_id": pa.array(u, pa.int64()),
             "c": pa.array(c.astype(np.int64), pa.int64())}
        )

    cand = docs.map_batches(links, batch_format="pyarrow")
    crawled = docs.map_batches(
        lambda b: pa.table({"url_id": pc.cast(b["doc_id"], pa.int64())}),
        batch_format="pyarrow",
    )
    unc = anti_join_filter(cand, crawled, "url_id")
    counts = unc.groupby("url_id").aggregate(Sum("c", alias_name="n_inlinks"))

    def host(b: pa.Table) -> pa.Table:
        t = b["url_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "host",
            pa.array(
                np.char.add("host", (t % 17).astype("U2")), pa.string()
            ),
        )

    top = topk_per_group(
        counts.map_batches(host, batch_format="pyarrow"),
        key_col="host", value_col="n_inlinks", id_col="url_id",
        k=5, cents_factor=None,
    )
    return top.map_batches(
        lambda b: pa.table(
            {"host": b["host"], "url_id": b["url_id"],
             "n_inlinks": b["value_units"], "rank": b["rnk"]}
        ),
        batch_format="pyarrow",
    )


QUERIES["docs_crawl_frontier"] = docs_crawl_frontier

ORACLE_SQL["docs_crawl_frontier"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
links AS (
  SELECT CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR) || 'f'), 1, 8)) AS BIGINT)
           % (3 * (SELECT n FROM nn)) AS url_id
  FROM documents d CROSS JOIN (VALUES (0), (1), (2), (3)) r(k)
  WHERE r.k < d.doc_id % 5
),
unc AS (
  SELECT l.url_id FROM links l
  WHERE NOT EXISTS (SELECT 1 FROM documents d WHERE d.doc_id = l.url_id)
),
counts AS (
  SELECT url_id, COUNT(*)::BIGINT AS n_inlinks FROM unc GROUP BY url_id
),
ranked AS (
  SELECT 'host' || CAST(url_id % 17 AS VARCHAR) AS host,
         url_id, n_inlinks,
         ROW_NUMBER() OVER (
           PARTITION BY url_id % 17
           ORDER BY n_inlinks DESC, url_id
         ) AS rank
  FROM counts
)
SELECT host, url_id, n_inlinks, rank FROM ranked WHERE rank <= 5
"""


_BPE_MERGES = [
    ("t", "h"), ("th", "e"), ("s", "c"), ("sc", "a"), ("sca", "n"),
    ("o", "r"), ("e", "r"), ("w", "i"), ("wi", "n"), ("b", "a"),
    ("ba", "t"), ("c", "h"), ("bat", "ch"), ("d", "u"), ("m", "e"),
    ("r", "g"),
]


def docs_bpe_tokens(sf_dir: str):
    """Apply-only BPE tokenization (ops/corpus.py BPETokenCount): a
    16-merge table applied min-rank-first with all-occurrences
    left-to-right merge semantics per step; per-document subword token
    counts.  Merge ranks compile once per actor, distinct words tokenize
    once per actor (cache), so per-batch work is a dict lookup per word.
    The DuckDB oracle replays the identical semantics with a recursive
    CTE over '<c><c>..' symbol strings (replace() is left-to-right
    non-overlapping -- exactly the BPE merge scan)."""
    from .ops.corpus import bpe_token_counts

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bpe_token_counts(ds, _BPE_MERGES)


QUERIES["docs_bpe_tokens"] = docs_bpe_tokens

ORACLE_SQL["docs_bpe_tokens"] = r"""
WITH RECURSIVE merges(a, b, rank) AS (
  VALUES ('t','h',1),('th','e',2),('s','c',3),('sc','a',4),('sca','n',5),
         ('o','r',6),('e','r',7),('w','i',8),('wi','n',9),('b','a',10),
         ('ba','t',11),('c','h',12),('bat','ch',13),('d','u',14),
         ('m','e',15),('r','g',16)
),
words AS (
  SELECT DISTINCT w FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
    FROM documents
  )
),
st(w, s, step) AS (
  SELECT w, regexp_replace(w, '(.)', '<\1>', 'g'), 0 FROM words
  UNION ALL
  SELECT w,
         replace(s,
           (SELECT '<' || a || '><' || b || '>' FROM merges
            WHERE strpos(s, '<' || a || '><' || b || '>') > 0
            ORDER BY rank LIMIT 1),
           (SELECT '<' || a || b || '>' FROM merges
            WHERE strpos(s, '<' || a || '><' || b || '>') > 0
            ORDER BY rank LIMIT 1)),
         step + 1
  FROM st
  WHERE EXISTS (SELECT 1 FROM merges
                WHERE strpos(s, '<' || a || '><' || b || '>') > 0)
),
final AS (
  SELECT w, s FROM st
  QUALIFY ROW_NUMBER() OVER (PARTITION BY w ORDER BY step DESC) = 1
),
tok AS (
  SELECT w, length(s) - length(replace(s, '<', '')) AS ntok FROM final
),
dw AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
  FROM documents
),
per_doc AS (
  SELECT dw.doc_id, SUM(tok.ntok)::BIGINT AS n_tokens
  FROM dw JOIN tok ON tok.w = dw.w GROUP BY dw.doc_id
)
SELECT d.doc_id, COALESCE(p.n_tokens, 0) AS n_tokens
FROM documents d LEFT JOIN per_doc p ON p.doc_id = d.doc_id
"""


def docs_bpe_train(sf_dir: str):
    """BPE merge-table TRAINING (ops/corpus.py bpe_train): learn 6
    merges greedily from the corpus vocabulary (one word-count shuffle;
    each step = pair-count partials over the vocab -> tiny (a,b)
    groupby-sum -> per-batch top-1 partials -> O(1) driver pick ->
    one vectorized replace_substring re-encode).  Deterministic
    (count DESC, a, b) tie-breaking; pairs counted with overlap on both
    sides.  The DuckDB oracle unrolls all 6 steps (the kmeans-chain
    oracle pattern)."""
    from .ops.corpus import bpe_train

    ds = _read(sf_dir, "documents", columns=["text"])
    return bpe_train(ds, n_merges=6)


QUERIES["docs_bpe_train"] = docs_bpe_train


def _bpe_train_oracle(n_merges: int) -> str:
    head = r"""
WITH vocab0 AS (
  SELECT regexp_replace(w, '(.)', '<\1>', 'g') AS s, COUNT(*)::BIGINT AS c
  FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
    FROM documents
  ) GROUP BY w
)"""
    blocks = []
    for k in range(n_merges):
        blocks.append(f"""
pairs{k} AS (
  SELECT z[1] AS a, z[2] AS b, SUM(c)::BIGINT AS cnt
  FROM (
    SELECT c, unnest(list_zip(
             regexp_extract_all(s, '<([^>]*)>', 1)[1:-1],
             regexp_extract_all(s, '<([^>]*)>', 1)[2:]
           )) AS z
    FROM vocab{k}
  )
  WHERE z[2] IS NOT NULL
  GROUP BY 1, 2
),
best{k} AS (
  SELECT {k} AS step, a, b, cnt FROM pairs{k}
  ORDER BY cnt DESC, a, b LIMIT 1
),
vocab{k + 1} AS (
  SELECT replace(v.s, '<' || b.a || '><' || b.b || '>',
                 '<' || b.a || b.b || '>') AS s, v.c
  FROM vocab{k} v CROSS JOIN best{k} b
)""")
        # noqa: E501
    tail = "\nSELECT step, a, b, cnt FROM (\n" + "\n  UNION ALL ".join(
        f"SELECT * FROM best{k}" for k in range(n_merges)
    ) + "\n)"
    return head + "," + ",".join(blocks) + tail


ORACLE_SQL["docs_bpe_train"] = _bpe_train_oracle(6)


def events_user_decayed_score(sf_dir: str):
    """Recency-weighted per-user activity score (ops/windows.py
    decayed_group_score): exact half-life decay in whole hourly steps
    via arithmetic shift on non-negative integer value units -- the
    feature-store aggregate, replayable bit-for-bit in SQL (v >> k)."""
    from .ops.windows import decayed_group_score

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    return decayed_group_score(
        ds, key_col="user_id", ts_col="ts", value_col="value",
    )


QUERIES["events_user_decayed_score"] = events_user_decayed_score

ORACLE_SQL["events_user_decayed_score"] = """
WITH h AS (SELECT MAX(ts) AS t FROM events),
e AS (
  SELECT user_id,
         CAST(ROUND(value * 1000) AS BIGINT) AS v,
         LEAST((epoch_us((SELECT t FROM h)) - epoch_us(ts))
               // 3600000000, 62) AS k
  FROM events
)
SELECT user_id, CAST(SUM(v >> k) AS BIGINT) AS decayed_units
FROM e GROUP BY user_id
"""


def orders_upsert_apply(sf_dir: str):
    """CDC MERGE apply -- the inverse of orders_snapshot_diff: compute
    the (id, change) delta between the derived old/new order snapshots
    (ops/relational.py snapshot_diff), then reconstruct the NEW snapshot
    from the OLD one by applying the delta: drop removed+changed ids
    from the base (broadcast-or-anti-join), pull added+changed rows from
    the source (broadcast-or-semi-join), union.  The oracle computes the
    new snapshot directly, so a hash match proves round-trip MERGE
    semantics (diff then apply == target) end-to-end.

    Scale shape: the delta is slim (id, change) rows; payloads cross no
    exchange -- both membership filters broadcast under a byte budget
    and degrade to distributed joins."""
    from .ops.dedup import anti_join_filter, semi_join_filter
    from .ops.relational import snapshot_diff

    base = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )

    def old_rows(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(k % 17 != 3))

    def new_rows(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(k % 13 != 5))
        kk = t["o_orderkey"].to_numpy(zero_copy_only=False)
        st = pc.if_else(
            pa.array(kk % 7 == 0),
            pc.binary_join_element_wise(
                t["o_orderstatus"], pa.scalar("*"), pa.scalar("")
            ),
            t["o_orderstatus"],
        )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_orderstatus": st,
                "o_totalprice": t["o_totalprice"],
            }
        )

    old = base.map_batches(old_rows, batch_format="pyarrow")
    new = base.map_batches(new_rows, batch_format="pyarrow")
    changes = snapshot_diff(
        old, new, id_col="o_orderkey",
        hash_cols=["o_orderstatus", "o_totalprice"],
    ).materialize()

    def ids_where(kinds):
        def f(b: pa.Table) -> pa.Table:
            keep = pc.is_in(
                b["change"], value_set=pa.array(kinds, pa.string())
            )
            return pa.table(
                {"o_orderkey":
                     pc.cast(b.filter(keep)["o_orderkey"], pa.int64())}
            )

        return f

    drop_ids = changes.map_batches(
        ids_where(["removed", "changed"]), batch_format="pyarrow"
    )
    pull_ids = changes.map_batches(
        ids_where(["added", "changed"]), batch_format="pyarrow"
    )
    kept = anti_join_filter(old, drop_ids, "o_orderkey")
    pulled = semi_join_filter(new, pull_ids, "o_orderkey")
    return kept.union(pulled)


QUERIES["orders_upsert_apply"] = orders_upsert_apply

ORACLE_SQL["orders_upsert_apply"] = """
SELECT o_orderkey,
       CASE WHEN o_orderkey % 7 = 0 THEN o_orderstatus || '*'
            ELSE o_orderstatus END AS o_orderstatus,
       o_totalprice
FROM orders WHERE o_orderkey % 13 <> 5
"""


def embeddings_pca_power(sf_dir: str):
    """Top principal direction by integer-exact power iteration
    (ops/ann.py power_iteration_top_component): the Gram pass is the
    distributed heavy lift (vectors never centralize), the d x d
    iteration runs in Python big ints on the O(d^2) driver-side Gram
    table, and the DuckDB oracle replays all 40 iterations with HUGEINT
    sums and the identical truncating normalization (the eigengap of
    near-isotropic synthetic embeddings is small, so convergence needs
    tens of rounds -- each round is one 64-row matvec, trivial on both
    sides)."""
    from .ops.ann import power_iteration_top_component

    return power_iteration_top_component(
        _read(sf_dir, "embeddings"), iterations=40
    )


QUERIES["embeddings_pca_power"] = embeddings_pca_power


def _pca_power_oracle(iterations: int) -> str:
    head = """
WITH q AS MATERIALIZED (
  SELECT vec_id,
         CAST(generate_subscripts(embedding, 1) - 1 AS BIGINT) AS i,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000) AS BIGINT)
           AS v
  FROM embeddings
),
gu AS MATERIALIZED (
  SELECT a.i AS i, b.i AS j, CAST(SUM(a.v * b.v) AS BIGINT) AS g
  FROM q a JOIN q b ON a.vec_id = b.vec_id AND b.i >= a.i
  GROUP BY a.i, b.i
),
gf AS MATERIALIZED (
  SELECT i, j, g FROM gu
  UNION ALL SELECT j AS i, i AS j, g FROM gu WHERE i <> j
),
x0 AS (SELECT DISTINCT i, CAST(1000000 AS HUGEINT) AS x FROM gf)"""
    blocks = []
    for k in range(1, iterations + 1):
        blocks.append(f"""
w{k} AS MATERIALIZED (
  SELECT g.i, SUM(CAST(g.g AS HUGEINT) * x.x) AS w
  FROM gf g JOIN x{k - 1} x ON x.i = g.j GROUP BY g.i
),
m{k} AS MATERIALIZED (SELECT MAX(ABS(w)) AS m FROM w{k}),
x{k} AS MATERIALIZED (
  SELECT i,
         CASE WHEN w < 0
              THEN -(((-w) * 1000000) // (SELECT m FROM m{k}))
              ELSE (w * 1000000) // (SELECT m FROM m{k}) END AS x
  FROM w{k}
)""")
    tail = (
        f"\nSELECT i, CAST(x AS BIGINT) AS component_units FROM x{iterations}"
    )
    return head + "," + ",".join(blocks) + tail


ORACLE_SQL["embeddings_pca_power"] = _pca_power_oracle(40)


def docs_classifier_scores(sf_dir: str):
    """Hashed-feature linear classifier inference (ops/corpus.py
    HashedLinearScore): per-doc integer logits over md5-hashed token
    buckets with an arithmetic weight table -- the model-based corpus
    quality-filter shape, bit-replayable in SQL."""
    from .ops.corpus import hashed_linear_scores

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return hashed_linear_scores(ds)


QUERIES["docs_classifier_scores"] = docs_classifier_scores

ORACLE_SQL["docs_classifier_scores"] = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS tok
  FROM documents
),
scored AS (
  SELECT doc_id,
         (CAST(('0x' || substr(md5(tok), 1, 8)) AS BIGINT) % 64 * 37)
           % 101 - 50 AS w
  FROM toks
),
per_doc AS (
  SELECT doc_id, CAST(SUM(w) AS BIGINT) AS logit_units
  FROM scored GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(p.logit_units, 0) AS logit_units
FROM documents d LEFT JOIN per_doc p ON p.doc_id = d.doc_id
"""


def events_holt_smoothing(sf_dir: str):
    """Holt double exponential smoothing (level + trend) per event type
    over its observed hourly mean values (ops/windows.py
    holt_linear_per_group): alpha=0.2, gamma=0.1 as exact integer
    ratios, floor division replayed in SQL via the offset shift; the
    oracle steps the recurrence with a recursive CTE."""
    from .ops.windows import holt_linear_per_group

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return holt_linear_per_group(
        ds, key_col="event_type", ts_col="ts", value_col="value",
    )


QUERIES["events_holt_smoothing"] = events_holt_smoothing

ORACLE_SQL["events_holt_smoothing"] = """
WITH RECURSIVE hourly AS (
  SELECT event_type,
         epoch_us(ts) // 3600000000 AS bucket,
         SUM(CAST(ROUND(value * 100) AS BIGINT))
           // COUNT(*) AS y
  FROM events GROUP BY 1, 2
),
seq AS (
  SELECT event_type, bucket, y,
         ROW_NUMBER() OVER (
           PARTITION BY event_type ORDER BY bucket
         ) AS rn
  FROM hourly
),
rec(event_type, rn, bucket, l, b) AS (
  SELECT event_type, rn, bucket, y, CAST(0 AS BIGINT)
  FROM seq WHERE rn = 1
  UNION ALL
  SELECT s.event_type, s.rn, s.bucket,
         ((2 * s.y + 8 * (r.l + r.b)) + 1048576 * 10) // 10 - 1048576,
         ((1 * ((((2 * s.y + 8 * (r.l + r.b)) + 1048576 * 10) // 10
                 - 1048576) - r.l)
           + 9 * r.b) + 1048576 * 10) // 10 - 1048576
  FROM rec r JOIN seq s
    ON s.event_type = r.event_type AND s.rn = r.rn + 1
)
SELECT event_type, bucket, CAST(l AS BIGINT) AS level_units,
       CAST(b AS BIGINT) AS trend_units FROM rec
"""


def embeddings_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining (ops/ann.py hard_negatives_topk):
    per query (vec_id < 8), the exact cosine top-5 among OTHER-label
    corpus vectors -- one GEMM per batch against the broadcast query
    matrix with a vectorized label mask, per-batch partial top-k, tiny
    per-qid merge.  Selection replayed by the oracle with the shared
    ROUND(cos, 4) + vec_id tie-break."""
    import pyarrow.parquet as pq

    from .ops.ann import hard_negatives_topk

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    ).filter(pc.less(pc.field("vec_id"), 8)).sort_by("vec_id")
    ids = t["vec_id"].to_pylist()
    labs = t["label"].to_pylist()
    mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    emb = _read(sf_dir, "embeddings",
                columns=["vec_id", "embedding", "label"])
    return hard_negatives_topk(emb, ids, mat, labs, k=5)


QUERIES["embeddings_hard_negatives"] = embeddings_hard_negatives

ORACLE_SQL["embeddings_hard_negatives"] = """
WITH q AS (
  SELECT vec_id AS qid, label AS qlab,
         CAST(embedding AS DOUBLE[]) AS qe
  FROM embeddings WHERE vec_id < 8
)
SELECT q.qid, e.vec_id,
       ROUND(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe),
             4) AS score
FROM embeddings e JOIN q
  ON e.label <> q.qlab AND e.vec_id <> q.qid
QUALIFY row_number() OVER (
  PARTITION BY q.qid
  ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qe)
             DESC,
           e.vec_id ASC) <= 5
"""


def kg_bgp_group_having(sf_dir: str):
    """SPARQL aggregate over a star BGP --

        SELECT ?lang (COUNT(*) AS n_docs)
        WHERE { ?doc dc:language ?lang . ?doc dc:source ?src .
                ?doc deich:nChars ?nchars }
        GROUP BY ?lang HAVING (COUNT(*) >= 2)

    -- the GROUP BY/HAVING form of the reference's reporting SPARQL
    (sparql_update.rb counts per conversion cycle), composed from
    ops/bgp.bgp_star_match + per-batch count partials + one tiny
    groupby-sum + a stateless HAVING filter."""
    from ray.data.aggregate import Sum

    from .ops.bgp import bgp_star_match

    m = bgp_star_match(
        _lower_docs(
            _read(sf_dir, "documents"),
            predicates={DC_LANGUAGE, DC_SOURCE, DEICH_NCHARS},
        ),
        [
            (DC_LANGUAGE, "lang"),
            (DC_SOURCE, "src"),
            (DEICH_NCHARS, "nchars"),
        ],
    )

    def partial(b: pa.Table) -> pa.Table:
        u, c = np.unique(
            np.asarray(b["lang"].to_pylist()), return_counts=True
        )
        return pa.table(
            {"lang": pa.array(u.tolist(), pa.string()),
             "n_docs": pa.array(c.astype(np.int64), pa.int64())}
        )

    agg = (
        m.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )
    return agg.map_batches(
        lambda b: b.filter(pc.greater_equal(b["n_docs"], pa.scalar(2))),
        batch_format="pyarrow",
    )


QUERIES["kg_bgp_group_having"] = kg_bgp_group_having

ORACLE_SQL["kg_bgp_group_having"] = f"""
WITH t AS (SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL})),
m AS (
  SELECT a.subj, a.obj AS lang
  FROM t a
  JOIN t b ON b.subj = a.subj
  JOIN t c ON c.subj = a.subj
  WHERE a.pred = 'http://purl.org/dc/terms/language'
    AND b.pred = 'http://purl.org/dc/terms/source'
    AND c.pred = 'http://data.deichman.no/nChars'
)
SELECT lang, COUNT(*)::BIGINT AS n_docs
FROM m GROUP BY lang HAVING COUNT(*) >= 2
"""


def orders_schema_evolution(sf_dir: str):
    """Union-by-name read over heterogeneous parquet schemas
    (sources/evolve.py read_parquet_union_by_name): even order keys are
    written as a v1 file WITHOUT the status column, odd keys as a v2
    file WITH it; the unified Dataset fills the missing column with the
    caller default 'legacy' (typed nulls otherwise), streams both files
    through pruned reads + one stateless align pass (no shuffle), and
    aggregates revenue cents per effective status.  The schema union
    itself comes from parquet FOOTERS only; a type conflict on a shared
    name raises loudly (tests/test_schema_evolve.py)."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    from .sources.evolve import read_parquet_union_by_name

    base = pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )
    k = base["o_orderkey"].to_numpy(zero_copy_only=False)
    even = pa.array(k % 2 == 0)
    tmp = tempfile.mkdtemp(prefix="m2r_evolve_")
    try:
        pq.write_table(
            base.filter(even).select(["o_orderkey", "o_totalprice"]),
            f"{tmp}/v1.parquet",
        )
        pq.write_table(
            base.filter(pc.invert(even)),
            f"{tmp}/v2.parquet",
        )
        ds = read_parquet_union_by_name(
            [f"{tmp}/v1.parquet", f"{tmp}/v2.parquet"],
            defaults={"o_orderstatus": "legacy"},
        )

        def cents(b: pa.Table) -> pa.Table:
            from .functions.numeric import sql_round_i64

            return pa.table(
                {
                    "o_orderstatus": b["o_orderstatus"],
                    "cents": sql_round_i64(b["o_totalprice"], 100.0),
                }
            )

        out = (
            ds.map_batches(cents, batch_format="pyarrow")
            .groupby("o_orderstatus")
            .aggregate(
                Count(alias_name="n_orders"),
                Sum("cents", alias_name="revenue_cents"),
            )
            .materialize()
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


QUERIES["orders_schema_evolution"] = orders_schema_evolution

ORACLE_SQL["orders_schema_evolution"] = """
SELECT CASE WHEN o_orderkey % 2 = 0 THEN 'legacy' ELSE o_orderstatus END
         AS o_orderstatus,
       COUNT(*)::BIGINT AS n_orders,
       CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM orders GROUP BY 1
"""


def graph_cc_incremental(sf_dir: str):
    """Incremental connected components (ops/graph.py
    connected_components_incremental): the md5 link graph splits into a
    base window ((src + dst) % 3 != 0) and a growth window (the rest);
    base labels come from a full CC solve, then the growth window folds
    in via supernode contraction -- cost O(new edges + touched
    components), NOT a re-solve -- and the result must equal CC over
    the union, which is exactly what the recursive min-reach oracle
    computes.  tests/test_graph_msf.py-style equality is thus checked
    by the contract gate itself."""
    from .ops.graph import connected_components_incremental
    from .stages.canonicalize import (
        connected_components,
        connected_components_local,
    )

    edges, _nodes, _ = _md5_link_graph(sf_dir)

    def window(b: pa.Table, keep_base: bool) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        base = (s + d) % 3 != 0
        return b.filter(pa.array(base if keep_base else ~base))

    w1 = edges.map_batches(
        lambda b: window(b, True), batch_format="pyarrow"
    ).map_batches(
        lambda b: pa.table({"subj": b["src"], "obj": b["dst"]}),
        batch_format="pyarrow",
    )
    w2 = edges.map_batches(lambda b: window(b, False),
                           batch_format="pyarrow")

    labels1 = connected_components_local(w1)
    if labels1 is None:  # pragma: no cover - scale path
        labels1 = connected_components(w1, rounds=20, doubling=True)
    return connected_components_incremental(labels1, w2)


QUERIES["graph_cc_incremental"] = graph_cc_incremental

ORACLE_SQL["graph_cc_incremental"] = """
WITH RECURSIVE nn AS (SELECT COUNT(*) AS n FROM documents),
dedges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
und AS (
  SELECT src AS x, dst AS y FROM dedges
  UNION SELECT dst, src FROM dedges
),
endpoints AS (SELECT DISTINCT x AS node FROM und),
reach(node, r) AS (
  SELECT node, node FROM endpoints
  UNION
  SELECT u.y, reach.r FROM reach JOIN und u ON u.x = reach.node
)
SELECT node, MIN(r) AS root FROM reach GROUP BY node
"""


def graph_greedy_matching(sf_dir: str):
    """Distributed greedy maximal matching by synchronous handshaking
    (ops/graph.py greedy_matching): 3 rounds of every live node pointing
    at its minimum incident edge under (w, u, v) with md5-derived
    weights; mutual picks match and their endpoints leave.  Fixed-round
    semantics unrolled by the oracle."""
    from .ops.graph import greedy_matching

    edges, _nodes, _ = _md5_link_graph(sf_dir)
    return greedy_matching(edges, rounds=3)


QUERIES["graph_greedy_matching"] = graph_greedy_matching


def _greedy_matching_oracle(rounds: int) -> str:
    head = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
dedges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
und AS (
  SELECT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
  FROM dedges WHERE src <> dst GROUP BY 1, 2
),
live1 AS MATERIALIZED (
  SELECT u, v,
         CAST(('0x' || substr(md5(CAST(u AS VARCHAR) || '~'
               || CAST(v AS VARCHAR) || 'g'), 1, 12)) AS BIGINT) AS w
  FROM und
)"""
    blocks = []
    for k in range(1, rounds + 1):
        blocks.append(f"""
inc{k} AS (
  SELECT u AS node, w, u, v FROM live{k}
  UNION ALL SELECT v AS node, w, u, v FROM live{k}
),
pick{k} AS MATERIALIZED (
  SELECT node, w, u, v FROM inc{k}
  QUALIFY ROW_NUMBER() OVER (PARTITION BY node ORDER BY w, u, v) = 1
),
m{k} AS MATERIALIZED (
  SELECT u, v, w FROM pick{k} GROUP BY u, v, w HAVING COUNT(*) = 2
),
mn{k} AS MATERIALIZED (
  SELECT u AS node FROM m{k} UNION SELECT v FROM m{k}
),
live{k + 1} AS MATERIALIZED (
  SELECT * FROM live{k}
  WHERE u NOT IN (SELECT node FROM mn{k})
    AND v NOT IN (SELECT node FROM mn{k})
)""")
    tail = "\nSELECT u AS src, v AS dst, w FROM (\n" + "\n  UNION ALL ".join(
        f"SELECT * FROM m{k}" for k in range(1, rounds + 1)
    ) + "\n)"
    return head + "," + ",".join(blocks) + tail


ORACLE_SQL["graph_greedy_matching"] = _greedy_matching_oracle(3)


def events_cep_conversion(sf_dir: str):
    """MATCH_RECOGNIZE-shaped CEP (ops/windows.py cep_match_last):
    purchases preceded by a view within 2 hours with NO error between
    that latest view and the purchase -- last-touch conversion
    attribution with blocker semantics; strict (ts, event_id)
    predecessor order replayed by the oracle's ROWS window."""
    from .ops.windows import cep_match_last

    ds = _read(
        sf_dir, "events",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return cep_match_last(
        ds, key_col="user_id", ts_col="ts", id_col="event_id",
        type_col="event_type", target_type="purchase",
        prereq_type="view", blocker_type="error",
    )


QUERIES["events_cep_conversion"] = events_cep_conversion

ORACLE_SQL["events_cep_conversion"] = """
WITH s AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS t,
         MAX(CASE WHEN event_type = 'view' THEN epoch_us(ts) END) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS last_view,
         MAX(CASE WHEN event_type = 'error' THEN epoch_us(ts) END) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS last_err
  FROM events
)
SELECT user_id, event_id, (t - last_view) AS gap_us
FROM s
WHERE event_type = 'purchase'
  AND last_view IS NOT NULL
  AND t - last_view <= 7200000000
  AND (last_err IS NULL OR last_err < last_view)
"""


def docs_containment_search(sf_dir: str):
    """Asymmetric set-containment probe (ops/dedup.py
    containment_search): docs holding >= 60% of doc 0's distinct tokens
    -- the benchmark-contamination / plagiarism measure the symmetric
    Jaccard join misses.  Probe set broadcast once; nothing shuffles."""
    import re as _re

    import pyarrow.parquet as pq

    from .ops.dedup import containment_search

    t0 = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "=", 0)],
    )
    probe = set(
        _re.findall(r"[a-z0-9]+", (t0["text"][0].as_py() or "").lower())
    )
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return containment_search(
        ds, probe, threshold_pct=60, exclude_id=0,
    )


QUERIES["docs_containment_search"] = docs_containment_search

ORACLE_SQL["docs_containment_search"] = """
WITH tok AS (
  SELECT DISTINCT d.doc_id, u.tok
  FROM documents d,
       unnest(regexp_split_to_array(lower(d.text), '[^a-z0-9]+')) AS u(tok)
  WHERE u.tok <> ''
),
probe AS (SELECT tok FROM tok WHERE doc_id = 0),
psz AS (SELECT COUNT(*) AS n FROM probe),
inter AS (
  SELECT t.doc_id, COUNT(*)::BIGINT AS inter
  FROM tok t JOIN probe p ON p.tok = t.tok
  WHERE t.doc_id <> 0 GROUP BY 1
)
SELECT doc_id, inter,
       (inter * 100 // (SELECT n FROM psz))::BIGINT AS containment_pct
FROM inter
WHERE inter * 100 >= 60 * (SELECT n FROM psz)
"""


def graph_dag_layers(sf_dir: str):
    """Longest-path DAG layering (ops/graph.py dag_longest_path_layers):
    the md5 link graph oriented src < dst (acyclic by construction), 3
    max-plus rounds -- each node's topological stage capped at 3, the
    dependency-wave / critical-path primitive.  int64 max of int64 sums,
    unrolled by the oracle."""
    from .ops.graph import dag_longest_path_layers

    edges, _nodes, _ = _md5_link_graph(sf_dir)
    dag = edges.map_batches(
        lambda b: b.filter(
            pc.less(pc.cast(b["src"], pa.int64()),
                    pc.cast(b["dst"], pa.int64()))
        ),
        batch_format="pyarrow",
    )
    return dag_longest_path_layers(dag, rounds=3)


QUERIES["graph_dag_layers"] = graph_dag_layers

ORACLE_SQL["graph_dag_layers"] = """
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
dedges AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
dag AS (SELECT src, dst FROM dedges WHERE src < dst),
endpoints AS (
  SELECT src AS node FROM dag UNION SELECT dst FROM dag
),
l0 AS (SELECT node, CAST(0 AS BIGINT) AS layer FROM endpoints),
c1 AS (SELECT e.dst AS node, l.layer + 1 AS layer
       FROM dag e JOIN l0 l ON l.node = e.src),
l1 AS (SELECT node, MAX(layer) AS layer FROM
       (SELECT * FROM l0 UNION ALL SELECT * FROM c1) GROUP BY node),
c2 AS (SELECT e.dst AS node, l.layer + 1 AS layer
       FROM dag e JOIN l1 l ON l.node = e.src),
l2 AS (SELECT node, MAX(layer) AS layer FROM
       (SELECT * FROM l1 UNION ALL SELECT * FROM c2) GROUP BY node),
c3 AS (SELECT e.dst AS node, l.layer + 1 AS layer
       FROM dag e JOIN l2 l ON l.node = e.src),
l3 AS (SELECT node, MAX(layer) AS layer FROM
       (SELECT * FROM l2 UNION ALL SELECT * FROM c3) GROUP BY node)
SELECT node, layer FROM l3
"""


def docs_shuffle_rank(sf_dir: str):
    """Deterministic global training-order shuffle (ops/corpus.py
    deterministic_shuffle_rank): dense md5-key rank per doc via range
    buckets + one slim shuffle + broadcast prefix offsets -- payloads
    never move; replayed by the oracle's ROW_NUMBER over the same
    uint64 keys."""
    from .ops.corpus import deterministic_shuffle_rank

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return deterministic_shuffle_rank(ds, id_col="doc_id")


QUERIES["docs_shuffle_rank"] = docs_shuffle_rank

ORACLE_SQL["docs_shuffle_rank"] = """
SELECT doc_id,
       ROW_NUMBER() OVER (
         ORDER BY CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                       AS UBIGINT),
                  doc_id
       ) - 1 AS rank
FROM documents
"""


def orders_zonemap_audit(sf_dir: str):
    """Zone-map (data-skipping) audit: orders laid out in 64 equal-
    frequency date blocks (ops/relational.py ntile -- exact global
    ranks, NO global row sort), then per-block min/max/count of price
    cents plus a prunable flag for the predicate o_totalprice > 5000
    -- the evidence a lakehouse OPTIMIZE-by-date layout gives its
    scan planner (composes with orders_zorder_layout's 2-D variant).

    Scale shape: the slim (id, tile) rank table broadcasts under the
    byte budget (distributed join fallback); payload attaches in one
    vectorized index_in pass; per-batch per-tile min/max/count partials
    collapse before the tiny 64-row groupby."""
    import ray
    from ray.data.aggregate import Max, Min, Sum

    from .ops.relational import ntile

    base = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderdate", "o_totalprice"],
    )

    def day_prep(b: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(b["o_orderdate"], pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "day": pa.array(us // 86_400_000_000, pa.int64()),
            }
        )

    ranked = ntile(
        base.map_batches(day_prep, batch_format="pyarrow"),
        score_col="day", id_col="o_orderkey", q=64, scale=1.0,
    )
    rtab, rmat = plan.small_side("orders_zonemap_audit", ranked)

    def attach_partial(b: pa.Table, keys=None, tiles=None) -> pa.Table:
        cents = sql_round_i64(b["o_totalprice"], 100.0).to_numpy(
            zero_copy_only=False
        )
        idx = pc.index_in(b["o_orderkey"], value_set=keys)
        tile = tiles.take(idx).to_numpy(zero_copy_only=False)
        u, inv = np.unique(tile, return_inverse=True)
        mn = np.full(len(u), np.iinfo(np.int64).max, np.int64)
        mx = np.full(len(u), np.iinfo(np.int64).min, np.int64)
        cnt = np.zeros(len(u), np.int64)
        np.minimum.at(mn, inv, cents)
        np.maximum.at(mx, inv, cents)
        np.add.at(cnt, inv, 1)
        return pa.table(
            {
                "block": pa.array(u, pa.int64()),
                "mn": pa.array(mn, pa.int64()),
                "mx": pa.array(mx, pa.int64()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    if rtab is not None:
        keys = rtab["o_orderkey"].combine_chunks()
        tiles = pc.cast(rtab["tile"], pa.int64()).combine_chunks()
        partials = base.map_batches(
            lambda b: attach_partial(b, keys=keys, tiles=tiles),
            batch_format="pyarrow",
        )
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        nparts = plan.join_partitions()
        j = normalize_join_blocks(base, nparts).join(
            normalize_join_blocks(rmat, nparts),
            join_type="inner", num_partitions=nparts,
            on=("o_orderkey",),
        )

        def jp(b: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "o_orderkey": b["o_orderkey"],
                    "o_totalprice": b["o_totalprice"],
                }
            )
            return attach_partial(
                t,
                keys=b["o_orderkey"].combine_chunks(),
                tiles=pc.cast(b["tile"], pa.int64()).combine_chunks(),
            )

        partials = j.map_batches(jp, batch_format="pyarrow")

    agg = (
        partials.groupby("block")
        .aggregate(
            Min("mn", alias_name="min_cents"),
            Max("mx", alias_name="max_cents"),
            Sum("n", alias_name="n_rows"),
        )
    )
    return agg.map_batches(
        lambda b: b.append_column(
            "prunable",
            pc.cast(
                pc.less_equal(b["max_cents"], pa.scalar(500_000)),
                pa.int64(),
            ),
        ),
        batch_format="pyarrow",
    )


QUERIES["orders_zonemap_audit"] = orders_zonemap_audit

ORACLE_SQL["orders_zonemap_audit"] = """
WITH q AS (
  SELECT o_orderkey,
         epoch_us(o_orderdate) // 86400000000 AS day,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
),
r AS (
  SELECT o_orderkey, cents,
         CAST(NTILE(64) OVER (ORDER BY day, o_orderkey) AS BIGINT) AS block
  FROM q
)
SELECT block, MIN(cents) AS min_cents, MAX(cents) AS max_cents,
       COUNT(*)::BIGINT AS n_rows,
       CASE WHEN MAX(cents) <= 500000 THEN 1 ELSE 0 END::BIGINT
         AS prunable
FROM r GROUP BY block
"""


def events_markov_stationary(sf_dir: str):
    """Stationary distribution of the event-type Markov chain by
    integer-exact power iteration: the heavy pass is the distributed
    transition-count matrix (ops/windows.py transition_counts -- one
    bucketed shuffle); the #types x #types iteration runs driver-side in
    Python ints (O(#types^2) state): pi'_j = SUM_i pi_i * cnt_ij //
    rowsum_i, 8 iterations from uniform micro-units.  Every step is a
    floor-divided integer product summed in any order, so the DuckDB
    oracle (unrolled MATERIALIZED steps) replays it bit-for-bit."""
    from .ops.windows import transition_counts

    ds = _read(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    )
    tc = transition_counts(
        ds, key_col="user_id", ts_col="ts", id_col="event_id",
        type_col="event_type",
    ).take_all()
    types = sorted(
        {r["prev_type"] for r in tc} | {r["next_type"] for r in tc}
    )
    idx = {t: i for i, t in enumerate(types)}
    k = len(types)
    cnt = [[0] * k for _ in range(k)]
    for r in tc:
        cnt[idx[r["prev_type"]]][idx[r["next_type"]]] = int(
            r["n_transitions"]
        )
    rowsum = [sum(row) for row in cnt]
    SCALE = 1_000_000
    pi = [SCALE // k + (1 if i < SCALE % k else 0) for i in range(k)]
    for _ in range(8):
        nxt = [0] * k
        for i in range(k):
            if rowsum[i] == 0:
                nxt[i] += pi[i]  # absorbing row keeps its mass
                continue
            for j in range(k):
                if cnt[i][j]:
                    nxt[j] += pi[i] * cnt[i][j] // rowsum[i]
        pi = nxt
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "pi_units": pa.array(pi, pa.int64()),
        }
    )


QUERIES["events_markov_stationary"] = events_markov_stationary


def _markov_oracle(iterations: int) -> str:
    head = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev
  FROM events
),
tc AS MATERIALIZED (
  SELECT prev AS i, event_type AS j, COUNT(*)::BIGINT AS c
  FROM s WHERE prev IS NOT NULL GROUP BY prev, event_type
),
types AS MATERIALIZED (
  SELECT t, ROW_NUMBER() OVER (ORDER BY t) - 1 AS r,
         COUNT(*) OVER () AS k
  FROM (SELECT i AS t FROM tc UNION SELECT j FROM tc)
),
rs AS MATERIALIZED (SELECT i, SUM(c) AS rowsum FROM tc GROUP BY i),
p0 AS MATERIALIZED (
  SELECT t, 1000000 // k + CASE WHEN r < 1000000 % k THEN 1 ELSE 0 END
           AS pi
  FROM types
)"""
    blocks = []
    for n in range(1, iterations + 1):
        blocks.append(f"""
p{n} AS MATERIALIZED (
  SELECT t, SUM(pi)::BIGINT AS pi FROM (
    SELECT tc.j AS t, p.pi * tc.c // rs.rowsum AS pi
    FROM p{n - 1} p
    JOIN tc ON tc.i = p.t
    JOIN rs ON rs.i = p.t
    UNION ALL
    SELECT p.t, p.pi FROM p{n - 1} p
    WHERE NOT EXISTS (SELECT 1 FROM rs WHERE rs.i = p.t)
  ) GROUP BY t
)""")
    tail = (
        f"\nSELECT t AS event_type, pi AS pi_units FROM p{iterations}"
    )
    return head + "," + ",".join(blocks) + tail


ORACLE_SQL["events_markov_stationary"] = _markov_oracle(8)


def docs_langid_confusion(sf_dir: str):
    """Language-ID evaluation confusion matrix: predicted language
    (ops/textstats.py langid, the oracle-replayed trigram scorer) vs
    the table's labeled ``lang``, counted per (label, prediction) cell
    -- the model-eval aggregate every corpus-quality pipeline reports.
    Per-batch cell-count partials collapse before one tiny groupby."""
    from ray.data.aggregate import Sum

    from .ops.textstats import langid_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pred = ds.map_batches(langid_batch, batch_format="pyarrow")

    # langid emits (doc_id, lang_pred); join labels back via broadcast
    import ray

    lab = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    ltab, lmat = plan.small_side("docs_langid_confusion", lab)
    if ltab is not None:
        keys = ltab["doc_id"].combine_chunks()
        labs = ltab["lang"].combine_chunks()

        def attach(b: pa.Table) -> pa.Table:
            idx = pc.index_in(b["doc_id"], value_set=keys)
            lang = pc.take(labs, idx)
            u, c = np.unique(
                np.char.add(
                    np.char.add(
                        np.asarray(lang.to_pylist(), dtype="U8"), "\x1f"
                    ),
                    np.asarray(b["lang_pred"].to_pylist(), dtype="U8"),
                ),
                return_counts=True,
            )
            pair = [s.split("\x1f") for s in u.tolist()]
            return pa.table(
                {
                    "lang": pa.array([p[0] for p in pair], pa.string()),
                    "lang_pred": pa.array(
                        [p[1] for p in pair], pa.string()
                    ),
                    "n_docs": pa.array(c.astype(np.int64), pa.int64()),
                }
            )

        partials = pred.map_batches(attach, batch_format="pyarrow")
    else:  # pragma: no cover - scale path
        from .ops.dedup import normalize_join_blocks

        nparts = plan.join_partitions()
        j = normalize_join_blocks(pred, nparts).join(
            normalize_join_blocks(lmat, nparts),
            join_type="inner", num_partitions=nparts, on=("doc_id",),
        )

        def jp(b: pa.Table) -> pa.Table:
            t = (
                pa.table(
                    {"lang": b["lang"], "lang_pred": b["lang_pred"]}
                )
                .group_by(["lang", "lang_pred"], use_threads=False)
                .aggregate([([], "count_all")])
            )
            return t.rename_columns(["lang", "lang_pred", "n_docs"])

        partials = j.map_batches(jp, batch_format="pyarrow")

    return (
        partials.groupby(["lang", "lang_pred"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


QUERIES["docs_langid_confusion"] = docs_langid_confusion

ORACLE_SQL["docs_langid_confusion"] = None  # set below


def _langid_confusion_oracle() -> str:
    return (
        "WITH " + _langid_ctes_over("documents")
        + """
SELECT d.lang, lid.lang_pred, COUNT(*)::BIGINT AS n_docs
FROM documents d JOIN lid ON lid.doc_id = d.doc_id
GROUP BY d.lang, lid.lang_pred
"""
    )


ORACLE_SQL["docs_langid_confusion"] = _langid_confusion_oracle()


def kg_ask(sf_dir: str):
    """SPARQL ASK over the rule-lowered document graph -- "does any doc
    declare language 'de'?" -- a short-circuitable existence probe: the
    predicate+object filter runs at the scan (nothing shuffles), and
    ``ds.limit(1)`` lets the streaming executor STOP after the first
    matching block instead of scanning the corpus; the 1-row boolean is
    driver state.  Completes the SPARQL form set (SELECT / CONSTRUCT /
    UPDATE / MINUS / OPTIONAL / GROUP BY / ASK / DESCRIBE)."""
    t = _lower_docs(
        _read(sf_dir, "documents"), predicates={DC_LANGUAGE}
    )
    hit = t.map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.equal(b["pred"], DC_LANGUAGE),
                pc.equal(b["obj"], "de"),
            )
        ).select(["subj"]),
        batch_format="pyarrow",
    ).limit(1)
    n = hit.count()
    return pa.table({"ask_result": pa.array([1 if n else 0], pa.int64())})


QUERIES["kg_ask"] = kg_ask

ORACLE_SQL["kg_ask"] = f"""
SELECT CASE WHEN EXISTS (
  SELECT 1 FROM ({_KG_TRIPLES_SQL})
  WHERE pred = 'http://purl.org/dc/terms/language' AND obj = 'de'
) THEN 1 ELSE 0 END AS ask_result
"""


def kg_describe(sf_dir: str):
    """SPARQL DESCRIBE of one resource: every distinct triple whose
    subject is doc 7 -- the record-inspection probe (reference analog:
    the single-record fetch, S5).  Subject filter at the scan; one
    local dedup pass (DESCRIBE is set-semantics)."""
    from .stages.canonicalize import dedup_triples

    t = _lower_docs(_read(sf_dir, "documents"))
    subj = f"{DOC_BASE}7"
    mine = t.map_batches(
        lambda b: b.filter(pc.equal(b["subj"], subj)).select(
            ["subj", "pred", "obj"]
        ),
        batch_format="pyarrow",
    )
    return dedup_triples(mine, columns=["subj", "pred", "obj"])


QUERIES["kg_describe"] = kg_describe

ORACLE_SQL["kg_describe"] = f"""
SELECT DISTINCT subj, pred, obj FROM ({_KG_TRIPLES_SQL})
WHERE subj = 'http://data.example.org/doc/7'
"""


def events_ab_ztest(sf_dir: str):
    """Two-sample conversion z-test (the experimentation primitive):
    variant = user_id % 2; conversion = the user ever made a purchase
    with value > 200 (everyone purchases eventually in this corpus, so
    the raw any-purchase rate is degenerate p = 1).  The
    distributed pass reduces events to per-user (variant, converted)
    flags (per-batch distinct combiner -> one groupby max); the four
    resulting counts finish driver-side with ONE IEEE float expression
    written operand-for-operand the same in SQL (sqrt is correctly
    rounded, so the bits match)."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "value"])

    def flags(b: pa.Table) -> pa.Table:
        u = b["user_id"].to_numpy(zero_copy_only=False)
        conv = pc.and_(
            pc.equal(b["event_type"], "purchase"),
            pc.greater(b["value"], pa.scalar(200.0)),
        ).to_numpy(zero_copy_only=False)
        uu, inv = np.unique(u, return_inverse=True)
        c = np.zeros(len(uu), np.int64)
        np.maximum.at(c, inv, conv.astype(np.int64))
        return pa.table(
            {
                "user_id": pa.array(uu, pa.int64()),
                "conv": pa.array(c, pa.int64()),
            }
        )

    per_user = (
        ds.map_batches(flags, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("conv", alias_name="conv"))
    )
    rows = per_user.take_all()
    n = [0, 0]
    x = [0, 0]
    for r in rows:
        v = int(r["user_id"]) % 2
        n[v] += 1
        x[v] += int(r["conv"])
    import math

    p1 = x[0] / n[0]
    p2 = x[1] / n[1]
    p = (x[0] + x[1]) / (n[0] + n[1])
    se = math.sqrt(p * (1.0 - p) * (1.0 / n[0] + 1.0 / n[1]))
    z = (p1 - p2) / se
    return pa.table(
        {
            "n_a": pa.array([n[0]], pa.int64()),
            "n_b": pa.array([n[1]], pa.int64()),
            "conv_a": pa.array([x[0]], pa.int64()),
            "conv_b": pa.array([x[1]], pa.int64()),
            "z": pa.array([z], pa.float64()),
        }
    )


QUERIES["events_ab_ztest"] = events_ab_ztest

ORACLE_SQL["events_ab_ztest"] = """
WITH per_user AS (
  SELECT user_id,
         MAX(CASE WHEN event_type = 'purchase' AND value > 200
                   THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY user_id
),
agg AS (
  SELECT
    SUM(CASE WHEN user_id % 2 = 0 THEN 1 ELSE 0 END)::BIGINT AS n_a,
    SUM(CASE WHEN user_id % 2 = 1 THEN 1 ELSE 0 END)::BIGINT AS n_b,
    SUM(CASE WHEN user_id % 2 = 0 THEN conv ELSE 0 END)::BIGINT AS conv_a,
    SUM(CASE WHEN user_id % 2 = 1 THEN conv ELSE 0 END)::BIGINT AS conv_b
  FROM per_user
)
SELECT n_a, n_b, conv_a, conv_b,
       ((CAST(conv_a AS DOUBLE) / n_a) - (CAST(conv_b AS DOUBLE) / n_b))
       / sqrt(
           (CAST(conv_a + conv_b AS DOUBLE) / (n_a + n_b))
           * (1.0 - (CAST(conv_a + conv_b AS DOUBLE) / (n_a + n_b)))
           * ((1.0 / n_a) + (1.0 / n_b))
         ) AS z
FROM agg
"""


def graph_onion_layers(sf_dir: str):
    """Onion / degeneracy layering (ops/graph.py:onion_layers): 3
    synchronous k=3 peels over the undirected simple form of the md5
    link graph, each node stamped with the peel round that removed it
    (survivors stamped rounds+1) -- periphery-to-core depth, the wave
    refinement of graph_kcore's membership bit."""
    from .ops.graph import onion_layers

    edges, _, _ = _md5_link_graph(sf_dir)
    return onion_layers(edges, k=3, rounds=3)


QUERIES["graph_onion_layers"] = graph_onion_layers


def _onion_oracle_sql(k: int = 3, rounds: int = 3) -> str:
    """Unrolled onion layering over the shared md5 link graph: the
    kcore peel chain plus per-round EXCEPTs stamping the peel wave."""
    parts = ["""
WITH nn AS (SELECT COUNT(*) AS n FROM documents),
raw AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR) || ':'
               || CAST(r.k AS VARCHAR)), 1, 8)) AS BIGINT)
           % (SELECT n FROM nn) AS dst
  FROM documents d CROSS JOIN (VALUES (0), (1), (2)) r(k)
  WHERE r.k < d.doc_id % 4
),
e0 AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM raw WHERE src <> dst),
u0 AS (SELECT u AS node FROM e0 UNION SELECT v AS node FROM e0)"""]
    prev = "e0"
    for i in range(1, rounds + 1):
        parts.append(f""",
d{i} AS (
  SELECT node, COUNT(*) AS d FROM (
    SELECT u AS node FROM {prev} UNION ALL SELECT v AS node FROM {prev}
  ) GROUP BY node
),
s{i} AS (SELECT node FROM d{i} WHERE d >= {k}),
e{i} AS (
  SELECT e.u, e.v FROM {prev} e
  JOIN s{i} a ON a.node = e.u JOIN s{i} b ON b.node = e.v
)""")
        prev = f"e{i}"
    peels = []
    for i in range(1, rounds + 1):
        src = "u0" if i == 1 else f"s{i - 1}"
        peels.append(
            f"SELECT node, CAST({i} AS BIGINT) AS layer FROM\n"
            f"  (SELECT node FROM {src} EXCEPT SELECT node FROM s{i})"
        )
    peels.append(
        f"SELECT node, CAST({rounds + 1} AS BIGINT) AS layer FROM s{rounds}"
    )
    parts.append("\n" + "\nUNION ALL ".join(peels))
    return "".join(parts)


ORACLE_SQL["graph_onion_layers"] = _onion_oracle_sql()


def graph_node2vec_walks(sf_dir: str):
    """node2vec p/q-biased 3-step walks (ops/graph.py:node2vec_walks)
    over the md5 link graph: step 1 uniform, later hops weighted 1/4/2
    (return / distance-1 / explore, i.e. p=4, q=2 scaled by 4) over the
    current node's out-neighbors, every choice md5-deterministic so the
    oracle replays the full second-order walk."""
    from .ops.graph import node2vec_walks

    edges, _, _ = _md5_link_graph(sf_dir)
    return node2vec_walks(edges, steps=3)


QUERIES["graph_node2vec_walks"] = graph_node2vec_walks

_N2V_PICK = ("CAST(('0x' || substr(md5(CAST({t} AS VARCHAR) || ':' || "
             "CAST({v} AS VARCHAR) || ':{st}'), 1, 8)) AS BIGINT)")

ORACLE_SQL["graph_node2vec_walks"] = f"""
WITH {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src AS node, dst AS nbr FROM edges WHERE src <> dst),
adj AS (
  SELECT node, nbr,
         ROW_NUMBER() OVER (PARTITION BY node ORDER BY nbr) - 1 AS idx,
         COUNT(*) OVER (PARTITION BY node) AS deg
  FROM e
),
starts AS (SELECT DISTINCT node AS start FROM e),
w1 AS (
  SELECT s.start, a.nbr AS s1
  FROM starts s JOIN adj a ON a.node = s.start
   AND a.idx = {_WALK_PICK.format(node='s.start', st=1)} % a.deg
),
c2 AS (
  SELECT w1.start, w1.s1, a.nbr AS x,
         CASE WHEN a.nbr = w1.start THEN 1
              WHEN en.node IS NOT NULL THEN 4 ELSE 2 END AS w
  FROM w1 JOIN adj a ON a.node = w1.s1
  LEFT JOIN e en ON en.node = w1.start AND en.nbr = a.nbr
),
c2c AS (
  SELECT start, s1, x, w,
         SUM(w) OVER (PARTITION BY start ORDER BY x) AS cw,
         SUM(w) OVER (PARTITION BY start) AS tw
  FROM c2
),
p2 AS (
  SELECT start, s1, x AS s2
  FROM c2c
  WHERE ({_N2V_PICK.format(t='start', v='s1', st=2)} % tw) >= cw - w
    AND ({_N2V_PICK.format(t='start', v='s1', st=2)} % tw) < cw
),
c3 AS (
  SELECT p2.start, p2.s1, p2.s2, a.nbr AS x,
         CASE WHEN a.nbr = p2.s1 THEN 1
              WHEN en.node IS NOT NULL THEN 4 ELSE 2 END AS w
  FROM p2 JOIN adj a ON a.node = p2.s2
  LEFT JOIN e en ON en.node = p2.s1 AND en.nbr = a.nbr
),
c3c AS (
  SELECT start, s1, s2, x, w,
         SUM(w) OVER (PARTITION BY start ORDER BY x) AS cw,
         SUM(w) OVER (PARTITION BY start) AS tw
  FROM c3
),
p3 AS (
  SELECT start, x AS s3
  FROM c3c
  WHERE ({_N2V_PICK.format(t='s1', v='s2', st=3)} % tw) >= cw - w
    AND ({_N2V_PICK.format(t='s1', v='s2', st=3)} % tw) < cw
)
SELECT s.start, w1.s1, p2.s2, p3.s3
FROM starts s
LEFT JOIN w1 ON w1.start = s.start
LEFT JOIN p2 ON p2.start = s.start
LEFT JOIN p3 ON p3.start = s.start
"""


def graph_scc(sf_dir: str):
    """Exact strongly-connected components (ops/graph.py:scc) over the
    directed md5 link graph, each node labeled with its component's MIN
    member id.  Budget-gated one-task Tarjan fast path first
    (scc_local); the distributed trim + forward-color + backward-reach
    peel rounds are forced in the parity pytest and run above budget."""
    from .ops.graph import scc, scc_local

    edges, _, _ = _md5_link_graph(sf_dir)
    local = scc_local(edges)
    if local is not None:
        return local
    return scc(edges)


QUERIES["graph_scc"] = graph_scc

_SCC_CTES = f"""
WITH RECURSIVE {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
gnodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
reach AS (
  SELECT src AS a, dst AS b FROM e
  UNION
  SELECT r.a, e2.dst FROM reach r JOIN e e2 ON e2.src = r.b
),
mutual AS (
  SELECT r1.a AS node, r1.b AS m
  FROM reach r1 JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a
),
scclab AS (
  SELECT n.node,
         CAST(LEAST(n.node, COALESCE(MIN(m.m), n.node)) AS BIGINT) AS scc
  FROM gnodes n LEFT JOIN mutual m ON m.node = n.node
  GROUP BY n.node
)"""

ORACLE_SQL["graph_scc"] = _SCC_CTES + "\nSELECT node, scc FROM scclab"


def corpus_flagship_shuffled(sf_dir: str):
    """The corpus flagship with CorpusConfig(shuffle_order=True): the
    SAME dedup -> near-dup -> clean chain (stages 1-3 checkpoints are
    reused verbatim -- their stamps exclude the pack knobs) but the
    final pack/materialize runs in deterministic md5 TRAINING order:
    partitions are contiguous rank ranges, every row carries its global
    ``rank``, and per-split offsets accumulate in rank order.  The
    oracle replays the whole chain plus the rank expression."""
    return _corpus_flagship_run(sf_dir, shuffle_order=True)


QUERIES["corpus_flagship_shuffled"] = corpus_flagship_shuffled


def orders_scd2_history(sf_dir: str):
    """SCD Type-2 dimension history (ops/relational.py:scd2_intervals)
    from a 3-version snapshot series derived deterministically from
    orders: snapshot v drops keys with key % 11 == v and stars the
    status of keys with key % (3+v) == 0 -- so attribute changes,
    removals, re-inserts and unchanged runs all appear.  One id-hash
    bucket shuffle of slim rows + vectorized gaps-and-islands per
    bucket; the oracle replays the runs with the classic
    v - ROW_NUMBER() island trick."""
    from .ops.relational import scd2_intervals

    import ray.data as rd

    snaps = []
    for v in range(3):
        base = _read(
            sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"]
        )

        def mk(b: pa.Table, _v=v) -> pa.Table:
            k = b["o_orderkey"].to_numpy(zero_copy_only=False)
            t = b.filter(pa.array(k % 11 != _v))
            kk = t["o_orderkey"].to_numpy(zero_copy_only=False)
            st = pc.if_else(
                pa.array(kk % (3 + _v) == 0),
                pc.binary_join_element_wise(
                    t["o_orderstatus"], pa.scalar("*"), pa.scalar("")
                ),
                t["o_orderstatus"],
            )
            return pa.table(
                {
                    "o_orderkey": t["o_orderkey"],
                    "st": st,
                    "v": pa.array(
                        np.full(len(t), _v, np.int64), pa.int64()
                    ),
                }
            )

        snaps.append(base.map_batches(mk, batch_format="pyarrow"))
    stacked = snaps[0].union(snaps[1], snaps[2])
    return scd2_intervals(
        stacked, id_col="o_orderkey", attr_cols=["st"], version_col="v",
        max_version=2,
    )


QUERIES["orders_scd2_history"] = orders_scd2_history

ORACLE_SQL["orders_scd2_history"] = """
WITH vs(v) AS (VALUES (0), (1), (2)),
snaps AS (
  SELECT o_orderkey AS id, v,
         CASE WHEN o_orderkey % (3 + v) = 0 THEN o_orderstatus || '*'
              ELSE o_orderstatus END AS st
  FROM orders CROSS JOIN vs
  WHERE o_orderkey % 11 <> v
),
r AS (
  SELECT *, v - ROW_NUMBER() OVER (PARTITION BY id, st ORDER BY v) AS grp
  FROM snaps
),
runs AS (
  SELECT id, st, MIN(v) AS eff_from, MAX(v) AS last_v
  FROM r GROUP BY id, st, grp
)
SELECT id AS o_orderkey, st,
       CAST(eff_from AS BIGINT) AS eff_from,
       CASE WHEN last_v < 2 THEN CAST(last_v + 1 AS BIGINT) END AS eff_to,
       CAST(CASE WHEN last_v = 2 THEN 1 ELSE 0 END AS BIGINT) AS is_current
FROM runs
"""


def graph_condensation(sf_dir: str):
    """Condensation DAG (ops/graph.py:scc_condensation over graph_scc's
    labels): distinct md5-graph edges relabeled by SCC, intra-component
    edges dropped, multiplicity counted -- the acyclic quotient graph
    DAG schedulers consume."""
    from .ops.graph import scc, scc_condensation, scc_local

    edges, _, _ = _md5_link_graph(sf_dir)
    labels = scc_local(edges)
    if labels is None:
        edges2, _, _ = _md5_link_graph(sf_dir)
        labels = scc(edges2)
    # separate read: never fan one Dataset into two consumers
    edges3, _, _ = _md5_link_graph(sf_dir)
    return scc_condensation(edges3, labels)


QUERIES["graph_condensation"] = graph_condensation

ORACLE_SQL["graph_condensation"] = _SCC_CTES + """
SELECT ls.scc AS src_scc, ld.scc AS dst_scc,
       CAST(COUNT(*) AS BIGINT) AS n_edges
FROM e
JOIN scclab ls ON ls.node = e.src
JOIN scclab ld ON ld.node = e.dst
WHERE ls.scc <> ld.scc
GROUP BY 1, 2
"""


def graph_mis(sf_dir: str):
    """Luby maximal independent set (ops/graph.py:
    maximal_independent_set): 3 deterministic priority rounds at fixed
    md5 priorities over the undirected simple md5 link graph -- winners
    beat every active neighbor on (priority, node), losers adjacent to a
    winner leave, stranded degree-0 actives join outright."""
    from .ops.graph import maximal_independent_set

    edges, _, _ = _md5_link_graph(sf_dir)
    return maximal_independent_set(edges, rounds=3)


QUERIES["graph_mis"] = graph_mis


def _mis_oracle_sql(rounds: int = 3) -> str:
    def key(x: str) -> str:
        # 7 hex digits = 28-bit priority; packed key < 2^60 (no overflow)
        return (
            f"(CAST(('0x' || substr(md5(CAST({x} AS VARCHAR) || ':mis')"
            f", 1, 7)) AS BIGINT) * 4294967296 + {x})"
        )

    parts = [f"""
WITH {_MD5_EDGES_SQL},
e0 AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
       FROM edges WHERE src <> dst),
a0 AS (SELECT u AS node FROM e0 UNION SELECT v AS node FROM e0)"""]
    for r in range(1, rounds + 1):
        p = r - 1
        parts.append(f""",
nm{r} AS (
  SELECT node, MIN(k) AS nk FROM (
    SELECT u AS node, {key('v')} AS k FROM e{p}
    UNION ALL
    SELECT v AS node, {key('u')} AS k FROM e{p}
  ) GROUP BY node
),
mis{r} AS (SELECT node FROM nm{r} WHERE {key('node')} < nk),
str{r} AS (
  SELECT node FROM a{p}
  EXCEPT SELECT u FROM e{p}
  EXCEPT SELECT v FROM e{p}
),
pick{r} AS (SELECT node FROM mis{r} UNION SELECT node FROM str{r}),
rem{r} AS (
  SELECT node FROM pick{r}
  UNION SELECT e.v AS node FROM e{p} e JOIN mis{r} m ON m.node = e.u
  UNION SELECT e.u AS node FROM e{p} e JOIN mis{r} m ON m.node = e.v
),
a{r} AS (SELECT node FROM a{p} EXCEPT SELECT node FROM rem{r}),
e{r} AS (
  SELECT e.u, e.v FROM e{p} e
  WHERE e.u NOT IN (SELECT node FROM rem{r})
    AND e.v NOT IN (SELECT node FROM rem{r})
)""")
    sel = "\nUNION ".join(
        f"SELECT node FROM pick{r}" for r in range(1, rounds + 1)
    )
    parts.append("\n" + sel)
    return "".join(parts)


ORACLE_SQL["graph_mis"] = _mis_oracle_sql()


def dedup_incremental_minhash(sf_dir: str):
    """Cross-window NEAR-dup dedup with durable LSH band state
    (ops/dedup.py:incremental_minhash_dedup, drop-on-band-collision):
    window A = even docs commits first; window B = odd docs + near
    copies of every 10th even doc at +1e6 (cross-window near-dups --
    must drop against the STATE) + near copies of odd docs ending in 1
    at +2e6 (within-window near-dups -- must drop against the smaller
    id).  Returns window B's survivors.  State dir is driver-local
    scratch, cleaned up (a real deployment passes a shared fs path)."""
    import shutil
    import tempfile

    from .ops.dedup import incremental_minhash_dedup

    def lastword_dropped(delta: int, want_mod10: int):
        base = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def mk(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            t = b.filter(pa.array(ids % 10 == want_mod10))
            texts = [" ".join((x or "").split()[:-1])
                     for x in t["text"].to_pylist()]
            return pa.table(
                {
                    "doc_id": pc.cast(
                        pc.add(t["doc_id"], pa.scalar(delta)), pa.int64()
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            )

        return base.map_batches(mk, batch_format="pyarrow")

    def parity(want: int):
        base = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return base.map_batches(
            lambda b, _w=want: b.filter(
                pa.array(
                    b["doc_id"].to_numpy(zero_copy_only=False) % 2 == _w
                )
            ).select(["doc_id", "text"]),
            batch_format="pyarrow",
        ).map_batches(
            lambda b: pa.table(
                {
                    "doc_id": pc.cast(b["doc_id"], pa.int64()),
                    "text": b["text"],
                }
            ),
            batch_format="pyarrow",
        )

    state = tempfile.mkdtemp(prefix="m2r_mh_state_")
    try:
        incremental_minhash_dedup(parity(0), state, "w0")
        win_b = parity(1).union(
            lastword_dropped(1000000, 0),  # near-dups of PRIOR window
            lastword_dropped(2000000, 1),  # near-dups WITHIN window B
        )
        surv = incremental_minhash_dedup(win_b, state, "w1")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    return surv


QUERIES["dedup_incremental_minhash"] = dedup_incremental_minhash

_LASTWORD_SQL = r"""CASE WHEN length(regexp_extract_all(text, '\S+')) <= 1
     THEN ''
     ELSE array_to_string(list_slice(regexp_extract_all(text, '\S+'), 1,
          length(regexp_extract_all(text, '\S+')) - 1), ' ') END"""

ORACLE_SQL["dedup_incremental_minhash"] = (
    rf"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, {_LASTWORD_SQL} FROM documents
  WHERE doc_id % 10 = 0
  UNION ALL
  SELECT doc_id + 2000000, {_LASTWORD_SQL} FROM documents
  WHERE doc_id % 10 = 1
),
"""
    + _minhash_ctes_over("corpus")
    + r""",
aw AS (SELECT doc_id, band, bh FROM bands
       WHERE doc_id < 1000000 AND doc_id % 2 = 0),
adrop AS (
  SELECT DISTINCT n.doc_id FROM aw n
  JOIN aw m ON m.band = n.band AND m.bh = n.bh AND m.doc_id < n.doc_id
),
asurv AS (
  SELECT DISTINCT doc_id FROM aw
  WHERE doc_id NOT IN (SELECT doc_id FROM adrop)
),
prior AS (
  SELECT b.band, b.bh FROM bands b JOIN asurv s ON s.doc_id = b.doc_id
),
bw AS (SELECT doc_id, band, bh FROM bands
       WHERE NOT (doc_id < 1000000 AND doc_id % 2 = 0)),
bdropw AS (
  SELECT DISTINCT n.doc_id FROM bw n
  JOIN bw m ON m.band = n.band AND m.bh = n.bh AND m.doc_id < n.doc_id
),
bdropx AS (
  SELECT DISTINCT n.doc_id FROM bw n
  JOIN prior p ON p.band = n.band AND p.bh = n.bh
)
SELECT DISTINCT doc_id FROM bw
WHERE doc_id NOT IN (SELECT doc_id FROM bdropw)
  AND doc_id NOT IN (SELECT doc_id FROM bdropx)
"""
)


def orders_scd2_pit(sf_dir: str):
    """Point-in-time dimension lookup over the SCD2 history
    (orders_scd2_history's intervals): each order key probes the
    version ``key % 3`` and gets the attribute row whose validity
    interval covers it -- the as-of join every warehouse fact load does
    against a type-2 dimension.  The probe is a pure function of the
    key, so the lookup is ONE stateless vectorized filter over the
    interval table (no join at all); a fact table with arbitrary
    timestamps would broadcast-or-join on the key and apply the same
    interval mask."""
    iv = orders_scd2_history(sf_dir)

    def pit(b: pa.Table) -> pa.Table:
        k = b["o_orderkey"].to_numpy(zero_copy_only=False)
        f = b["eff_from"].to_numpy(zero_copy_only=False)
        t = pc.fill_null(b["eff_to"], 3).to_numpy(zero_copy_only=False)
        p = k % 3
        keep = (f <= p) & (p < t)
        out = b.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": out["o_orderkey"],
                "probe_v": pa.array(
                    (out["o_orderkey"].to_numpy(zero_copy_only=False)
                     % 3).astype(np.int64),
                    pa.int64(),
                ),
                "st": out["st"],
                "eff_from": out["eff_from"],
            }
        )

    return iv.map_batches(pit, batch_format="pyarrow")


QUERIES["orders_scd2_pit"] = orders_scd2_pit

ORACLE_SQL["orders_scd2_pit"] = (
    "WITH hist AS (" + ORACLE_SQL["orders_scd2_history"] + """)
SELECT o_orderkey, CAST(o_orderkey % 3 AS BIGINT) AS probe_v,
       st, eff_from
FROM hist
WHERE eff_from <= o_orderkey % 3
  AND (eff_to IS NULL OR o_orderkey % 3 < eff_to)
"""
)


def corpus_flagship_dropped(sf_dir: str):
    """Removal lineage of the corpus flagship
    (CorpusConfig(audit=True)): ONE row per dropped document with its
    reason -- 'exact' (content-hash dup, min id kept), 'near'
    (MinHash+CC non-root), 'lang' / 'contaminated' / 'short' (the clean
    stage's first failing filter, _prep_fn order).  The union of this
    audit's ids and the kept partitions' ids is exactly the input
    corpus (asserted in pytest); the oracle replays every reason from
    the same CTE chain as corpus_flagship_docs."""
    return _corpus_flagship_run(sf_dir, shuffle_order=False, audit=True)


QUERIES["corpus_flagship_dropped"] = corpus_flagship_dropped

_AUDIT_TAIL = r""",
exact_d AS (
  SELECT doc_id FROM corpus WHERE doc_id NOT IN (SELECT doc_id FROM dk)
),
near_d AS (
  SELECT d1.doc_id FROM d1
  JOIN roots r ON r.node = d1.doc_id AND r.root <> d1.doc_id
),
lang_d AS (
  SELECT d2.doc_id FROM d2 JOIN lid USING (doc_id)
  WHERE lid.lang_pred = 'und'
),
contam_d AS (
  SELECT d2.doc_id FROM d2 JOIN lid USING (doc_id)
  WHERE lid.lang_pred <> 'und'
    AND EXISTS (SELECT 1 FROM spans WHERE contains(d2.text, spans.s))
),
short_d AS (SELECT doc_id FROM tok WHERE n_tokens < 20)
SELECT doc_id, 'exact' AS reason FROM exact_d
UNION ALL SELECT doc_id, 'near' FROM near_d
UNION ALL SELECT doc_id, 'lang' FROM lang_d
UNION ALL SELECT doc_id, 'contaminated' FROM contam_d
UNION ALL SELECT doc_id, 'short' FROM short_d
"""

ORACLE_SQL["corpus_flagship_dropped"] = _corpus_flagship_oracle_sql(
    tail_override=_AUDIT_TAIL
)


def doc_pagerank_weighted(sf_dir: str):
    """Weighted PageRank (ops/graph.py:pagerank_weighted): 3 integer
    iterations over the md5 link graph with deterministic per-edge
    weights 1..8 (1 + md5(u:v:w) % 8); contribution = rank*w // wout,
    all order-free int64 so the unrolled oracle replays it bit-for-bit.
    Budget-gated one-task fast path first (parity-tested)."""
    from .ops.graph import pagerank_weighted, pagerank_weighted_local

    edges, nodes, _ = _md5_link_graph(sf_dir)
    local = pagerank_weighted_local(edges, nodes, iterations=3)
    if local is not None:
        return local
    edges2, nodes2, _ = _md5_link_graph(sf_dir)
    return pagerank_weighted(edges2, nodes2, iterations=3)


QUERIES["doc_pagerank_weighted"] = doc_pagerank_weighted


_WPR_CHAIN = [f"""
WITH {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
we AS (
  SELECT src, dst,
         1 + CAST(('0x' || substr(md5(CAST(src AS VARCHAR) || ':' ||
             CAST(dst AS VARCHAR) || ':w'), 1, 8)) AS BIGINT) % 8 AS w
  FROM e
),
ws AS (SELECT src, CAST(SUM(w) AS BIGINT) AS wout FROM we GROUP BY src),
uni AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents
        UNION SELECT src FROM we),
nn2 AS (SELECT COUNT(*) AS c FROM uni),
r0 AS MATERIALIZED (
  SELECT node, CAST(1000000000000 // (SELECT c FROM nn2) AS BIGINT) AS r
  FROM uni
)"""]
for _i in range(1, 4):
    _p = _i - 1
    _WPR_CHAIN.append(f""",
d{_i} AS (
  SELECT CAST(COALESCE(SUM(r), 0) AS BIGINT) AS m FROM r{_p}
  WHERE node NOT IN (SELECT src FROM we)
),
c{_i} AS (
  SELECT we.dst AS node,
         CAST(SUM((r.r * we.w) // ws.wout) AS BIGINT) AS s
  FROM we JOIN r{_p} r ON r.node = we.src JOIN ws ON ws.src = we.src
  GROUP BY we.dst
),
r{_i} AS MATERIALIZED (
  SELECT u.node,
         CAST((15 * (1000000000000 // (SELECT c FROM nn2))
               + 85 * (COALESCE(c.s, 0)
                       + (SELECT m FROM d{_i}) // (SELECT c FROM nn2)))
              // 100 AS BIGINT) AS r
  FROM uni u LEFT JOIN c{_i} c ON c.node = u.node
)""")
_WPR_CHAIN.append("\nSELECT node, r AS rank FROM r3")

ORACLE_SQL["doc_pagerank_weighted"] = "".join(_WPR_CHAIN)


def graph_stress_centrality(sf_dir: str):
    """Sampled-source depth-3 stress centrality (ops/graph.py:
    stress_centrality_sampled): seeds = nodes with out-edges and
    node % 25 == 1; per seed the BFS DAG's integer shortest-path counts
    flow forward and the path-continuation counts flow backward;
    stress(v) = sum of sigma * g.  Budget-gated one-task fast path
    first; the distributed pair-keyed rounds are forced in the parity
    pytest."""
    from .ops.graph import stress_centrality_sampled

    edges, _, _ = _md5_link_graph(sf_dir)
    seeds = edges.map_batches(
        lambda b: pa.table(
            {
                "s": pa.array(
                    np.unique(
                        b["src"].to_numpy(zero_copy_only=False)[
                            b["src"].to_numpy(zero_copy_only=False) % 25
                            == 1
                        ]
                    ),
                    pa.int64(),
                )
            }
        ),
        batch_format="pyarrow",
    )
    from .ops.dedup import distinct_first

    return stress_centrality_sampled(
        edges, distinct_first(seeds, "s"), depth=3
    )


QUERIES["graph_stress_centrality"] = graph_stress_centrality

ORACLE_SQL["graph_stress_centrality"] = f"""
WITH {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
seeds AS (SELECT DISTINCT src AS s FROM e WHERE src % 25 = 1),
l1 AS MATERIALIZED (
  SELECT sd.s, e.dst AS v, CAST(COUNT(*) AS BIGINT) AS sig
  FROM seeds sd JOIN e ON e.src = sd.s
  WHERE e.dst <> sd.s
  GROUP BY sd.s, e.dst
),
l2 AS MATERIALIZED (
  SELECT l1.s, e.dst AS v, CAST(SUM(l1.sig) AS BIGINT) AS sig
  FROM l1 JOIN e ON e.src = l1.v
  WHERE e.dst <> l1.s
    AND NOT EXISTS (SELECT 1 FROM l1 x WHERE x.s = l1.s AND x.v = e.dst)
  GROUP BY l1.s, e.dst
),
l3 AS MATERIALIZED (
  SELECT l2.s, e.dst AS v, CAST(SUM(l2.sig) AS BIGINT) AS sig
  FROM l2 JOIN e ON e.src = l2.v
  WHERE e.dst <> l2.s
    AND NOT EXISTS (SELECT 1 FROM l1 x WHERE x.s = l2.s AND x.v = e.dst)
    AND NOT EXISTS (SELECT 1 FROM l2 x WHERE x.s = l2.s AND x.v = e.dst)
  GROUP BY l2.s, e.dst
),
g2 AS MATERIALIZED (
  SELECT l2.s, l2.v, CAST(COUNT(*) AS BIGINT) AS g
  FROM l2 JOIN e ON e.src = l2.v
  JOIN l3 ON l3.s = l2.s AND l3.v = e.dst
  GROUP BY l2.s, l2.v
),
g1 AS MATERIALIZED (
  SELECT l1.s, l1.v, CAST(SUM(1 + COALESCE(g2.g, 0)) AS BIGINT) AS g
  FROM l1 JOIN e ON e.src = l1.v
  JOIN l2 ON l2.s = l1.s AND l2.v = e.dst
  LEFT JOIN g2 ON g2.s = l1.s AND g2.v = e.dst
  GROUP BY l1.s, l1.v
),
terms AS (
  SELECT l1.v AS node, l1.sig * g1.g AS t
  FROM l1 JOIN g1 ON g1.s = l1.s AND g1.v = l1.v
  UNION ALL
  SELECT l2.v, l2.sig * g2.g
  FROM l2 JOIN g2 ON g2.s = l2.s AND g2.v = l2.v
)
SELECT node, CAST(SUM(t) AS BIGINT) AS stress FROM terms GROUP BY node
"""


# -- general BGP planner contract queries (round-5 task #5) ----------------

def _chain_triples(sf_dir: str):
    """The kg_chain_language triple input (sameAs edges + language
    lowering over the augmented doc graph), shared by the planner
    queries."""
    from .stages.canonicalize import sameas_by_shared_key, symmetry_closure

    docs = _read(sf_dir, "documents", target_rows=4096)

    def shift(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in batch.column_names}
        cols["doc_id"] = pc.add(batch["doc_id"], pa.scalar(1000000))
        return pa.table(cols)

    aug = docs.union(docs.map_batches(shift, batch_format="pyarrow"))
    base = _lower_docs(aug, predicates={DC_LANGUAGE, DC_SOURCE})
    sameas = symmetry_closure(
        sameas_by_shared_key(_augmented_doc_hashes(sf_dir), "hash"),
        dedup=False,
    )
    slim3 = lambda b: b.select(["subj", "pred", "obj"])  # noqa: E731
    return base.map_batches(slim3, batch_format="pyarrow").union(
        sameas.map_batches(slim3, batch_format="pyarrow")
    )


def kg_planner_star(sf_dir: str):
    """kg_bgp_star reproduced through the GENERAL planner (ops/bgp.
    bgp_match): same patterns, same oracle, hash-exact -- the acceptance
    check that the planner's scan + greedy joins implement star
    semantics identically to the hand-built bucket executor."""
    from .ops.bgp import bgp_match

    return bgp_match(
        _lower_docs(
            _read(sf_dir, "documents", target_rows=4096),
            predicates={DC_LANGUAGE, DC_SOURCE, DEICH_NCHARS},
        ),
        [
            ("?subj", DC_LANGUAGE, "?lang"),
            ("?subj", DC_SOURCE, "?src"),
            ("?subj", DEICH_NCHARS, "?nchars"),
        ],
        out_vars=["subj", "lang", "src", "nchars"],
    )


def kg_planner_chain(sf_dir: str):
    """kg_chain_language reproduced through the general planner: the
    2-hop chain as plain patterns, joins ordered by the planner's own
    cardinality estimates; hash-exact against the chain oracle."""
    from .ops.bgp import bgp_match

    return bgp_match(
        _chain_triples(sf_dir),
        [
            ("?doc", "http://www.w3.org/2002/07/owl#sameAs", "?canon"),
            ("?canon", DC_LANGUAGE, "?lang"),
        ],
        out_vars=["doc", "canon", "lang"],
    )


def kg_planner_mixed(sf_dir: str):
    """Mixed star+chain BGP through the planner -- the shape neither
    hand-built executor covers alone (round-5 task #5 acceptance):

        ?doc   owl:sameAs   ?canon .
        ?canon dc:language  ?lang .
        ?canon dc:source    ?src .

    (a chain hop into a 2-pattern star on the chain's tail variable)."""
    from .ops.bgp import bgp_match

    return bgp_match(
        _chain_triples(sf_dir),
        [
            ("?doc", "http://www.w3.org/2002/07/owl#sameAs", "?canon"),
            ("?canon", DC_LANGUAGE, "?lang"),
            ("?canon", DC_SOURCE, "?src"),
        ],
        out_vars=["doc", "canon", "lang", "src"],
    )


QUERIES["kg_planner_star"] = kg_planner_star
QUERIES["kg_planner_chain"] = kg_planner_chain
QUERIES["kg_planner_mixed"] = kg_planner_mixed

ORACLE_SQL["kg_planner_star"] = ORACLE_SQL["kg_bgp_star"]
ORACLE_SQL["kg_planner_chain"] = ORACLE_SQL["kg_chain_language"]
ORACLE_SQL["kg_planner_mixed"] = """
WITH hashes AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS subj,
         md5(text) AS h FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         md5(text) FROM documents
), m AS (
  SELECT h, min(subj) AS canon FROM hashes GROUP BY h
), sameas AS (
  SELECT a.subj AS s, m.canon AS o FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
  UNION ALL
  SELECT m.canon, a.subj FROM hashes a
  JOIN m ON a.h = m.h WHERE a.subj <> m.canon
), langs AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS s,
         'http://lexvo.org/id/iso639-3/' || lang AS o FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         'http://lexvo.org/id/iso639-3/' || lang FROM documents
), srcs AS (
  SELECT 'http://data.example.org/doc/' || CAST(doc_id AS VARCHAR) AS s,
         'http://data.example.org/source/' || source AS o FROM documents
  UNION ALL
  SELECT 'http://data.example.org/doc/' || CAST(doc_id + 1000000 AS VARCHAR),
         'http://data.example.org/source/' || source FROM documents
)
SELECT DISTINCT sa.s AS doc, sa.o AS canon, l.o AS lang, r.o AS src
FROM sameas sa
JOIN langs l ON l.s = sa.o
JOIN srcs r ON r.s = sa.o
"""


# -- real-decoder multimodal contract query (round-5 task #6) --------------

def multimodal_bmp_decode(sf_dir: str):
    """REAL (non-fake) decode through the DecodeStub injection point:
    genuine uncompressed 24-bit BMP payloads (stdlib-synthesized,
    sha256-derived dimensions, every 16th truncated mid-pixel-array) are
    parsed by ops/multimodal.bmp_decoder -- an actual BMP header parser,
    not the fake-magic shortcut -- through the same actor-pool stage a
    PIL-backed decoder would use.  The oracle replays the sha256
    dimension derivation and the deterministic corruption pattern."""
    import ray.data as rd

    from .ops.multimodal import DecodeStub, bmp_decoder, synth_bmp_table

    ds = rd.from_arrow(synth_bmp_table(200))
    return ds.map_batches(
        DecodeStub,
        fn_constructor_kwargs={"decoder": bmp_decoder()},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    )


QUERIES["multimodal_bmp_decode"] = multimodal_bmp_decode

ORACLE_SQL["multimodal_bmp_decode"] = """
WITH t AS (
  SELECT i,
    CAST(('0x' || substr(sha256('42:' || CAST(i AS VARCHAR)), 1, 2))
         AS INTEGER) AS b0,
    CAST(('0x' || substr(sha256('42:' || CAST(i AS VARCHAR)), 3, 2))
         AS INTEGER) AS b1,
    (i % 16 = 15) AS corrupt
  FROM range(200) r(i)
)
SELECT CAST(i AS BIGINT) AS media_id,
  CAST(CASE WHEN corrupt THEN 0 ELSE 64 + b0 % 64 END AS INTEGER) AS width,
  CAST(CASE WHEN corrupt THEN 0 ELSE 64 + b1 % 64 END AS INTEGER) AS height,
  NOT corrupt AS decode_ok
FROM t
"""


# -- incremental corpus flagship contract query (round-5 task #8) ----------

def corpus_incremental_sync(sf_dir: str):
    """The incremental corpus-flagship driver
    (pipelines/corpus.sync_corpus_windows) over a two-window arrival:

      window 0 = the documents table;
      window 1 = exact copies at +1e6 (exact cross-window dedup), last-
      word-dropped copies at +2e6 (near-dup band collision vs the kept
      window-0 corpus), word-REVERSED copies at +3e6 (genuinely new docs
      that must pack-APPEND after window 0 with continuing offsets).

    The DuckDB oracle replays the incremental policies exactly: per-
    window min-id exact dedup + state-hash anti-join, the verification-
    free drop-on-band-collision rule (within window and vs the committed
    band state), the fused prep chain, and the per-split pack prefix sum
    in doc-id order (== window order here, since window-1 ids are all
    larger)."""
    import os
    import tempfile

    from .pipelines.corpus import CorpusConfig, sync_corpus_windows

    def block_spans(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        t = b.filter(pa.array(ids % 40 == 0))
        s = pc.utf8_slice_codeunits(t["text"], 0, 48)
        out = pa.table({"s": s})
        return out.filter(pc.not_equal(pc.coalesce(out["s"], ""), ""))

    spans = [
        r["s"]
        for r in _read(sf_dir, "documents", columns=["doc_id", "text"])
        .map_batches(block_spans, batch_format="pyarrow")
        .take_all()
    ]
    cfg = CorpusConfig(
        min_tokens=20, blocked_spans=tuple(sorted(spans)),
        num_partitions=16,
    )

    def shifted(delta: int, mode: str):
        base = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def shift(b: pa.Table) -> pa.Table:
            texts = b["text"].to_pylist()
            if mode == "lastword":
                texts = [" ".join((t or "").split()[:-1]) for t in texts]
            elif mode == "reversed":
                texts = [" ".join(reversed((t or "").split()))
                         for t in texts]
            return pa.table(
                {
                    "doc_id": pc.cast(
                        pc.add(b["doc_id"], pa.scalar(delta)), pa.int64()
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            )

        return base.map_batches(shift, batch_format="pyarrow")

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as tmp:
        w0 = os.path.join(tmp, "win", "w000")
        w1 = os.path.join(tmp, "win", "w001")
        _read(sf_dir, "documents",
              columns=["doc_id", "text"]).write_parquet(w0)
        shifted(1000000, "copy").union(
            shifted(2000000, "lastword"), shifted(3000000, "reversed")
        ).write_parquet(w1)
        out = os.path.join(tmp, "clean")
        sync_corpus_windows(os.path.join(tmp, "win"), out, cfg)
        parts = sorted(
            os.path.join(out, d, "docs.parquet")
            for d in os.listdir(out)
            if d.startswith("part=")
        )
        tab = pa.concat_tables(pq.read_table(p) for p in parts)
    return tab.select(
        ["doc_id", "text", "lang_pred", "n_tokens", "split",
         "start_offset", "pack_id"]
    )


QUERIES["corpus_incremental_sync"] = corpus_incremental_sync

_REVWORD_SQL = r"""array_to_string(
    list_reverse(regexp_extract_all(text, '\S+')), ' ')"""

ORACLE_SQL["corpus_incremental_sync"] = (
    rf"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents
  UNION ALL
  SELECT doc_id + 2000000, {_LASTWORD_SQL} FROM documents
  UNION ALL
  SELECT doc_id + 3000000, {_REVWORD_SQL} FROM documents
),
-- window 0 exact: min id per content hash
e1 AS (
  SELECT MIN(doc_id) AS doc_id FROM corpus WHERE doc_id < 1000000
  GROUP BY md5(COALESCE(text, ''))
),
h1 AS (
  SELECT DISTINCT md5(COALESCE(c.text, '')) AS h
  FROM corpus c JOIN e1 USING (doc_id)
),
-- window 1 exact: min id per hash within the window, then state anti-join
e2w AS (
  SELECT MIN(doc_id) AS doc_id, md5(COALESCE(text, '')) AS h
  FROM corpus WHERE doc_id >= 1000000
  GROUP BY md5(COALESCE(text, ''))
),
e2 AS (
  SELECT doc_id FROM e2w WHERE h NOT IN (SELECT h FROM h1)
),
d1 AS (
  SELECT c.doc_id, c.text FROM corpus c
  WHERE c.doc_id IN (SELECT doc_id FROM e1)
     OR c.doc_id IN (SELECT doc_id FROM e2)
),
"""
    + _minhash_ctes_over("d1")
    + r""",
-- window 0 band policy: drop on any shared bucket with a smaller id
w1b AS (SELECT doc_id, band, bh FROM bands WHERE doc_id < 1000000),
w1drop AS (
  SELECT DISTINCT n.doc_id FROM w1b n
  JOIN w1b m ON m.band = n.band AND m.bh = n.bh AND m.doc_id < n.doc_id
),
s1 AS (SELECT DISTINCT doc_id FROM w1b
       WHERE doc_id NOT IN (SELECT doc_id FROM w1drop)),
state1 AS (
  SELECT b.band, b.bh FROM bands b JOIN s1 USING (doc_id)
),
w2b AS (SELECT doc_id, band, bh FROM bands WHERE doc_id >= 1000000),
w2dropw AS (
  SELECT DISTINCT n.doc_id FROM w2b n
  JOIN w2b m ON m.band = n.band AND m.bh = n.bh AND m.doc_id < n.doc_id
),
w2dropx AS (
  SELECT DISTINCT n.doc_id FROM w2b n
  JOIN state1 p ON p.band = n.band AND p.bh = n.bh
),
s2 AS (
  SELECT DISTINCT doc_id FROM w2b
  WHERE doc_id NOT IN (SELECT doc_id FROM w2dropw)
    AND doc_id NOT IN (SELECT doc_id FROM w2dropx)
),
d2 AS (
  SELECT d1.doc_id, d1.text FROM d1
  WHERE d1.doc_id IN (SELECT doc_id FROM s1)
     OR d1.doc_id IN (SELECT doc_id FROM s2)
),
"""
    + _langid_ctes_over("d2")
    + r""",
spans AS (SELECT substr(text, 1, 48) AS s FROM documents
          WHERE doc_id % 40 = 0 AND substr(text, 1, 48) <> ''),
d3 AS (
  SELECT d2.doc_id, d2.text, lid.lang_pred
  FROM d2 JOIN lid USING (doc_id)
  WHERE lid.lang_pred <> 'und'
    AND NOT EXISTS (SELECT 1 FROM spans WHERE contains(d2.text, spans.s))
),
red AS (
  SELECT doc_id, lang_pred,
    regexp_replace(
        regexp_replace(COALESCE(text, ''),
            '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
            '[EMAIL]', 'g'),
        '[0-9]{4,}', '[NUM]', 'g') AS text
  FROM d3
),
tok AS (
  SELECT doc_id, lang_pred, text,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
  FROM red
),
d4 AS (SELECT * FROM tok WHERE n_tokens >= 20),
spl AS (
  SELECT *,
    CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) < 3221225472 THEN 'train'
         WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
              AS BIGINT) < 3758096384 THEN 'val'
         ELSE 'test' END AS split
  FROM d4
),
packed AS (
  SELECT doc_id, text, lang_pred, n_tokens, split,
    CAST(COALESCE(SUM(n_tokens) OVER (
        PARTITION BY split ORDER BY doc_id
        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
      AS BIGINT) AS start_offset
  FROM spl
)
SELECT doc_id, text, lang_pred, n_tokens, split, start_offset,
       CAST(start_offset // 512 AS BIGINT) AS pack_id
FROM packed
"""
)


# -- personalized PageRank (round-5 candidate list) ------------------------

def doc_pagerank_personalized(sf_dir: str):
    """Personalized weighted PageRank (random-walk-with-restart family):
    teleport base and dangling mass flow to the seed set only (documents
    with doc_id % 50 == 0), ranks start at 0 off-seed -- the
    neighborhood-relevance score entity-linking re-ranking uses.  Same
    order-free integer recurrence as doc_pagerank_weighted, so the
    unrolled oracle is bit-exact; budget-gated one-task fast path first
    (parity-tested against the distributed rounds)."""
    from .ops.graph import pagerank_weighted, pagerank_weighted_local

    edges, nodes, _ = _md5_link_graph(sf_dir)
    seeds = [
        r["doc_id"]
        for r in _read(sf_dir, "documents", columns=["doc_id"]).take_all()
        if r["doc_id"] % 50 == 0
    ]
    local = pagerank_weighted_local(
        edges, nodes, iterations=3, personalization=seeds
    )
    if local is not None:
        return local
    edges2, nodes2, _ = _md5_link_graph(sf_dir)
    return pagerank_weighted(
        edges2, nodes2, iterations=3, personalization=seeds
    )


QUERIES["doc_pagerank_personalized"] = doc_pagerank_personalized

_PPR_CHAIN = [f"""
WITH {_MD5_EDGES_SQL},
e AS (SELECT DISTINCT src, dst FROM edges WHERE src <> dst),
we AS (
  SELECT src, dst,
         1 + CAST(('0x' || substr(md5(CAST(src AS VARCHAR) || ':' ||
             CAST(dst AS VARCHAR) || ':w'), 1, 8)) AS BIGINT) % 8 AS w
  FROM e
),
ws AS (SELECT src, CAST(SUM(w) AS BIGINT) AS wout FROM we GROUP BY src),
uni AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents
        UNION SELECT src FROM we),
seeds AS (SELECT CAST(doc_id AS BIGINT) AS node FROM documents
          WHERE doc_id % 50 = 0),
ns AS (SELECT COUNT(*) AS c FROM seeds),
r0 AS MATERIALIZED (
  SELECT u.node,
         CAST(CASE WHEN u.node IN (SELECT node FROM seeds)
              THEN 1000000000000 // (SELECT c FROM ns) ELSE 0 END
           AS BIGINT) AS r
  FROM uni u
)"""]
for _i in range(1, 4):
    _p = _i - 1
    _PPR_CHAIN.append(f""",
d{_i} AS (
  SELECT CAST(COALESCE(SUM(r), 0) AS BIGINT) AS m FROM r{_p}
  WHERE node NOT IN (SELECT src FROM we)
),
c{_i} AS (
  SELECT we.dst AS node,
         CAST(SUM((r.r * we.w) // ws.wout) AS BIGINT) AS s
  FROM we JOIN r{_p} r ON r.node = we.src JOIN ws ON ws.src = we.src
  GROUP BY we.dst
),
r{_i} AS MATERIALIZED (
  SELECT u.node,
    CAST((15 * CASE WHEN u.node IN (SELECT node FROM seeds)
               THEN 1000000000000 // (SELECT c FROM ns) ELSE 0 END
          + 85 * (COALESCE(c.s, 0)
                  + CASE WHEN u.node IN (SELECT node FROM seeds)
                    THEN (SELECT m FROM d{_i}) // (SELECT c FROM ns)
                    ELSE 0 END))
         // 100 AS BIGINT) AS r
  FROM uni u LEFT JOIN c{_i} c ON c.node = u.node
)""")
_PPR_CHAIN.append("\nSELECT node, r AS rank FROM r3")

ORACLE_SQL["doc_pagerank_personalized"] = "".join(_PPR_CHAIN)
