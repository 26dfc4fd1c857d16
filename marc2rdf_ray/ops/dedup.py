"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shuffle design (ray_guide 'Aggregation at scale'): every operator
pre-aggregates inside ``map_batches`` (hashes, signatures, partial
(key -> min_id, count) maps) so the groupby shuffle moves signatures and
candidate keys, never document text.  Candidate pairs are verified from
signatures; connected components reuse
stages.canonicalize.connected_components (bounded label propagation).
"""

from __future__ import annotations

import hashlib
import logging
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import plan

_WORD_RE = re.compile(r"\w+", re.UNICODE)

logger = logging.getLogger("marc2rdf_ray.dedup")


def md5_u64(s: str) -> int:
    """First 8 bytes (big-endian) of md5 as uint64 -- the hash primitive for
    every LSH stage here.  Chosen over faster non-cryptographic hashes
    because it is reproducible inside a SQL oracle (DuckDB ``md5()``), so
    the ENTIRE candidate-generation pipeline is differential-testable."""
    return int(hashlib.md5(s.encode("utf-8")).hexdigest()[:16], 16)


def _log_capped(op: str, bucket, size: int, cap: int) -> None:
    """Observable signal when a hot bucket is truncated (silent caps look
    like full coverage; ADVICE r1)."""
    logger.warning(
        "%s: bucket %r truncated %d -> %d items; pairs beyond the cap are "
        "dropped (potential false negatives)", op, bucket, size, cap
    )


# -- fine-key grouping without per-group Python ---------------------------

def _coarse_buckets_default() -> int:
    try:
        import ray

        return max(4, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:  # pragma: no cover
        return 8


def grouped_apply(ds, key_col: str, fn, out_schema: pa.Schema, *,
                  min_group: int = 2, num_buckets: int | None = None):
    """``groupby(key).map_groups(fn)`` without the per-fine-group framework
    cost: ONE coarse hash-bucket shuffle co-locates all rows of each fine
    key, then a single sorted pass per coarse bucket applies ``fn`` to each
    key run with >= ``min_group`` rows.  LSH band tables are dominated by
    singleton buckets (one row per (band, hash)); map_groups invoked
    Python once per bucket -- ~80k invocations at sf0.1 -- where this
    invokes it only for the rare multi-member runs."""
    from ..functions.hashing import bucket_codes

    nb = num_buckets or _coarse_buckets_default()

    def coarse(b: pa.Table) -> pa.Table:
        return b.append_column("_cb", bucket_codes(b[key_col], nb))

    def per_coarse(group: pa.Table) -> pa.Table:
        t = group.sort_by([(key_col, "ascending")])
        keys = t[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = keys.to_numpy(zero_copy_only=False)
        n = len(keys)
        change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
        starts = np.concatenate([[0], change]).astype(np.int64)
        ends = np.concatenate([change, [n]]).astype(np.int64)
        outs = []
        for s, e in zip(starts, ends):
            if e - s < min_group:
                continue
            o = fn(t.slice(s, e - s))
            if len(o):
                outs.append(o.select(out_schema.names).cast(out_schema))
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs)

    return (
        ds.map_batches(coarse, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(per_coarse, batch_format="pyarrow")
    )


def distinct_first(ds, key_col: str, *, num_buckets: int | None = None):
    """First row per distinct key, vectorized: coarse-bucket shuffle, then
    one sort + neighbor-mask pass per bucket (replaces
    ``groupby(key).map_groups(slice(0,1))`` -- Python once per key)."""
    from ..functions.hashing import bucket_codes

    nb = num_buckets or _coarse_buckets_default()

    def coarse(b: pa.Table) -> pa.Table:
        return b.append_column("_cb", bucket_codes(b[key_col], nb))

    def per_coarse(group: pa.Table) -> pa.Table:
        t = group.sort_by([(key_col, "ascending")])
        keys = t[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = keys.to_numpy(zero_copy_only=False)
        if not len(keys):
            return t.drop_columns(["_cb"])
        mask = np.concatenate([[True], keys[1:] != keys[:-1]])
        return t.filter(pa.array(mask)).drop_columns(["_cb"])

    return (
        ds.map_batches(coarse, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(per_coarse, batch_format="pyarrow")
    )


# -- exact dedup -----------------------------------------------------------

def add_content_hash(batch: pa.Table, col: str = "text") -> pa.Table:
    texts = batch[col].to_pylist()
    h = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    return batch.append_column("content_hash", pa.array(h, pa.string()))


def exact_dedup_groups(ds, id_col: str = "doc_id", text_col: str = "text"):
    """-> one row per distinct content: (content_hash, doc_id=min id, cnt).

    Two-phase: per-batch partial (hash -> min_id, cnt), then a small
    groupby-aggregate over partials -- the shuffle carries one row per
    distinct hash per batch, not per document."""
    from ray.data.aggregate import Min, Sum

    def partial(batch: pa.Table) -> pa.Table:
        b = add_content_hash(batch, text_col)
        g = (
            b.select(["content_hash", id_col])
            .group_by(["content_hash"], use_threads=False)
            .aggregate([(id_col, "min"), (id_col, "count")])
        )
        return g.rename_columns(["content_hash", "min_id", "cnt"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    out = partials.groupby("content_hash").aggregate(
        Min("min_id", alias_name=id_col), Sum("cnt", alias_name="cnt")
    )
    return out


def exact_dedup(ds, id_col: str = "doc_id", text_col: str = "text"):
    """Keep exactly one representative (min id) per distinct text."""
    groups = exact_dedup_groups(ds, id_col, text_col)
    keep = groups.map_batches(
        lambda b: b.select([id_col]), batch_format="pyarrow"
    )
    return keep


# -- shingles & signatures -------------------------------------------------

def word_ngrams(text: str, n: int = 3) -> set[str]:
    toks = _WORD_RE.findall((text or "").lower())
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def _shingle_hashes(text: str, n: int) -> np.ndarray:
    """md5-derived shingle hashes (sorted distinct shingles; [0] when none)."""
    sh = word_ngrams(text, n)
    if not sh:
        return np.array([0], np.uint64)
    return np.array([md5_u64(s) for s in sorted(sh)], np.uint64)


class MinHasher:
    """Multiply-shift MinHash: h_i(x) = (a_i * x + b_i) mod 2^64 with odd
    a_i over the full 64-bit range (uint64 overflow IS the mod).  All
    constants derive from md5 (a_i = md5_u64('a:i')|1, b_i = md5_u64('b:i'))
    instead of a seeded RNG so a DuckDB oracle replays the identical
    signature pipeline (the ``seed`` parameter namespaces the constants)."""

    def __init__(self, num_perm: int = 64, seed: int = 42, ngram: int = 3):
        ns = "" if seed == 42 else f"{seed}:"
        self.a = np.array(
            [md5_u64(f"{ns}a:{i}") | 1 for i in range(num_perm)], np.uint64
        )
        self.b = np.array(
            [md5_u64(f"{ns}b:{i}") for i in range(num_perm)], np.uint64
        )
        self.num_perm = num_perm
        self.ngram = ngram

    def signature(self, text: str) -> np.ndarray:
        x = _shingle_hashes(text, self.ngram)
        with np.errstate(over="ignore"):
            # (num_perm, n_shingles); uint64 wraparound is intentional
            vals = self.a[:, None] * x[None, :] + self.b[:, None]
        return vals.min(axis=1).astype(np.uint64)


def minhash_lsh_pairs(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    seed: int = 42,
    ngram: int = 3,
):
    """MinHash+LSH near-dup candidate pairs verified from signatures.

    pipeline: signature per doc (map_batches) -> explode to
    (band, band_hash, id, signature) rows -> groupby band bucket ->
    pairwise estimated Jaccard within bucket -> threshold filter -> dedup.
    Returns ds of (a, b, est_jaccard), a < b.
    """
    rows_per_band = num_perm // bands
    hasher = MinHasher(num_perm, seed, ngram)

    def sig_and_bands(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_band, out_hash, out_id, out_sig = [], [], [], []
        for i, t in zip(ids, texts):
            sig = hasher.signature(t)
            sig_bytes = sig.tobytes()
            for b in range(bands):
                band = sig[b * rows_per_band : (b + 1) * rows_per_band]
                out_band.append(b)
                # md5 over decimal-joined band values: SQL-replayable
                # (string_agg(CAST(mh AS VARCHAR), ':' ORDER BY i))
                out_hash.append(
                    hashlib.md5(
                        ":".join(str(int(v)) for v in band).encode()
                    ).hexdigest()
                )
                out_id.append(i)
                out_sig.append(sig_bytes)
        return pa.table(
            {
                "band": pa.array(out_band, pa.int32()),
                "band_hash": pa.array(out_hash, pa.string()),
                "id": pa.array(out_id),
                "sig": pa.array(out_sig, pa.binary()),
            }
        )

    exploded = ds.map_batches(sig_and_bands, batch_format="pyarrow")

    def bucket_key(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            pc.cast(batch["band"], pa.string()),
            batch["band_hash"],
            ":",
        )
        return batch.append_column("bucket", key)

    def pairs_in_bucket(group: pa.Table) -> pa.Table:
        ids = group["id"].to_pylist()
        sigs = group["sig"].to_pylist()
        uniq: dict = {}
        for i, s in zip(ids, sigs):
            uniq[i] = s
        items = sorted(uniq.items())
        a_out, b_out, j_out = [], [], []
        # bucket sizes are tiny by construction; cap pathological buckets
        if len(items) > 200:
            _log_capped(
                "minhash_lsh_pairs", group["bucket"][0].as_py(),
                len(items), 200,
            )
        items = items[:200]
        for x in range(len(items)):
            sx = np.frombuffer(items[x][1], np.uint64)
            for y in range(x + 1, len(items)):
                sy = np.frombuffer(items[y][1], np.uint64)
                est = float((sx == sy).mean())
                if est >= threshold:
                    a_out.append(items[x][0])
                    b_out.append(items[y][0])
                    j_out.append(round(est, 6))
        return pa.table(
            {
                "a": pa.array(a_out),
                "b": pa.array(b_out),
                "est_jaccard": pa.array(j_out, pa.float64()),
            }
        )

    id_type = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    pair_schema = pa.schema(
        [("a", id_type), ("b", id_type), ("est_jaccard", pa.float64())]
    )
    candidates = grouped_apply(
        exploded.map_batches(bucket_key, batch_format="pyarrow"),
        "bucket",
        pairs_in_bucket,
        pair_schema,
    )
    # same pair can surface from multiple bands -> dedup on (a, b)
    from ..stages.canonicalize import local_dedup

    def key(batch: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(batch["a"], pa.string()), pc.cast(batch["b"], pa.string()), "|"
        )
        return local_dedup(batch.append_column("pk", k), ["pk"])

    out = distinct_first(candidates.map_batches(key, batch_format="pyarrow"), "pk")
    return out.drop_columns(["pk"])


# -- SimHash ---------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over word occurrences (token multiplicity counts).

    Token hash = md5_u64 (SQL-replayable, see md5_u64); bit j of the
    simhash is 1 iff sum over token occurrences of (2*bit_j(h)-1) > 0."""
    toks = _WORD_RE.findall((text or "").lower())
    if not toks:
        return 0
    hs = np.array([md5_u64(t) for t in toks], np.uint64)
    bits = (hs[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    acc = (bits.astype(np.int64) * 2 - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())


def simhash_batch(batch: pa.Table, id_col="doc_id", text_col="text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    hs = [simhash64(t) for t in texts]
    # 4 x 16-bit chunks for hamming<=3 banding
    return pa.table(
        {
            id_col: batch[id_col],
            "simhash": pa.array([h - (1 << 63) for h in hs], pa.int64()),
            "chunk0": pa.array([h & 0xFFFF for h in hs], pa.int32()),
            "chunk1": pa.array([(h >> 16) & 0xFFFF for h in hs], pa.int32()),
            "chunk2": pa.array([(h >> 32) & 0xFFFF for h in hs], pa.int32()),
            "chunk3": pa.array([(h >> 48) & 0xFFFF for h in hs], pa.int32()),
        }
    )


def simhash_pairs(ds, *, id_col="doc_id", text_col="text", max_hamming: int = 3):
    """Near-dup pairs by SimHash: band on each 16-bit chunk (pigeonhole: any
    pair within hamming<=3 shares at least one of 4 chunks), verify hamming."""
    sigs = ds.map_batches(
        lambda b: simhash_batch(b, id_col, text_col), batch_format="pyarrow"
    )

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        tabs = []
        for c in range(4):
            key = pc.binary_join_element_wise(
                pa.array([str(c)] * n),
                pc.cast(batch[f"chunk{c}"], pa.string()),
                ":",
            )
            tabs.append(
                pa.table(
                    {
                        "bucket": key,
                        "id": batch[id_col],
                        "simhash": batch["simhash"],
                    }
                )
            )
        return pa.concat_tables(tabs)

    def pairs(group: pa.Table) -> pa.Table:
        items = sorted(set(zip(group["id"].to_pylist(),
                               group["simhash"].to_pylist())))
        if len(items) > 200:
            _log_capped(
                "simhash_pairs", group["bucket"][0].as_py(), len(items), 200
            )
        items = items[:200]
        a_out, b_out, d_out = [], [], []
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                d = bin((items[x][1] ^ items[y][1]) & ((1 << 64) - 1)).count("1")
                if d <= max_hamming:
                    a_out.append(items[x][0])
                    b_out.append(items[y][0])
                    d_out.append(d)
        return pa.table(
            {"a": pa.array(a_out), "b": pa.array(b_out),
             "hamming": pa.array(d_out, pa.int32())}
        )

    id_type = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    pair_schema = pa.schema(
        [("a", id_type), ("b", id_type), ("hamming", pa.int32())]
    )
    cand = grouped_apply(
        sigs.map_batches(explode, batch_format="pyarrow"),
        "bucket",
        pairs,
        pair_schema,
    )

    def key(batch: pa.Table) -> pa.Table:
        from ..stages.canonicalize import local_dedup

        k = pc.binary_join_element_wise(
            pc.cast(batch["a"], pa.string()), pc.cast(batch["b"], pa.string()), "|"
        )
        return local_dedup(batch.append_column("pk", k), ["pk"])

    out = distinct_first(cand.map_batches(key, batch_format="pyarrow"), "pk")
    return out.drop_columns(["pk"])


# -- exact n-gram Jaccard (verification-grade) -----------------------------

def ngram_jaccard(text_a: str, text_b: str, n: int = 3) -> float:
    a, b = word_ngrams(text_a, n), word_ngrams(text_b, n)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


# -- embedding cosine near-dup --------------------------------------------

def embedding_dup_pairs(
    ds,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    threshold: float = 0.95,
    num_planes: int = 32,
    bands: int = 8,
    seed: int = 42,
    dim: int | None = None,
    round_to: int = 6,
):
    """Near-dup pairs by cosine similarity via BANDED hyperplane LSH.

    ``num_planes`` seeded random hyperplanes are split into ``bands``
    groups; two vectors are candidates when ALL planes of at least one band
    agree (the OR-of-ANDs construction -- a single AND over many planes
    loses recall fast as the angle grows, VERDICT r1).  With p =
    angle/pi per-plane disagreement, miss probability per pair is
    (1-(1-p)^(planes/bands))^bands.  Exact cosine verification inside each
    bucket; pairs deduped across bands.  Scale: 2^(planes/bands) buckets
    per band bound group sizes; hot buckets capped at 500 (logged)."""
    rows_per_band = num_planes // bands

    state = {"planes": None}

    def bucketize(batch: pa.Table) -> pa.Table:
        mat = np.array(batch[vec_col].to_pylist(), dtype=np.float64)
        if state["planes"] is None:
            d = mat.shape[1] if dim is None else dim
            rng = np.random.RandomState(seed)
            state["planes"] = rng.randn(d, num_planes)
        proj = mat @ state["planes"]
        bits = (proj > 0).astype(np.int64)  # (n, num_planes)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        unit = mat / norms[:, None]
        ids = batch[id_col]
        tabs = []
        for b in range(bands):
            band_bits = bits[:, b * rows_per_band : (b + 1) * rows_per_band]
            code = (band_bits * (1 << np.arange(rows_per_band))).sum(axis=1)
            bucket = code + (b << (rows_per_band + 1))  # disjoint per band
            tabs.append(
                pa.table(
                    {
                        "bucket": pa.array(bucket, pa.int64()),
                        "id": ids,
                        "unit": pa.array(list(unit), pa.list_(pa.float64())),
                    }
                )
            )
        return pa.concat_tables(tabs)

    def pairs(group: pa.Table) -> pa.Table:
        ids = group["id"].to_pylist()
        mat = np.array(group["unit"].to_pylist(), dtype=np.float64)
        # dedup ids within the bucket (same id can arrive in many blocks)
        seen: dict = {}
        for k, i in enumerate(ids):
            seen.setdefault(i, k)
        order = sorted(seen)
        if len(order) > 500:
            _log_capped(
                "embedding_dup_pairs", int(group["bucket"][0].as_py()),
                len(order), 500,
            )
        order = order[:500]
        mat = mat[[seen[i] for i in order]]
        sims = mat @ mat.T
        a_out, b_out, s_out = [], [], []
        iu = np.triu_indices(len(order), 1)
        for x, y in zip(*iu):
            s = sims[x, y]
            if s >= threshold:
                a_out.append(order[x])
                b_out.append(order[y])
                s_out.append(round(float(s), round_to))
        return pa.table(
            {"a": pa.array(a_out), "b": pa.array(b_out),
             "cosine": pa.array(s_out, pa.float64())}
        )

    id_type = dict(zip(ds.schema().names, ds.schema().types))[id_col]
    pair_schema = pa.schema(
        [("a", id_type), ("b", id_type), ("cosine", pa.float64())]
    )
    cand = grouped_apply(
        ds.map_batches(bucketize, batch_format="pyarrow"),
        "bucket",
        pairs,
        pair_schema,
    )

    # same pair can surface from multiple bands -> dedup on (a, b)
    from ..stages.canonicalize import local_dedup

    def key(batch: pa.Table) -> pa.Table:
        k = pc.binary_join_element_wise(
            pc.cast(batch["a"], pa.string()), pc.cast(batch["b"], pa.string()), "|"
        )
        return local_dedup(batch.append_column("pk", k), ["pk"])

    out = distinct_first(cand.map_batches(key, batch_format="pyarrow"), "pk")
    return out.drop_columns(["pk"])


def normalize_join_blocks(ds, nparts: int):
    """Rebuild blocks before a ``Dataset.join`` side: groupby/map_groups
    stages emit schema-LESS empty blocks for empty partitions, and Acero's
    hash join raises ("No match or multiple matches for key field") when
    one reaches a join input (observed at tiny scale; benign elsewhere).
    ``repartition`` merges them into schema-carrying blocks."""
    return ds.repartition(nparts)


def anti_join_filter(ds, keys_ds, col: str):
    """Drop every row of ``ds`` whose ``col`` value appears in ``keys_ds``
    (which must expose a column named ``col``) -- the shared
    broadcast-or-anti-join membership filter (ADVICE r4: this shape was
    triplicated across incremental_dedup, the corpus pipeline's drop-list
    stage and the minhash keep query).

    Key sets the plan broadcasts (ops/plan.py) go out once via
    ``ray.put`` and filter with one vectorized ``is_in`` per batch; larger
    sets fall back to a distributed left-outer join on ``col`` with a
    null-marker filter (the anti-join shape)."""
    import ray

    tab, keys = plan.small_side("anti_join_filter", keys_ds)
    if tab is not None:
        if not tab.num_rows:
            return ds
        ref = ray.put(tab[col].combine_chunks())

        def drop_seen(b: pa.Table) -> pa.Table:
            hit = pc.is_in(b[col], value_set=ray.get(ref))
            return b.filter(pc.invert(pc.fill_null(hit, False)))

        return ds.map_batches(drop_seen, batch_format="pyarrow")

    marked = keys.map_batches(
        lambda b: pa.table(
            {
                col: b[col],
                "_seen": pa.array(np.ones(len(b), np.int8), pa.int8()),
            }
        ),
        batch_format="pyarrow",
    )
    nparts = plan.join_partitions()
    return ds.join(
        normalize_join_blocks(marked, nparts),
        join_type="left_outer", num_partitions=nparts, on=(col,)
    ).map_batches(
        lambda b: b.filter(pc.is_null(b["_seen"])).drop_columns(["_seen"]),
        batch_format="pyarrow",
    )


def semi_join_filter(ds, keys_ds, col: str, *,
                     keys_col: str | None = None):
    """KEEP every row of ``ds`` whose ``col`` value appears in ``keys_ds``
    (in its ``keys_col`` column, default ``col``) -- the dual of
    :func:`anti_join_filter`, same broadcast-or-join shape: vectorized
    ``is_in`` per batch while the plan broadcasts the key set, a
    distributed inner join above it."""
    import ray

    kc = keys_col or col
    tab, keys = plan.small_side("semi_join_filter", keys_ds)
    if tab is not None:
        if not tab.num_rows:
            return ds.limit(0)
        ref = ray.put(tab[kc].combine_chunks())

        def keep_seen(b: pa.Table) -> pa.Table:
            hit = pc.is_in(b[col], value_set=ray.get(ref))
            return b.filter(pc.fill_null(hit, False))

        return ds.map_batches(keep_seen, batch_format="pyarrow")

    marked = distinct_first(keys, kc).map_batches(
        lambda b: pa.table({col: b[kc]}), batch_format="pyarrow"
    )
    nparts = plan.join_partitions()
    return ds.join(
        normalize_join_blocks(marked, nparts),
        join_type="inner", num_partitions=nparts, on=(col,)
    )


def incremental_dedup(
    ds,
    state_dir: str,
    window_id: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    filesystem=None,
):
    """Cross-WINDOW exact dedup with durable state -- the continuous-crawl
    shape: each arriving window keeps only documents whose content was
    never seen in ANY previous window, and appends its own new hashes to
    the state.  Returns a Dataset of ``(content_hash, id, cnt)`` -- the
    window's surviving representatives (within-window duplicates already
    collapsed to the min id by :func:`exact_dedup_groups`).

    State = append-only parquet under ``state_dir`` (all IO through
    pyarrow.fs, so the state can live on S3/GCS), ONE SUBDIR PER WINDOW
    written tmp+rename with a ``_done`` marker LAST: a crashed run never
    corrupts earlier windows, and re-running a committed ``window_id`` is
    a no-op filter against existing state (idempotent resume -- the rerun
    returns the same survivors because its own hashes were only committed
    if the previous attempt finished).

    Membership test: the state's hash column broadcasts via ``ray.put``
    when the plan allows (one vectorized ``is_in`` per batch);
    bigger states fall back to a distributed left-outer join on the hash
    with a null-marker filter (the anti-join shape).  State volume is one
    32-byte hash per distinct document ever seen -- ~3 TB per 100 TB of
    unique text, squarely in join territory and why the fallback exists.
    """
    import ray
    import ray.data as rd

    from ..state import fsio

    fs, sdir = fsio.resolve_fs(state_dir, filesystem)
    fsio.makedirs(fs, sdir)
    win_dir = fsio.join(sdir, f"win={window_id}")
    done_marker = fsio.join(win_dir, "_done")
    committed = fsio.exists(fs, done_marker)

    prior_files = []
    for d in fsio.listdir(fs, sdir):
        if not d.startswith("win=") or (committed and d == f"win={window_id}"):
            # a committed rerun must not anti-join against its own hashes
            continue
        wd = fsio.join(sdir, d)
        if not fsio.exists(fs, fsio.join(wd, "_done")):
            continue  # uncommitted (crashed) window: ignore its partials
        prior_files.extend(
            f for f in fsio.list_files_recursive(fs, wd)
            if f.endswith(".parquet")
        )

    window = exact_dedup_groups(ds, id_col, text_col)

    if prior_files:
        state = rd.read_parquet(
            prior_files, columns=["content_hash"], filesystem=fs
        )
        window = anti_join_filter(window, state, "content_hash")

    kept = window.materialize()
    if not committed:
        # marker-LAST commit: a crash mid-write leaves win_dir without
        # _done, so the next attempt rmtree's and rewrites it; readers
        # only ever see marker-certified windows.
        fsio.rmtree(fs, win_dir)
        kept.map_batches(
            lambda b: b.select(["content_hash"]), batch_format="pyarrow"
        ).write_parquet(win_dir, filesystem=fs)
        # an all-duplicates window writes ZERO files and write_parquet
        # then never creates win_dir -- the marker write must not crash
        # (the committed empty window is real state: it records that the
        # window was processed)
        fsio.makedirs(fs, win_dir)
        fsio.write_text_atomic(fs, done_marker, "done")
    return kept


# -- blocked edit-distance similarity join (entity resolution) -------------

def _encode_padded(names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct names -> (N x Lmax uint32 codepoint matrix, lengths)."""
    ln = np.array([len(s) for s in names], np.int32)
    lmax = int(ln.max()) if len(ln) else 0
    mat = np.zeros((len(names), max(lmax, 1)), np.uint32)
    for i, s in enumerate(names):
        if s:
            mat[i, : len(s)] = np.frombuffer(
                s.encode("utf-32-le"), np.uint32
            )
    return mat, ln


def _lev_pairs(mat: np.ndarray, ln: np.ndarray,
               ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Levenshtein distances for index pairs (ia, ib) into ``mat`` -- the
    classic DP vectorized ACROSS pairs: the two char loops are O(Lmax^2)
    sweeps of element-wise ops over ALL pairs at once, never a Python
    loop per pair.  Cell values past a string's real length are garbage
    by construction; each pair's answer is read at its own (la, lb)."""
    Aa, Bb = mat[ia], mat[ib]
    la, lb = ln[ia].astype(np.int64), ln[ib].astype(np.int64)
    p = len(ia)
    maxa = int(la.max()) if p else 0
    maxb = int(lb.max()) if p else 0
    prev = np.broadcast_to(
        np.arange(maxb + 1, dtype=np.int32), (p, maxb + 1)
    ).copy()
    res = np.where(la == 0, lb, 0).astype(np.int64)
    for i in range(1, maxa + 1):
        cur = np.empty((p, maxb + 1), np.int32)
        cur[:, 0] = i
        ai = Aa[:, i - 1]
        for j in range(1, maxb + 1):
            cost = (Bb[:, j - 1] != ai).astype(np.int32)
            cur[:, j] = np.minimum(
                np.minimum(prev[:, j], cur[:, j - 1]) + 1,
                prev[:, j - 1] + cost,
            )
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    return res


def editdist_name_pairs(
    ds,
    *,
    name_col: str,
    threshold: int = 2,
    pair_chunk: int = 1 << 18,
    warn_block: int = 100_000,
):
    """Blocked edit-distance similarity join -- the fuzzy-name entity
    resolution step feeding sameAs canonicalization (reference analog:
    the authority-matching merge, SURVEY.md §2.5 J4/J5 family; classic
    ER blocking a la Fellegi--Sunter).  Emits one row per DISTINCT name
    pair in the same first-token block with Levenshtein distance <=
    ``threshold`` (``name_a < name_b``) plus same-name exact-duplicate
    rows (dist 0), each carrying ``n_pairs`` = the number of underlying
    row pairs it stands for.

    Scale shape: rows collapse to DISTINCT names with multiplicities
    (per-batch count combiner -> one groupby-sum) BEFORE any pairing, so
    pair work is O(vocabulary^2 per block), independent of corpus row
    count; ONE block shuffle; per-block candidate pairs are pruned by
    the |len(a)-len(b)| <= threshold band, then scored by a
    pair-vectorized DP in bounded ``pair_chunk`` slabs.  Blocking is
    part of the operator contract (cross-block matches are not
    candidates -- differential-testable in SQL); blocks over
    ``warn_block`` distinct names log loudly.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select([name_col])
            .group_by([name_col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["name", "cnt"])

    distinct = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("name")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def add_block(b: pa.Table) -> pa.Table:
        first = pc.list_element(
            pc.split_pattern(pc.fill_null(b["name"], ""), " "), 0
        )
        return b.append_column("blk", first)

    out_schema = pa.schema(
        [
            ("name_a", pa.string()),
            ("name_b", pa.string()),
            ("dist", pa.int64()),
            ("n_pairs", pa.int64()),
        ]
    )

    def pairs_in_block(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group["name"])
        names_arr = group["name"].take(order)
        if isinstance(names_arr, pa.ChunkedArray):
            names_arr = names_arr.combine_chunks()
        names = names_arr.to_pylist()
        cnt = group["cnt"].take(order).to_numpy(zero_copy_only=False)
        n = len(names)
        if n > warn_block:
            _log_capped("editdist_name_pairs", names[0].split(" ")[0],
                        n, warn_block)
        chunks = []
        # exact-duplicate rows (same name appearing on >1 input row)
        dup = np.flatnonzero(cnt > 1)
        if len(dup):
            dnames = names_arr.take(pa.array(dup))
            chunks.append(pa.table(
                {
                    "name_a": dnames,
                    "name_b": dnames,
                    "dist": pa.array(np.zeros(len(dup), np.int64)),
                    "n_pairs": pa.array(
                        cnt[dup] * (cnt[dup] - 1) // 2, pa.int64()
                    ),
                },
                schema=out_schema,
            ))
        if n > 1:
            mat, ln = _encode_padded(names)
            ia, ib = np.triu_indices(n, 1)
            band = np.abs(ln[ia] - ln[ib]) <= threshold
            ia, ib = ia[band], ib[band]
            for s in range(0, len(ia), pair_chunk):
                sa, sb = ia[s:s + pair_chunk], ib[s:s + pair_chunk]
                d = _lev_pairs(mat, ln, sa, sb)
                keep = d <= threshold
                sa, sb, d = sa[keep], sb[keep], d[keep]
                if not len(sa):
                    continue
                chunks.append(pa.table(
                    {
                        "name_a": names_arr.take(pa.array(sa)),
                        "name_b": names_arr.take(pa.array(sb)),
                        "dist": pa.array(d, pa.int64()),
                        "n_pairs": pa.array(
                            cnt[sa] * cnt[sb], pa.int64()
                        ),
                    },
                    schema=out_schema,
                ))
        if not chunks:
            return out_schema.empty_table()
        return pa.concat_tables(chunks)

    return (
        distinct.map_batches(add_block, batch_format="pyarrow")
        .groupby("blk")
        .map_groups(pairs_in_block, batch_format="pyarrow")
    )


_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def _token_set(text: str) -> list[str]:
    """Distinct lowercase [a-z0-9]+ tokens -- the exact split the SQL
    oracle replays with regexp_split_to_array(lower(text), '[^a-z0-9]+')."""
    return sorted({t for t in _TOKEN_SPLIT.split(text.lower()) if t})


def setsim_join_exact(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold_micro: int = 900_000,
    num_buckets: int | None = None,
    token_cap: int = 4096,
    strict: bool = False,
):
    """EXACT token-set similarity self-join via prefix filtering
    (SSJoin/PPJoin family, Chaudhuri et al. ICDE'06): every pair with
    ``jaccard(tokens(a), tokens(b)) >= threshold`` -- COMPLETE by the
    prefix-filter lemma, unlike MinHash-LSH whose candidates are
    probabilistic (minhash_lsh_pairs is the recall-tuned scale path;
    this is the guarantee-grade one).

    Prefix-filter lemma: under ANY global token order, if
    |A∩B| >= k then the first |A|-k+1 tokens of A intersect the first
    |B|-k+1 tokens of B.  J(A,B) >= t implies |A∩B| >= ceil(t*|X|) for
    each side X, so emitting postings for only each doc's first
    ``|s| - ceil(t*|s|) + 1`` tokens -- ordered rarest-first by global
    document frequency -- misses nothing.

    Scale shape: tokenize once (per-doc distinct sets); ONE groupby for
    global df; df broadcast when the plan allows (distributed join
    fallback above it); prefix postings bucket BY TOKEN, each bucket
    emits its doc pairs with a per-task np.unique combiner
    (``token_cap`` bounds a hot token's doc list -- loud truncation or
    strict raise, the _log_capped contract; truncation can only LOSE
    candidate pairs, never invent them); one groupby dedupes pair keys;
    exact verification attaches memoized frozen token sets via the
    byte-budgeted broadcast (two-hash-join fallback).  The jaccard test
    is the integer cross-multiplication ``inter * 1e6 >= t_micro * uni``
    -- no float anywhere, bit-exact vs the quadratic SQL oracle.

    Emits (a, b, inter, uni, jac_micro) with a < b.
    """
    import ray
    from ray.data.aggregate import Sum

    if num_buckets is None:
        num_buckets = _coarse_buckets_default()
    t_micro = int(threshold_micro)

    def tokenize(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        texts = b[text_col].to_pylist()
        out_id, out_tok = [], []
        for i, txt in zip(ids, texts):
            toks = _token_set(txt or "")
            out_id.extend([i] * len(toks))
            out_tok.extend(toks)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "tok": pa.array(out_tok, pa.string()),
            }
        )

    toks = ds.map_batches(tokenize, batch_format="pyarrow").materialize()

    def df_partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["tok"])
            .group_by(["tok"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["tok", "c"])

    df_ds = (
        toks.map_batches(df_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("c", alias_name="df"))
        .materialize()
    )

    # ---- postings with df attached (broadcast-or-join) ----------------
    df_tab, df_ds = plan.small_side("setsim_join_exact", df_ds)
    if df_tab is not None:
        vocab = np.asarray(df_tab["tok"].to_pylist())
        dfs = df_tab["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(vocab, kind="stable")
        ref = ray.put({"tok": vocab[o], "df": dfs[o]})

        class AttachDf:
            def __init__(self):
                d = ray.get(ref)
                self.tok = d["tok"]
                self.df = d["df"]

            def __call__(self, b: pa.Table) -> pa.Table:
                tv = np.asarray(b["tok"].to_pylist())
                idx = np.searchsorted(self.tok, tv)
                return b.append_column(
                    "df", pa.array(self.df[idx], pa.int64())
                )

        posted = toks.map_batches(
            AttachDf, batch_format="pyarrow", concurrency=2
        )
    else:  # scale path (covered by the forced-budget parity test)
        posted = normalize_join_blocks(toks, num_buckets // 4).join(
            normalize_join_blocks(df_ds, num_buckets // 4),
            join_type="inner", num_partitions=max(2, num_buckets // 4),
            on=("tok",), right_on=("tok",),
        )

    # ---- per-doc prefix selection (bucket by doc) ----------------------
    def doc_bucket(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy(zero_copy_only=False)
        return b.append_column(
            "_db", pa.array((d % num_buckets).astype(np.int32), pa.int32())
        )

    def prefix_of(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        tv = np.asarray(group["tok"].to_pylist())
        dfv = group["df"].to_numpy(zero_copy_only=False)
        order = np.lexsort((tv, dfv, d))  # per doc: rarest df, then token
        d, tv, dfv = d[order], tv[order], dfv[order]
        brk = np.empty(len(d), bool)
        brk[:1] = True
        if len(d) > 1:
            brk[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.append(starts, len(d)))
        # prefix length |s| - ceil(t*|s|) + 1 (integer ceil)
        need = -(-t_micro * sizes // 1_000_000)  # ceil(t*|s|)
        plen = sizes - need + 1
        seg = np.cumsum(brk) - 1
        local = np.arange(len(d)) - starts[seg]
        keep = local < plen[seg]
        return pa.table(
            {
                "tok": pa.array(tv[keep], pa.string()),
                "doc_id": pa.array(d[keep], pa.int64()),
            }
        )

    prefixes = (
        posted.map_batches(doc_bucket, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(prefix_of, batch_format="pyarrow")
    )

    # ---- candidate pairs per token (bucket by token) -------------------
    from ..functions.hashing import bucket_codes

    def tok_bucket(b: pa.Table) -> pa.Table:
        return b.append_column("_tb", bucket_codes(b["tok"], num_buckets))

    def pairs_of(group: pa.Table) -> pa.Table:
        tv = np.asarray(group["tok"].to_pylist())
        d = group["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, tv))
        tv, d = tv[order], d[order]
        brk = np.empty(len(tv), bool)
        brk[:1] = True
        if len(tv) > 1:
            brk[1:] = tv[1:] != tv[:-1]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.append(starts, len(tv)))
        over = np.flatnonzero(sizes > token_cap)
        if len(over):
            if strict:
                raise ValueError(
                    "setsim_join_exact: token %r posted by %d docs "
                    "(token_cap=%d)"
                    % (tv[starts[over[0]]], int(sizes[over[0]]), token_cap)
                )
            for i in over:
                _log_capped(
                    "setsim_join_exact", tv[starts[i]], int(sizes[i]),
                    token_cap,
                )
            seg = np.cumsum(brk) - 1
            local = np.arange(len(tv)) - starts[seg]
            keepm = local < token_cap
            tv, d = tv[keepm], d[keepm]
            brk = np.empty(len(tv), bool)
            brk[:1] = True
            if len(tv) > 1:
                brk[1:] = tv[1:] != tv[:-1]
            starts = np.flatnonzero(brk)
            sizes = np.diff(np.append(starts, len(tv)))
        m = sizes * (sizes - 1) // 2
        total = int(m.sum())
        if not total:
            return pa.table({"pk": pa.array([], pa.int64())})
        if len(d) and d.max() >= (1 << 31):
            raise ValueError("setsim_join_exact: doc ids must fit 31 bits")
        seg_rep = np.repeat(np.arange(len(sizes)), m)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(m)[:-1])), m
        )
        j = np.floor((1.0 + np.sqrt(1.0 + 8.0 * within)) / 2.0).astype(
            np.int64
        )
        i = within - j * (j - 1) // 2
        x = d[starts[seg_rep] + i]
        y = d[starts[seg_rep] + j]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        pk = np.unique((lo << 32) | hi)  # per-task combiner
        return pa.table({"pk": pa.array(pk, pa.int64())})

    cand = (
        prefixes.map_batches(tok_bucket, batch_format="pyarrow")
        .groupby("_tb")
        .map_groups(pairs_of, batch_format="pyarrow")
    )
    cand = distinct_first(cand, "pk")

    # ---- exact verify ---------------------------------------------------
    sets_tab, toks_mat = plan.small_side("setsim_join_exact", toks)
    if sets_tab is not None:
        sref = ray.put(sets_tab)

        class Verify:
            def __init__(self):
                t = ray.get(sref)
                ids = t["doc_id"].to_numpy(zero_copy_only=False)
                tkn = t["tok"].to_pylist()
                self.sets: dict = {}
                for i, tk in zip(ids, tkn):
                    self.sets.setdefault(int(i), set()).add(tk)

            def __call__(self, b: pa.Table) -> pa.Table:
                pk = b["pk"].to_numpy(zero_copy_only=False)
                a = pk >> 32
                bb = pk & 0xFFFFFFFF
                rows_a, rows_b, ri, ru, rj = [], [], [], [], []
                empty: set = set()
                for x, y in zip(a.tolist(), bb.tolist()):
                    sa = self.sets.get(x, empty)
                    sb = self.sets.get(y, empty)
                    inter = len(sa & sb)
                    uni = len(sa) + len(sb) - inter
                    if uni and inter * 1_000_000 >= t_micro * uni:
                        rows_a.append(x)
                        rows_b.append(y)
                        ri.append(inter)
                        ru.append(uni)
                        rj.append(inter * 1_000_000 // uni)
                return pa.table(
                    {
                        "a": pa.array(rows_a, pa.int64()),
                        "b": pa.array(rows_b, pa.int64()),
                        "inter": pa.array(ri, pa.int64()),
                        "uni": pa.array(ru, pa.int64()),
                        "jac_micro": pa.array(rj, pa.int64()),
                    }
                )

        return cand.map_batches(Verify, batch_format="pyarrow", concurrency=2)

    # scale path: verify distributively.  Each candidate pair probes the
    # token table once per side (join by doc); a (pk, tok) key seen twice
    # means BOTH docs carry the token, so inter(pk) = #keys with count 2.
    # Cost is candidate_pairs x avg tokens/doc rows through one join --
    # the inherent price of exact verification without a resident corpus.
    from ray.data.aggregate import Sum

    nparts = max(2, num_buckets // 4)

    def probes(b: pa.Table) -> pa.Table:
        pk = b["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "pk": pa.array(np.concatenate([pk, pk]), pa.int64()),
                "doc_id": pa.array(
                    np.concatenate([pk >> 32, pk & 0xFFFFFFFF]), pa.int64()
                ),
            }
        )

    probe_ds = cand.map_batches(probes, batch_format="pyarrow")
    matched = normalize_join_blocks(probe_ds, nparts).join(
        normalize_join_blocks(toks_mat, nparts),
        join_type="inner", num_partitions=nparts,
        on=("doc_id",), right_on=("doc_id",),
    )

    def pair_tok_partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["pk", "tok"])
            .group_by(["pk", "tok"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["pk", "tok", "c"])

    inter_ds = (
        matched.map_batches(pair_tok_partial, batch_format="pyarrow")
        .groupby(["pk", "tok"])
        .aggregate(Sum("c", alias_name="c"))
        .map_batches(
            lambda b: (
                b.filter(pc.equal(b["c"], 2))
                .select(["pk"])
                .group_by(["pk"], use_threads=False)
                .aggregate([([], "count_all")])
                .rename_columns(["pk", "i"])
            ),
            batch_format="pyarrow",
        )
        .groupby("pk")
        .aggregate(Sum("i", alias_name="inter"))
    )

    def size_partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["doc_id"])
            .group_by(["doc_id"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["doc_id", "sz"])

    sizes_ds = (
        toks_mat.map_batches(size_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("sz", alias_name="sz"))
        .materialize()
    )

    def split_pk(b: pa.Table) -> pa.Table:
        pk = b["pk"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "pk": b["pk"],
                "inter": pc.cast(b["inter"], pa.int64()),
                "a": pa.array(pk >> 32, pa.int64()),
                "b": pa.array(pk & 0xFFFFFFFF, pa.int64()),
            }
        )

    with_a = normalize_join_blocks(
        inter_ds.map_batches(split_pk, batch_format="pyarrow"), nparts
    ).join(
        normalize_join_blocks(sizes_ds, nparts),
        join_type="inner", num_partitions=nparts,
        on=("a",), right_on=("doc_id",),
    ).map_batches(
        lambda b: pa.table(
            {
                "pk": b["pk"], "inter": b["inter"], "a": b["a"],
                "b": b["b"], "sza": pc.cast(b["sz"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    with_both = normalize_join_blocks(with_a, nparts).join(
        normalize_join_blocks(sizes_ds, nparts),
        join_type="inner", num_partitions=nparts,
        on=("b",), right_on=("doc_id",),
    )

    def finish(b: pa.Table) -> pa.Table:
        inter = b["inter"].to_numpy(zero_copy_only=False).astype(np.int64)
        uni = (
            b["sza"].to_numpy(zero_copy_only=False).astype(np.int64)
            + pc.cast(b["sz"], pa.int64()).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            - inter
        )
        keep = inter * 1_000_000 >= t_micro * uni
        t = pa.table(
            {
                "a": b["a"], "b": b["b"],
                "inter": pa.array(inter, pa.int64()),
                "uni": pa.array(uni, pa.int64()),
                "jac_micro": pa.array(
                    np.where(uni > 0, inter * 1_000_000 // np.where(
                        uni > 0, uni, 1
                    ), 0),
                    pa.int64(),
                ),
            }
        )
        return t.filter(pa.array(keep))

    return with_both.map_batches(finish, batch_format="pyarrow")


_AZ09_RE = re.compile(r"[a-z0-9]+")


def containment_search(ds, probe_tokens, *, threshold_pct: int = 60,
                       text_col: str = "text", id_col: str = "doc_id",
                       exclude_id=None, concurrency=(2, 8)):
    """ASYMMETRIC set-containment search: find documents containing at
    least ``threshold_pct`` percent of the probe's distinct tokens --
    the plagiarism / benchmark-contamination probe (Jaccard punishes a
    long doc that swallowed a short benchmark item whole; containment
    does not).  Complements the symmetric docs_setsim_pairs join.

    Scale shape: the probe token set broadcasts once per actor
    (ray.put); each batch tokenizes its docs and counts intersections
    against the frozen set -- one slim (id, inter, pct) row per hit,
    nothing shuffles.  Integer floor percentage so the DuckDB oracle
    replays selection exactly.
    """
    import ray

    ref = ray.put(frozenset(probe_tokens))

    class Contain:
        def __init__(self):
            self.probe = ray.get(ref)
            self.n = len(self.probe)

        def __call__(self, b: pa.Table) -> pa.Table:
            ids, inters, pcts = [], [], []
            for i, t in zip(b[id_col].to_pylist(),
                            b[text_col].to_pylist()):
                if exclude_id is not None and i == exclude_id:
                    continue
                toks = set(_AZ09_RE.findall((t or "").lower()))
                inter = len(toks & self.probe)
                if self.n and inter * 100 >= threshold_pct * self.n:
                    ids.append(i)
                    inters.append(inter)
                    pcts.append(inter * 100 // self.n)
            return pa.table(
                {
                    id_col: pa.array(ids, pa.int64()),
                    "inter": pa.array(inters, pa.int64()),
                    "containment_pct": pa.array(pcts, pa.int64()),
                }
            )

    return ds.map_batches(Contain, batch_format="pyarrow",
                          concurrency=concurrency)


def incremental_minhash_dedup(
    ds,
    state_dir: str,
    window_id: str,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 42,
    ngram: int = 3,
    filesystem=None,
):
    """Cross-WINDOW near-dup filtering with durable LSH band state --
    the continuous-crawl complement of :func:`incremental_dedup` for
    NEAR duplicates (the RefinedWeb / Gopher drop-on-collision policy,
    public): a window document is dropped iff some MinHash band bucket
    of it contains (a) any document from a previously COMMITTED window,
    or (b) a smaller-id document of its own window; survivors' band
    rows append to the state.  Drop-on-band-collision is deliberately
    verification-free: every rule is a pure function of the band
    hashes, so a SQL oracle replays it exactly (and it is the policy
    actually run at corpus scale, where re-verifying candidate pairs
    against prior windows would re-read old text).

    State protocol = incremental_dedup's: one ``win=<id>`` parquet
    subdir per window holding the SURVIVORS' (bucket, id) rows --
    dedup is against the corpus you KEPT -- written tmp+rename with a
    ``_done`` marker LAST; crashed windows are invisible, committed
    reruns are idempotent no-ops that return the same survivors.

    Returns the surviving (id_col,) rows of this window.

    Scale shape: ONE slim (id, bucket-string) explode per window; the
    within-window rule is a bucket-min groupby + broadcast-or-join min
    attach (no pairwise work, no caps needed); the cross-window rule is
    one broadcast-or-anti-join against the state's bucket keys (~1 KB
    of band keys per kept doc -- join territory at corpus scale, which
    the fallback handles)."""
    import ray  # noqa: F401 (broadcast contract via helpers)
    import ray.data as rd
    from ray.data.aggregate import Min

    from ..state import fsio

    fs, sdir = fsio.resolve_fs(state_dir, filesystem)
    fsio.makedirs(fs, sdir)
    win_dir = fsio.join(sdir, f"win={window_id}")
    done_marker = fsio.join(win_dir, "_done")
    committed = fsio.exists(fs, done_marker)

    prior_files = []
    for d in fsio.listdir(fs, sdir):
        if not d.startswith("win=") or (
            committed and d == f"win={window_id}"
        ):
            continue
        wd = fsio.join(sdir, d)
        if not fsio.exists(fs, fsio.join(wd, "_done")):
            continue
        prior_files.extend(
            f for f in fsio.list_files_recursive(fs, wd)
            if f.endswith(".parquet")
        )

    rows_per_band = num_perm // bands
    hasher = MinHasher(num_perm, seed, ngram)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_bucket = [], []
        for i, t in zip(ids, texts):
            sig = hasher.signature(t)
            for b in range(bands):
                band = sig[b * rows_per_band: (b + 1) * rows_per_band]
                bh = hashlib.md5(
                    ":".join(str(int(v)) for v in band).encode()
                ).hexdigest()
                out_id.append(i)
                out_bucket.append(f"{b}:{bh}")
        return pa.table(
            {
                id_col: pa.array(out_id, batch[id_col].type),
                "bucket": pa.array(out_bucket, pa.string()),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow").materialize()

    # (b) within-window: survive iff this id IS the min of every one of
    # its buckets <=> min over its buckets of (bucket min id) == id
    bucketmin = (
        exploded.groupby("bucket").aggregate(Min(id_col, alias_name="mn"))
    )
    # attach each row's bucket min: broadcast lookup under budget, a
    # distributed hash join above it
    tab, matb = plan.small_side("incremental_minhash_dedup", bucketmin)
    if tab is not None:
        import ray as _ray

        if not tab.num_rows:
            tab = pa.table({"bucket": [], "mn": []})
        bk = np.asarray(tab["bucket"].to_pylist(), object)
        mn = np.asarray(tab["mn"].to_pylist(), object)
        order = np.argsort(bk)
        ref = _ray.put({"b": bk[order], "m": mn[order]})

        def attach_min(b: pa.Table) -> pa.Table:
            a = _ray.get(ref)
            k = np.asarray(b["bucket"].to_pylist(), object)
            pos = np.searchsorted(a["b"], k)
            return pa.table(
                {
                    id_col: b[id_col],
                    "mn": pa.array(a["m"][pos].tolist()),
                }
            )

        withmin = exploded.map_batches(attach_min, batch_format="pyarrow")
    else:
        nparts = plan.join_partitions()
        withmin = normalize_join_blocks(exploded, nparts).join(
            normalize_join_blocks(matb, nparts),
            join_type="inner", num_partitions=nparts, on=("bucket",),
        )
    per_id = withmin.groupby(id_col).aggregate(
        Min("mn", alias_name="minmn")
    )
    surv_within = per_id.map_batches(
        lambda b: pa.table(
            {id_col: b.filter(pc.equal(b[id_col], b["minmn"]))[id_col]}
        ),
        batch_format="pyarrow",
    )

    # (a) cross-window: drop ids whose ANY bucket hits the state
    survivors = surv_within
    if prior_files:
        state = rd.read_parquet(
            prior_files, columns=["bucket"], filesystem=fs
        )
        hit_ids = semi_join_filter(exploded, state, "bucket").map_batches(
            lambda b: pa.table({id_col: b[id_col]}),
            batch_format="pyarrow",
        )
        survivors = anti_join_filter(
            survivors, distinct_first(hit_ids, id_col), id_col
        )
    survivors = distinct_first(survivors, id_col).materialize()

    if not committed:
        fsio.rmtree(fs, win_dir)
        kept_rows = semi_join_filter(exploded, survivors, id_col)
        kept_rows.write_parquet(win_dir, filesystem=fs)
        # all-survivors-dropped window: write_parquet creates no dir
        # (same guard as incremental_dedup)
        fsio.makedirs(fs, win_dir)
        fsio.write_text_atomic(fs, done_marker, "done")
    return survivors
