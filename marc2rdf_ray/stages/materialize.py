"""Graph materialization: sorted N-Triples + Parquet edge tables
partitioned by subject hash, with per-partition lineage manifests.

Sink analog of the reference's NT writer + Virtuoso bulk load
(rdfmodeler.rb:314-324; tools/isql/import_books_graph.isql:3-7), redesigned
for resumable distributed output (SURVEY.md §2.2 K1/K2):

- partition key: ``crc32(subj) % P`` -- co-locates every edge of a subject,
  so "sorted N-Triples" means sorted WITHIN a hash partition (the only sane
  definition at 10^12 docs; SURVEY.md §7.4 'Ordering').
- each partition directory gets Parquet part files plus one ``part-*.nt``;
  a run-level ``_manifest.json`` records input signature, rule-set hash and
  per-partition triple counts; a matching manifest short-circuits the run.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.hashing import bucket_codes
from ..functions.ntriples import format_batch_arrow_payload
from ..state import fsio
from ..state.manifest import (
    RunManifest,
    input_signature,
    list_input_files,
    matches,
    read_manifest,
    write_manifest,
)

PART_COL = "part"


def add_partition_column(batch: pa.Table, num_partitions: int) -> pa.Table:
    """hash(subj) % P as int32 -- columnar (functions.hashing), stable
    across runs/processes within an environment (what manifests need)."""
    return batch.append_column(
        PART_COL, bucket_codes(batch["subj"], num_partitions)
    )


def write_sorted_partition(
    group: pa.Table, out_dir: str, dedup: bool = False,
    run_sig: str = "", fs=None,
) -> pa.Table:
    """Per-partition writer task: (optionally dedup,) sort within partition,
    write Parquet + NT.

    Runs inside ``groupby(part).map_groups`` -- each partition is one task,
    output files are deterministic per partition id, so re-running
    overwrites idempotently (K2's append replaced by partition overwrite).

    PARTITION-LEVEL RESUME (``run_sig``): the last write per partition is
    an atomic ``_sig`` marker carrying the run signature.  A re-run of a
    CRASHED job (same inputs/rules/partitioning => same signature) skips
    the sort+write for partitions whose marker matches -- partition
    content is deterministic given (inputs, rules), so the existing files
    are exactly what this task would produce.  Writes are tmp+rename and
    the marker is written LAST, so a killed task can never leave a marked
    partial partition.

    ``dedup=True`` makes the partition shuffle double as the GLOBAL exact
    triple dedup: every copy of a triple shares its subject, hence its
    partition, so per-partition dedup is globally exact -- and the pipeline
    saves an entire extra shuffle.
    """
    from .canonicalize import TRIPLE_KEY_COLS

    if fs is None:  # bare local path (tests / direct callers)
        fs, out_dir = fsio.resolve_fs(out_dir)
    part = int(group[PART_COL][0].as_py())
    pdir = fsio.join(out_dir, f"part={part:05d}")
    sig_path = fsio.join(pdir, "_sig")
    if run_sig and (fsio.read_text(fs, sig_path) or "").strip() == run_sig:
        try:
            rows = pq.read_metadata(
                fsio.join(pdir, "edges.parquet"), filesystem=fs
            ).num_rows
            return pa.table(
                {"part": pa.array([part], pa.int32()),
                 "rows": pa.array([rows], pa.int64())}
            )
        except OSError:
            pass
    # ONE sort does double duty: output ordering (O6) AND exact dedup.
    # Sorting by all six columns makes key-equal rows adjacent, so dedup is
    # a vectorized neighbor-equality mask -- no second hash aggregation,
    # and it sidesteps the pyarrow 16.1 grouper bug entirely (constant
    # int32 key + null-bearing string keys miscounts groups; the old
    # group_by-based dedup had to drop PART_COL to dodge it --
    # tests/test_pipeline.py still guards the dedup invariant).  Sorting
    # src last reproduces the group_by path's min(src) pick exactly
    # (nulls sort last; Arrow's min skips nulls).
    data = group.drop_columns([PART_COL])
    # decode the dictionary-encoded exchange columns (see prep) -- the
    # sort, dedup mask and NT formatter all work on plain strings
    for c in data.column_names:
        if pa.types.is_dictionary(data[c].type):
            i = data.column_names.index(c)
            data = data.set_column(
                i, c, pc.cast(data[c], data[c].type.value_type)
            )
    sort_cols = [c for c in TRIPLE_KEY_COLS if c in data.column_names]
    other_cols = [c for c in data.column_names if c not in sort_cols]
    data = data.sort_by([(c, "ascending") for c in sort_cols + other_cols])
    if dedup and len(data) > 1:
        dup = None  # row i+1 duplicates row i iff equal on ALL key cols
        for c in sort_cols:
            col = data[c].combine_chunks()
            hi, lo = col.slice(1), col.slice(0, len(data) - 1)
            same = pc.or_kleene(
                pc.equal(hi, lo), pc.and_(pc.is_null(hi), pc.is_null(lo))
            )
            same = pc.fill_null(same, False)
            dup = same if dup is None else pc.and_(dup, same)
        if isinstance(dup, pa.ChunkedArray):
            dup = dup.combine_chunks()
        mask = pa.concat_arrays([pa.array([True]), pc.invert(dup)])
        data = data.filter(mask)
    fsio.makedirs(fs, pdir)
    pq_path = fsio.join(pdir, "edges.parquet")
    if fsio.is_local(fs):
        tmp_pq = fsio.join(pdir, ".edges.parquet.tmp")
        pq.write_table(data, tmp_pq, filesystem=fs)
        fs.move(tmp_pq, pq_path)
    else:  # object store: single PUT is atomic (fsio contract)
        pq.write_table(data, pq_path, filesystem=fs)

    # vectorized formatting; invalid statements skipped; the payload stays
    # in Arrow until the single final join -- no per-line Python objects
    payload = format_batch_arrow_payload(data)
    # gzip level 1: ~6x smaller NT -> serial disk IO becomes parallel CPU
    # (each partition task compresses its own shard); plain-text NT is one
    # `zcat` away, and bulk loaders read .nt.gz natively.  gzip via the
    # stdlib wrapper over the fs stream: pyarrow's CompressedOutputStream
    # has no compresslevel knob (compression=None stops the fs from ALSO
    # gzipping by the .gz extension).
    import gzip

    nt_path = fsio.join(pdir, "edges.nt.gz")
    tmp_nt = fsio.join(pdir, ".edges.nt.gz.tmp") if fsio.is_local(fs) else nt_path
    with fs.open_output_stream(tmp_nt, compression=None) as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=1) as f:
            f.write(payload)
    if tmp_nt != nt_path:
        fs.move(tmp_nt, nt_path)

    if run_sig:  # marker LAST: presence certifies a complete partition
        fsio.write_text_atomic(fs, sig_path, run_sig)

    return pa.table({"part": pa.array([part], pa.int32()),
                     "rows": pa.array([len(data)], pa.int64())})


_PARTITION_EXPANSION = 3.0  # triples bytes ~ pages-parquet bytes x this

# Exchange-footprint expansion, measured on the flagship corpus: the
# subject-hash sort exchange buffered ~80 GB (33.7 GB object store full +
# ~47 GB spilled, BASELINE.md) for 13 GB of input pages parquet at 2M
# pages => ~6.2x.  Used by choose_shards to auto-cap spill.
_EXCHANGE_EXPANSION = 6.0
_EXCHANGE_BUDGET_FRACTION = 0.6  # of object_store_memory per shard pass


def choose_shards(input_bytes: int, num_partitions: int) -> int:
    """Auto spill-cap (VERDICT r3 #2): pick the sharded-materialize pass
    count so ONE pass's exchange fits in ~60% of the object store,
    instead of requiring the caller to know that e.g. 2M pages spills
    ~47 GB.  Estimate = input bytes x the measured exchange expansion;
    calibration check against the measured ladder: 1.3 GB (200k pages)
    -> 1 pass, 13 GB (2M) -> 4 (the empirically zero-spill setting),
    26 GB (4M) -> 8 (ditto).  Never exceeds num_partitions; returns 1
    when the store size or input size is unknown."""
    try:
        import ray

        store = float(ray.cluster_resources().get("object_store_memory", 0))
    except Exception:  # pragma: no cover
        store = 0.0
    if store <= 0 or input_bytes <= 0:
        return 1
    budget = store * _EXCHANGE_BUDGET_FRACTION
    est = input_bytes * _EXCHANGE_EXPANSION
    need = int(-(-est // budget))
    return max(1, min(need, num_partitions))


def choose_num_partitions(
    input_bytes: int, target_partition_bytes: int = 128 << 20
) -> int:
    """Size the output partition count from input bytes.

    Each partition is sorted+written by ONE task holding the partition in
    memory (in-memory Arrow ~3x its on-disk size), so the per-task memory
    bound is ``target_partition_bytes * ~3``; partition count scales with
    input size instead of being a fixed constant (VERDICT r1 #4).  Floor:
    2 partitions per CPU keeps the write parallel on small inputs."""
    try:
        import ray

        floor = max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
    except Exception:
        floor = 16
    est = int(input_bytes * _PARTITION_EXPANSION)
    need = -(-est // target_partition_bytes) if est > 0 else 1
    return max(floor, min(65536, need))


def plan_passes(
    input_bytes: int,
    num_partitions: int | None = None,
    shards: int = 0,
    target_partition_bytes: int = 128 << 20,
) -> tuple[int, int]:
    """The (partition count P, pass count S) :func:`materialize_graph`
    runs with: ``None``/``0`` pick P/S from ``input_bytes``
    (:func:`choose_num_partitions`, :func:`choose_shards`); S is clamped
    to [1, P].  Callers that lay their input out per pass (the flagship's
    ``pk=*/shard=*`` checkpoint) plan with this before writing it."""
    if num_partitions is None:
        num_partitions = choose_num_partitions(
            input_bytes, target_partition_bytes
        )
    if not shards:
        shards = choose_shards(input_bytes, num_partitions)
    return num_partitions, max(1, min(int(shards), num_partitions))


def shard_bounds(num_partitions: int, shards: int) -> list[int]:
    """Pass s of an S-pass materialize keeps partition ids in
    ``[bounds[s], bounds[s + 1])``: contiguous ranges ``s*P//S``."""
    return [s * num_partitions // shards for s in range(shards + 1)]


def shard_of(parts, num_partitions: int, shards: int) -> pa.Array:
    """The pass (0..S-1) whose :func:`shard_bounds` range holds each
    partition id in ``parts`` -- the one mapping shared by the pass loop
    and every writer that lays its rows out per pass."""
    inner = np.asarray(shard_bounds(num_partitions, shards)[1:-1], np.int32)
    codes = np.asarray(parts.to_numpy(zero_copy_only=False), np.int32)
    shard = np.searchsorted(inner, codes, side="right")
    return pa.array(shard.astype(np.int32))


def materialize_graph(
    triples_ds,
    out_dir: str,
    *,
    num_partitions: int | None = None,
    ruleset_hash: str = "",
    input_paths: list[str] | None = None,
    extra: dict | None = None,
    dedup: bool = False,
    target_partition_bytes: int = 128 << 20,
    preserve_src_prefixes: list[str] | None = None,
    filesystem=None,
    shards: int = 0,
    shard_inputs: list | None = None,
) -> RunManifest:
    """Write the edge table partitioned+sorted; returns the run manifest.

    ``filesystem``/URI ``out_dir``: all sink, sidecar and manifest IO is
    routed through ``pyarrow.fs`` (state/fsio.py), so the graph can
    materialize to a local directory, an ``s3://``/``gs://`` bucket, or an
    injected FileSystem -- the writer tasks run on WORKERS, where a plain
    local path is a different machine's disk (VERDICT r2 #1).  Input paths
    (for the signature) resolve independently, so reading cluster-local
    parquet while writing to a bucket works.

    Resume: when ``_manifest.json`` matches (same inputs, same rule set,
    and every ``extra`` item -- the caller's own run identity, e.g. the
    flagship's ``{"link": ...}``), the whole write is skipped and the prior
    manifest returned.  ``extra`` is recorded in the manifest and folded
    into the partition-resume signature.

    Preserve-on-update (``preserve_src_prefixes``): on a NON-matching
    manifest (changed inputs or rules), edges from the previous output
    whose ``src`` starts with one of the prefixes (e.g. ``enrich:``,
    ``sameas:``) are carried forward into the new graph before the old
    partitions are replaced -- the recompute analog of the reference's
    ``preserve_on_update`` predicate lists and preserve-filtered DELETEs
    (sparql_update.rb:30-78, clear_books_graph.isql:15-30; SURVEY.md §2.8
    U2/U3/U6).  Requires the input dataset to carry the full 6-column
    triples layout.  Combine with ``dedup=True`` so carried-forward edges
    that the new run also produces collapse to one copy.

    Replace semantics: a non-matching manifest means recompute -- every
    existing ``part=*`` directory whose ``_sig`` marker does not certify
    THIS run's signature is deleted before the write, so a run with fewer
    partitions (or fewer touched subjects) cannot leave stale partition
    files behind for globbing consumers.  Directories whose marker DOES
    match (a crashed run of the identical job) survive and their
    sort+write is skipped -- partition-level resume.  Windowed/incremental
    runs go through ``pipelines.incremental.merge_window_into_graph``
    (partition-level merge: only changed partitions rewrite), never by
    appending into a previous run's directory.

    ``num_partitions=None`` => adaptive via ``choose_num_partitions``
    (input-byte-scaled; fixed constants stop being valid the moment the
    input grows 1000x).

    ``shards > 1``: the SPILL-CAP loop.  The single subject-hash exchange
    buffers the whole edge table in the object store; when a deployment
    must bound that (e.g. the 2M-page bench spills ~47 GB), the write
    runs as ``shards`` sequential passes, pass ``s`` keeping only
    partition ids in its contiguous range (:func:`shard_bounds`) -- each
    pass shuffles ~1/S of the data, so peak object-store footprint drops
    by S.  Every row is range-filtered BEFORE the local dedup and the
    exchange encoding, so a pass pays those for its own ~1/S only.
    ``triples_ds`` is re-read by every pass; ``shard_inputs`` (a list of
    S Datasets, ``triples_ds`` then unused) gives pass ``s`` its own
    input instead -- the flagship passes each pass its ``shard=s``
    checkpoint files (:func:`shard_of` layout) plus the staged sameAs
    rows, so the checkpoint is read once in total.  Any row of a pass
    input outside the pass's range is filtered out, so a per-pass input
    that holds extra rows is slower, never wrong.  Partition content is
    byte-identical to the unsharded run (the partition id is a pure
    function of subj), the manifest is written once at the end, and the
    per-partition ``_sig`` markers make the loop crash-resumable
    mid-shard exactly like the unsharded path.

    ``shards = 0`` (the default) => AUTO via :func:`choose_shards`: the
    pass count is sized from the input bytes x the measured exchange
    expansion vs this cluster's ``object_store_memory`` (VERDICT r3 #2)
    -- small inputs keep the single-pass plan, inputs that would spill
    pick S > 1 without the caller knowing the spill point.  An explicit
    ``shards >= 1`` is always honored verbatim.
    """
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)

    files = []
    for p in input_paths or []:
        files.extend(list_input_files(p))
    sig = input_signature(files) if files else ""
    extra = extra or {}
    existing = read_manifest(out_dir, filesystem=fs)
    if (
        sig
        and matches(existing, sig, ruleset_hash)
        and existing.extra.items() >= extra.items()
    ):
        return existing

    # a caller feeding a DATASET without input paths sizes P and S
    # itself (in_bytes is then 0: auto sizing would run unsharded, and an
    # 8M-page run once filled the disk with spill that way) -- see
    # pipelines/kg.run_kg_pipeline
    in_bytes = fsio.total_size(files)
    num_partitions, shards = plan_passes(
        in_bytes, num_partitions, shards, target_partition_bytes
    )
    if shard_inputs is not None and len(shard_inputs) != shards:
        raise ValueError(
            f"materialize_graph: {len(shard_inputs)} shard_inputs for "
            f"{shards} passes"
        )

    # Carry preserved edges forward BEFORE the old partitions are dropped.
    # DURABILITY (ADVICE r2): the old partitions are the only durable copy
    # of preserved 'enrich:'/'sameas:' edges, so the carry-forward snapshot
    # is STAGED to a sidecar (out_dir/_preserved/, atomic dir rename)
    # before any deletion; a crash mid-write leaves the sidecar behind and
    # the retry reads it instead of the (now partial) partitions.  The
    # sidecar signature and the prefix list are folded into run_sig, so
    # _sig-matching partitions can only be reused by a retry built from the
    # identical preserved snapshot.
    preserved = None
    preserved_sig = ""
    sidecar_dir = fsio.join(out_dir, "_preserved")
    staged_marker = fsio.join(sidecar_dir, "_staged")
    if preserve_src_prefixes:
        import ray.data as rd

        prefixes = sorted(preserve_src_prefixes)

        def keep_preserved(b: pa.Table) -> pa.Table:
            cols = ["subj", "pred", "obj", "obj_kind", "lang", "src"]
            if len(b) == 0 or "src" not in b.column_names:
                return b.select([c for c in cols if c in b.column_names]).slice(0, 0)
            src = pc.coalesce(b["src"], pa.scalar("", pa.string()))
            mask = None
            for p in prefixes:
                m = pc.starts_with(src, pattern=p)
                mask = m if mask is None else pc.or_(mask, m)
            return b.filter(mask).select(cols)

        # staging is certified by the marker written LAST (a crash DURING
        # staging leaves no marker; the old partitions are still intact at
        # that point, so restaging from them is correct).  The marker is
        # STAMPED with the (inputs, rules, prefixes) triple the snapshot
        # was staged for (ADVICE r3): a crash between write_manifest and
        # the final sidecar rmtree leaves the sidecar behind, and a LATER
        # run with different inputs must restage from the now-current
        # partitions (which may hold newer enrichment edges) instead of
        # resurrecting the stale snapshot.  A retry of the SAME run keeps
        # reusing it -- that is the crash-durability the sidecar exists for.
        stage_stamp = f"{sig}:{ruleset_hash}:p={','.join(prefixes)}"
        marker_ok = (
            fsio.isdir(fs, sidecar_dir)
            and (fsio.read_text(fs, staged_marker) or "").strip()
            == stage_stamp
        )
        if not marker_ok:
            fsio.rmtree(fs, sidecar_dir)
            # fresh staging: extract from the (still intact) old partitions
            part_files = []
            if existing is not None and fsio.isdir(fs, out_dir):
                part_files = [
                    fsio.join(out_dir, d, "edges.parquet")
                    for d in fsio.listdir(fs, out_dir)
                    if d.startswith("part=")
                ]
                part_files = [p for p in part_files if fsio.isfile(fs, p)]
            staged = None
            if part_files:
                staged = (
                    rd.read_parquet(part_files, filesystem=fs)
                    .map_batches(keep_preserved, batch_format="pyarrow")
                    .materialize()
                )
                if staged.count() == 0:
                    staged = None
            if staged is not None:
                staged.write_parquet(sidecar_dir, filesystem=fs)
            else:
                fsio.makedirs(fs, sidecar_dir)  # empty = staged, nothing kept
            fsio.write_text_atomic(fs, staged_marker, stage_stamp)
        sidecar_files = fsio.list_files_recursive(fs, sidecar_dir)
        if sidecar_files:
            # read LAZILY off the durable sidecar (never a driver pull);
            # re-applying the filter makes a prefix-narrowed retry exact
            preserved = rd.read_parquet(
                sidecar_files, filesystem=fs
            ).map_batches(keep_preserved, batch_format="pyarrow")
            preserved_sig = input_signature(sidecar_files, filesystem=fs)
        else:
            preserved_sig = "empty"

    # partition-resume signature: identical (inputs, rules, partitioning,
    # caller identity, preserved snapshot) => identical deterministic
    # partition content
    run_sig = (
        f"{sig}:{ruleset_hash}:{num_partitions}:{int(dedup)}" if sig else ""
    )
    if run_sig and extra:
        run_sig += ":" + json.dumps(extra, sort_keys=True)
    if run_sig and preserve_src_prefixes:
        run_sig += f":p={','.join(sorted(preserve_src_prefixes))}:{preserved_sig}"

    # drop stale partitions: anything whose _sig doesn't certify THIS run's
    # signature (a crashed identical run's finished partitions survive and
    # are skipped by the writer -- partition-level resume)
    if fsio.isdir(fs, out_dir):
        for d in fsio.listdir(fs, out_dir):
            if not d.startswith("part="):
                continue
            keep = False
            if run_sig:
                text = fsio.read_text(fs, fsio.join(out_dir, d, "_sig"))
                keep = text is not None and text.strip() == run_sig
            if not keep:
                fsio.rmtree(fs, fsio.join(out_dir, d))

    def prep(b: pa.Table) -> pa.Table:
        # a PART_COL added by the range filter rides the local dedup as a
        # "min" column (it is a function of subj, a dedup key column)
        if dedup:
            # per-batch pre-dedup BEFORE the shuffle: hot entities (e.g. an
            # author on 20% of pages) emit IDENTICAL triples from every
            # record; collapsing them locally is what defuses hot-key skew
            # in the partition exchange (the salting equivalent -- the
            # merge is a set union, associative+commutative).
            from .canonicalize import TRIPLE_KEY_COLS, local_dedup

            keys = [c for c in TRIPLE_KEY_COLS if c in b.column_names]
            b = local_dedup(b, keys)
        if PART_COL not in b.column_names:
            b = add_partition_column(b, num_partitions)
        # dictionary-encode the low-cardinality columns through the
        # exchange (~15% of the shuffle bytes at 200k pages -- a handful of
        # distinct predicates repeated per row otherwise ship as full
        # strings); the writer task decodes before its sort.  NOT `lang`:
        # it is null-heavy (nulls already cost ~0 bytes) and an all-null
        # batch yields a null-bearing dictionary, which Arrow's
        # unify_dictionaries rejects inside Ray's sort-merge ("Cannot yet
        # unify dictionaries with nulls").
        for c in ("pred", "obj_kind"):
            if c in b.column_names and not pa.types.is_dictionary(b[c].type):
                i = b.column_names.index(c)
                b = b.set_column(
                    i, c, pc.dictionary_encode(b[c].combine_chunks())
                )
        return b

    # NOTE deliberately NO repartition() here: a repartition feeding the
    # sort exchange stacks two all-to-all operators, each buffering the
    # whole dataset in the object store -- at 1M pages (~132M intermediate
    # rows, ~2x store capacity) the streaming executor wedges with zero
    # runnable tasks (observed; round-2).  Callers with many tiny upstream
    # blocks coalesce at the SOURCE instead (read_parquet
    # override_num_blocks -- see pipelines/kg.py), which costs nothing and
    # keeps exactly one all-to-all in this pipeline.
    import logging as _logging

    _logging.getLogger(__name__).info(
        "materialize: in_bytes=%d shards=%d partitions=%d",
        in_bytes, shards, num_partitions,
    )
    counts: dict[str, int] = {}
    bounds = shard_bounds(num_partitions, shards)
    for s in range(shards):
        lo, hi = bounds[s], bounds[s + 1]

        def shard_prep(b: pa.Table, lo=lo, hi=hi) -> pa.Table:
            if shards > 1:
                b = add_partition_column(b, num_partitions)
                col = b[PART_COL]
                b = b.filter(
                    pc.and_(pc.greater_equal(col, lo), pc.less(col, hi))
                )
            return prep(b)

        src = triples_ds if shard_inputs is None else shard_inputs[s]
        if preserved is not None:
            src = src.union(preserved)
        parted = src.map_batches(shard_prep, batch_format="pyarrow")
        counts_ds = parted.groupby(PART_COL).map_groups(
            lambda g: write_sorted_partition(
                g, out_dir, dedup=dedup, run_sig=run_sig, fs=fs
            ),
            batch_format="pyarrow",
        )
        counts.update(
            {str(r["part"]): r["rows"] for r in counts_ds.take_all()}
        )

    manifest = RunManifest(
        input_signature=sig,
        ruleset_hash=ruleset_hash,
        num_partitions=num_partitions,
        triple_count=sum(counts.values()),
        partition_counts=counts,
        extra=extra,
    )
    write_manifest(out_dir, manifest, filesystem=fs)
    # run complete: the new partitions are now the durable copy of the
    # preserved edges; drop the staging sidecar (stale sidecars from runs
    # that later disabled preservation are also cleared here)
    fsio.rmtree(fs, sidecar_dir)
    return manifest
