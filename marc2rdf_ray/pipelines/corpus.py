"""The LLM-corpus flagship pipeline: the training-data lifecycle as ONE
resumable, manifest-checkpointed chain (VERDICT r3 next-round #1).

    read_parquet(documents)
      -> exact dedup            (content-hash shuffle; keep min-id row)
      -> MinHash+LSH near-dup   (banded candidates -> connected components
                                 -> drop non-roots)
      -> langid filter + decontaminate + PII redaction + token count +
         deterministic hash split   (ONE fused stateless map)
      -> pack + materialize     (id-range partition shuffle; per-split
                                 token prefix sums assign pack offsets
                                 inside the partition writer)

Every training-data operator here already exists and is oracle-green
individually (ops/dedup.py, ops/textstats.py, ops/corpus.py); what a
100-TB user actually runs is the CHAIN, so this module gives the chain
the same engineering the KG flagship has (pipelines/kg.py:186-374 is the
template; the reference analog is the composed daily lifecycle,
scheduler.rb:327-350 -- harvest -> convert -> update -> enrich as one
scheduled unit, not four ad-hoc scripts):

- **Stage checkpoints with signature markers.** The two expensive stages
  (the content-hash dedup shuffle and the MinHash candidate generation)
  each checkpoint to Parquet under ``out_dir`` with a completion marker
  written LAST carrying (input signature, config hash); a crashed run
  resumes from the last certified checkpoint instead of re-shuffling.
- **One all-to-all at a time, never stacked.** Each shuffle's output is
  staged to parquet before the next begins (the union->all-to-all
  executor wedge documented in pipelines/kg.py:304-312 applies here
  unchanged).
- **Partition-level resume on the final write.** Output partitions are
  contiguous doc-id ranges, each written tmp+rename with an atomic
  ``_sig`` marker LAST; a retry of the identical run skips finished
  partitions.  Pack offsets are a pure function of (inputs, config), so
  resumed partitions are byte-identical.
- **Manifest short-circuit.** A matching ``_manifest.json`` (same inputs,
  same config) returns immediately, exactly like ``materialize_graph``.

Scale notes (the 100-TB shapes, per stage):
- exact dedup carries full rows through ONE coarse content-hash bucket
  shuffle -- dedup rides the shuffle that must happen anyway to co-locate
  equal texts; no separate keep-set join.
- near-dup candidates come from the banded/bucketed/capped LSH operator
  (ops/dedup.py); only the (tiny) drop list crosses back, broadcast when
  the plan allows (ops/plan.py) with a distributed anti-join fallback.
- the fused prep map is stateless and vectorized (RE2 kernels for
  redaction/decontamination, one count_substring_regex for tokens); text
  crosses exactly one more exchange after it (the final id-range
  partition write).
- pack offsets are a distributed two-phase prefix sum: a per-(split,
  bucket) token-sum combiner brings O(#splits x #partitions) rows to the
  driver; the writer task adds the local cumulative sum.  Driver state is
  O(K), never O(rows) (ops/corpus.py pack_streaming, fused into the
  materialize shuffle so packing costs NO extra exchange).

All IO (checkpoints, markers, partitions, manifest) goes through
``pyarrow.fs`` (state/fsio.py) so the artifacts live where every worker
can reach them.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ops import plan
from ..state import fsio
from ..state.manifest import (
    RunManifest,
    input_signature,
    list_input_files,
    read_manifest,
    write_manifest,
)

DEFAULT_REDACT_PATTERNS = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "[EMAIL]"),
    (r"[0-9]{4,}", "[NUM]"),
)

logger = logging.getLogger("marc2rdf_ray.corpus")

CLEAN_COLS = ["doc_id", "text", "lang_pred", "n_tokens", "split"]
OUT_COLS = CLEAN_COLS + ["start_offset", "pack_id"]


@dataclass
class CorpusConfig:
    """Everything that determines the output -- hashed into every marker,
    so changing any knob recomputes from the first affected artifact."""

    id_col: str = "doc_id"
    text_col: str = "text"
    # near-dup knobs (ops/dedup.py minhash_lsh_pairs)
    minhash_threshold: float = 0.7
    num_perm: int = 64
    bands: int = 16
    ngram: int = 3
    cc_rounds: int = 4
    # filters (applied to the REDACTED text for tokens -- what training sees)
    min_tokens: int = 20
    drop_und: bool = True             # drop language-ID 'und' docs
    langs: Optional[tuple] = None     # optional lang_pred allowlist
    blocked_spans: tuple = ()         # decontamination literals
    redact_patterns: tuple = DEFAULT_REDACT_PATTERNS
    split_fractions: tuple = (
        ("train", 0.75), ("val", 0.125), ("test", 0.125)
    )
    pack_budget: int = 512            # tokens per packed training sequence
    # True => pack/partition in deterministic md5 TRAINING order
    # (ops/corpus.deterministic_shuffle_rank) instead of doc-id order:
    # partitions become contiguous RANK ranges, offsets accumulate in
    # rank order, and every output row carries its global ``rank``.
    shuffle_order: bool = False
    # True => also write ``_audit/`` parquet: ONE row per DROPPED doc
    # with its reason ('exact' | 'near' | 'lang' | 'contaminated' |
    # 'short', first-failing-filter precedence mirroring _prep_fn) --
    # the removal lineage a filtered corpus must keep (the record-level
    # provenance the reference keeps per conversion cycle, SURVEY §2.6
    # T4; dedup_provenance's pipeline-integrated form).
    audit: bool = False
    num_partitions: Optional[int] = None  # None => 2 x CPU, floor 16
    # 0 => AUTO spill cap for the text-carrying dedup exchange
    # (stages/materialize.choose_shards over the input bytes); >=1 is
    # honored verbatim.  Corpora whose dedup exchange would overflow the
    # object store shard themselves into S sequential passes.
    dedup_shards: int = 0

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # per-stage hashes: each checkpoint marker carries ONLY the knobs its
    # output depends on, so tweaking e.g. pack_budget reuses the expensive
    # dedup + MinHash shuffles instead of recomputing them (ADVICE r4 --
    # the materialize_graph stamp discipline).  dedup_shards is excluded
    # everywhere: sharding changes the execution plan, never the output.
    def _hash_of(self, *vals) -> str:
        return hashlib.sha256(
            json.dumps(vals, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]

    def dedup_stage_hash(self) -> str:
        return self._hash_of("dedup", self.id_col, self.text_col)

    def drops_stage_hash(self) -> str:
        return self._hash_of(
            "drops", self.dedup_stage_hash(), self.minhash_threshold,
            self.num_perm, self.bands, self.ngram, self.cc_rounds,
        )

    def clean_stage_hash(self) -> str:
        return self._hash_of(
            "clean", self.drops_stage_hash(), self.min_tokens,
            self.drop_und, self.langs, self.blocked_spans,
            self.redact_patterns, self.split_fractions,
        )


def _split_bounds(fractions) -> tuple:
    """Cumulative md5-range bounds; remainder goes to the LAST label
    (ops/corpus.py hash_split semantics, shared here so the pipeline and
    the standalone op assign identical splits)."""
    bounds, labels, acc = [], [], 0.0
    for label, frac in fractions:
        acc += float(frac)
        bounds.append(min(1 << 32, int(acc * (1 << 32))))
        labels.append(label)
    bounds[-1] = 1 << 32
    return np.asarray(bounds, np.int64), labels


def _stage_marker_ok(fs, marker: str, stamp: str) -> bool:
    return (fsio.read_text(fs, marker) or "").strip() == stamp


def _commit_stage(fs, marker: str, stamp: str) -> None:
    fsio.write_text_atomic(fs, marker, stamp)


def _parquet_files(fs, d: str) -> list:
    return [f for f in fsio.list_files_recursive(fs, d)]


def exact_dedup_rows(ds, *, id_col: str = "doc_id", text_col: str = "text",
                     num_buckets: int | None = None,
                     bucket_range: tuple | None = None):
    """Keep the min-id row per distinct text, CARRYING the full row:
    one coarse content-hash bucket shuffle co-locates every copy, then a
    vectorized (hash, id) sort + neighbor mask keeps the first.

    Unlike ops.dedup.exact_dedup (which reduces to a keep-id set and
    needs a join to recover rows), the dedup here rides the shuffle that
    must happen anyway -- the right shape when the surviving TEXT is the
    product.  md5 hex keys keep the SQL oracle replay
    (ops/dedup.py md5_u64 rationale).

    ``bucket_range=(lo, hi)``: keep only rows whose coarse bucket falls
    in [lo, hi) -- the SHARD filter of the spill-cap loop (the
    materialize_graph ``shards`` pattern applied to the text-carrying
    dedup exchange): pass s of S shuffles ~1/S of the corpus, so peak
    object-store footprint drops by S at the cost of re-reading the
    input S times.  Output over all shards is identical to the unsharded
    run (bucket id is a pure function of the content hash)."""
    from ..functions.hashing import bucket_codes
    from ..ops.dedup import _coarse_buckets_default, add_content_hash

    nb = num_buckets or _coarse_buckets_default()

    def coarse(b: pa.Table) -> pa.Table:
        b = add_content_hash(b, text_col)
        b = b.append_column("_cb", bucket_codes(b["content_hash"], nb))
        if bucket_range is not None:
            lo, hi = bucket_range
            col = b["_cb"]
            b = b.filter(
                pc.and_(pc.greater_equal(col, lo), pc.less(col, hi))
            )
        return b

    def per_coarse(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("content_hash", "ascending"), (id_col, "ascending")]
        )
        keys = t["content_hash"]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = keys.to_numpy(zero_copy_only=False)
        if not len(keys):
            return t.drop_columns(["_cb", "content_hash"])
        mask = np.concatenate([[True], keys[1:] != keys[:-1]])
        return t.filter(pa.array(mask)).drop_columns(["_cb", "content_hash"])

    return (
        ds.map_batches(coarse, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(per_coarse, batch_format="pyarrow")
    )


def _prep_fn(config: CorpusConfig):
    """The fused stateless map: langid -> lang filter -> decontaminate ->
    redact -> token count -> min-token filter -> split assign.  One pass,
    vectorized kernels wherever Arrow has one; returns CLEAN_COLS."""
    from ..ops.textstats import detect_lang

    id_col, text_col = config.id_col, config.text_col
    spans = tuple(s for s in config.blocked_spans if s)
    patterns = tuple(config.redact_patterns)
    np_bounds, labels = _split_bounds(config.split_fractions)
    allow = set(config.langs) if config.langs else None
    drop_und = config.drop_und
    min_tokens = config.min_tokens

    def prep(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "lang_pred": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                    "split": pa.array([], pa.string()),
                }
            )
        txt = pc.fill_null(b[text_col], "")
        # language ID (ops/textstats.py profile heuristic, per doc)
        lang = pa.array([detect_lang(t) for t in txt.to_pylist()], pa.string())
        b = pa.table({"doc_id": pc.cast(b[id_col], pa.int64()), "_t": txt,
                      "lang_pred": lang})
        keep = None
        if drop_und:
            keep = pc.not_equal(b["lang_pred"], "und")
        if allow is not None:
            m = pc.is_in(b["lang_pred"],
                         value_set=pa.array(sorted(allow), pa.string()))
            keep = m if keep is None else pc.and_(keep, m)
        if keep is not None:
            b = b.filter(keep)
        # decontaminate on the RAW text (eval spans leak pre-redaction)
        if spans and len(b):
            hit = None
            for s in spans:
                m = pc.match_substring(b["_t"], s)
                hit = m if hit is None else pc.or_(hit, m)
            b = b.filter(pc.invert(pc.fill_null(hit, False)))
        # PII redaction (RE2 kernels, ops/corpus.py redact semantics)
        col = b["_t"]
        for rx, repl in patterns:
            col = pc.replace_substring_regex(col, rx, repl)
        # token count over the redacted text -- what training consumes
        n = pc.cast(
            pc.fill_null(pc.count_substring_regex(col, r"\S+"), 0),
            pa.int64(),
        )
        # deterministic split (ops/corpus.py hash_split semantics)
        ids = b["doc_id"].to_pylist()
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        idx = np.searchsorted(np_bounds, hv, side="right")
        out = pa.table(
            {
                "doc_id": b["doc_id"],
                "text": col,
                "lang_pred": b["lang_pred"],
                "n_tokens": n,
                "split": pa.array([labels[j] for j in idx], pa.string()),
            }
        )
        return out.filter(pc.greater_equal(out["n_tokens"], min_tokens))

    return prep


def _audit_reason_fn(config: CorpusConfig):
    """Vectorized reason map over the CLEAN stage's input: emits ONE row
    per doc this stage would DROP, tagged with the FIRST failing filter
    in _prep_fn's exact order (lang -> contaminated -> short); kept docs
    emit nothing.  Mirrors _prep_fn by construction; the audit pytest
    asserts kept + dropped == input and the oracle replays every
    reason."""
    from ..ops.textstats import detect_lang

    id_col, text_col = config.id_col, config.text_col
    spans = tuple(s for s in config.blocked_spans if s)
    patterns = tuple(config.redact_patterns)
    allow = set(config.langs) if config.langs else None
    drop_und = config.drop_und
    min_tokens = config.min_tokens

    def reasons(b: pa.Table) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "reason": pa.array([], pa.string()),
                }
            )
        txt = pc.fill_null(b[text_col], "")
        lang = [detect_lang(t) for t in txt.to_pylist()]
        bad_lang = np.array(
            [
                (drop_und and lg == "und")
                or (allow is not None and lg not in allow)
                for lg in lang
            ],
            bool,
        )
        hit = None
        if spans:
            for s in spans:
                m = pc.match_substring(txt, s)
                hit = m if hit is None else pc.or_(hit, m)
        contaminated = (
            pc.fill_null(hit, False).to_numpy(zero_copy_only=False)
            if hit is not None
            else np.zeros(len(b), bool)
        )
        col = txt
        for rx, repl in patterns:
            col = pc.replace_substring_regex(col, rx, repl)
        n = pc.cast(
            pc.fill_null(pc.count_substring_regex(col, r"\S+"), 0),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        short = n < min_tokens
        reason = np.where(
            bad_lang, "lang",
            np.where(contaminated, "contaminated",
                     np.where(short, "short", "")),
        )
        keep = reason != ""
        return pa.table(
            {
                "doc_id": pc.cast(b[id_col], pa.int64()).filter(
                    pa.array(keep)
                ),
                "reason": pa.array(reason[keep].tolist(), pa.string()),
            }
        )

    return reasons


def _attach_ranks(ds, ranks_mat):
    """Annotate every row with its deterministic shuffle ``rank`` (from a
    materialized (doc_id, rank) table): broadcast searchsorted lookup
    when the plan allows, distributed inner join above it."""
    import ray

    tab, ranks_mat = plan.small_side("corpus._attach_ranks", ranks_mat)
    if tab is not None:
        ids = tab["doc_id"].to_numpy(zero_copy_only=False)
        rk = tab["rank"].to_numpy(zero_copy_only=False)
        o = np.argsort(ids)
        ref = ray.put({"i": ids[o], "r": rk[o]})

        def look(b: pa.Table) -> pa.Table:
            a = ray.get(ref)
            k = b["doc_id"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(a["i"], k)
            return b.append_column(
                "rank", pa.array(a["r"][pos], pa.int64())
            )

        return ds.map_batches(look, batch_format="pyarrow")
    import ray.data as rd  # noqa: F401 (Dataset join contract)

    from ..ops.dedup import normalize_join_blocks

    nparts = plan.join_partitions()
    return normalize_join_blocks(ds, nparts).join(
        normalize_join_blocks(ranks_mat, nparts),
        join_type="inner", num_partitions=nparts, on=("doc_id",),
    )


def _write_corpus_partition(
    group: pa.Table, out_dir: str, fs, *, run_sig: str,
    offsets: dict, pack_budget: int, order_col: str = "doc_id",
) -> pa.Table:
    """Per-partition writer: sort by ``order_col`` (doc_id, or the
    deterministic shuffle rank when ``shuffle_order`` is on), add
    per-split pack offsets (bucket base + local cumulative sum), write
    docs.parquet tmp+rename, stats json, then the ``_sig`` marker LAST
    (materialize_graph's partition-resume protocol,
    stages/materialize.py:47-94)."""
    part = int(group["_bucket"][0].as_py())
    pdir = fsio.join(out_dir, f"part={part:05d}")
    sig_path = fsio.join(pdir, "_sig")
    stats_path = fsio.join(pdir, "_stats.json")
    if run_sig and (fsio.read_text(fs, sig_path) or "").strip() == run_sig:
        text = fsio.read_text(fs, stats_path)
        if text:
            st = json.loads(text)
            return pa.table(
                {
                    "part": pa.array([part], pa.int32()),
                    "rows": pa.array([int(st["rows"])], pa.int64()),
                    "tokens": pa.array([int(st["tokens"])], pa.int64()),
                }
            )
    data = group.drop_columns(["_bucket"]).sort_by(
        [(order_col, "ascending")]
    )
    n = len(data)
    toks = data["n_tokens"].to_numpy(zero_copy_only=False)
    splits = np.asarray(data["split"].to_pylist(), object)
    start = np.zeros(n, np.int64)
    for s in set(splits.tolist()):
        m = splits == s
        local = np.concatenate(([0], np.cumsum(toks[m])[:-1]))
        start[m] = local + offsets.get((s, part), 0)
    data = data.append_column(
        "start_offset", pa.array(start, pa.int64())
    ).append_column("pack_id", pa.array(start // pack_budget, pa.int64()))

    fsio.makedirs(fs, pdir)
    pq_path = fsio.join(pdir, "docs.parquet")
    if fsio.is_local(fs):
        tmp = fsio.join(pdir, ".docs.parquet.tmp")
        pq.write_table(data, tmp, filesystem=fs)
        fs.move(tmp, pq_path)
    else:  # object store: single PUT is atomic (fsio contract)
        pq.write_table(data, pq_path, filesystem=fs)
    total_tokens = int(toks.sum()) if n else 0
    fsio.write_text_atomic(
        fs, stats_path, json.dumps({"rows": n, "tokens": total_tokens})
    )
    if run_sig:  # marker LAST: presence certifies a complete partition
        fsio.write_text_atomic(fs, sig_path, run_sig)
    return pa.table(
        {
            "part": pa.array([part], pa.int32()),
            "rows": pa.array([n], pa.int64()),
            "tokens": pa.array([total_tokens], pa.int64()),
        }
    )


def run_corpus_pipeline(
    docs_path,
    out_dir: str,
    config: Optional[CorpusConfig] = None,
    *,
    filesystem=None,
) -> RunManifest:
    """End-to-end corpus run.  Caller owns the Ray session.

    ``docs_path``: parquet path/dir with (id_col, text_col) columns.
    Returns the run manifest (per-partition row counts; token totals in
    ``extra``).  Output layout: ``part=NNNNN/docs.parquet`` sorted by
    doc_id with columns ``doc_id, text (redacted), lang_pred, n_tokens,
    split, start_offset, pack_id``; partitions are contiguous doc-id
    ranges so packed sequences compose across partitions in id order.
    With ``config.shuffle_order`` the order key is the deterministic md5
    training rank instead (ops/corpus.deterministic_shuffle_rank):
    partitions are contiguous RANK ranges, rows sort by ``rank`` (kept
    as a column), and pack offsets accumulate per split in rank order --
    a reproducible global shuffle with no extra all-to-all (the rank
    table is slim; payloads still move exactly once).
    """
    import ray
    import ray.data as rd

    from ..ops.dedup import minhash_lsh_pairs
    from ..stages.canonicalize import connected_components

    config = config or CorpusConfig()
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)
    fsio.makedirs(fs, out_dir)

    sig = input_signature(list_input_files(docs_path))
    cfg_hash = config.config_hash()
    # per-stage stamps: only the knobs a stage's output depends on
    # (ADVICE r4 -- a pack_budget tweak must not rerun the dedup shuffle)
    dedup_stamp = f"{sig}:{config.dedup_stage_hash()}"
    drops_stamp = f"{sig}:{config.drops_stage_hash()}"
    clean_stamp = f"{sig}:{config.clean_stage_hash()}"

    existing = read_manifest(out_dir, filesystem=fs)
    if (
        existing is not None
        and existing.input_signature == sig
        and existing.ruleset_hash == cfg_hash
    ):
        return existing

    id_col, text_col = config.id_col, config.text_col
    # per-stage wall seconds for the manifest ("cached" = checkpoint hit)
    stage_seconds: dict = {}

    # ---- stage 1: exact dedup -> _deduped checkpoint -------------------
    # The only exchange that carries full text; auto-sharded like
    # materialize_graph so a corpus bigger than the object store runs as
    # S sequential hash-range passes instead of spilling unboundedly.
    dedup_dir = fsio.join(out_dir, "_deduped")
    dedup_marker = dedup_dir + ".complete"
    _t0 = time.time()
    if not _stage_marker_ok(fs, dedup_marker, dedup_stamp):
        from ..ops.dedup import _coarse_buckets_default
        from ..stages.materialize import choose_shards

        fsio.rmtree(fs, dedup_dir)
        fsio.delete_file(fs, dedup_marker)
        nb = _coarse_buckets_default()
        if config.dedup_shards:
            shards = max(1, min(int(config.dedup_shards), nb))
        else:
            shards = choose_shards(
                fsio.total_size(list_input_files(docs_path)), nb
            )
        for s in range(shards):
            rng = (
                (s * nb // shards, (s + 1) * nb // shards)
                if shards > 1
                else None
            )
            ds = rd.read_parquet(docs_path, columns=[id_col, text_col])
            exact_dedup_rows(
                ds, id_col=id_col, text_col=text_col,
                num_buckets=nb, bucket_range=rng,
            ).write_parquet(fsio.join(dedup_dir, f"shard={s}"), filesystem=fs)
        _commit_stage(fs, dedup_marker, dedup_stamp)
        stage_seconds["dedup"] = round(time.time() - _t0, 2)
        logger.info("corpus stage 1 exact-dedup: %.1fs", time.time() - _t0)
    else:
        stage_seconds["dedup"] = "cached"
    dedup_files = _parquet_files(fs, dedup_dir)

    if not dedup_files:  # empty corpus: manifest only, nothing downstream
        manifest = RunManifest(
            input_signature=sig, ruleset_hash=cfg_hash,
            num_partitions=int(config.num_partitions or 0),
            triple_count=0, partition_counts={},
            extra={"total_tokens": 0},
        )
        write_manifest(out_dir, manifest, filesystem=fs)
        return manifest

    # ---- stage 2: near-dup drop list -> _drops checkpoint --------------
    drops_dir = fsio.join(out_dir, "_drops")
    drops_marker = drops_dir + ".complete"
    _t0 = time.time()
    if not _stage_marker_ok(fs, drops_marker, drops_stamp):
        fsio.rmtree(fs, drops_dir)
        fsio.delete_file(fs, drops_marker)
        deduped = rd.read_parquet(dedup_files, filesystem=fs)
        pairs = minhash_lsh_pairs(
            deduped,
            id_col=id_col,
            text_col=text_col,
            num_perm=config.num_perm,
            bands=config.bands,
            threshold=config.minhash_threshold,
            ngram=config.ngram,
        )
        edges = pairs.map_batches(
            lambda b: pa.table({"subj": b["a"], "obj": b["b"]}),
            batch_format="pyarrow",
        )
        # LSH pair lists are orders smaller than the corpus: when they
        # fit one task, it solves the converged fixpoint with zero
        # shuffle rounds; above that, the distributed rounds run.
        from ..stages.canonicalize import connected_components_local

        comp = connected_components_local(edges)
        if comp is None:
            comp = connected_components(edges, rounds=config.cc_rounds)
        drops = comp.map_batches(
            lambda b: pa.table(
                {id_col: b.filter(pc.not_equal(b["node"], b["root"]))["node"]}
            ),
            batch_format="pyarrow",
        )
        drops.write_parquet(drops_dir, filesystem=fs)
        _commit_stage(fs, drops_marker, drops_stamp)
        stage_seconds["near_dup"] = round(time.time() - _t0, 2)
        logger.info("corpus stage 2 near-dup drops: %.1fs", time.time() - _t0)
    else:
        stage_seconds["near_dup"] = "cached"
    drop_files = _parquet_files(fs, drops_dir)

    # ---- stage 3: anti-join drops + fused prep -> _clean checkpoint ----
    clean_dir = fsio.join(out_dir, "_clean")
    clean_marker = clean_dir + ".complete"
    _t0 = time.time()
    if not _stage_marker_ok(fs, clean_marker, clean_stamp):
        fsio.rmtree(fs, clean_dir)
        fsio.delete_file(fs, clean_marker)
        from ..ops.dedup import anti_join_filter

        deduped = rd.read_parquet(dedup_files, filesystem=fs)
        if drop_files:
            # broadcast-or-anti-join membership filter (shared helper;
            # broadcast under budget, distributed left-outer fallback)
            deduped = anti_join_filter(
                deduped,
                rd.read_parquet(drop_files, filesystem=fs),
                id_col,
            )
        deduped.map_batches(
            _prep_fn(config), batch_format="pyarrow"
        ).write_parquet(clean_dir, filesystem=fs)
        _commit_stage(fs, clean_marker, clean_stamp)
        stage_seconds["clean"] = round(time.time() - _t0, 2)
        logger.info("corpus stage 3 prep/clean: %.1fs", time.time() - _t0)
    else:
        stage_seconds["clean"] = "cached"
    clean_files = _parquet_files(fs, clean_dir)

    # ---- optional drop-audit: one (doc_id, reason) row per removal ----
    if config.audit:
        audit_dir = fsio.join(out_dir, "_audit")
        audit_marker = audit_dir + ".complete"
        if not _stage_marker_ok(fs, audit_marker, clean_stamp):
            fsio.rmtree(fs, audit_dir)
            fsio.delete_file(fs, audit_marker)
            from ..ops.dedup import anti_join_filter

            def as_id(col_name):
                def f(b: pa.Table) -> pa.Table:
                    return pa.table(
                        {"doc_id": pc.cast(b[col_name], pa.int64())}
                    )

                return f

            def tag(reason: str):
                def f(b: pa.Table) -> pa.Table:
                    return pa.table(
                        {
                            "doc_id": b["doc_id"],
                            "reason": pa.array(
                                [reason] * len(b), pa.string()
                            ),
                        }
                    )

                return f

            in_ids = rd.read_parquet(
                docs_path, columns=[id_col]
            ).map_batches(as_id(id_col), batch_format="pyarrow")
            kept1 = rd.read_parquet(
                dedup_files, columns=[id_col], filesystem=fs
            ).map_batches(as_id(id_col), batch_format="pyarrow")
            parts = [
                anti_join_filter(
                    in_ids, kept1, "doc_id",
                ).map_batches(tag("exact"), batch_format="pyarrow")
            ]
            if drop_files:
                parts.append(
                    rd.read_parquet(drop_files, filesystem=fs)
                    .map_batches(as_id(id_col), batch_format="pyarrow")
                    .map_batches(tag("near"), batch_format="pyarrow")
                )
            stage3_in = rd.read_parquet(dedup_files, filesystem=fs)
            if drop_files:
                stage3_in = anti_join_filter(
                    stage3_in,
                    rd.read_parquet(drop_files, filesystem=fs),
                    id_col,
                )
            parts.append(
                stage3_in.map_batches(
                    _audit_reason_fn(config), batch_format="pyarrow"
                )
            )
            allp = parts[0]
            for p in parts[1:]:
                allp = allp.union(p)
            allp.write_parquet(audit_dir, filesystem=fs)
            _commit_stage(fs, audit_marker, clean_stamp)

    # ---- stage 4: pack offsets (two-phase prefix sum) + materialize ----
    if config.num_partitions is not None:
        num_partitions = int(config.num_partitions)
    else:
        num_partitions = max(
            16, int(ray.cluster_resources().get("CPU", 8)) * 2
        )
    run_sig = f"{clean_stamp}:{num_partitions}:{config.pack_budget}"
    if config.shuffle_order:
        run_sig += ":shuffled"

    _t0 = time.time()
    nblocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    order_col = "doc_id"
    ranks_mat = None
    if config.shuffle_order:
        # deterministic md5 training order: ranks are a slim
        # (doc_id, rank) table computed once over the clean ids
        from ..ops.corpus import deterministic_shuffle_rank

        order_col = "rank"
        ranks_mat = deterministic_shuffle_rank(
            rd.read_parquet(
                clean_files, columns=["doc_id"], filesystem=fs
            ),
            id_col="doc_id",
        ).materialize()
    slim = rd.read_parquet(
        clean_files, columns=["doc_id", "n_tokens", "split"],
        override_num_blocks=nblocks, filesystem=fs,
    )
    if ranks_mat is not None:
        slim = _attach_ranks(slim, ranks_mat)
    max_id = slim.max(order_col)
    if max_id is None:  # empty corpus: manifest only
        manifest = RunManifest(
            input_signature=sig, ruleset_hash=cfg_hash,
            num_partitions=num_partitions, triple_count=0,
            partition_counts={}, extra={"total_tokens": 0},
        )
        write_manifest(out_dir, manifest, filesystem=fs)
        return manifest
    width = max(1, (int(max_id) + num_partitions) // num_partitions)

    def counted(b: pa.Table) -> pa.Table:
        bucket = pc.cast(
            pc.floor(
                pc.divide(pc.cast(b[order_col], pa.float64()), width)
            ),
            pa.int64(),
        )
        t = pa.table(
            {"split": b["split"], "bucket": bucket, "n": b["n_tokens"]}
        )
        g = (
            t.group_by(["split", "bucket"], use_threads=False)
            .aggregate([("n", "sum")])
        )
        return g.rename_columns(["split", "bucket", "n"])

    from ray.data.aggregate import Sum

    tiny = (
        slim.map_batches(counted, batch_format="pyarrow")
        .groupby(["split", "bucket"])
        .aggregate(Sum("n", alias_name="n"))
        .take_all()  # O(#splits x #partitions) driver state
    )
    offsets: dict = {}
    runs: dict = {}
    for row in sorted(tiny, key=lambda r: (r["split"], r["bucket"])):
        key = (row["split"], int(row["bucket"]))
        offsets[key] = runs.get(row["split"], 0)
        runs[row["split"]] = offsets[key] + int(row["n"])

    # drop stale partitions (same protocol as materialize_graph)
    for d in fsio.listdir(fs, out_dir):
        if not d.startswith("part="):
            continue
        text = fsio.read_text(fs, fsio.join(out_dir, d, "_sig"))
        if text is None or text.strip() != run_sig:
            fsio.rmtree(fs, fsio.join(out_dir, d))

    full = rd.read_parquet(
        clean_files, columns=CLEAN_COLS,
        override_num_blocks=nblocks, filesystem=fs,
    )
    if ranks_mat is not None:
        full = _attach_ranks(full, ranks_mat)

    def bucketed(b: pa.Table) -> pa.Table:
        return b.append_column(
            "_bucket",
            pc.cast(
                pc.floor(
                    pc.divide(pc.cast(b[order_col], pa.float64()), width)
                ),
                pa.int32(),
            ),
        )

    counts_ds = (
        full.map_batches(bucketed, batch_format="pyarrow")
        .groupby("_bucket")
        .map_groups(
            lambda g: _write_corpus_partition(
                g, out_dir, fs, run_sig=run_sig, offsets=offsets,
                pack_budget=config.pack_budget, order_col=order_col,
            ),
            batch_format="pyarrow",
        )
    )
    rows_by_part: dict = {}
    tokens_total = 0
    for r in counts_ds.take_all():
        rows_by_part[str(r["part"])] = int(r["rows"])
        tokens_total += int(r["tokens"])
    logger.info(
        "corpus stage 4 pack+materialize: %.1fs", time.time() - _t0
    )

    manifest = RunManifest(
        input_signature=sig,
        ruleset_hash=cfg_hash,
        num_partitions=num_partitions,
        triple_count=sum(rows_by_part.values()),
        partition_counts=rows_by_part,
        extra={"total_tokens": tokens_total, "id_width": width,
               "order": order_col,
               "stage_seconds": dict(
                   stage_seconds,
                   pack_materialize=round(time.time() - _t0, 2),
               )},
    )
    write_manifest(out_dir, manifest, filesystem=fs)
    return manifest


def sync_corpus_windows(
    windows_root: str,
    out_dir: str,
    config: Optional[CorpusConfig] = None,
    *,
    filesystem=None,
    require_marker: bool = False,
    marker_name: str = "_complete",
) -> RunManifest | None:
    """Incremental corpus-flagship driver (round-5 task #8): fold every
    window directory under ``windows_root`` (one subdir per crawl drop,
    lexicographic order = arrival order) into the packed corpus at
    ``out_dir`` EXACTLY ONCE -- the corpus twin of the KG side's
    pipelines/incremental.sync_windows.

    Per new window:
    - exact dedup vs ALL committed windows (ops/dedup.incremental_dedup:
      durable content-hash state, within-window min-id, first-ARRIVAL
      representative across windows);
    - near-dup vs the kept corpus (ops/dedup.incremental_minhash_dedup:
      durable LSH band state, verification-free drop-on-band-collision
      -- the documented incremental policy; it agrees with the full
      chain's verified-CC policy on clear-cut duplicate clusters and is
      the policy actually run at crawl scale);
    - the SAME fused prep map as the full pipeline (langid filter,
      decontaminate, redact, token count, split assign);
    - pack-APPEND: per-split token offsets continue from the durable
      totals (``_pack_totals.json``), so ``start_offset``/``pack_id``
      equal a single full run whenever windows arrive in id order; each
      window writes its own contiguous ``part=NNNNN`` range (the
      partition-id counter is durable), so committed windows are never
      rewritten.

    Crash safety: the dedup states commit marker-LAST inside their ops
    (idempotent reruns return the same survivors); partition writes are
    ``_sig``-protected; totals + manifest + the synced-window list
    commit LAST, atomically, after the window's partitions exist.

    NOT supported incrementally (loud): ``config.shuffle_order`` (the
    md5 training rank is a global permutation -- recompute it with a
    full run) and ``config.audit``.

    Returns the merged manifest (None when nothing has been folded)."""
    import json as _json

    import ray
    import ray.data as rd

    from ray.data.aggregate import Sum

    from ..ops.dedup import (incremental_dedup, incremental_minhash_dedup,
                             semi_join_filter)

    config = config or CorpusConfig()
    if config.shuffle_order:
        raise ValueError(
            "sync_corpus_windows: shuffle_order is a GLOBAL permutation "
            "and cannot append-pack; run the full pipeline for a "
            "shuffled corpus"
        )
    if config.audit:
        raise ValueError(
            "sync_corpus_windows: audit is not supported incrementally; "
            "run the full pipeline for the drop-audit artifact"
        )
    id_col, text_col = config.id_col, config.text_col
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)
    fsio.makedirs(fs, out_dir)
    root_fs, root = fsio.resolve_fs(windows_root)
    windows = sorted(
        d for d in fsio.listdir(root_fs, root)
        if fsio.isdir(root_fs, fsio.join(root, d))
    )
    if require_marker:
        windows = [
            d for d in windows
            if fsio.isfile(root_fs, fsio.join(root, d, marker_name))
        ]

    synced_path = fsio.join(out_dir, "_synced_windows.json")
    totals_path = fsio.join(out_dir, "_pack_totals.json")
    done = set(_json.loads(fsio.read_text(fs, synced_path) or "[]"))
    tstate = _json.loads(
        fsio.read_text(fs, totals_path)
        or '{"splits": {}, "next_part": 0, "counts": {}, "tokens": 0, '
           '"sigs": []}'
    )
    cfg_hash = config.config_hash()
    num_partitions = int(
        config.num_partitions
        or max(16, int(ray.cluster_resources().get("CPU", 8)) * 2)
    )

    manifest = read_manifest(out_dir, filesystem=fs)
    for w in windows:
        if w in done:
            continue
        wdir = fsio.join(root, w)
        wsig = input_signature(list_input_files(wdir))

        ds = rd.read_parquet(wdir, columns=[id_col, text_col])
        surv1 = incremental_dedup(
            ds, fsio.join(out_dir, "_exact_state"), w,
            id_col=id_col, text_col=text_col, filesystem=fs,
        )
        docs1 = semi_join_filter(
            rd.read_parquet(wdir, columns=[id_col, text_col]),
            surv1, id_col, keys_col=id_col,
        ).materialize()
        surv2 = incremental_minhash_dedup(
            docs1, fsio.join(out_dir, "_minhash_state"), w,
            id_col=id_col, text_col=text_col,
            num_perm=config.num_perm, bands=config.bands,
            ngram=config.ngram, filesystem=fs,
        )
        clean = semi_join_filter(
            docs1, surv2, id_col, keys_col=id_col,
        ).map_batches(_prep_fn(config), batch_format="pyarrow").materialize()

        run_sig = f"{wsig}:{cfg_hash}:{num_partitions}:{config.pack_budget}"
        mx = clean.max("doc_id") if clean.count() else None
        rows_by_part: dict = {}
        win_tokens = 0
        if mx is not None:
            width = max(1, (int(mx) + num_partitions) // num_partitions)
            base_part = int(tstate["next_part"])

            def counted(b: pa.Table) -> pa.Table:
                bucket = pc.cast(
                    pc.floor(pc.divide(
                        pc.cast(b["doc_id"], pa.float64()), width)),
                    pa.int64(),
                )
                t = pa.table(
                    {"split": b["split"], "bucket": bucket,
                     "n": b["n_tokens"]}
                )
                g = (t.group_by(["split", "bucket"], use_threads=False)
                     .aggregate([("n", "sum")]))
                return g.rename_columns(["split", "bucket", "n"])

            tiny = (
                clean.map_batches(counted, batch_format="pyarrow")
                .groupby(["split", "bucket"])
                .aggregate(Sum("n", alias_name="n"))
                .take_all()
            )
            offsets: dict = {}
            runs = {k: int(v) for k, v in tstate["splits"].items()}
            max_bucket = 0
            for row in sorted(tiny, key=lambda r: (r["split"],
                                                   r["bucket"])):
                key = (row["split"], base_part + int(row["bucket"]))
                offsets[key] = runs.get(row["split"], 0)
                runs[row["split"]] = offsets[key] + int(row["n"])
                max_bucket = max(max_bucket, int(row["bucket"]))

            def bucketed(b: pa.Table) -> pa.Table:
                return b.append_column(
                    "_bucket",
                    pc.cast(
                        pc.add(
                            pc.floor(pc.divide(
                                pc.cast(b["doc_id"], pa.float64()),
                                width)),
                            pa.scalar(float(base_part)),
                        ),
                        pa.int32(),
                    ),
                )

            counts_ds = (
                clean.map_batches(bucketed, batch_format="pyarrow")
                .groupby("_bucket")
                .map_groups(
                    lambda g: _write_corpus_partition(
                        g, out_dir, fs, run_sig=run_sig, offsets=offsets,
                        pack_budget=config.pack_budget,
                        order_col="doc_id",
                    ),
                    batch_format="pyarrow",
                )
            )
            for r in counts_ds.take_all():
                rows_by_part[str(r["part"])] = int(r["rows"])
                win_tokens += int(r["tokens"])
            tstate["splits"] = runs
            tstate["next_part"] = base_part + max_bucket + 1

        # commit LAST: totals, manifest, synced list
        tstate["counts"].update(rows_by_part)
        tstate["tokens"] = int(tstate["tokens"]) + win_tokens
        tstate["sigs"].append(wsig)
        manifest = RunManifest(
            input_signature=";".join(tstate["sigs"]),
            ruleset_hash=cfg_hash,
            num_partitions=int(tstate["next_part"]),
            triple_count=sum(int(v) for v in tstate["counts"].values()),
            partition_counts=dict(tstate["counts"]),
            extra={"total_tokens": int(tstate["tokens"]),
                   "order": "doc_id", "incremental": True},
        )
        fsio.write_text_atomic(fs, totals_path, _json.dumps(tstate))
        write_manifest(out_dir, manifest, filesystem=fs)
        done.add(w)
        fsio.write_text_atomic(fs, synced_path, _json.dumps(sorted(done)))
    return manifest
