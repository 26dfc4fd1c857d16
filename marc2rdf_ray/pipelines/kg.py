"""The flagship KG-construction pipeline (Ray Data equivalent of the
reference's harvest->convert->update->enrich->rules lifecycle, SURVEY.md §3.3):

    read_parquet(pages)                       # url + html only (prune at read)
      -> map_batches(extract_fn, ...)         # fused: parse + rules + linking
      -> write_parquet(raw triples, pk=)      # converter output checkpoint
      -> sameAs + symmetry closure            # staged from the pk=1 sliver
      -> materialize: dedup + sorted NT/Parquet partitioned by hash(subj)
         + manifest

Stage-fusion note: HTML parse, rule-driven triple extraction, entity linking
and per-record work propagation all happen in ONE map_batches pass -- the
html column never crosses a stage boundary, which at 100 TB halves
object-store traffic versus a parse->fields->triples chain.

Work propagation (A1, joint_work_ids.isql:13-30): the reference aggregates
manifestations per work inside Virtuoso.  Here the work key is minted
deterministically per record by the combine rule, so the propagation
(work -> creator / isbn edges) derives per record with NO join; the global
dedup collapses repeats.  Equivalent output, no store.

The raw checkpoint and the sameAs staging are shared with the windowed
merge (pipelines/incremental.py): :func:`checkpoint_raw_triples` and
:func:`stage_sameas_closure` are the one copy of each.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..stages.canonicalize import sameas_by_shared_key, symmetry_closure
from ..stages.extract import page_to_record
from ..stages.link import MENTIONS_PRED, EntityLinker, build_alias_dict
from ..stages.materialize import materialize_graph
from ..stages.triples import triples_to_table
from ..state import fsio
from ..vocab import DEFAULT_VOCAB

ISBN_PRED = DEFAULT_VOCAB.resolve("BIBO.isbn")
MANIFESTATION_PRED = DEFAULT_VOCAB.resolve("FABIO.isManifestationOf")
CREATOR_PRED = DEFAULT_VOCAB.resolve("DC.creator")

TRIPLE_COLS = ["subj", "pred", "obj", "obj_kind", "lang", "src"]


def sameas_key_pred_for(config: "PipelineConfig") -> str:
    """The shared-identifier predicate the sameAs stage joins on (J4)."""
    return ISBN_PRED


def derive_work_triples(triples: list[tuple], src: str) -> list[tuple]:
    """Per-record A1 propagation: attach the record's creators and isbns to
    its minted work URI (joint_work_ids.isql:68-85 semantics, record-local)."""
    works = [t[2] for t in triples if t[1] == MANIFESTATION_PRED and t[3] == "uri"]
    if not works:
        return []
    creators = {t[2] for t in triples if t[1] == CREATOR_PRED and t[0] == src}
    isbns = {t[2] for t in triples if t[1] == ISBN_PRED and t[0] == src}
    out = []
    for w in works:
        for c in sorted(creators):
            out.append((w, CREATOR_PRED, c, "uri", None))
        for i in sorted(isbns):
            out.append((w, ISBN_PRED, i, "literal", None))
    return out


class KGExtract:
    """Fused pages -> triples stage (rules + entity linking + work derive).

    Built once per worker process (see ``_STAGE_CACHE``): the rule set is
    compiled and the alias dictionary fetched in ``__init__``."""

    def __init__(self, config: PipelineConfig, alias_ref=None):
        self.engine = config.build_engine()
        self.linker = EntityLinker(alias_ref) if alias_ref is not None else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        htmls = batch["html"].to_pylist()
        rows: list[tuple] = []
        srcs: list[str] = []

        for url, html in zip(urls, htmls):
            rec, text = page_to_record(url, html)
            triples = self.engine.convert(rec)
            triples.extend(derive_work_triples(triples, url))
            if self.linker is not None:
                for uri, _score in self.linker.link_text(text):
                    triples.append((url, MENTIONS_PRED, uri, "uri", None))
            rows.extend(triples)
            srcs.extend([url] * len(triples))
        return triples_to_table(rows, srcs)


# worker-process-global stage cache: stateless tasks reuse long-lived Ray
# workers, so compiled rule sets / fetched alias dicts amortize exactly like
# actor state but WITHOUT per-run actor-pool startup cost (which dominated
# small runs and wrecked scaling efficiency).
_STAGE_CACHE: dict = {}


def make_extract_fn(config: PipelineConfig, alias_ref):
    key = (config.ruleset_hash(), str(alias_ref))

    def extract_fn(batch):
        stage = _STAGE_CACHE.get(key)
        if stage is None:
            stage = KGExtract(config, alias_ref)
            _STAGE_CACHE[key] = stage
        return stage(batch)

    return extract_fn


def extract_triples(pages_ds, config: PipelineConfig, alias_dict=None):
    """pages Dataset -> raw triples Dataset (converter semantics: duplicate
    triples preserved, SURVEY.md §2.7 O3).  Stateless tasks with a
    worker-global compiled-rules cache (elastic, no pool startup); no
    alias dictionary => no entity linking.

    ``config.triples_hook`` (the user-script replacement, SURVEY.md
    §2.10) runs here on every raw batch, fused right behind extraction,
    so every downstream consumer -- checkpoint, sameAs, dedup,
    materialize, window merges -- sees the hook's output."""
    import ray

    alias_ref = ray.put(alias_dict) if alias_dict is not None else None
    out = pages_ds.map_batches(
        make_extract_fn(config, alias_ref),
        batch_format="pyarrow",
        batch_size=config.batch_size,
    )
    if config.triples_hook is not None:
        out = out.map_batches(
            _make_hook_fn(config.triples_hook), batch_format="pyarrow"
        )
    return out


def _make_hook_fn(hook):
    """Wrap the user triples hook with a fail-loud schema check: the hook
    may add/drop/rewrite rows but must keep the canonical triple columns
    (extra columns are dropped; a missing one raises with the hook's
    output schema in the message)."""
    from ..stages.triples import TRIPLES_SCHEMA

    cols = TRIPLES_SCHEMA.names

    def apply(b: pa.Table) -> pa.Table:
        out = hook(b)
        if not isinstance(out, pa.Table):
            raise TypeError(
                "triples_hook must return a pyarrow.Table, got "
                f"{type(out).__name__}"
            )
        missing = [c for c in cols if c not in out.column_names]
        if missing:
            raise ValueError(
                f"triples_hook output is missing columns {missing}; it "
                f"must keep {cols} (got {out.column_names})"
            )
        return out.select(cols).cast(TRIPLES_SCHEMA)

    return apply


def checkpoint_raw_triples(
    pages, ckpt: str, fs, config: PipelineConfig, alias_dict, *,
    link: bool, sig: str,
) -> None:
    """Extract ``pages`` (a pages parquet path or Dataset) into the raw
    triples checkpoint ``ckpt``, unless a completed checkpoint of the same
    run is already there.

    The run identity is (input signature ``sig``, rule set, ``link``).  The
    marker ``<ckpt>.complete`` carrying it is written after write_parquet
    returns, so a matching marker certifies the whole checkpoint and skips
    re-extraction -- the dominant cost of a restart.  ``sig=""`` (a Dataset
    input has no signature) always re-extracts and writes no marker.

    The checkpoint is PARTITIONED on "is this a sameAs-key triple": the
    sameAs stage then reads only the pk=1 sliver (~1-2% of rows) instead
    of re-scanning the full converter output -- at 100 TB that second full
    pass is real money.  pk is a partition directory, not a data column,
    so the main re-read is unchanged."""
    import ray.data as rd

    ident = f"{sig}:{config.ruleset_hash()}:link={int(link)}" if sig else ""
    marker = ckpt + ".complete"
    if (
        ident
        and fsio.isdir(fs, ckpt)
        and (fsio.read_text(fs, marker) or "").strip() == ident
    ):
        return
    fsio.rmtree(fs, ckpt)
    fsio.delete_file(fs, marker)
    if isinstance(pages, str):
        pages = rd.read_parquet(pages, columns=["url", "html"])
    if alias_dict is None and link:
        alias_dict = build_alias_dict()
    key_pred = pa.scalar(sameas_key_pred_for(config))

    def add_pk(b: pa.Table) -> pa.Table:
        return b.append_column(
            "pk", pc.cast(pc.equal(b["pred"], key_pred), pa.int8())
        )

    extract_triples(pages, config, alias_dict if link else None).map_batches(
        add_pk, batch_format="pyarrow"
    ).write_parquet(ckpt, partition_cols=["pk"], filesystem=fs)
    if ident:
        fsio.write_text_atomic(fs, marker, ident)


def stage_sameas_closure(
    ckpts: list[str], out: str, fs, config: PipelineConfig
) -> bool:
    """Write ``symmetry_closure(sameas_by_shared_key(...))`` over the pk=1
    slivers of the raw checkpoints ``ckpts`` to parquet under ``out``
    (replacing it).  Returns whether any closure rows were written.

    Undeduped: dedup rides the consumer's subject-hash shuffle.  STAGED to
    parquet instead of union-ed into the materialize sort: Union(big-read,
    closure) feeding an all-to-all deadlocks the streaming executor's
    memory accounting at 1M pages -- the Union's queued bundles count
    against the execution budget, which blocks downstream admission, which
    keeps the Union from draining (observed: 0/466 blocks for 20 min with
    every input backpressured).  The closure output is ~1% of the triples,
    so the extra parquet round-trip is noise, and it makes the sameAs edges
    a durable resume artifact like the checkpoint."""
    import ray.data as rd

    fsio.rmtree(fs, out)
    key_files = []
    for ckpt in ckpts:
        key_files.extend(fsio.list_files_recursive(fs, fsio.join(ckpt, "pk=1")))
    if not key_files:
        return False
    key_triples = rd.read_parquet(key_files, columns=TRIPLE_COLS, filesystem=fs)
    symmetry_closure(
        sameas_by_shared_key(key_triples, sameas_key_pred_for(config)),
        dedup=False,
    ).write_parquet(out, filesystem=fs)
    return bool(fsio.list_files_recursive(fs, out))


def run_kg_pipeline(
    pages_path,
    out_dir: str,
    config: Optional[PipelineConfig] = None,
    *,
    alias_dict=None,
    link: bool = True,
    num_partitions: Optional[int] = None,
    preserve_src_prefixes: Optional[list] = None,
    filesystem=None,
):
    """End-to-end flagship run.  Caller owns the Ray session.

    ``pages_path``: parquet path/dir, or an existing pages Dataset.
    Returns the run manifest (counts per output partition).

    ``out_dir`` may be a local path, an ``s3://``-style URI, or paired
    with an explicit ``filesystem`` -- every checkpoint, marker, sameAs
    staging and graph-partition write goes through ``pyarrow.fs``
    (state/fsio.py), so the resume artifacts live where every worker can
    reach them (VERDICT r2 #1).  The pages INPUT resolves independently
    (Ray's readers handle URIs natively).

    The run identity is (input signature, rule set, ``link``): the
    manifest records ``link`` in ``extra``, and a manifest or checkpoint of
    another identity is recomputed, never reused.

    The raw converter output is ALWAYS checkpointed to Parquet
    (``<out_dir>/_raw_triples``) before canonicalization.  This is (a) the
    converter-output sink (K1 analog -- duplicates preserved), (b) the
    resume point, and (c) load-bearing for execution: canonicalization
    consumes the triples in two branches (sameAs closure + the main
    materialize read), and re-deriving each branch from the pages DAG would
    re-run extraction per branch.  One extraction pass, then cheap parquet
    re-reads.
    """
    import ray
    import ray.data as rd

    from ..state.manifest import (
        input_signature,
        list_input_files,
        matches,
        read_manifest,
    )

    config = config or PipelineConfig()
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)
    identity = {"link": link}

    if isinstance(pages_path, str):
        input_paths = [pages_path]
        # resume short-circuit BEFORE any extraction work
        sig = input_signature(list_input_files(pages_path))
        existing = read_manifest(out_dir, filesystem=fs)
        if (
            matches(existing, sig, config.ruleset_hash())
            and existing.extra.items() >= identity.items()
        ):
            return existing
    else:
        input_paths = []
        sig = ""

    ckpt = fsio.join(out_dir, "_raw_triples")
    checkpoint_raw_triples(
        pages_path, ckpt, fs, config, alias_dict, link=link, sig=sig
    )
    sameas_dir = fsio.join(out_dir, "_sameas_triples")
    read_files = fsio.list_files_recursive(fs, ckpt)
    if stage_sameas_closure([ckpt], sameas_dir, fs, config):
        read_files += fsio.list_files_recursive(fs, sameas_dir)
    # coalesce at the READ (2 blocks/CPU): the sort exchange creates
    # #blocks x #partitions objects, and thousands of tiny checkpoint
    # files would dominate wall time.  Reading fewer, bigger blocks
    # replaces the repartition() that used to live in materialize_graph
    # (a second all-to-all there ALSO deadlocked the executor at 1M
    # pages -- two all-to-alls double-buffer the whole dataset).
    # Single linear chain into materialize: read -> prep -> sort -> write,
    # exactly one all-to-all, no multi-input operators.
    nblocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
    edges = rd.read_parquet(
        read_files or [ckpt],
        columns=TRIPLE_COLS,
        override_num_blocks=nblocks,
        filesystem=fs,
    )
    # pages-equivalent sizing for the auto-shard spill cap when the
    # input was a DATASET (no paths -> materialize_graph's own file
    # sizing sees 0 and would run unsharded).  Calibration: pages parquet
    # is ~13x the compressed triples checkpoint (2M: 13 GB pages / ~1 GB
    # ckpt; 8M: 54 GB / 4.0 GB).
    size_hint = 0 if input_paths else fsio.total_size(read_files, fs) * 13
    return materialize_graph(
        edges,
        out_dir,
        num_partitions=num_partitions,
        ruleset_hash=config.ruleset_hash(),
        input_paths=input_paths,
        extra=identity,
        dedup=True,
        preserve_src_prefixes=preserve_src_prefixes,
        filesystem=fs,
        shards=config.materialize_shards,
        input_bytes_hint=size_hint,
    )
