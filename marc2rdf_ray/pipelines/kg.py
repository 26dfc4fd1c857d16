"""The flagship KG-construction pipeline (Ray Data equivalent of the
reference's harvest->convert->update->enrich->rules lifecycle, SURVEY.md §3.3):

    plan P partitions, S passes               # from the pages bytes
    read_parquet(pages, 2 blocks per CPU,     # url + html only (prune at read)
                 none under 256 KiB)
      -> map_batches(extract_fn)              # one task per block, fused:
                                              #   parse + rules + linking
      -> write_parquet(raw triples,           # converter output checkpoint
           pk=*/shard=*)                      #   _raw_triples(.complete)
      -> sameAs + symmetry closure            # staged from the pk=1 sliver:
                                              #   _sameas_triples(.complete)
      -> materialize, pass s reads shard=s    # dedup + sorted NT/Parquet
         + the staged closure                 # partitioned by hash(subj)
         + manifest

A resumed run whose markers match its identity re-derives nothing they
certify: the checkpoint skips extraction, the staged closure skips the
sameAs jobs, and each pass reads only its own checkpoint files.

Execution policy: every Ray Data job above, and the window merge's, runs
without Ray's per-operator resource reservation
(:func:`without_op_reservation` on the entry points): each puts an
all-to-all in front of its downstream operators or is one fused operator,
so reserved CPUs would idle behind the barrier while the reads before it
ran one task at a time.

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

import functools
import logging
from typing import NamedTuple, Optional

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

# Pages parquet bytes per row of the raw checkpoint plus the staged sameAs
# closure: the pages-equivalent size of a Dataset input.  Measured on
# synthetic corpora written like write_pages_dataset: 800 pages 102.7,
# 2.5k 102.2, 3.5k 102.0 (23.75 MB / 232,779 rows), 12k 101.3.
PAGES_BYTES_PER_RAW_ROW = 102

logger = logging.getLogger(__name__)


def sameas_key_pred_for(config: "PipelineConfig") -> str:
    """The shared-identifier predicate the sameAs stage joins on (J4)."""
    return ISBN_PRED


def without_op_reservation(fn):
    """Run ``fn`` with ``DataContext.op_resource_reservation_enabled``
    off, restoring the caller's value when it returns or raises.

    A Dataset copies the current DataContext when it is created, so every
    Dataset ``fn`` creates runs without Ray's per-operator reservation.
    The flagship's jobs gain nothing from it: extraction is one fused
    operator, and every other job puts an all-to-all (the materialize
    sort, the merge's groupby) in front of operators that cannot start
    until it has all its input; Ray already lifts the memory budget of an
    operator feeding an all-to-all.  With reservation on, CPUs sit
    reserved for those downstream operators while the upstream reads run
    one task at a time.  A Dataset the caller built before the call (a
    pages Dataset input) keeps the caller's context, and so do the
    operators chained onto it.  Nesting is harmless: an inner call
    restores the outer call's ``False``."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        from ray.data import DataContext

        ctx = DataContext.get_current()
        prior = ctx.op_resource_reservation_enabled
        ctx.op_resource_reservation_enabled = False
        try:
            return fn(*args, **kwargs)
        finally:
            ctx.op_resource_reservation_enabled = prior

    return run


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
    compiled and the alias dictionary fetched in ``__init__``.  ``aliases``
    is the dictionary, or an ObjectRef of its pickle
    (:func:`make_extract_fn`).

    A call gets a whole read block; it converts it ``SLICE_ROWS`` pages at
    a time, so the Python triples of at most that many pages are alive at
    once whatever the block size."""

    SLICE_ROWS = 1024

    def __init__(self, config: PipelineConfig, aliases=None):
        import pickle

        import ray

        self.engine = config.build_engine()
        if isinstance(aliases, ray.ObjectRef):
            aliases = pickle.loads(ray.get(aliases))
        self.linker = EntityLinker(aliases) if aliases is not None else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = self.SLICE_ROWS
        if len(batch) <= n:
            return self._convert(batch)
        return pa.concat_tables(
            [self._convert(batch.slice(i, n)) for i in range(0, len(batch), n)]
        )

    def _convert(self, batch: pa.Table) -> pa.Table:
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
# small runs and wrecked scaling efficiency).  It holds one stage: the
# newest (rule set, alias dictionary) a run asked for.
_STAGE_CACHE: dict = {}


def make_extract_fn(config: PipelineConfig, alias_dict=None):
    """The per-batch extraction function.  Each worker builds its
    :class:`KGExtract` on first use and keeps it for later runs of the
    same rule set and alias content, replacing whatever stage it held
    before.

    ``alias_dict`` is pickled once: the sha256 of the pickle is the
    content key (an ObjectRef is new on every put; equal dictionaries
    built alike pickle alike), and the pickle is what goes in the object
    store.  For 1M aliases that takes 2.3 s, where ``ray.put`` of the
    dictionary itself took 3.1 s."""
    import hashlib
    import pickle

    import ray

    alias_ref, digest = None, ""
    if alias_dict is not None:
        blob = pickle.dumps(alias_dict, protocol=pickle.HIGHEST_PROTOCOL)
        alias_ref, digest = ray.put(blob), hashlib.sha256(blob).hexdigest()
    key = (config.ruleset_hash(), digest)

    def extract_fn(batch):
        stage = _STAGE_CACHE.get(key)
        if stage is None:
            _STAGE_CACHE.clear()
            stage = _STAGE_CACHE[key] = KGExtract(config, alias_ref)
        return stage(batch)

    return extract_fn


def extract_triples(pages_ds, config: PipelineConfig, alias_dict=None):
    """pages Dataset -> raw triples Dataset (converter semantics: duplicate
    triples preserved, SURVEY.md §2.7 O3).  Stateless tasks with a
    worker-global compiled-rules cache (elastic, no pool startup); no
    alias dictionary => no entity linking.

    Each block of ``pages_ds`` is one batch in its own task: the input's
    block count is the extraction parallelism (Ray would bundle small
    blocks up to a row-count batch size, which fused behind a read can
    leave most CPUs idle), and :class:`KGExtract` bounds its memory by
    slicing inside the block.

    ``config.triples_hook`` (the user-script replacement, SURVEY.md
    §2.10) runs here on every raw batch, fused right behind extraction,
    so every downstream consumer -- checkpoint, sameAs, dedup,
    materialize, window merges -- sees the hook's output."""
    out = pages_ds.map_batches(
        make_extract_fn(config, alias_dict),
        batch_format="pyarrow",
        batch_size=None,
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


class RawCheckpoint(NamedTuple):
    """What :func:`checkpoint_raw_triples` left at its ``ckpt``."""

    ident: str  # run identity its marker certifies; "" = none (Dataset)
    layout: Optional[tuple]  # (P, S) of pk=*/shard=*; None = pk=* only
    reused: bool  # a certified checkpoint was kept; nothing was extracted
    # (blocks, cpus) of the pages read it extracted; None = reused, or a
    # Dataset input extracted in its own blocks
    read_blocks: Optional[tuple] = None


def _read_marker(fs, marker: str) -> tuple:
    """(identity, layout) recorded in a checkpoint marker."""
    lines = (fsio.read_text(fs, marker) or "").split("\n")
    layout = None
    if len(lines) > 1 and lines[1].startswith("layout="):
        p, s = lines[1][len("layout="):].split(",")
        layout = (int(p), int(s))
    return lines[0].strip(), layout


@without_op_reservation
def checkpoint_raw_triples(
    pages, ckpt: str, fs, config: PipelineConfig, alias_dict, *,
    link: bool, sig: str, layout: Optional[tuple] = None,
    derived_markers: tuple = (),
) -> RawCheckpoint:
    """Extract ``pages`` (a pages parquet path or Dataset) into the raw
    triples checkpoint ``ckpt``, unless a completed checkpoint of the same
    run is already there.  A path is read in
    ``sources.incremental.pages_read_blocks`` blocks (two per CPU, at
    least one per pages file, none under 256 KiB), each extracted by its
    own task; a Dataset is extracted in its own blocks.

    The run identity is ``sig:ruleset:link=N`` (input signature ``sig``,
    rule set, ``link``).  The marker ``<ckpt>.complete`` carrying it is
    written after write_parquet returns, so a matching marker certifies
    the whole checkpoint and skips re-extraction -- the dominant cost of a
    restart.  ``sig=""`` (a Dataset input has no signature) always
    re-extracts and writes no marker.  ``derived_markers`` (the markers of
    stages staged from this checkpoint) are deleted before a
    re-extraction, so a crash mid-extraction cannot leave them certifying
    a checkpoint that is gone.

    The checkpoint is PARTITIONED on "is this a sameAs-key triple": the
    sameAs stage then reads only the pk=1 sliver (~1-2% of rows) instead
    of re-scanning the full converter output -- at 100 TB that second full
    pass is real money.  pk is a partition directory, not a data column,
    so the main re-read is unchanged.

    ``layout=(P, S)`` with S > 1 partitions it further by materialize pass
    (``pk=*/shard=s``, s = ``stages.materialize.shard_of`` of the
    subject's partition id), so pass s of an S-pass materialize reads only
    its own files.  The marker records the layout on its second line; a
    reused checkpoint keeps the layout it was written with, whatever the
    caller asks for now (the returned ``layout`` says which)."""
    import ray.data as rd

    from ..functions.hashing import bucket_codes
    from ..sources.incremental import pages_read_blocks
    from ..stages.materialize import shard_of
    from ..state.manifest import list_input_files

    ident = f"{sig}:{config.ruleset_hash()}:link={int(link)}" if sig else ""
    marker = ckpt + ".complete"
    if ident and fsio.isdir(fs, ckpt):
        have, have_layout = _read_marker(fs, marker)
        if have == ident:
            return RawCheckpoint(ident, have_layout, True)
    for m in (marker, *derived_markers):
        fsio.delete_file(fs, m)
    fsio.rmtree(fs, ckpt)
    blocks = None
    if isinstance(pages, str):
        blocks = pages_read_blocks(list_input_files(pages))
        pages = rd.read_parquet(
            pages, columns=["url", "html"], override_num_blocks=blocks[0]
        )
    if alias_dict is None and link:
        alias_dict = build_alias_dict()
    key_pred = pa.scalar(sameas_key_pred_for(config))
    if layout is not None and layout[1] <= 1:
        layout = None
    cols = ["pk"] if layout is None else ["pk", "shard"]

    def add_pk(b: pa.Table) -> pa.Table:
        b = b.append_column(
            "pk", pc.cast(pc.equal(b["pred"], key_pred), pa.int8())
        )
        if layout is None:
            return b
        return b.append_column(
            "shard", shard_of(bucket_codes(b["subj"], layout[0]), *layout)
        )

    extract_triples(pages, config, alias_dict if link else None).map_batches(
        add_pk, batch_format="pyarrow"
    ).write_parquet(ckpt, partition_cols=cols, filesystem=fs)
    if ident:
        if layout is not None:
            ident_text = f"{ident}\nlayout={layout[0]},{layout[1]}"
        else:
            ident_text = ident
        fsio.write_text_atomic(fs, marker, ident_text)
    return RawCheckpoint(ident, layout, False, blocks)


@without_op_reservation
def stage_sameas_closure(
    ckpts: list[str], out: str, fs, config: PipelineConfig, ident: str = ""
) -> tuple:
    """Write ``symmetry_closure(sameas_by_shared_key(...))`` over the pk=1
    slivers of the raw checkpoints ``ckpts`` to parquet under ``out``.
    Returns ``(files, reused)``: the staged parquet files (empty when no
    closure rows exist) and whether a certified staging was kept.

    ``ident``: the run identity of the checkpoint(s) (what
    :func:`checkpoint_raw_triples` returns).  The staging is then a
    durable resume artifact like the checkpoint: ``<out>.complete``
    carrying ``ident`` is written LAST, and a later call with the same
    ``ident`` whose ``out`` still exists returns it without starting a
    Ray job.  A restage deletes the marker first, so a crash mid-staging
    recomputes.  ``ident=""`` (a Dataset input, or the window merge, whose
    checkpoint set changes with every window) always restages and writes
    no marker.

    Undeduped: dedup rides the consumer's subject-hash shuffle.  STAGED to
    parquet instead of union-ed into the materialize sort: Union(big-read,
    closure) feeding an all-to-all deadlocks the streaming executor's
    memory accounting at 1M pages -- the Union's queued bundles count
    against the execution budget, which blocks downstream admission, which
    keeps the Union from draining (observed: 0/466 blocks for 20 min with
    every input backpressured).  The closure output is ~1% of the triples,
    so the extra parquet round-trip is noise."""
    import ray.data as rd

    marker = out + ".complete"
    if (
        ident
        and fsio.isdir(fs, out)
        and (fsio.read_text(fs, marker) or "").strip() == ident
    ):
        return fsio.list_files_recursive(fs, out), True
    fsio.delete_file(fs, marker)
    fsio.rmtree(fs, out)
    key_files = []
    for ckpt in ckpts:
        key_files.extend(fsio.list_files_recursive(fs, fsio.join(ckpt, "pk=1")))
    if key_files:
        key_triples = rd.read_parquet(
            key_files, columns=TRIPLE_COLS, filesystem=fs
        )
        symmetry_closure(
            sameas_by_shared_key(key_triples, sameas_key_pred_for(config)),
            dedup=False,
        ).write_parquet(out, filesystem=fs)
    if ident:
        fsio.makedirs(fs, out)  # an empty closure is certified too
        fsio.write_text_atomic(fs, marker, ident)
    return fsio.list_files_recursive(fs, out), False


@without_op_reservation
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

    For a path input the materialize plan (P partitions, S passes; the
    arithmetic of ``materialize_graph``, from the pages bytes and
    ``config.materialize_shards``) is fixed BEFORE extraction, so the
    checkpoint is written as ``pk=*/shard=*`` and pass s reads only its
    own ~1/S.  A checkpoint reused from a run with another plan is read
    whole by every pass (range-filtered, never re-extracted).  A Dataset
    input keeps the unsplit checkpoint and is sized from its rows (and the
    staged closure's) times ``PAGES_BYTES_PER_RAW_ROW``.  One INFO
    line per run names P, S, the bytes behind them, which stages were
    reused, when it extracted, the pages read's block count and the
    CPU count behind it, and each pass's read task count with its
    heaviest task's bytes over the mean.
    """
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..sources.incremental import balanced_read_order, two_blocks_per_cpu
    from ..stages.materialize import plan_passes
    from ..state.manifest import (
        input_signature,
        list_input_files,
        matches,
        read_manifest,
    )

    config = config or PipelineConfig()
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)
    identity = {"link": link}

    layout = None
    if isinstance(pages_path, str):
        input_paths = [pages_path]
        # resume short-circuit BEFORE any extraction work
        pages_files = list_input_files(pages_path)
        sig = input_signature(pages_files)
        existing = read_manifest(out_dir, filesystem=fs)
        if (
            matches(existing, sig, config.ruleset_hash())
            and existing.extra.items() >= identity.items()
        ):
            return existing
        # the materialize plan, decided before extraction so the
        # checkpoint can be laid out per pass (materialize_graph would
        # pick the same P and S from the same pages bytes)
        in_bytes = fsio.total_size(pages_files)
        layout = plan_passes(
            in_bytes, num_partitions, config.materialize_shards
        )
    else:
        input_paths = []
        sig = ""

    ckpt = fsio.join(out_dir, "_raw_triples")
    sameas_dir = fsio.join(out_dir, "_sameas_triples")
    raw = checkpoint_raw_triples(
        pages_path, ckpt, fs, config, alias_dict, link=link, sig=sig,
        layout=layout, derived_markers=(sameas_dir + ".complete",),
    )
    sameas_files, sameas_reused = stage_sameas_closure(
        [ckpt], sameas_dir, fs, config, raw.ident
    )
    ckpt_files = fsio.list_files_recursive(fs, ckpt)
    if layout is None:
        # a DATASET input has no pages files to size: size it from the
        # rows the checkpoint and the staged closure hold (their parquet
        # footers), which the number of files they were written in does
        # not change
        in_bytes = PAGES_BYTES_PER_RAW_ROW * sum(
            pq.read_metadata(f, filesystem=fs).num_rows
            for f in ckpt_files + sameas_files
        )
        layout = plan_passes(
            in_bytes, num_partitions, config.materialize_shards
        )
    num_partitions, shards = layout

    # coalesce at the READ (2 blocks/CPU): the sort exchange creates
    # #blocks x #partitions objects, and thousands of tiny checkpoint
    # files would dominate wall time.  Reading fewer, bigger blocks
    # replaces the repartition() that used to live in materialize_graph
    # (a second all-to-all there ALSO deadlocked the executor at 1M
    # pages -- two all-to-alls double-buffer the whole dataset).
    # Single linear chain into materialize: read -> prep -> sort -> write,
    # exactly one all-to-all, no multi-input operators.
    nblocks, ncpu = two_blocks_per_cpu(8)
    pass_reads = []  # bytes of each read task, per read

    def read(files, num_blocks):
        # Every materialize read lists its files in byte-balanced order:
        # Ray splits the list into equal-COUNT contiguous groups, and a
        # pass's list (large pk=0 extraction files, then tiny pk=1 and
        # sameAs files) would otherwise give one read task most of the
        # pass's rows while the other CPUs idle (balanced_read_order).
        # An empty file list falls back to the whole checkpoint: the
        # pass's range filter keeps that correct.
        files, task_bytes = balanced_read_order(
            fs, files or ckpt_files, num_blocks
        )
        pass_reads.append(task_bytes)
        return rd.read_parquet(
            files or [ckpt],
            columns=TRIPLE_COLS,
            override_num_blocks=num_blocks,
            filesystem=fs,
        )

    edges, shard_inputs = None, None
    if shards > 1 and raw.layout == layout:
        # one read of the checkpoint in total: pass s reads pk=*/shard=s,
        # ~1/S of the rows, in ~1/S of the blocks (block size as in the
        # whole read; at least one block per CPU)
        def shard_files(s):
            return [
                f
                for pk in ("pk=0", "pk=1")
                for f in fsio.list_files_recursive(
                    fs, fsio.join(ckpt, pk, f"shard={s}")
                )
            ]

        shard_inputs = [
            read(shard_files(s) + sameas_files, max(ncpu, nblocks // shards))
            for s in range(shards)
        ]
    else:
        # unsplit, or laid out for another plan: every pass reads it all
        edges = read(ckpt_files + sameas_files, nblocks)
        pass_reads *= shards

    if raw.reused:
        ckpt_how = "reused ("
    elif raw.read_blocks:
        ckpt_how = "extracted (read_blocks=%d for cpus=%d, " % raw.read_blocks
    else:
        ckpt_how = "extracted (input blocks, "
    tasks = [len(b) for b in pass_reads]
    logger.info(
        "kg: partitions=%d shards=%d from %s bytes=%d; checkpoint %slayout "
        "%s); sameAs closure %s; pass reads %s tasks, max/mean bytes %s",
        num_partitions, shards,
        "pages" if input_paths else "ckpt rows x %d" % PAGES_BYTES_PER_RAW_ROW,
        in_bytes, ckpt_how,
        "P,S=%d,%d" % raw.layout if raw.layout else "pk only",
        "reused" if sameas_reused else "staged",
        "%d x %d" % (shards, tasks[0]) if len(set(tasks)) == 1
        else ",".join(map(str, tasks)),
        ",".join(
            "%.2f" % (max(b) * len(b) / sum(b)) if sum(b) else "-"
            for b in pass_reads
        ),
    )
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
        shards=shards,
        shard_inputs=shard_inputs,
    )
