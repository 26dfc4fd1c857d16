"""Windowed incremental graph merge (VERDICT r3 #6): fold a NEW window of
pages into an existing materialized graph, recomputing ONLY the partitions
whose content changes -- the reference's daily harvest->convert->update
cycle (scheduler.rb:327-350) re-expressed as partition-level recompute.

Exactness argument (why the merged graph is byte-identical to a full run
over all windows' pages):

- Conversion is deterministic per page and windows only ADD pages, so the
  non-sameAs content of an existing partition is exactly the dedup of all
  PRIOR windows' raw triples for that subject range; union-ing the new
  window's raw triples and re-deduping yields the full-run set (min(src)
  recomputes correctly because min is associative).
- sameAs is NOT monotone across windows: the star canon is the group-MIN
  subject, so a new window can re-root an existing identifier cluster
  (J4, stages/canonicalize.py:102-113).  The merge therefore recomputes
  the closure GLOBALLY from the pk=1 checkpoint slivers of every window
  (~1-2% of rows -- this is exactly why the raw checkpoint is partitioned
  on the sameAs-key predicate, pipelines/kg.checkpoint_raw_triples), DROPS
  all old sameAs rows in touched partitions, and re-adds the new closure.
- Touched partitions = partitions receiving new raw triples UNION
  partitions where the recomputed closure differs from the stored sameAs
  edges (detected distributedly: per-partition distinct row-hash set
  comparison, one small shuffle -- never a driver pull of the edge sets).

Untouched partitions keep their files byte-for-byte (mtime unchanged);
only their ``_sig`` marker is re-stamped to the merged run's signature.
The merge is IDEMPOTENT: re-running after a partial crash re-merges
touched partitions to the same content (dedup of a superset that already
contains the target set is the target set), so no staging sidecar is
needed beyond the read/overwrite isolation copy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..state import fsio
from ..state.manifest import (
    RunManifest,
    input_signature,
    list_input_files,
    read_manifest,
    write_manifest,
)
from ..vocab import OWL_SAMEAS
from .kg import (
    TRIPLE_COLS,
    checkpoint_raw_triples,
    stage_sameas_closure,
    without_op_reservation,
)


def _win_id(sig: str) -> str:
    return sig[:12]


@without_op_reservation
def merge_window_into_graph(
    new_pages_path: str,
    out_dir: str,
    config: PipelineConfig | None = None,
    *,
    alias_dict=None,
    link: bool = True,
    filesystem=None,
) -> RunManifest:
    """Fold ``new_pages_path`` (a new harvest window) into the graph at
    ``out_dir`` (produced by ``run_kg_pipeline`` or a previous merge).
    Returns the merged manifest.  Caller owns the Ray session.

    Requires the base run's raw checkpoint (``_raw_triples``) to still be
    present -- it is the durable source of the sameAs key sliver; each
    merged window adds its own ``_raw_win=<id>`` checkpoint beside it.
    """
    import ray.data as rd

    from ..stages.materialize import write_sorted_partition

    config = config or PipelineConfig()
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)

    existing = read_manifest(out_dir, filesystem=fs)
    if existing is None:
        raise ValueError(
            f"no existing graph manifest under {out_dir}; run the full "
            "pipeline first, then merge windows into it"
        )
    if existing.ruleset_hash != config.ruleset_hash():
        raise ValueError(
            "merge_window_into_graph: the graph at "
            f"{out_dir} was built with ruleset {existing.ruleset_hash!r} "
            f"but this merge uses {config.ruleset_hash()!r}; merging would "
            "mix rule versions across windows (prior windows' triples stay "
            "on the old rules while the manifest certifies the new ones). "
            "Re-run the FULL pipeline over all windows after a rule change "
            "(the recompute semantics of U1-U6)."
        )
    if existing.extra.get("link") != link:
        raise ValueError(
            f"merge_window_into_graph: the graph at {out_dir} was built "
            f"with link={existing.extra.get('link')!r} but this merge uses "
            f"link={link!r}; the merged graph would carry entity mentions "
            "for only some windows.  Merge with the base run's link setting "
            "or re-run the FULL pipeline."
        )
    num_partitions = existing.num_partitions

    win_sig = input_signature(list_input_files(new_pages_path))
    wid = _win_id(win_sig)
    windows = dict(existing.extra.get("window_sigs", {}))

    # idempotent re-run of an already-merged window
    if (
        windows.get(wid) == win_sig
        and existing.ruleset_hash == config.ruleset_hash()
    ):
        return existing
    windows[wid] = win_sig
    merged_sig = hashlib.sha256(
        (existing.input_signature + "|" + "|".join(
            f"{k}:{v}" for k, v in sorted(windows.items())
        )).encode()
    ).hexdigest()[:16]
    run_sig = (
        f"{merged_sig}:{config.ruleset_hash()}:{num_partitions}:merge"
    )

    # ---- 1) extract + checkpoint the new window's raw triples ----------
    win_ckpt = fsio.join(out_dir, f"_raw_win={wid}")
    checkpoint_raw_triples(
        new_pages_path, win_ckpt, fs, config, alias_dict, link=link,
        sig=win_sig,
    )

    # ---- 2) global sameAs closure from ALL windows' pk=1 slivers -------
    if not fsio.isdir(fs, fsio.join(out_dir, "_raw_triples")):
        raise ValueError(
            f"merge_window_into_graph: {out_dir}/_raw_triples is missing -- "
            "it is the durable source of the base run's sameAs key sliver; "
            "merging without it would silently drop every base-derived "
            "sameAs edge.  Keep the raw checkpoint alongside the graph, or "
            "re-run the full pipeline."
        )
    ckpts = [
        fsio.join(out_dir, d)
        for d in fsio.listdir(fs, out_dir)
        if d == "_raw_triples"
        or (d.startswith("_raw_win=") and not d.endswith(".complete"))
    ]
    closure_dir = fsio.join(out_dir, "_merge_sameas")
    # the closure rows are undeduped: dedup rides the partition rewrite
    closure_files, _ = stage_sameas_closure(ckpts, closure_dir, fs, config)
    have_closure = bool(closure_files)

    # ---- 3) touched-partition detection --------------------------------
    from ..functions.hashing import bucket_codes

    def parts_of(b: pa.Table) -> pa.Table:
        codes = bucket_codes(b["subj"], num_partitions)
        return pa.table({"part": pc.unique(codes)})

    win_files = [
        f
        for f in fsio.list_files_recursive(fs, win_ckpt)
        if f.endswith(".parquet")
    ]
    touched = set(
        r["part"]
        for r in rd.read_parquet(win_files, columns=["subj"], filesystem=fs)
        .map_batches(parts_of, batch_format="pyarrow")
        .take_all()
    )

    part_dirs = sorted(
        d for d in fsio.listdir(fs, out_dir) if d.startswith("part=")
    )
    old_files = {
        int(d.split("=")[1]): fsio.join(out_dir, d, "edges.parquet")
        for d in part_dirs
    }

    # sameAs delta: per-partition distinct row-hash sets, old vs new, ONE
    # small shuffle -- the edge sets never reach the driver.
    def keyed(b: pa.Table, side: int) -> pa.Table:
        if len(b) == 0:
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "h": pa.array([], pa.string()),
                    "side": pa.array([], pa.int8()),
                }
            )
        b = b.filter(pc.equal(b["pred"], pa.scalar(OWL_SAMEAS)))
        key = pc.binary_join_element_wise(b["subj"], b["obj"], "\x1f")
        return pa.table(
            {
                "part": bucket_codes(b["subj"], num_partitions),
                "h": key,
                "side": pa.array(np.full(len(b), side, np.int8), pa.int8()),
            }
        )

    def delta(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        h = group["h"].to_pylist()
        old = {x for x, s in zip(h, side) if s == 0}
        new = {x for x, s in zip(h, side) if s == 1}
        if old == new:
            return pa.table({"part": pa.array([], pa.int32())})
        return pa.table(
            {"part": pa.array([int(group["part"][0].as_py())], pa.int32())}
        )

    sides = []
    if old_files:
        sides.append(
            rd.read_parquet(
                sorted(old_files.values()),
                columns=["subj", "pred", "obj"],
                filesystem=fs,
            ).map_batches(lambda b: keyed(b, 0), batch_format="pyarrow")
        )
    if have_closure:
        sides.append(
            rd.read_parquet(closure_dir, filesystem=fs).map_batches(
                lambda b: keyed(b, 1), batch_format="pyarrow"
            )
        )
    if sides:
        both = sides[0] if len(sides) == 1 else sides[0].union(sides[1])
        touched |= {
            int(r["part"])
            for r in both.groupby("part")
            .map_groups(delta, batch_format="pyarrow")
            .take_all()
        }
    touched &= set(range(num_partitions))

    # ---- 4) rewrite touched partitions ----------------------------------
    # isolation copy: the rewrite READS old partition files it is about to
    # OVERWRITE; stage the touched files aside first so reader tasks never
    # race the writer's rename.
    stage_dir = fsio.join(out_dir, "_merge_stage")
    fsio.rmtree(fs, stage_dir)
    staged_files = []
    if touched:
        fsio.makedirs(fs, stage_dir)
        for p in sorted(touched):
            src = old_files.get(p)
            if src is None or not fsio.isfile(fs, src):
                continue
            dst = fsio.join(stage_dir, f"part-{p:05d}.parquet")
            with fs.open_input_stream(src) as r, fs.open_output_stream(
                dst, compression=None
            ) as w:
                while True:
                    chunk = r.read(1 << 22)
                    if not chunk:
                        break
                    w.write(chunk)
            staged_files.append(dst)

    counts = dict(existing.partition_counts)
    if touched:
        tlist = pa.array(sorted(touched), pa.int32())

        def in_touched(b: pa.Table, drop_sameas: bool) -> pa.Table:
            if len(b) == 0 or not set(TRIPLE_COLS) <= set(b.column_names):
                # zero-row blocks must still match the union schema
                empty = {c: pa.array([], pa.string()) for c in TRIPLE_COLS}
                empty["part"] = pa.array([], pa.int32())
                return pa.table(empty)
            b = b.select(TRIPLE_COLS)
            if drop_sameas:
                b = b.filter(
                    pc.not_equal(b["pred"], pa.scalar(OWL_SAMEAS))
                )
            codes = bucket_codes(b["subj"], num_partitions)
            b = b.append_column("part", codes)
            return b.filter(pc.is_in(b["part"], value_set=tlist))

        pieces = []
        if staged_files:
            # old content, sameAs rows dropped (replaced by the closure)
            pieces.append(
                rd.read_parquet(staged_files, filesystem=fs).map_batches(
                    lambda b: in_touched(b, True), batch_format="pyarrow"
                )
            )
        pieces.append(
            rd.read_parquet(
                win_files, columns=TRIPLE_COLS, filesystem=fs
            ).map_batches(
                lambda b: in_touched(b, False), batch_format="pyarrow"
            )
        )
        if have_closure:
            pieces.append(
                rd.read_parquet(closure_dir, filesystem=fs).map_batches(
                    lambda b: in_touched(b, False), batch_format="pyarrow"
                )
            )
        merged = pieces[0]
        for p in pieces[1:]:
            merged = merged.union(p)
        counts_ds = merged.groupby("part").map_groups(
            lambda g: write_sorted_partition(
                g, out_dir, dedup=True, run_sig=run_sig, fs=fs
            ),
            batch_format="pyarrow",
        )
        written = set()
        for r in counts_ds.take_all():
            counts[str(r["part"])] = int(r["rows"])
            written.add(int(r["part"]))
        # a touched partition whose merged content is EMPTY (its only rows
        # were sameAs edges the new closure dropped) emits no group: drop
        # the stale directory instead of leaving old data behind
        for p in touched - written:
            fsio.rmtree(fs, fsio.join(out_dir, f"part={p:05d}"))
            counts.pop(str(p), None)

    # ---- 5) re-stamp untouched partitions, write merged manifest -------
    for p, f in old_files.items():
        if p not in touched:
            fsio.write_text_atomic(
                fs, fsio.join(out_dir, f"part={p:05d}", "_sig"), run_sig
            )
    fsio.rmtree(fs, stage_dir)

    manifest = RunManifest(
        input_signature=merged_sig,
        ruleset_hash=config.ruleset_hash(),
        num_partitions=num_partitions,
        triple_count=sum(counts.values()),
        partition_counts=counts,
        extra={
            **existing.extra,
            "window_sigs": windows,
            "touched_partitions": sorted(int(p) for p in touched),
        },
    )
    write_manifest(out_dir, manifest, filesystem=fs)
    return manifest


def sync_windows(
    windows_root: str,
    out_dir: str,
    config: PipelineConfig | None = None,
    *,
    link: bool = True,
    filesystem=None,
    require_marker: bool = False,
    marker_name: str = "_complete",
) -> RunManifest | None:
    """The scheduler analog (scheduler.rb:327-350 daily cycle): fold every
    window directory under ``windows_root`` (one subdir per harvest drop,
    lexicographic order = arrival order) into the graph at ``out_dir``
    EXACTLY ONCE.  The first window bootstraps via the full pipeline; each
    later one goes through :func:`merge_window_into_graph`.

    Progress is tracked in ``out_dir/_synced_windows.json`` (written
    atomically AFTER each window commits), so a crashed sync resumes at
    the interrupted window -- and both the full run (manifest
    short-circuit) and the merge (committed-window short-circuit) are
    idempotent, so re-running the interrupted window is safe.  Re-invoking
    on an unchanged root is a no-op; new drops fold in on the next call
    -- point a cron/scheduler at this function and it IS the daily cycle.

    A window that is STILL BEING WRITTEN must not fold: its input
    signature would change once the producer finishes, and the merge
    would then see the grown drop as a brand-new window and double-count
    its pages.  With ``require_marker=True`` only windows containing a
    ``marker_name`` sentinel file (written LAST by the producer -- the
    standard ``_SUCCESS`` convention) are considered; the others are
    skipped this call and fold on a later one.  Returns the current
    manifest, or None when nothing has been folded yet.
    """
    import json as _json

    from .kg import run_kg_pipeline

    config = config or PipelineConfig()
    fs, out_dir = fsio.resolve_fs(out_dir, filesystem)
    root_fs, root = fsio.resolve_fs(windows_root)
    windows = sorted(
        d for d in fsio.listdir(root_fs, root)
        if fsio.isdir(root_fs, fsio.join(root, d))
    )
    if not windows and not require_marker:
        raise ValueError(f"no window directories under {windows_root}")
    if require_marker:
        windows = [
            d for d in windows
            if fsio.isfile(root_fs, fsio.join(root, d, marker_name))
        ]

    state_path = fsio.join(out_dir, "_synced_windows.json")
    done = set(_json.loads(fsio.read_text(fs, state_path) or "[]"))

    manifest = read_manifest(out_dir, filesystem=fs)
    for d in windows:
        if d in done:
            continue
        wdir = fsio.join(root, d)
        if manifest is None:
            manifest = run_kg_pipeline(
                wdir, out_dir, config, link=link, filesystem=fs
            )
        else:
            manifest = merge_window_into_graph(
                wdir, out_dir, config, link=link, filesystem=fs
            )
        done.add(d)
        fsio.write_text_atomic(
            fs, state_path, _json.dumps(sorted(done))
        )
    return manifest


def watch_windows(
    windows_root: str,
    out_dir: str,
    config: PipelineConfig | None = None,
    *,
    link: bool = True,
    filesystem=None,
    poll_secs: float = 30.0,
    max_cycles: int | None = None,
    stop_when=None,
    marker_name: str = "_complete",
    on_cycle=None,
) -> RunManifest | None:
    """The watch-loop form of the reference's scheduler daemon
    (scheduler.rb:327-350 runs the harvest->convert->update cycle on a
    timer): poll ``windows_root`` and fold every COMPLETE window drop into
    the graph exactly once, forever (or until ``max_cycles`` /
    ``stop_when()``).

    Completeness is the ``marker_name`` sentinel (producer writes it LAST
    -- the ``_SUCCESS`` convention), so half-written drops are never
    folded; they pick up on a later cycle once sealed.  Each cycle is one
    :func:`sync_windows` pass, which is idempotent and crash-resumable,
    so killing the watcher at ANY point and restarting it loses nothing.
    ``on_cycle(cycle_index, manifest)`` is the observability hook (cycle
    counters -- the reference's T4 counter surface).

    S3-friendly by construction: listing + marker check are the only
    polling IO; no inotify/filesystem events are assumed.
    """
    import time as _time

    cycles = 0
    manifest = None
    while True:
        manifest = sync_windows(
            windows_root,
            out_dir,
            config,
            link=link,
            filesystem=filesystem,
            require_marker=True,
            marker_name=marker_name,
        )
        cycles += 1
        if on_cycle is not None:
            on_cycle(cycles, manifest)
        if max_cycles is not None and cycles >= max_cycles:
            break
        if stop_when is not None and stop_when():
            break
        _time.sleep(poll_secs)
    return manifest
