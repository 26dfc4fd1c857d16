"""End-to-end tests for the LLM-corpus flagship pipeline
(pipelines/corpus.py): chain output invariants, serial replay of the pack
offsets, manifest short-circuit, stage-checkpoint + partition-level crash
resume, and config-change recompute."""

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from marc2rdf_ray.pipelines.corpus import (
    CorpusConfig,
    run_corpus_pipeline,
    _split_bounds,
)

_GLUE = ["the", "and", "of", "in", "it", "is"]  # 'en' trigram signal


def _doc_text(i: int, extra: str = "") -> str:
    """Distinct English-scored doc: unique tokens interleaved with glue
    words, so every 3-token shingle contains a doc-unique token (zero
    cross-doc Jaccard -- only the deliberate near-dup copies pair)."""
    toks = []
    for k in range(24):
        toks.append(f"v{i}w{k}")
        toks.append(_GLUE[k % len(_GLUE)])
    if extra:
        toks.insert(24, extra)
    return " ".join(toks)


def _mk_docs(path: str) -> str:
    """Deterministic corpus exercising every stage:
    - ids 0..19: distinct long English docs (survive everything)
    - ids 100..104: EXACT copies of 0..4      (exact-dedup fodder)
    - ids 200..204: near-dup copies of 0..4   (minhash fodder; last word
      dropped)
    - id 300: too short (min_tokens filter)
    - id 301: no latin trigrams ('und' langid filter)
    - id 302: contains the blocked span      (decontamination filter)
    - id 304: English-scored but under min_tokens (short filter)
    - id 303: has an email + long digit run  (redaction, survives)
    """
    rows = []
    for i in range(20):
        rows.append((i, _doc_text(i)))
    for i in range(5):
        rows.append((100 + i, rows[i][1]))
    for i in range(5):
        rows.append((200 + i, " ".join(rows[i][1].split()[:-1])))
    rows.append((300, "tiny doc"))
    rows.append((301, " ".join(["零一二三四五六七八九"] * 25)))
    rows.append((302, _doc_text(302, "BLOCKED-SPAN-LITERAL")))
    rows.append((303, _doc_text(303, "bob@example.com ref 123456789")))
    rows.append((304, "the and of in it is the and of"))  # en but short
    tab = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    os.makedirs(path, exist_ok=True)
    pq.write_table(tab, os.path.join(path, "docs.parquet"))
    return path


def _cfg(**kw) -> CorpusConfig:
    kw.setdefault("blocked_spans", ("BLOCKED-SPAN-LITERAL",))
    kw.setdefault("num_partitions", 8)
    kw.setdefault("min_tokens", 20)
    return CorpusConfig(**kw)


def _read_out(out_dir: str) -> pa.Table:
    parts = sorted(
        os.path.join(out_dir, d, "docs.parquet")
        for d in os.listdir(out_dir)
        if d.startswith("part=")
    )
    return pa.concat_tables(pq.read_table(p) for p in parts)


def _part_mtimes(out_dir: str) -> dict:
    return {
        d: os.path.getmtime(os.path.join(out_dir, d, "docs.parquet"))
        for d in os.listdir(out_dir)
        if d.startswith("part=")
    }


def test_chain_semantics_and_pack_replay(ray_session, tmp_path):
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    m = run_corpus_pipeline(docs, out, _cfg())
    tab = _read_out(out)
    ids = set(tab["doc_id"].to_pylist())

    # exact dups: min id survives
    assert not ids & {100, 101, 102, 103, 104}
    # near dups: connected-component root (min id) survives
    assert not ids & {200, 201, 202, 203, 204}
    assert {0, 1, 2, 3, 4} <= ids
    # filters
    assert 300 not in ids  # min_tokens
    assert 301 not in ids  # langid 'und'
    assert 302 not in ids  # decontaminated
    assert 303 in ids      # redacted, not dropped
    row = tab.filter(
        pa.compute.equal(tab["doc_id"], 303)
    ).to_pylist()[0]
    assert "[EMAIL]" in row["text"] and "[NUM]" in row["text"]
    assert "bob@example.com" not in row["text"]
    assert row["lang_pred"] == "en"

    # split assignment replays hash_split exactly
    bounds, labels = _split_bounds(
        (("train", 0.75), ("val", 0.125), ("test", 0.125))
    )
    for r in tab.to_pylist():
        hv = int(hashlib.md5(str(r["doc_id"]).encode()).hexdigest()[:8], 16)
        assert r["split"] == labels[int(np.searchsorted(bounds, hv, "right"))]

    # pack offsets == serial per-split prefix sum in id order
    rows = sorted(tab.to_pylist(), key=lambda r: r["doc_id"])
    run: dict = {}
    for r in rows:
        want = run.get(r["split"], 0)
        assert r["start_offset"] == want, r
        assert r["pack_id"] == want // 512
        run[r["split"]] = want + r["n_tokens"]

    # manifest bookkeeping
    assert m.triple_count == len(tab)
    assert m.extra["total_tokens"] == sum(r["n_tokens"] for r in rows)
    assert sum(m.partition_counts.values()) == len(tab)

    # partitions are contiguous id ranges, sorted within
    width = m.extra["id_width"]
    for d in os.listdir(out):
        if not d.startswith("part="):
            continue
        part = int(d.split("=")[1])
        t = pq.read_table(os.path.join(out, d, "docs.parquet"))
        pids = t["doc_id"].to_pylist()
        assert pids == sorted(pids)
        assert all(i // width == part for i in pids)


def test_manifest_short_circuit_and_partition_resume(ray_session, tmp_path):
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    cfg = _cfg()
    m1 = run_corpus_pipeline(docs, out, cfg)
    before = _part_mtimes(out)
    tab1 = _read_out(out)

    # identical rerun: manifest match returns without touching anything
    m2 = run_corpus_pipeline(docs, out, cfg)
    assert m2.partition_counts == m1.partition_counts
    assert _part_mtimes(out) == before

    # crash between partition writes and manifest: delete the manifest,
    # rerun -- _sig-matching partitions are SKIPPED (mtime unchanged),
    # output identical
    os.remove(os.path.join(out, "_manifest.json"))
    m3 = run_corpus_pipeline(docs, out, cfg)
    assert m3.partition_counts == m1.partition_counts
    assert _part_mtimes(out) == before
    assert _read_out(out).equals(tab1)


def test_stage_checkpoint_resume_after_partial_crash(ray_session, tmp_path):
    """Kill the run after stage 2 (near-dup drops committed): the rerun
    must reuse the _deduped and _drops checkpoints (mtimes unchanged) and
    rebuild only _clean + partitions."""
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    cfg = _cfg()
    m1 = run_corpus_pipeline(docs, out, cfg)
    tab1 = _read_out(out)

    def stage_mtimes(d):
        sd = os.path.join(out, d)
        return {
            f: os.path.getmtime(os.path.join(sd, f)) for f in os.listdir(sd)
        }

    ded_before = stage_mtimes("_deduped")
    drops_before = stage_mtimes("_drops")

    # simulate the crash: everything after stage 2 is gone
    import shutil

    shutil.rmtree(os.path.join(out, "_clean"))
    os.remove(os.path.join(out, "_clean.complete"))
    os.remove(os.path.join(out, "_manifest.json"))
    for d in list(os.listdir(out)):
        if d.startswith("part="):
            shutil.rmtree(os.path.join(out, d))

    m2 = run_corpus_pipeline(docs, out, cfg)
    assert stage_mtimes("_deduped") == ded_before  # checkpoint reused
    assert stage_mtimes("_drops") == drops_before
    assert m2.partition_counts == m1.partition_counts
    assert _read_out(out).equals(tab1)

    # an UNCOMMITTED stage (marker missing) is rebuilt, not trusted
    os.remove(os.path.join(out, "_drops.complete"))
    os.remove(os.path.join(out, "_manifest.json"))
    m3 = run_corpus_pipeline(docs, out, cfg)
    assert stage_mtimes("_drops") != drops_before
    assert m3.partition_counts == m1.partition_counts


def test_config_change_recomputes_from_scratch(ray_session, tmp_path):
    """A config change recomputes FROM THE FIRST AFFECTED STAGE: filter
    knobs only touch stage 3, so the expensive dedup + MinHash
    checkpoints must be REUSED (per-stage stamps, ADVICE r4)."""
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    m1 = run_corpus_pipeline(docs, out, _cfg())
    ids1 = set(_read_out(out)["doc_id"].to_pylist())

    def stage_mtimes(d):
        sd = os.path.join(out, d)
        return {
            f: os.path.getmtime(os.path.join(sd, f))
            for f in os.listdir(sd)
        }

    ded_before = stage_mtimes("_deduped")
    drops_before = stage_mtimes("_drops")

    # relaxing the filters admits the short doc and the 'und' doc; only
    # the clean stage and the partitions recompute
    m2 = run_corpus_pipeline(docs, out, _cfg(min_tokens=2, drop_und=False))
    assert stage_mtimes("_deduped") == ded_before   # shuffle reused
    assert stage_mtimes("_drops") == drops_before   # minhash reused
    ids2 = set(_read_out(out)["doc_id"].to_pylist())
    assert {300, 301} <= ids2 and not {300, 301} & ids1
    assert m2.ruleset_hash != m1.ruleset_hash

    # no stale partitions from the previous run survive
    manifest = json.loads(open(os.path.join(out, "_manifest.json")).read())
    live = {f"part={int(k):05d}" for k in manifest["partition_counts"]}
    on_disk = {d for d in os.listdir(out) if d.startswith("part=")}
    assert on_disk == live


def test_sharded_dedup_matches_unsharded(ray_session, tmp_path):
    """The dedup spill-cap loop: dedup_shards=3 output must equal the
    single-pass run exactly (bucket id is a pure function of the hash)."""
    docs = _mk_docs(str(tmp_path / "docs"))
    out1 = str(tmp_path / "out1")
    out3 = str(tmp_path / "out3")
    run_corpus_pipeline(docs, out1, _cfg(dedup_shards=1))
    run_corpus_pipeline(docs, out3, _cfg(dedup_shards=3))
    t1 = _read_out(out1).sort_by([("doc_id", "ascending")])
    t3 = _read_out(out3).sort_by([("doc_id", "ascending")])
    assert t1.equals(t3)
    # the sharded checkpoint really ran as 3 hash-range passes
    shards = [
        d
        for d in os.listdir(os.path.join(out3, "_deduped"))
        if d.startswith("shard=")
    ]
    assert len(shards) == 3


def test_shuffle_order_pack_reuses_stages_and_rewrites_partitions(
    ray_session, tmp_path
):
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    m1 = run_corpus_pipeline(docs, out, _cfg())
    tab1 = _read_out(out)
    stage_markers = [
        os.path.join(out, s + ".complete")
        for s in ("_deduped", "_drops", "_clean")
    ]
    stage_before = [os.path.getmtime(p) for p in stage_markers]

    # flip ONLY the pack-order knob in the same out dir
    cfg2 = _cfg(shuffle_order=True)
    m2 = run_corpus_pipeline(docs, out, cfg2)
    tab2 = _read_out(out)

    # stages 1-3 reused verbatim (their stamps exclude pack knobs)
    assert [os.path.getmtime(p) for p in stage_markers] == stage_before

    # same docs, same per-doc values; only order/offsets/rank differ
    def keyed(tab, cols):
        return {
            r["doc_id"]: tuple(r[c] for c in cols) for r in tab.to_pylist()
        }

    base_cols = ["text", "lang_pred", "n_tokens", "split"]
    assert keyed(tab2, base_cols) == keyed(tab1, base_cols)

    # rank is the dense md5 permutation (ties impossible: ids distinct)
    rows = tab2.to_pylist()
    want_order = sorted(
        (r["doc_id"] for r in rows),
        key=lambda i: (
            int(hashlib.md5(str(i).encode()).hexdigest()[:16], 16), i
        ),
    )
    got = {r["doc_id"]: r["rank"] for r in rows}
    assert got == {i: pos for pos, i in enumerate(want_order)}

    # offsets: per-split prefix sums in RANK order
    run: dict = {}
    for r in sorted(rows, key=lambda r: r["rank"]):
        want = run.get(r["split"], 0)
        assert r["start_offset"] == want, r
        assert r["pack_id"] == want // 512
        run[r["split"]] = want + r["n_tokens"]
    assert m2.extra["order"] == "rank"
    assert m2.triple_count == m1.triple_count

    # partitions are contiguous RANK ranges, sorted by rank
    width = m2.extra["id_width"]
    for d in os.listdir(out):
        if not d.startswith("part="):
            continue
        part = int(d.split("=")[1])
        t = pq.read_table(os.path.join(out, d, "docs.parquet"))
        pranks = t["rank"].to_pylist()
        assert pranks == sorted(pranks)
        assert all(rk // width == part for rk in pranks)

    # identical shuffled rerun: manifest short-circuit, nothing touched
    before = _part_mtimes(out)
    m3 = run_corpus_pipeline(docs, out, cfg2)
    assert m3.partition_counts == m2.partition_counts
    assert _part_mtimes(out) == before


def test_audit_partitions_input_exactly(ray_session, tmp_path):
    docs = _mk_docs(str(tmp_path / "docs"))
    out = str(tmp_path / "out")
    m = run_corpus_pipeline(docs, out, _cfg(audit=True))
    kept = set(_read_out(out)["doc_id"].to_pylist())
    audit_dir = os.path.join(out, "_audit")
    dropped = {}
    for f in os.listdir(audit_dir):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(audit_dir, f))
        for r in t.to_pylist():
            dropped[r["doc_id"]] = r["reason"]
    inp = set(
        pq.read_table(os.path.join(docs, "docs.parquet"))["doc_id"]
        .to_pylist()
    )
    # every input doc is kept XOR dropped-with-reason
    assert kept | set(dropped) == inp
    assert not (kept & set(dropped))
    # reasons match the fixture design (_mk_docs)
    assert {dropped[100 + i] for i in range(5)} == {"exact"}
    assert {dropped[200 + i] for i in range(5)} == {"near"}
    assert dropped[300] == "lang"  # 'tiny doc' has no profile trigrams
    assert dropped[301] == "lang"
    assert dropped[302] == "contaminated"
    assert dropped[304] == "short"
    assert m.triple_count == len(kept)
    # audit marker makes the pass resumable: rerun rewrites nothing
    mt = os.path.getmtime(audit_dir + ".complete")
    run_corpus_pipeline(docs, out, _cfg(audit=True))
    assert os.path.getmtime(audit_dir + ".complete") == mt


def test_broadcast_and_join_plans_write_identical_corpus(
    ray_session, tmp_path, plan_budgets, caplog
):
    """Every broadcast-or-join choice in the corpus chain, the drop-list
    anti-join and the shuffle-rank attach included, writes the same
    corpus on either path -- which is why the broadcast budget is not a
    stage-cache input."""
    import logging

    docs = _mk_docs(str(tmp_path / "docs"))
    cfg = _cfg(shuffle_order=True)

    def paths(op):
        return {
            r.getMessage().rsplit("path=", 1)[1] for r in caplog.records
            if r.name == "marc2rdf_ray.plan"
            and f"op={op} " in r.getMessage()
        }

    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        m1 = run_corpus_pipeline(docs, str(tmp_path / "bcast"), cfg)
        want = _read_out(str(tmp_path / "bcast"))
        assert paths("anti_join_filter") == {"broadcast"}
        assert paths("corpus._attach_ranks") == {"broadcast"}
        caplog.clear()
        plan_budgets(broadcast=0)
        m2 = run_corpus_pipeline(docs, str(tmp_path / "join"), cfg)
        got = _read_out(str(tmp_path / "join"))
        assert paths("anti_join_filter") == {"join"}
        assert paths("corpus._attach_ranks") == {"join"}
    assert m2.partition_counts == m1.partition_counts
    key = [("doc_id", "ascending")]
    assert got.sort_by(key).equals(want.sort_by(key))
