"""End-to-end pipeline tests over the synthetic pages corpus (Ray session)."""

import json
import os

import pyarrow.parquet as pq
import pytest

from marc2rdf_ray.config import PipelineConfig
from marc2rdf_ray.sources.pages import synthesize_pages
from marc2rdf_ray.stages.extract import extract_text, verify_text_batch
from marc2rdf_ray.vocab import OWL_SAMEAS


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pages")
    table = synthesize_pages(120, seed=42)
    pq.write_table(table, os.path.join(d, "pages.parquet"))
    return str(d)


def test_text_invariant_bytes_identical(pages_dir):
    """input_hint per-row invariant: extract_text(html) == text per url."""
    table = pq.read_table(os.path.join(pages_dir, "pages.parquet"))
    out = verify_text_batch(table)
    assert all(out["ok"].to_pylist())


def test_full_pipeline(ray_session, pages_dir, tmp_path):
    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    out_dir = str(tmp_path / "graph")
    manifest = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    assert manifest.triple_count > 1000
    assert manifest.ruleset_hash

    # partition layout: parquet + NT per partition dir
    parts = [p for p in os.listdir(out_dir) if p.startswith("part=")]
    assert parts
    total = 0
    sameas_fwd = set()
    all_edges = set()
    for p in parts:
        t = pq.read_table(os.path.join(out_dir, p, "edges.parquet"))
        total += t.num_rows
        # sorted within partition
        subs = t["subj"].to_pylist()
        assert subs == sorted(subs)
        import gzip

        with gzip.open(os.path.join(out_dir, p, "edges.nt.gz"), "rt") as fh:
            nt = fh.read().splitlines()
        assert len(nt) == t.num_rows
        assert all(line.endswith(" .") for line in nt)
        for s, pr, o in zip(subs, t["pred"].to_pylist(), t["obj"].to_pylist()):
            all_edges.add((s, pr, o))
            if pr == OWL_SAMEAS:
                sameas_fwd.add((s, o))
    assert total == manifest.triple_count

    # no duplicate triples in the canonical edge table
    assert len(all_edges) == total

    # sameAs symmetry closure held
    assert sameas_fwd, "expected sameAs edges from shared isbn clusters"
    for s, o in sameas_fwd:
        assert (o, s) in sameas_fwd

    # partition correctness: every triple of a subject is in one partition
    man = json.load(open(os.path.join(out_dir, "_manifest.json")))
    assert man["triple_count"] == total

    # resume: second run with identical input + rules is a no-op (manifest hit)
    before = os.path.getmtime(os.path.join(out_dir, "_manifest.json"))
    m2 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    after = os.path.getmtime(os.path.join(out_dir, "_manifest.json"))
    assert m2.triple_count == manifest.triple_count
    assert before == after, "matching manifest must short-circuit the write"


def test_linking_emits_mentions(ray_session, pages_dir, tmp_path):
    import ray.data as rd

    from marc2rdf_ray.config import PipelineConfig
    from marc2rdf_ray.pipelines.kg import extract_triples
    from marc2rdf_ray.stages.link import MENTIONS_PRED, build_alias_dict

    ds = rd.read_parquet(pages_dir, columns=["url", "html"])
    raw = extract_triples(ds, PipelineConfig(), build_alias_dict())
    mentions = raw.map_batches(
        lambda b: b.filter(
            __import__("pyarrow.compute", fromlist=["c"]).equal(
                b["pred"], MENTIONS_PRED
            )
        ),
        batch_format="pyarrow",
    )
    n = mentions.count()
    assert n > 50  # every page body mentions its author + keywords


def test_extract_triples_keeps_the_input_blocks(ray_session, pages_dir):
    """Each pages block is extracted by its own task: 8 blocks of 15 pages
    come out as at least 8 blocks, not bundled up to a row-count batch."""
    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import extract_triples
    from marc2rdf_ray.stages.link import build_alias_dict

    table = pq.read_table(
        os.path.join(pages_dir, "pages.parquet"), columns=["url", "html"]
    )
    ds = rd.from_arrow([table.slice(i, 15) for i in range(0, 120, 15)])
    raw = extract_triples(ds, PipelineConfig(), build_alias_dict())
    assert raw.materialize().num_blocks() >= 8


def _files_under(d):
    return sum(len(ns) for _, _, ns in os.walk(d))


def test_path_input_extracts_on_every_cpu(
    ray_session, pages_dir, tmp_path, caplog
):
    """The one-file 120-page corpus (785 KiB) is read in one block per
    256 KiB, 4 at 4 CPUs, and each block is extracted (and written) by
    its own task: the checkpoint's pk=0 holds 4 files.  The run's INFO
    line names the read block count and the CPU count behind it."""
    import logging

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    out = str(tmp_path / "graph")
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.pipelines.kg"):
        run_kg_pipeline(pages_dir, out, PipelineConfig())
    assert _files_under(os.path.join(out, "_raw_triples", "pk=0")) == 4
    assert "checkpoint extracted (read_blocks=4 for cpus=4, " in caplog.text


def test_pages_read_blocks_bounded_by_size(ray_session, tmp_path):
    """Two blocks per CPU, at least one per file, but none under
    ``MIN_READ_BLOCK_BYTES``: a small window in many files is not fanned
    out into a task per file or per CPU."""
    from marc2rdf_ray.sources.incremental import (
        MIN_READ_BLOCK_BYTES,
        pages_read_blocks,
    )

    def files(n, size):
        d = tmp_path / f"{n}x{size}"
        d.mkdir()
        for i in range(n):
            (d / f"{i}.parquet").write_bytes(b"x" * size)
        return [str(d / f"{i}.parquet") for i in range(n)]

    floor = MIN_READ_BLOCK_BYTES
    assert pages_read_blocks(files(8, 35 << 10)) == (2, 4)  # a 40-page window
    assert pages_read_blocks(files(1, 10)) == (1, 4)
    assert pages_read_blocks(files(1, 3 * floor)) == (3, 4)
    assert pages_read_blocks(files(2, 64 * floor)) == (8, 4)
    assert pages_read_blocks(files(12, 2 * floor)) == (12, 4)


def test_window_dataset_input_extracts_like_the_path(
    ray_session, pages_dir, tmp_path, caplog
):
    """The CLI's ``--since/--until/--limit`` input, a ``read_pages_window``
    Dataset, is read in the path's block count: its checkpoint has as
    many pk=0 files as the path input's (Ray's default read splits the
    fixture into 8 blocks), and the plan sized from that checkpoint picks
    the path input's P and S."""
    import logging
    import re

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.incremental import read_pages_window

    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.pipelines.kg"):
        run_kg_pipeline(pages_dir, str(tmp_path / "p"), PipelineConfig())
        run_kg_pipeline(
            read_pages_window(pages_dir, columns=["url", "html"]),
            str(tmp_path / "d"),
            PipelineConfig(),
        )
    files = [
        _files_under(os.path.join(tmp_path, side, "_raw_triples", "pk=0"))
        for side in ("p", "d")
    ]
    assert files == [4, 4]
    plans = re.findall(r"kg: partitions=(\d+) shards=(\d+)", caplog.text)
    assert len(plans) == 2 and plans[0] == plans[1]
    assert "checkpoint extracted (input blocks, " in caplog.text


def test_kg_extract_slices_long_blocks(pages_dir):
    """A block longer than ``SLICE_ROWS`` is converted slice by slice: the
    rows equal those of separate calls on the slices, and of one call on
    the whole block."""
    import pyarrow as pa

    from marc2rdf_ray.pipelines.kg import KGExtract
    from marc2rdf_ray.stages.link import build_alias_dict

    table = pq.read_table(
        os.path.join(pages_dir, "pages.parquet"), columns=["url", "html"]
    )
    stage = KGExtract(PipelineConfig(), build_alias_dict())
    whole = stage(table)
    stage.SLICE_ROWS = 7
    pieces = []
    convert = stage._convert
    stage._convert = lambda b: pieces.append(len(b)) or convert(b)
    sliced = stage(table)
    assert max(pieces) == 7 and sum(pieces) == len(table)
    by_slice = pa.concat_tables(
        [stage(table.slice(i, 7)) for i in range(0, len(table), 7)]
    )
    assert sliced.to_pylist() == by_slice.to_pylist() == whole.to_pylist()
    assert sliced.num_rows > len(table)


def test_stage_cache_keys_on_alias_content(
    ray_session, pages_dir, monkeypatch
):
    """A worker keeps one extraction stage, keyed by rule set and alias
    dictionary CONTENT: equal dictionaries in different object refs reuse
    it, another dictionary replaces it."""
    from marc2rdf_ray.pipelines import kg
    from marc2rdf_ray.stages.link import build_alias_dict

    built = []

    class CountingExtract(kg.KGExtract):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(kg, "KGExtract", CountingExtract)
    monkeypatch.setattr(kg, "_STAGE_CACHE", {})
    batch = pq.read_table(
        os.path.join(pages_dir, "pages.parquet"), columns=["url", "html"]
    ).slice(0, 3)
    config = PipelineConfig()
    first = kg.make_extract_fn(config, build_alias_dict())(batch)
    again = kg.make_extract_fn(config, build_alias_dict())(batch)
    assert len(built) == 1
    assert again.equals(first)
    other = build_alias_dict()
    other.pop(next(iter(other)))
    kg.make_extract_fn(config, other)(batch)
    assert len(built) == 2
    assert len(kg._STAGE_CACHE) == 1


def test_duplicate_pages_share_content_triples(ray_session, pages_dir):
    """i%20==19 pages duplicate page i-1's body: dedup-relevant fixture."""
    table = pq.read_table(os.path.join(pages_dir, "pages.parquet"))
    texts = table["text"].to_pylist()
    # drop the nav line and footer (urls/site differ) and compare bodies
    def body(t):
        return "\n".join(t.splitlines()[1:-1])
    assert body(texts[19]) == body(texts[18])
    assert body(texts[39]) == body(texts[38])


def test_preserve_on_update_carries_enrichment_forward(ray_session, pages_dir, tmp_path):
    """U2/U3/U6 semantics: edges with a preserved src prefix survive a
    rules-changed recompute (sparql_update.rb:30-78 preserve lists)."""
    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.stages.materialize import materialize_graph

    out_dir = str(tmp_path / "graph")
    run_kg_pipeline(pages_dir, out_dir, PipelineConfig())

    def read_edges():
        parts = [
            os.path.join(out_dir, d, "edges.parquet")
            for d in os.listdir(out_dir)
            if d.startswith("part=")
        ]
        return pq.read_table(parts[0]).schema, [
            r for p in parts for r in pq.read_table(p).to_pylist()
        ]

    # inject an enrichment edge by materializing an extended graph into the
    # same out_dir with a DIFFERENT ruleset hash (simulates the enrichment
    # stage having run)
    _, edges = read_edges()
    enrich_row = {
        "subj": edges[0]["subj"], "pred": "http://example.org/depiction",
        "obj": "http://img.example.org/1.jpg", "obj_kind": "uri",
        "lang": None, "src": "enrich:isbn:123",
    }
    extended = rd.from_items(edges + [enrich_row]).map_batches(
        lambda b: b.select(["subj", "pred", "obj", "obj_kind", "lang", "src"]),
        batch_format="pyarrow",
    )
    materialize_graph(
        extended, out_dir, ruleset_hash="with-enrichment",
        input_paths=[pages_dir], dedup=True,
    )
    _, edges2 = read_edges()
    assert any(e["src"] == "enrich:isbn:123" for e in edges2)

    # rules-changed recompute WITHOUT the enrichment stage: preserved
    # prefix carries the edge forward; without the prefix it would vanish
    manifest = run_kg_pipeline(
        pages_dir, out_dir, PipelineConfig(prefix="changed_"),
        preserve_src_prefixes=["enrich:"],
    )
    _, edges3 = read_edges()
    kept = [e for e in edges3 if e["src"] == "enrich:isbn:123"]
    assert len(kept) == 1
    assert kept[0]["obj"] == "http://img.example.org/1.jpg"
    assert manifest.ruleset_hash != "with-enrichment"


def test_token_index_matcher_matches_regex_alternation(pages_dir):
    """The large-dict token-index matcher must produce the SAME mention
    multiset as the regex-alternation path on the corpus."""
    from marc2rdf_ray.stages.link import EntityLinker, build_alias_dict

    aliases = build_alias_dict()
    rx = EntityLinker(aliases, token_index_threshold=10_000)  # alternation
    ti = EntityLinker(aliases)                           # token-index path
    assert rx.pattern is not None and ti.matcher is not None

    table = pq.read_table(os.path.join(pages_dir, "pages.parquet"))
    from marc2rdf_ray.stages.extract import extract_text

    checked = 0
    for html in table["html"].to_pylist():
        text = extract_text(html)
        a = sorted(m for m in (x.group(1) for x in rx.pattern.finditer(text)))
        b = sorted(ti.matcher.finditer_aliases(text))
        assert a == b
        checked += 1
    assert checked > 100


def test_choose_num_partitions_scales_with_input(ray_session):
    from marc2rdf_ray.stages.materialize import choose_num_partitions

    small = choose_num_partitions(1 << 20)            # 1 MiB input
    big = choose_num_partitions(100 << 30)            # 100 GiB input
    huge = choose_num_partitions(100 << 40)           # 100 TiB input
    assert small >= 16                                # parallelism floor
    assert big > small                                # scales with bytes
    # 100 GiB * 3x expansion / 128 MiB target = 2400 partitions
    assert 2000 <= big <= 3000
    assert huge <= 65536                              # bounded above


def test_partition_level_resume_after_crash(ray_session, pages_dir, tmp_path):
    """A failed run's finished partitions are skipped on re-run; missing
    ones are rebuilt; output is identical."""
    import time

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    out_dir = str(tmp_path / "graph")
    m1 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    parts = sorted(d for d in os.listdir(out_dir) if d.startswith("part="))
    assert all(os.path.exists(os.path.join(out_dir, d, "_sig")) for d in parts)

    def totals():
        return {
            d: pq.read_table(os.path.join(out_dir, d, "edges.parquet")).num_rows
            for d in parts
        }

    before = totals()
    # simulate a crash: manifest never written, one partition lost
    os.remove(os.path.join(out_dir, "_manifest.json"))
    import shutil

    shutil.rmtree(os.path.join(out_dir, parts[0]))
    kept_mtime = os.path.getmtime(os.path.join(out_dir, parts[1], "edges.parquet"))
    time.sleep(1.1)

    m2 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    assert m2.triple_count == m1.triple_count
    assert totals() == before
    # the surviving partition was NOT rewritten (resume skipped it)
    assert os.path.getmtime(
        os.path.join(out_dir, parts[1], "edges.parquet")
    ) == kept_mtime
    # the lost partition was rebuilt
    assert os.path.exists(os.path.join(out_dir, parts[0], "edges.parquet"))


def test_checkpoint_resume_skips_reextraction(
    ray_session, pages_dir, tmp_path, monkeypatch
):
    """After a crash (manifest lost, checkpoint intact+marked), the re-run
    reuses the raw checkpoint instead of re-extracting."""
    import shutil
    import time

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.stages.link import MENTIONS_PRED

    out_dir = str(tmp_path / "graph")
    m1 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    ckpt = os.path.join(out_dir, "_raw_triples")
    assert os.path.exists(ckpt + ".complete")
    files = [
        os.path.join(r, n) for r, _, ns in os.walk(ckpt) for n in ns
    ]
    mtimes = {f: os.path.getmtime(f) for f in files}

    os.remove(os.path.join(out_dir, "_manifest.json"))
    time.sleep(1.1)
    m2 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    assert m2.triple_count == m1.triple_count
    # checkpoint untouched -> extraction was skipped
    assert {f: os.path.getmtime(f) for f in files} == mtimes

    # manifest AND partitions gone: the certified sameAs staging is reused
    # too -- no closure job runs -- and the graph is rebuilt identically
    import marc2rdf_ray.pipelines.kg as kg

    before = _graph_bytes(out_dir)
    _drop_graph(out_dir)

    def no_closure(*a, **k):
        raise AssertionError("sameAs closure recomputed on a resume")

    with monkeypatch.context() as mp:
        mp.setattr(kg, "sameas_by_shared_key", no_closure)
        m2b = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    assert m2b.partition_counts == m1.partition_counts
    assert _graph_bytes(out_dir) == before
    assert {f: os.path.getmtime(f) for f in files} == mtimes

    # ``link`` is part of the run identity: a link=False run into the same
    # out_dir must neither short-circuit on the link=True manifest nor
    # reuse the link=True checkpoint
    def mentions(out):
        return sum(
            pq.read_table(
                os.path.join(out, d, "edges.parquet"), columns=["pred"]
            )["pred"].to_pylist().count(MENTIONS_PRED)
            for d in os.listdir(out)
            if d.startswith("part=")
        )

    fresh = run_kg_pipeline(
        pages_dir, str(tmp_path / "nolink"), PipelineConfig(), link=False
    )
    assert mentions(str(tmp_path / "nolink")) == 0 < mentions(out_dir)
    m3 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig(), link=False)
    assert m3.partition_counts == fresh.partition_counts
    assert m3.triple_count == fresh.triple_count < m1.triple_count
    assert mentions(out_dir) == 0
    # checkpoint-reuse path: manifest and partitions gone, the link=False
    # checkpoint intact -> a link=True run re-extracts
    os.remove(os.path.join(out_dir, "_manifest.json"))
    for d in os.listdir(out_dir):
        if d.startswith("part="):
            shutil.rmtree(os.path.join(out_dir, d))
    m4 = run_kg_pipeline(pages_dir, out_dir, PipelineConfig())
    assert m4.partition_counts == m1.partition_counts
    assert mentions(out_dir) > 0


def _drop_graph(out):
    """Simulate a crash before the manifest: graph partitions and manifest
    gone, checkpoints and staged sameAs left as they are."""
    import shutil

    os.remove(os.path.join(out, "_manifest.json"))
    for d in os.listdir(out):
        if d.startswith("part="):
            shutil.rmtree(os.path.join(out, d))


def _graph_bytes(out):
    import gzip

    return {
        d: gzip.open(os.path.join(out, d, "edges.nt.gz"), "rb").read()
        for d in sorted(os.listdir(out))
        if d.startswith("part=")
    }


def test_sameas_staging_recomputed_when_uncertified(
    ray_session, pages_dir, tmp_path, monkeypatch
):
    """The staged sameAs closure is reused only under the identity its
    marker certifies: a missing ``_sameas_triples.complete``, a
    re-extracted checkpoint, a ``link`` change or a ruleset change
    recomputes it."""
    import marc2rdf_ray.pipelines.kg as kg
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    calls = []
    real = kg.sameas_by_shared_key

    def counting(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(kg, "sameas_by_shared_key", counting)
    out = str(tmp_path / "graph")
    marker = os.path.join(out, "_sameas_triples.complete")
    m1 = run_kg_pipeline(pages_dir, out, PipelineConfig())
    assert len(calls) == 1 and os.path.exists(marker)
    ident = open(marker).read()
    assert ident == open(
        os.path.join(out, "_raw_triples.complete")
    ).read().split("\n")[0]
    graph = _graph_bytes(out)

    _drop_graph(out)
    run_kg_pipeline(pages_dir, out, PipelineConfig())
    assert len(calls) == 1  # certified: reused

    _drop_graph(out)
    os.remove(marker)
    m2 = run_kg_pipeline(pages_dir, out, PipelineConfig())
    assert len(calls) == 2 and open(marker).read() == ident
    assert m2.partition_counts == m1.partition_counts
    assert _graph_bytes(out) == graph

    # a re-extracted checkpoint (its marker lost) restages the closure
    _drop_graph(out)
    os.remove(os.path.join(out, "_raw_triples.complete"))
    run_kg_pipeline(pages_dir, out, PipelineConfig())
    assert len(calls) == 3 and open(marker).read() == ident

    run_kg_pipeline(pages_dir, out, PipelineConfig(), link=False)
    assert len(calls) == 4 and open(marker).read() != ident
    run_kg_pipeline(pages_dir, out, PipelineConfig(prefix="changed_"))
    assert len(calls) == 5


def test_dataset_input_matches_path_input(ray_session, pages_dir, tmp_path):
    """A pages Dataset (the CLI's --since/--limit input) builds the same
    graph as the same pages given as a path.  A Dataset has no input
    signature, so its checkpoint carries no completion marker."""
    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    def edges(out):
        rows = set()
        for d in os.listdir(out):
            if d.startswith("part="):
                t = pq.read_table(os.path.join(out, d, "edges.parquet"))
                rows |= set(zip(*[t[c].to_pylist() for c in t.column_names]))
        return rows

    by_path = str(tmp_path / "by_path")
    by_ds = str(tmp_path / "by_ds")
    m1 = run_kg_pipeline(pages_dir, by_path, PipelineConfig())
    pages = rd.read_parquet(pages_dir, columns=["url", "html"])
    m2 = run_kg_pipeline(pages, by_ds, PipelineConfig())
    assert m2.partition_counts == m1.partition_counts
    assert edges(by_ds) == edges(by_path)
    assert not os.path.exists(os.path.join(by_ds, "_raw_triples.complete"))
    assert not os.path.exists(os.path.join(by_ds, "_sameas_triples.complete"))
    # a Dataset input keeps the unsplit checkpoint, whatever the pass count
    by_ds3 = str(tmp_path / "by_ds3")
    m3 = run_kg_pipeline(pages, by_ds3, PipelineConfig(materialize_shards=3))
    assert m3.partition_counts == m1.partition_counts
    assert not any(
        d.startswith("shard=")
        for pk in os.listdir(os.path.join(by_ds3, "_raw_triples"))
        for d in os.listdir(os.path.join(by_ds3, "_raw_triples", pk))
    )



def test_dataset_input_plan_ignores_file_count(
    ray_session, pages_dir, tmp_path, caplog
):
    """A pages Dataset is planned from the rows its checkpoint holds, not
    from the checkpoint's file bytes: the same pages in 1 block and in 50
    blocks (1 and 50 extraction tasks, so 1 and 50 checkpoint files per
    pk) give the same pages-equivalent bytes, P and S, within a quarter
    of the pages bytes the path input is planned from."""
    import logging
    import re

    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    table = pq.read_table(
        os.path.join(pages_dir, "pages.parquet"), columns=["url", "html"]
    )
    inputs = {
        "one": rd.from_arrow(table),
        "fifty": rd.from_arrow(
            [table.slice(i * 12 // 5, (i + 1) * 12 // 5 - i * 12 // 5)
             for i in range(50)]
        ),
    }
    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.pipelines.kg"):
        run_kg_pipeline(pages_dir, str(tmp_path / "path"), PipelineConfig())
        for name, ds in inputs.items():
            run_kg_pipeline(ds, str(tmp_path / name), PipelineConfig())
    assert [
        _files_under(os.path.join(tmp_path, name, "_raw_triples", "pk=0"))
        for name in inputs
    ] == [1, 50]
    plans = re.findall(
        r"kg: partitions=(\d+) shards=(\d+) from ([a-z0-9 ]+) bytes=(\d+)",
        caplog.text,
    )
    assert len(plans) == 3
    path_plan, one, fifty = plans
    assert one == fifty
    assert one[2] == "ckpt rows x 102"
    assert 0.75 < int(one[3]) / int(path_plan[3]) < 1.25


def test_flagship_datasets_run_without_op_reservation(
    ray_session, tmp_path, monkeypatch
):
    """Every Dataset the flagship and the window merge create runs without
    Ray's per-operator resource reservation; the caller's DataContext
    value is back after the call returns, and a Dataset the caller built
    before the call keeps its own context."""
    import pyarrow.parquet as _pq
    import ray.data as rd

    from marc2rdf_ray.pipelines.incremental import merge_window_into_graph
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.pages import synthesize_pages

    ctx = rd.DataContext.get_current()
    monkeypatch.setattr(ctx, "op_resource_reservation_enabled", True)
    seen = []
    read_parquet = rd.read_parquet

    def spy(*args, **kwargs):
        ds = read_parquet(*args, **kwargs)
        seen.append(ds.context.op_resource_reservation_enabled)
        return ds

    monkeypatch.setattr(rd, "read_parquet", spy)
    base, window = tmp_path / "base", tmp_path / "window"
    for d, start, n in ((base, 0, 60), (window, 60, 6)):
        d.mkdir()
        _pq.write_table(
            synthesize_pages(n, seed=42, start=start),
            os.path.join(d, "pages.parquet"),
        )
    before = read_parquet(str(base))
    out = str(tmp_path / "graph")

    run_kg_pipeline(str(base), out, PipelineConfig())
    assert seen and not any(seen)
    assert ctx.op_resource_reservation_enabled is True
    assert before.context.op_resource_reservation_enabled is True

    seen.clear()
    merge_window_into_graph(str(window), out, PipelineConfig())
    assert seen and not any(seen)
    assert ctx.op_resource_reservation_enabled is True


def test_op_reservation_restored_after_an_exception(
    ray_session, pages_dir, tmp_path, monkeypatch
):
    """A flagship run that raises inside the scope (here: in materialize,
    after the nested checkpoint and sameAs calls have returned) still
    restores the caller's value; nesting keeps the outer scope's value."""
    import ray.data as rd

    from marc2rdf_ray.pipelines import kg

    ctx = rd.DataContext.get_current()
    monkeypatch.setattr(ctx, "op_resource_reservation_enabled", True)
    inside = []

    def fail(*args, **kwargs):
        inside.append(ctx.op_resource_reservation_enabled)
        raise RuntimeError("materialize failed")

    monkeypatch.setattr(kg, "materialize_graph", fail)
    with pytest.raises(RuntimeError, match="materialize failed"):
        kg.run_kg_pipeline(pages_dir, str(tmp_path / "g"), PipelineConfig())
    assert inside == [False]
    assert ctx.op_resource_reservation_enabled is True

    @kg.without_op_reservation
    def outer():
        inner()
        return ctx.op_resource_reservation_enabled

    @kg.without_op_reservation
    def inner():
        assert ctx.op_resource_reservation_enabled is False

    assert outer() is False
    assert ctx.op_resource_reservation_enabled is True

def test_token_index_matcher_edge_cases():
    """Handcrafted equivalence cases: interior punctuation, overlapping
    aliases, longest-first wins, trailing-boundary rejection."""
    import re

    from marc2rdf_ray.stages.link import _TokenIndexMatcher

    aliases = ["J.R. Smith", "Smith", "Smithson", "Data Engine", "Data"]
    rx = re.compile(
        r"\b(" + "|".join(
            re.escape(a) for a in sorted(aliases, key=len, reverse=True)
        ) + r")\b"
    )
    ti = _TokenIndexMatcher(aliases)
    texts = [
        "J.R. Smith met Smithson near the Data Engine.",
        "Smithereens are not Smith; Data, however, is Data Engine fuel.",
        "data engine is lowercase; Data Engine matches; DataEngine does not",
        "Smith",
        "prefix-Smith suffix",  # '-' is a \b boundary: Smith matches
        "",
    ]
    for t in texts:
        want = [m.group(1) for m in rx.finditer(t)]
        got = list(ti.finditer_aliases(t))
        assert got == want, (t, got, want)


def test_token_matcher_nonword_final_alias_boundary():
    """ADVICE r2: an alias ending in a non-word char (e.g. 'Smith Jr.')
    only matches where \\b(alias)\\b would -- a word char must FOLLOW."""
    import re

    from marc2rdf_ray.stages.link import _TokenIndexMatcher

    aliases = ["Smith Jr.", "Smith"]
    m = _TokenIndexMatcher(aliases)
    rx = re.compile(
        r"\b(" + "|".join(re.escape(a) for a in
                          sorted(aliases, key=len, reverse=True)) + r")\b"
    )
    texts = [
        "met Smith Jr.x today",       # \b after '.' holds before a word char
        "met Smith Jr. today",        # no \b after '.' -> falls back to Smith
        "met Smith Jr.",              # end-of-text after '.' -> Smith only
        "Smith Jr.and Smith Jr. ok",  # one of each
    ]
    for text in texts:
        want = sorted(x.group(1) for x in rx.finditer(text))
        got = sorted(m.finditer_aliases(text))
        assert got == want, (text, got, want)


def test_preserve_survives_crash_between_delete_and_write(
    ray_session, pages_dir, tmp_path
):
    """ADVICE r2: preserved edges are staged durably (out_dir/_preserved)
    BEFORE old partitions are deleted; a retry whose partitions were
    destroyed mid-write recovers them from the sidecar."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.stages.materialize import materialize_graph

    out_dir = str(tmp_path / "graph")
    run_kg_pipeline(pages_dir, out_dir, PipelineConfig())

    # simulate a preserve run that crashed after staging: a sidecar exists,
    # and every old partition is already gone (worst case)
    sidecar = os.path.join(out_dir, "_preserved")
    edge = pa.table(
        {
            "subj": ["http://ex.org/doc/1"],
            "pred": ["http://example.org/depiction"],
            "obj": ["http://img.example.org/1.jpg"],
            "obj_kind": ["uri"],
            "lang": pa.array([None], pa.string()),
            "src": ["enrich:isbn:999"],
        }
    )
    os.makedirs(sidecar)
    pq.write_table(edge, os.path.join(sidecar, "part-0.parquet"))
    # the staging marker is written LAST by a real run; it certifies the
    # sidecar as the authoritative preserved snapshot FOR THIS RUN -- the
    # stamp carries (inputs, rules, prefixes) so a stale sidecar from a
    # different run is restaged instead of resurrected (ADVICE r3)
    from marc2rdf_ray.state.manifest import input_signature, list_input_files

    stamp = f"{input_signature(list_input_files(pages_dir))}:retry:p=enrich:"
    with open(os.path.join(sidecar, "_staged"), "w") as f:
        f.write(stamp)
    for d in list(os.listdir(out_dir)):
        if d.startswith("part="):
            shutil.rmtree(os.path.join(out_dir, d))

    fresh = rd.from_arrow(edge).map_batches(  # stand-in for new triples
        lambda b: b.set_column(
            0, "subj", pa.array(["http://ex.org/doc/2"], pa.string())
        ).set_column(5, "src", pa.array(["page:2"], pa.string())),
        batch_format="pyarrow",
    )
    materialize_graph(
        fresh, out_dir, ruleset_hash="retry",
        input_paths=[pages_dir], dedup=True,
        preserve_src_prefixes=["enrich:"],
    )
    rows = []
    for d in os.listdir(out_dir):
        if d.startswith("part="):
            rows += pq.read_table(
                os.path.join(out_dir, d, "edges.parquet")
            ).to_pylist()
    kept = [r for r in rows if r["src"] == "enrich:isbn:999"]
    assert len(kept) == 1  # recovered from the sidecar, not the partitions
    assert any(r["src"] == "page:2" for r in rows)
    assert not os.path.isdir(sidecar)  # cleaned up after a complete run


def test_stale_sidecar_from_other_run_is_restaged(ray_session, tmp_path):
    """ADVICE r3: a leftover _preserved sidecar whose stamp does not match
    the current run (crash between write_manifest and the final cleanup,
    then inputs changed) must be RESTAGED from the now-current partitions
    -- not resurrected, which would drop enrichment edges written since."""
    import pyarrow as pa
    import ray.data as rd

    from marc2rdf_ray.stages.materialize import materialize_graph

    in_dir = tmp_path / "in"
    in_dir.mkdir()
    pq.write_table(
        pa.table({"x": pa.array([1], pa.int64())}), in_dir / "x.parquet"
    )
    out_dir = str(tmp_path / "graph")

    def edge_tab(subj, obj, src):
        return pa.table(
            {
                "subj": pa.array([subj], pa.string()),
                "pred": pa.array(["http://example.org/depiction"], pa.string()),
                "obj": pa.array([obj], pa.string()),
                "obj_kind": pa.array(["uri"], pa.string()),
                "lang": pa.array([None], pa.string()),
                "src": pa.array([src], pa.string()),
            }
        )

    # run 1: current partitions hold an enrichment edge worth preserving
    current = rd.from_arrow(
        pa.concat_tables(
            [
                edge_tab("http://ex.org/doc/1", "http://o/1", "page:1"),
                edge_tab("http://ex.org/doc/1", "http://o/2", "enrich:current"),
            ]
        )
    )
    materialize_graph(
        current, out_dir, ruleset_hash="v1",
        input_paths=[str(in_dir)], dedup=True,
    )

    # plant a STALE sidecar from some other (crashed) run
    sidecar = os.path.join(out_dir, "_preserved")
    os.makedirs(sidecar)
    pq.write_table(
        edge_tab("http://ex.org/doc/9", "http://o/9", "enrich:stale"),
        os.path.join(sidecar, "part-0.parquet"),
    )
    with open(os.path.join(sidecar, "_staged"), "w") as f:
        f.write("some-other-run-stamp")

    # run 2 (changed rules): must restage from the CURRENT partitions
    fresh = rd.from_arrow(
        edge_tab("http://ex.org/doc/2", "http://o/3", "page:2")
    )
    materialize_graph(
        fresh, out_dir, ruleset_hash="v2",
        input_paths=[str(in_dir)], dedup=True,
        preserve_src_prefixes=["enrich:"],
    )
    srcs = set()
    for d in os.listdir(out_dir):
        if d.startswith("part="):
            srcs.update(
                pq.read_table(
                    os.path.join(out_dir, d, "edges.parquet")
                )["src"].to_pylist()
            )
    assert "enrich:current" in srcs  # restaged from partitions
    assert "enrich:stale" not in srcs  # stale snapshot not resurrected
    assert "page:2" in srcs


def test_flagship_via_subtree_filesystem(ray_session, pages_dir, tmp_path):
    """VERDICT r2 #1: every sink/checkpoint/manifest write goes through
    pyarrow.fs -- a SubTreeFileSystem stands in for a remote root.  Plain
    open()/os.* against the subtree-relative path would either error or
    litter CWD; both are asserted against."""
    import gzip

    from pyarrow import fs as pafs

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    root = tmp_path / "remote_root"
    root.mkdir()
    subfs = pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem())

    m1 = run_kg_pipeline(pages_dir, "graph", PipelineConfig(), filesystem=subfs)
    assert m1.triple_count > 0
    gdir = root / "graph"
    assert (gdir / "_manifest.json").is_file()
    assert not os.path.exists("graph")  # nothing leaked to a local path
    parts = sorted(d for d in os.listdir(gdir) if d.startswith("part="))
    assert parts
    for d in parts:
        assert (gdir / d / "edges.parquet").is_file()
        assert (gdir / d / "_sig").is_file()
        with gzip.open(gdir / d / "edges.nt.gz") as f:  # valid single-gzip
            line = f.readline()
            assert line.startswith(b"<") and line.rstrip().endswith(b".")
    # the extraction checkpoint + marker also live under the remote root
    assert (gdir / "_raw_triples.complete").is_file()

    # resume short-circuit through the injected filesystem
    m2 = run_kg_pipeline(pages_dir, "graph", PipelineConfig(), filesystem=subfs)
    assert m2.partition_counts == m1.partition_counts


def test_preserve_on_update_via_subtree_filesystem(
    ray_session, pages_dir, tmp_path
):
    """Preserve-on-update (sidecar staging + carry-forward) must work
    against an injected FileSystem end-to-end."""
    import pyarrow as pa
    import ray.data as rd
    from pyarrow import fs as pafs

    from marc2rdf_ray.stages.materialize import materialize_graph

    root = tmp_path / "bucket"
    root.mkdir()
    subfs = pafs.SubTreeFileSystem(str(root), pafs.LocalFileSystem())

    def edges_tab(rows):
        return pa.table(
            {
                "subj": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array(["http://example.org/p"] * len(rows),
                                 pa.string()),
                "obj": pa.array(["o"] * len(rows), pa.string()),
                "obj_kind": pa.array(["literal"] * len(rows), pa.string()),
                "lang": pa.array([None] * len(rows), pa.string()),
                "src": pa.array([r[1] for r in rows], pa.string()),
            }
        )

    base = rd.from_arrow(
        edges_tab([("http://ex/1", "page:1"), ("http://ex/2", "enrich:x")])
    )
    materialize_graph(base, "g", ruleset_hash="r1",
                      input_paths=[pages_dir], dedup=True, filesystem=subfs)

    fresh = rd.from_arrow(edges_tab([("http://ex/3", "page:3")]))
    materialize_graph(fresh, "g", ruleset_hash="r2",
                      input_paths=[pages_dir], dedup=True,
                      preserve_src_prefixes=["enrich:"], filesystem=subfs)
    rows = []
    gdir = root / "g"
    for d in os.listdir(gdir):
        if d.startswith("part="):
            rows += pq.read_table(str(gdir / d / "edges.parquet")).to_pylist()
    srcs = {r["src"] for r in rows}
    assert "enrich:x" in srcs          # carried forward
    assert "page:3" in srcs            # new content present
    assert "page:1" not in srcs        # non-preserved old edge replaced
    assert not (gdir / "_preserved").exists()  # sidecar cleaned up


def test_aho_corasick_parity_with_regex_alternation():
    """VERDICT r2 #9: the AC backend must reproduce the \\b-alternation
    match stream exactly, including non-word-initial/final aliases the
    token index rejects, overlaps, and longest-at-start preference."""
    import re

    from marc2rdf_ray.stages.link import _AhoCorasickMatcher

    aliases = [".NET", "#tag", "Smith Jr.", "Smith", "Jane Smith",
               "NET", "C", "tag"]
    ac = _AhoCorasickMatcher(aliases)
    rx = re.compile(
        r"\b(" + "|".join(re.escape(a) for a in
                          sorted(aliases, key=len, reverse=True)) + r")\b"
    )
    texts = [
        "x.NET is not .NET alone",      # \b before '.' needs a word char
        "met Jane Smith and Smith Jr.x then Smith Jr. left",
        "a#tag b #tagx c#tag.",
        "C and NET and x.NETy",
        "Smith Smith Jr.Smith",
        "", ".", "NET",
    ]
    for text in texts:
        want = [m.group(1) for m in rx.finditer(text)]
        got = list(ac.finditer_aliases(text))
        assert got == want, (text, got, want)


def test_entity_linker_backend_selection():
    from marc2rdf_ray.stages.link import (
        EntityLinker,
        _AhoCorasickMatcher,
        _TokenIndexMatcher,
    )

    word_initial = {"Alice": [("u:a", 1.0)], "Bob": [("u:b", 1.0)]}
    mixed = {"Alice": [("u:a", 1.0)], ".NET": [("u:n", 1.0)]}
    assert isinstance(EntityLinker(word_initial).matcher, _TokenIndexMatcher)
    assert isinstance(EntityLinker(mixed).matcher, _AhoCorasickMatcher)
    assert EntityLinker(word_initial, token_index_threshold=10).pattern
    assert isinstance(
        EntityLinker(word_initial, backend="ac").matcher, _AhoCorasickMatcher
    )
    # linking through the AC path produces mentions
    hits = EntityLinker(mixed).link_text("Alice ships on x.NET daily")
    assert {u for u, _ in hits} == {"u:a", "u:n"}


def test_sharded_materialize_byte_identical(ray_session, pages_dir, tmp_path):
    """shards>1 (the spill-cap loop) must produce byte-identical partition
    content and the same manifest as the unsharded run."""
    import gzip

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    base = str(tmp_path / "graph_1shard")
    sharded = str(tmp_path / "graph_3shards")
    m1 = run_kg_pipeline(pages_dir, base, PipelineConfig())
    m3 = run_kg_pipeline(
        pages_dir, sharded, PipelineConfig(materialize_shards=3)
    )
    assert m3.triple_count == m1.triple_count
    assert m3.partition_counts == m1.partition_counts
    parts = sorted(p for p in os.listdir(base) if p.startswith("part="))
    assert parts == sorted(
        p for p in os.listdir(sharded) if p.startswith("part=")
    )
    for p in parts:
        a = gzip.open(os.path.join(base, p, "edges.nt.gz"), "rb").read()
        b = gzip.open(os.path.join(sharded, p, "edges.nt.gz"), "rb").read()
        assert a == b, p

    # the checkpoint is laid out per pass, so each pass reads only its
    # own files; the marker records the layout it was written for
    ckpt = os.path.join(sharded, "_raw_triples")
    for pk in ("pk=0", "pk=1"):
        assert sorted(os.listdir(os.path.join(ckpt, pk))) == [
            "shard=0", "shard=1", "shard=2"
        ]
    assert open(ckpt + ".complete").read().split("\n")[1] == (
        f"layout={m3.num_partitions},3"
    )
    files = [os.path.join(r, n) for r, _, ns in os.walk(ckpt) for n in ns]
    mtimes = {f: os.path.getmtime(f) for f in files}

    # another pass plan over the same checkpoint (layout mismatch): read
    # whole and range-filtered, never re-extracted, still byte-identical
    _drop_graph(sharded)
    m2 = run_kg_pipeline(
        pages_dir, sharded, PipelineConfig(materialize_shards=2)
    )
    assert m2.partition_counts == m1.partition_counts
    assert _graph_bytes(sharded) == _graph_bytes(base)
    assert {f: os.path.getmtime(f) for f in files} == mtimes


def test_shard_of_matches_pass_ranges():
    """Checkpoint writer and pass loop share one partition -> pass map:
    the pass whose contiguous ``s*P//S`` range holds the partition."""
    import numpy as np
    import pyarrow as pa

    from marc2rdf_ray.stages.materialize import shard_bounds, shard_of

    for p_, s_ in ((16, 3), (16, 1), (17, 5), (8, 8), (512, 7)):
        b = shard_bounds(p_, s_)
        want = [
            next(s for s in range(s_) if b[s] <= p < b[s + 1])
            for p in range(p_)
        ]
        got = shard_of(pa.array(np.arange(p_), pa.int32()), p_, s_)
        assert got.to_pylist() == want, (p_, s_)
    # (p*S)//P would put p=5 in pass 0; the loop's ranges put it in pass 1
    assert shard_of(pa.array([5], pa.int32()), 16, 3).to_pylist() == [1]


def test_choose_shards_calibration(ray_session):
    """VERDICT r3 #2: auto spill-cap -- small inputs single-pass, inputs
    whose estimated exchange exceeds the store budget pick S>1, explicit
    partition caps honored."""
    import ray

    from marc2rdf_ray.stages.materialize import (
        _EXCHANGE_BUDGET_FRACTION,
        _EXCHANGE_EXPANSION,
        choose_shards,
    )

    store = ray.cluster_resources()["object_store_memory"]
    budget = store * _EXCHANGE_BUDGET_FRACTION
    assert choose_shards(0, 512) == 1
    assert choose_shards(1 << 20, 512) == 1
    big = int(budget * 3.5 / _EXCHANGE_EXPANSION)
    assert choose_shards(big, 512) == 4
    assert choose_shards(big, 2) == 2  # never exceeds num_partitions


def test_incremental_window_merge_equals_full_run(ray_session, tmp_path):
    """VERDICT r3 #6: merging a second harvest window into an existing
    graph must equal the single full run over both windows' pages, while
    rewriting ONLY the partitions whose content changed (mtime check on
    the untouched ones)."""
    import pyarrow.parquet as _pq

    from marc2rdf_ray.pipelines.incremental import merge_window_into_graph
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.pages import synthesize_pages

    w1 = tmp_path / "w1"
    w2 = tmp_path / "w2"
    full = tmp_path / "full"
    for d, start, n in ((w1, 0, 120), (w2, 120, 6), (full, 0, 126)):
        d.mkdir()
        _pq.write_table(
            synthesize_pages(n, seed=42, start=start),
            os.path.join(d, "pages.parquet"),
        )

    inc_out = str(tmp_path / "graph_inc")
    full_out = str(tmp_path / "graph_full")
    P = 64

    run_kg_pipeline(str(w1), inc_out, PipelineConfig(), num_partitions=P)
    before = {
        d: os.path.getmtime(os.path.join(inc_out, d, "edges.parquet"))
        for d in os.listdir(inc_out)
        if d.startswith("part=")
    }
    m = merge_window_into_graph(str(w2), inc_out, PipelineConfig())
    run_kg_pipeline(str(full), full_out, PipelineConfig(), num_partitions=P)

    def read_parts(out):
        parts = {}
        for d in os.listdir(out):
            if d.startswith("part="):
                t = _pq.read_table(os.path.join(out, d, "edges.parquet"))
                parts[d] = sorted(
                    map(tuple, zip(*[t[c].to_pylist() for c in t.column_names]))
                )
        return parts

    inc_parts = read_parts(inc_out)
    full_parts = read_parts(full_out)
    assert set(inc_parts) == set(full_parts)
    for d in full_parts:
        assert inc_parts[d] == full_parts[d], f"partition {d} diverged"
    assert m.triple_count == sum(len(v) for v in inc_parts.values())

    touched = {f"part={p:05d}" for p in m.extra["touched_partitions"]}
    assert touched and touched != set(before)  # some partitions untouched
    for d, t0 in before.items():
        if d not in touched and d in inc_parts:
            assert os.path.getmtime(
                os.path.join(inc_out, d, "edges.parquet")
            ) == t0, f"untouched partition {d} was rewritten"

    # idempotent re-merge of a committed window: manifest short-circuit
    mt = os.path.getmtime(os.path.join(inc_out, "_manifest.json"))
    m2 = merge_window_into_graph(str(w2), inc_out, PipelineConfig())
    assert m2.triple_count == m.triple_count
    assert os.path.getmtime(os.path.join(inc_out, "_manifest.json")) == mt


def test_sync_windows_daily_cycle(ray_session, tmp_path):
    """scheduler.rb daily-cycle analog: sync_windows folds each window
    dir exactly once (bootstrap + merges), equals the full run, resumes
    idempotently, and picks up late-arriving windows."""
    import pyarrow.parquet as _pq

    from marc2rdf_ray.pipelines.incremental import sync_windows
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.pages import synthesize_pages

    root = tmp_path / "windows"
    root.mkdir()
    spans = [(0, 100), (100, 5), (105, 5)]
    for w, (start, n) in enumerate(spans):
        d = root / f"w{w}"
        d.mkdir()
        _pq.write_table(
            synthesize_pages(n, seed=42, start=start),
            os.path.join(d, "pages.parquet"),
        )

    out = str(tmp_path / "graph")
    m = sync_windows(str(root), out, PipelineConfig())
    assert len(m.extra.get("window_sigs", {})) == 2  # two merged windows

    full_dir = tmp_path / "full"
    full_dir.mkdir()
    _pq.write_table(
        synthesize_pages(110, seed=42, start=0),
        os.path.join(full_dir, "pages.parquet"),
    )
    full_out = str(tmp_path / "graph_full")
    run_kg_pipeline(
        str(full_dir), full_out, PipelineConfig(),
        num_partitions=m.num_partitions,
    )

    def edge_set(out_dir):
        rows = set()
        for d in os.listdir(out_dir):
            if d.startswith("part="):
                t = _pq.read_table(os.path.join(out_dir, d, "edges.parquet"))
                rows |= set(
                    zip(*[t[c].to_pylist() for c in ("subj", "pred", "obj")])
                )
        return rows

    assert edge_set(out) == edge_set(full_out)
    assert m.triple_count == sum(m.partition_counts.values())

    # re-sync: no-op (state file lists all three)
    state = os.path.join(out, "_synced_windows.json")
    mt = os.path.getmtime(state)
    m2 = sync_windows(str(root), out, PipelineConfig())
    assert m2.triple_count == m.triple_count
    assert os.path.getmtime(state) == mt

    # a late-arriving window folds in on the next call
    d = root / "w3"
    d.mkdir()
    _pq.write_table(
        synthesize_pages(4, seed=42, start=110),
        os.path.join(d, "pages.parquet"),
    )
    m3 = sync_windows(str(root), out, PipelineConfig())
    assert m3.triple_count > m.triple_count
    assert json.load(open(state)) == ["w0", "w1", "w2", "w3"]


def test_merge_refuses_ruleset_change_and_missing_checkpoint(
    ray_session, tmp_path
):
    """ADVICE r4: a merge under a changed ruleset would mix rule versions
    across windows; a missing base raw checkpoint would silently drop
    base-derived sameAs edges.  Both must fail loud."""
    import shutil

    import pyarrow.parquet as _pq

    from marc2rdf_ray.pipelines.incremental import merge_window_into_graph
    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.pages import synthesize_pages

    w1 = tmp_path / "w1"
    w2 = tmp_path / "w2"
    for d, start, n in ((w1, 0, 60), (w2, 60, 6)):
        d.mkdir()
        _pq.write_table(
            synthesize_pages(n, seed=42, start=start),
            os.path.join(d, "pages.parquet"),
        )
    out = str(tmp_path / "graph")
    run_kg_pipeline(str(w1), out, PipelineConfig(), num_partitions=16)

    with pytest.raises(ValueError, match="ruleset"):
        merge_window_into_graph(
            str(w2), out, PipelineConfig(prefix="changed_")
        )
    # the base was built with link=True: a link=False window would leave
    # entity mentions in only some windows
    with pytest.raises(ValueError, match="link=False"):
        merge_window_into_graph(str(w2), out, PipelineConfig(), link=False)

    shutil.rmtree(os.path.join(out, "_raw_triples"))
    with pytest.raises(ValueError, match="_raw_triples"):
        merge_window_into_graph(str(w2), out, PipelineConfig())


def test_watch_windows_marker_gating(ray_session, tmp_path):
    """watch_windows folds only SEALED drops (``_complete`` written last
    by the producer): an unsealed window is skipped that cycle, then
    folds once sealed -- the double-count hazard of merging a
    still-growing drop never arises."""
    import pyarrow.parquet as _pq

    from marc2rdf_ray.pipelines.incremental import watch_windows
    from marc2rdf_ray.sources.pages import synthesize_pages

    root = tmp_path / "windows"
    root.mkdir()

    def drop(name, start, n, sealed):
        d = root / name
        d.mkdir()
        _pq.write_table(
            synthesize_pages(n, seed=42, start=start),
            os.path.join(d, "pages.parquet"),
        )
        if sealed:
            (d / "_complete").touch()
        return d

    drop("w0", 0, 60, sealed=True)
    w1 = drop("w1", 60, 6, sealed=False)  # producer still writing

    out = str(tmp_path / "graph")
    seen = []

    def on_cycle(i, manifest):
        seen.append(manifest.triple_count if manifest else 0)
        if i == 1:
            # producer finishes + seals between cycles
            (w1 / "_complete").touch()

    m = watch_windows(
        str(root), out, PipelineConfig(),
        poll_secs=0.0, max_cycles=2, on_cycle=on_cycle,
    )
    state = json.load(open(os.path.join(out, "_synced_windows.json")))
    assert state == ["w0", "w1"]
    assert len(seen) == 2 and seen[1] > seen[0]  # w1 folded on cycle 2
    assert len(m.extra.get("window_sigs", {})) == 1  # one merged window


def test_sync_windows_require_marker_empty_root(ray_session, tmp_path):
    """With require_marker, an empty / all-unsealed root is a no-op
    returning None, not an error -- the watcher polls again later."""
    from marc2rdf_ray.pipelines.incremental import sync_windows

    root = tmp_path / "w"
    root.mkdir()
    out = str(tmp_path / "g")
    assert sync_windows(
        str(root), out, PipelineConfig(), require_marker=True
    ) is None


def test_triples_hook_user_script_replacement(ray_session, tmp_path):
    """SURVEY §2.10: the user triples hook is the declared replacement
    for the reference's per-record rule scripts.  It must (a) rewrite the
    stream before checkpoint/canonicalize/materialize, (b) require a
    version tag, (c) invalidate the manifest when the tag changes."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import pytest

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline
    from marc2rdf_ray.sources.pages import write_pages_dataset

    pages = str(tmp_path / "pages")
    write_pages_dataset(pages, 40, seed=3)

    def add_marker(b: pa.Table) -> pa.Table:
        extra = pa.table(
            {
                "subj": b["src"].slice(0, min(1, len(b))),
                "pred": pa.array(
                    ["http://example.org/hooked"] * min(1, len(b))
                ),
                "obj": pa.array(["yes"] * min(1, len(b))),
                "obj_kind": pa.array(["literal"] * min(1, len(b))),
                "lang": pa.array([None] * min(1, len(b)), pa.string()),
                "src": b["src"].slice(0, min(1, len(b))),
            }
        )
        return pa.concat_tables([b.select(extra.column_names), extra])

    with pytest.raises(ValueError, match="triples_hook_tag"):
        PipelineConfig(triples_hook=add_marker)

    out = str(tmp_path / "g")
    cfg = PipelineConfig(triples_hook=add_marker, triples_hook_tag="m-v1")
    m1 = run_kg_pipeline(pages, out, cfg)

    # hooked triples survive the full tail (dedup keeps them: distinct)
    found = 0
    for d in os.listdir(out):
        if d.startswith("part="):
            t = _pq.read_table(os.path.join(out, d, "edges.parquet"))
            found += len(
                t.filter(
                    pc.equal(t["pred"], "http://example.org/hooked")
                )
            )
    assert found > 0

    # same tag: manifest short-circuit; new tag: recompute (new identity)
    assert run_kg_pipeline(pages, out, cfg).triple_count == m1.triple_count
    cfg2 = PipelineConfig(triples_hook=add_marker, triples_hook_tag="m-v2")
    assert cfg2.ruleset_hash() != cfg.ruleset_hash()


def test_sameas_join_fallback_graph_identical(
    ray_session, pages_dir, tmp_path, plan_budgets, caplog
):
    """The flagship sameAs stage's distributed-join branch (canon side
    over the plan's broadcast budget) builds the same graph, byte for
    byte, as the broadcast branch every default run takes."""
    import hashlib
    import logging

    from marc2rdf_ray.pipelines.kg import run_kg_pipeline

    def digest(out):
        h = hashlib.sha256()
        for d, body in _graph_bytes(out).items():
            h.update(d.encode())
            h.update(body)
        return h.hexdigest()

    def sameas_paths():
        return [
            r.getMessage().rsplit("path=", 1)[1] for r in caplog.records
            if r.name == "marc2rdf_ray.plan"
            and "op=sameas_by_shared_key " in r.getMessage()
        ]

    with caplog.at_level(logging.INFO, logger="marc2rdf_ray.plan"):
        base = str(tmp_path / "broadcast")
        m1 = run_kg_pipeline(pages_dir, base, PipelineConfig())
        assert sameas_paths() == ["broadcast"]
        caplog.clear()
        plan_budgets(broadcast=0)
        joined = str(tmp_path / "join")
        m2 = run_kg_pipeline(pages_dir, joined, PipelineConfig())
        assert sameas_paths() == ["join"]
    assert m2.triple_count == m1.triple_count
    assert m2.partition_counts == m1.partition_counts
    assert digest(joined) == digest(base)
