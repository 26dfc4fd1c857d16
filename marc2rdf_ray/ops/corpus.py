"""Corpus-level operators a training-data pipeline runs before training:
vocabulary statistics, test-set decontamination, and per-group quota
sampling.  All three follow the engine's scale rules: per-batch partial
combine before any shuffle, broadcast small sides, deterministic
tie-breaks so a SQL oracle can replay them bit-for-bit.

No analog exists in the reference (it predates LLM data work); these
generalize its set-op / sampling surface (SURVEY.md §2.7 O7/O8) to the
documents table.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import plan

_TOKEN_RE = re.compile(r"\S+")


def top_ngrams(ds, *, n: int = 2, k: int = 20, text_col: str = "text"):
    """Global top-k whitespace-token n-grams -> Dataset (ngram, cnt),
    sorted (cnt desc, ngram asc), exactly k rows (fewer if the corpus has
    fewer distinct n-grams).

    Scale shape: each batch counts its n-grams locally (the combiner --
    shuffle volume is O(distinct n-grams per batch), never O(tokens)),
    one groupby-sum merges the partials, and the top-k is a distributed
    sort + limit -- no driver materialization of the vocabulary.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in b[text_col].to_pylist():
            toks = _TOKEN_RE.findall(t or "")
            counts.update(
                " ".join(toks[i: i + n]) for i in range(len(toks) - n + 1)
            )
        return pa.table(
            {
                "ngram": pa.array(list(counts.keys()), pa.string()),
                "cnt": pa.array(list(counts.values()), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("ngram")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(key=["cnt", "ngram"], descending=[True, False])
        .limit(k)
    )


def decontaminate(ds, blocked_spans: list[str], *, text_col: str = "text"):
    """Drop every document whose text CONTAINS any blocked span -- test-set
    decontamination by literal overlap.

    The blocklist is the broadcast small side (typical: a few thousand
    eval-set spans); per batch the filter is one vectorized
    ``match_substring`` pass per span (C speed), OR-ed into a single keep
    mask.  Scale path for million-span blocklists (documented, not needed
    here): hash fixed-width token windows on both sides and anti-join on
    the window hash -- composes from ops/dedup.py's shingle machinery.
    """
    spans = [s for s in blocked_spans if s]

    def keep(b: pa.Table) -> pa.Table:
        if not spans or len(b) == 0:
            return b
        col = b[text_col]
        hit = None
        for s in spans:
            m = pc.match_substring(col, s)
            hit = m if hit is None else pc.or_(hit, m)
        return b.filter(pc.invert(pc.fill_null(hit, False)))

    return ds.map_batches(keep, batch_format="pyarrow")


def per_group_quota_sample(
    ds, *, group_col: str = "lang", id_col: str = "doc_id", quota: int = 10
):
    """Deterministic per-group quota sample: within each group keep the
    first ``quota`` rows ordered by (md5(id), id) -- the per-stratum analog
    of the deterministic hash sample (entry_queries
    ``docs_sample_deterministic``).

    Scale shape: top-``quota`` is associative, so each batch reduces to at
    most ``quota`` rows PER GROUP before the shuffle; the final per-group
    selection then sees O(quota x #batches) rows per group, never the
    group's full population.  Per-row md5 is the documented
    SQL-replayability tradeoff (the columnar functions/hashing path is the
    at-scale swap, exactly as in docs_sample_deterministic).
    """

    def ranked(b: pa.Table, cap: int) -> pa.Table:
        ids = b[id_col].to_pylist()
        groups = b[group_col].to_pylist()
        hs = [hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        order = sorted(range(len(ids)), key=lambda j: (groups[j], hs[j], ids[j]))
        keep_idx, run_g, run_n = [], object(), 0
        for j in order:
            if groups[j] != run_g:
                run_g, run_n = groups[j], 0
            if run_n < cap:
                keep_idx.append(j)
                run_n += 1
        idx = pa.array(np.asarray(sorted(keep_idx), np.int64))
        return pa.table(
            {
                group_col: pc.take(b[group_col], idx),
                id_col: pc.take(b[id_col], idx),
            }
        )

    partials = ds.map_batches(
        lambda b: ranked(b, quota), batch_format="pyarrow"
    )
    return partials.groupby(group_col).map_groups(
        lambda g: ranked(g, quota), batch_format="pyarrow"
    )


def pack_streaming(
    ds,
    budget: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 64,
):
    """Streaming sequence packing (GPT-style): concatenate every doc's
    whitespace-token stream in ``id_col`` order and cut a training
    sequence every ``budget`` tokens.  Returns a Dataset of
    ``(id, n_tokens, start_offset, pack_id)`` where ``start_offset`` is
    the number of tokens before the doc in the global stream and
    ``pack_id = start_offset // budget`` is the sequence its first token
    lands in.

    A global prefix sum, distributed as two phases: (1) per-batch token
    counts collapse into per-id-range-bucket partials (``n_buckets`` rows
    per batch -- the combiner), a tiny groupby-sum brings ``n_buckets``
    rows to the driver, which computes exclusive bucket offsets (O(K)
    driver state, never O(rows)); (2) ONE groupby-shuffle on the bucket
    key, each task sorts its bucket by id and adds local exclusive cumsum
    to the bucket offset.  Token counting is one vectorized
    ``count_substring_regex`` pass per phase (recomputed rather than
    shuffled -- counts are cheaper to redo than to ship with the text).

    Partitioning assumption (custom-operator rule): one id-range bucket's
    rows fit one task; buckets are contiguous id ranges so the prefix
    composes.
    """
    from ray.data.aggregate import Sum

    max_id = int(ds.max(id_col))
    width = max(1, (max_id + n_buckets) // n_buckets)

    def counted(b: pa.Table) -> pa.Table:
        n = pc.fill_null(
            pc.count_substring_regex(
                pc.fill_null(b[text_col], ""), r"\S+"
            ),
            0,
        )
        ids = b[id_col]
        return pa.table(
            {
                "id": pc.cast(ids, pa.int64()),
                "bucket": pc.cast(
                    pc.floor(pc.divide(pc.cast(ids, pa.float64()), width)),
                    pa.int64(),
                ),
                "n_tokens": pc.cast(n, pa.int64()),
            }
        )

    counts = ds.map_batches(counted, batch_format="pyarrow")

    def partial(b: pa.Table) -> pa.Table:
        g = (
            b.select(["bucket", "n_tokens"])
            .group_by("bucket", use_threads=False)
            .aggregate([("n_tokens", "sum")])
        )
        return g.rename_columns(["bucket", "cnt"])

    tiny = (
        counts.map_batches(partial, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    offsets, run = {}, 0
    for row in sorted(tiny, key=lambda r: r["bucket"]):
        offsets[int(row["bucket"])] = run
        run += int(row["cnt"])

    def assign(group: pa.Table) -> pa.Table:
        ids = group["id"].to_numpy(zero_copy_only=False)
        cnt = group["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        ids, cnt = ids[order], cnt[order]
        excl = np.concatenate(([0], np.cumsum(cnt)[:-1])) + offsets[
            int(group["bucket"][0].as_py())
        ]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(cnt, pa.int64()),
                "start_offset": pa.array(excl, pa.int64()),
                "pack_id": pa.array(excl // budget, pa.int64()),
            }
        )

    return counts.groupby("bucket").map_groups(
        assign, batch_format="pyarrow"
    )


def chunk_batch(
    b: pa.Table, width: int, *, id_col: str = "doc_id",
    text_col: str = "text",
) -> pa.Table:
    """Per-batch kernel of :func:`chunk_text` (module-level so the
    hypothesis invariants test it without a Ray session): one
    ``utf8_slice_codeunits`` call PER CHUNK INDEX over the shrinking mask
    of docs long enough to reach it -- the inner loop runs
    ``ceil(max_len/width)`` times per batch regardless of row count."""
    txt = pc.fill_null(b[text_col], "")
    nchars = pc.utf8_length(txt)
    max_len = pc.max(nchars).as_py() or 0
    ids = b[id_col]
    parts = []
    for k in range((max_len + width - 1) // width):
        mask = pc.greater(nchars, k * width)
        sub_txt = pc.utf8_slice_codeunits(
            txt.combine_chunks() if isinstance(txt, pa.ChunkedArray) else txt,
            k * width,
            (k + 1) * width,
        )
        t = pa.table(
            {
                id_col: ids,
                "chunk_id": pa.array(
                    np.full(len(b), k, np.int64), pa.int64()
                ),
                "chunk": sub_txt,
            }
        ).filter(mask)
        parts.append(t)
    if not parts:
        return pa.table(
            {
                id_col: pa.array([], ids.type),
                "chunk_id": pa.array([], pa.int64()),
                "chunk": pa.array([], pa.string()),
            }
        )
    return pa.concat_tables(parts)


def chunk_text(
    ds,
    width: int,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Split every document into fixed-``width`` codepoint chunks -- the
    context-window prep step (rows out: ``(id, chunk_id, chunk)``; docs
    with empty/null text emit no rows).

    Stateless flat-map over :func:`chunk_batch`.  Arrow slices on
    codepoints, matching SQL ``substr`` (parity pinned by the
    ``docs_chunked`` oracle).  No shuffle; output row count is
    data-dependent but bounded by ``total_chars/width + rows`` per batch.
    """
    return ds.map_batches(
        lambda b: chunk_batch(b, width, id_col=id_col, text_col=text_col),
        batch_format="pyarrow",
    )


def tfidf_top_terms(
    ds,
    *,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Per-document top-``k`` whitespace terms by tf-idf -> Dataset of
    ``(id, term, tf, score_q)`` with ``score_q = floor(tf * ln(N/df) *
    1e4 + 0.5)`` (quantized so the SQL oracle replays the float compare
    bit-for-bit); ties at the cut broken by term ascending.

    Scale shape: document frequency is a per-batch distinct-term partial
    (the combiner -- shuffle volume O(distinct terms per batch)) merged by
    ONE groupby-sum into a vocab-sized table.  When the plan broadcasts
    that table it is ``ray.put`` ONCE and every scoring task
    reads it zero-copy (an actor pool builds the term->idf dict once per
    actor, not per batch); scoring then happens inside the doc's own
    batch -- no second shuffle.  Vocabularies over budget fall back to the
    distributed path: a (doc, term, tf) dataset joined to df on term, then
    one groupby(doc) top-k.
    """
    import math

    import ray
    from ray.data.aggregate import Sum

    n_docs = ds.count()

    def df_partial(b: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in b[text_col].to_pylist():
            counts.update(set(_TOKEN_RE.findall(t or "")))
        return pa.table(
            {
                "term": pa.array(list(counts.keys()), pa.string()),
                "df": pa.array(list(counts.values()), pa.int64()),
            }
        )

    df_ds = (
        ds.map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .materialize()
    )

    def top_rows(doc_ids, texts, lnidf):
        from collections import Counter

        ids_o, term_o, tf_o, sc_o = [], [], [], []
        for i, t in zip(doc_ids, texts):
            tf = Counter(_TOKEN_RE.findall(t or ""))
            scored = sorted(
                (
                    (-int(math.floor(c * lnidf(w) * 10000 + 0.5)), w, c)
                    for w, c in tf.items()
                ),
            )[:k]
            for neg, w, c in scored:
                ids_o.append(i)
                term_o.append(w)
                tf_o.append(c)
                sc_o.append(-neg)
        return pa.table(
            {
                id_col: pa.array(ids_o, pa.int64()),
                "term": pa.array(term_o, pa.string()),
                "tf": pa.array(tf_o, pa.int64()),
                "score_q": pa.array(sc_o, pa.int64()),
            }
        )

    df_tab, df_ds = plan.small_side("tfidf_top_terms", df_ds)
    if df_tab is not None:
        df_ref = ray.put(df_tab)

        class Score:
            def __init__(self):
                t = ray.get(df_ref)
                dfv = t["df"].to_numpy(zero_copy_only=False)
                ln = np.log(n_docs * 1.0 / dfv)
                self.lnidf = dict(zip(t["term"].to_pylist(), ln.tolist()))

            def __call__(self, b: pa.Table) -> pa.Table:
                def lnidf(w, _d=self.lnidf):
                    # a term in the scoring pass but not the df pass means
                    # the input changed between the two reads of ds; fail
                    # with a diagnosable error, not a worker KeyError
                    # (ADVICE r3)
                    v = _d.get(w)
                    if v is None:
                        raise ValueError(
                            f"tfidf_top_terms: term {w!r} absent from the "
                            "document-frequency pass -- did the input "
                            "files change between the two reads of ds?"
                        )
                    return v

                return top_rows(
                    b[id_col].to_pylist(),
                    b[text_col].to_pylist(),
                    lnidf,
                )

        return ds.map_batches(
            Score, batch_format="pyarrow", concurrency=(1, 8)
        )

    # distributed fallback: tf rows joined to df on term, top-k per doc
    def tf_rows(b: pa.Table) -> pa.Table:
        from collections import Counter

        ids_o, term_o, tf_o = [], [], []
        for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            for w, c in Counter(_TOKEN_RE.findall(t or "")).items():
                ids_o.append(i)
                term_o.append(w)
                tf_o.append(c)
        return pa.table(
            {
                id_col: pa.array(ids_o, pa.int64()),
                "term": pa.array(term_o, pa.string()),
                "tf": pa.array(tf_o, pa.int64()),
            }
        )

    nparts = max(2, min(16, int(ray.cluster_resources().get("CPU", 8)) // 2))
    from .dedup import normalize_join_blocks

    joined = ds.map_batches(tf_rows, batch_format="pyarrow").join(
        normalize_join_blocks(df_ds, nparts),
        join_type="inner", num_partitions=nparts, on=("term",)
    )

    def group_topk(g: pa.Table) -> pa.Table:
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = g["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        sc = np.floor(tf * np.log(n_docs * 1.0 / dfv) * 10000 + 0.5).astype(
            np.int64
        )
        terms = g["term"].to_pylist()
        order = sorted(range(len(sc)), key=lambda j: (-sc[j], terms[j]))[:k]
        idx = pa.array(np.asarray(order, np.int64))
        return pa.table(
            {
                id_col: pc.take(g[id_col], idx),
                "term": pc.take(g["term"], idx),
                "tf": pc.take(g["tf"], idx),
                "score_q": pc.take(pa.array(sc), idx),
            }
        )

    return joined.groupby(id_col).map_groups(
        group_topk, batch_format="pyarrow"
    )


def hash_split(
    ds,
    fractions: list,
    *,
    id_col: str = "doc_id",
):
    """Deterministic train/val/test assignment: ``md5(id) mod 2^32`` falls
    into cumulative ``(label, fraction)`` ranges (fractions must sum to
    <= 1; the remainder gets the LAST label).  Like
    :func:`weighted_sample`, membership is a pure function of the id --
    retries, resumed runs, other engines and the SQL oracle assign the
    identical split, and tightening a fraction moves a prefix-stable
    subset between splits.  Stateless map, no shuffle.  Per-row md5 is the
    documented SQL-replayability tradeoff (functions/hashing is the
    columnar at-scale swap).
    """
    bounds, labels, acc = [], [], 0
    for label, frac in fractions:
        acc += float(frac)
        bounds.append(min(1 << 32, int(acc * (1 << 32))))
        labels.append(label)
    bounds[-1] = 1 << 32  # remainder -> last label
    np_bounds = np.asarray(bounds, np.int64)

    def assign(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        idx = np.searchsorted(np_bounds, hv, side="right")
        lab = pa.array([labels[j] for j in idx], pa.string())
        return b.append_column("split", lab)

    return ds.map_batches(assign, batch_format="pyarrow")


def redact(
    ds,
    patterns: list,
    *,
    text_col: str = "text",
    out_col: str = "text",
):
    """Scrub PII-shaped spans: apply ``(regex, replacement)`` pairs in
    order to ``text_col`` (emails, phone-ish digit runs, ...).  Stateless
    vectorized map -- one ``replace_substring_regex`` (RE2, C++) kernel
    call per pattern per batch, never a Python row loop.  Both Arrow and
    DuckDB run RE2, so the SQL oracle (chained ``regexp_replace(..,
    'g')``) replays byte-for-byte.
    """

    def scrub(b: pa.Table) -> pa.Table:
        col = pc.fill_null(b[text_col], "")
        for rx, repl in patterns:
            col = pc.replace_substring_regex(col, rx, repl)
        if out_col in b.column_names:
            b = b.drop_columns([out_col])
        return b.append_column(out_col, col)

    return ds.map_batches(scrub, batch_format="pyarrow")


def weighted_sample(
    ds,
    weights: dict,
    *,
    id_col: str = "doc_id",
    group_col: str = "lang",
    default_weight: float = 1.0,
):
    """Deterministic Bernoulli downsampling with per-group keep
    probabilities -- the corpus-MIXING primitive (upweight rare sources,
    downsample dominant ones): a row survives iff
    ``md5(id) mod 2^32 < floor(weight * 2^32)``.

    Membership is a pure function of (id, weight), so retries, resumed
    runs and the SQL oracle keep the identical rows -- and the sample
    composes with itself: tightening a weight yields a SUBSET of the
    previous sample (nested samples, the property A/B data ablations
    need).  Stateless vectorized filter; no shuffle.  Per-row md5 is the
    documented SQL-replayability tradeoff (functions/hashing is the
    columnar at-scale swap).
    """
    thresholds = {
        g: min(1 << 32, int(float(w) * (1 << 32))) for g, w in weights.items()
    }
    default_thr = min(1 << 32, int(float(default_weight) * (1 << 32)))

    def keep(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        groups = b[group_col].to_pylist()
        hv = np.fromiter(
            (
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                for i in ids
            ),
            np.int64,
            count=len(ids),
        )
        thr = np.fromiter(
            (thresholds.get(g, default_thr) for g in groups),
            np.int64,
            count=len(groups),
        )
        return b.filter(pa.array(hv < thr, pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


def remove_boilerplate_lines(
    ds,
    *,
    min_docs: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Line-level boilerplate removal (the C4/CCNet web-pipeline shape):
    drop every LINE that occurs in at least ``min_docs`` DISTINCT
    documents (nav bars, cookie banners, footers), keeping each doc's
    remaining lines in order.  Returns ``(id, text)`` with the scrubbed
    text (possibly empty -- the row is kept).

    Scale shape: phase 1 counts each line once per doc per batch (an
    Arrow group_by collapses within-doc repeats, then a per-line distinct
    partial -- shuffle volume O(distinct lines per batch), never
    O(lines)); ONE groupby-sum yields per-line doc counts; lines at or
    over the threshold are the (small -- boilerplate is by definition
    repetitive, so the hot set is tiny relative to the corpus) broadcast
    side the plan broadcasts.  Phase 2 is a stateless vectorized
    map: split -> flatten -> ``is_in`` mask -> rebuild the list offsets
    with a bincount -> one ``binary_join_element_wise``-free
    ``pc.binary_join`` per batch.  Over-budget hot sets fall back to a
    distributed join on the line (documented; composes from the
    incremental_dedup anti-join pattern).

    Determinism: line identity is the raw line string; the SQL oracle
    (``docs_boilerplate_removed``) replays the split/count/filter/
    reassemble chain exactly.
    """
    import ray
    from ray.data.aggregate import Sum

    def line_partial(b: pa.Table) -> pa.Table:
        col = pc.fill_null(b[text_col], "")
        split = pc.split_pattern(col, "\n")
        flat = pc.list_flatten(split)
        parents = pc.list_parent_indices(split)
        t = pa.table({"d": parents, "line": flat})
        # count each line once per doc: collapse within-doc repeats first
        per_doc = t.group_by(["d", "line"], use_threads=False).aggregate([])
        g = (
            per_doc.group_by(["line"], use_threads=False)
            .aggregate([("line", "count")])
            .rename_columns(["line", "cnt"])
        )
        return pa.table(
            {"line": g["line"], "cnt": pc.cast(g["cnt"], pa.int64())}
        )

    hot_ds = (
        ds.map_batches(line_partial, batch_format="pyarrow")
        .groupby("line")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .map_batches(
            lambda b: b.filter(
                pc.greater_equal(b["cnt"], min_docs)
            ).select(["line"]),
            batch_format="pyarrow",
        )
        .materialize()
    )
    tab, hot_ds = plan.small_side("remove_boilerplate_lines", hot_ds)
    if tab is None:
        raise ValueError(
            "boilerplate line set exceeds plan.BUDGETS['broadcast']; "
            "raise min_docs -- a hot set this large means the threshold is "
            "matching the corpus body, not boilerplate.  (The distributed "
            "alternative is an anti-join of exploded (doc, idx, line) rows "
            "on line, the incremental_dedup fallback shape.)"
        )
    hot = (
        tab["line"].combine_chunks() if tab.num_rows
        else pa.array([], pa.string())
    )
    hot_ref = ray.put(hot)

    def scrub(b: pa.Table) -> pa.Table:
        hot_lines = ray.get(hot_ref)
        col = pc.fill_null(b[text_col], "")
        split = pc.split_pattern(col, "\n")
        flat = pc.list_flatten(split)
        parents = pc.list_parent_indices(split).to_numpy(
            zero_copy_only=False
        )
        keep = pc.invert(
            pc.fill_null(pc.is_in(flat, value_set=hot_lines), False)
        )
        keep_np = keep.to_numpy(zero_copy_only=False)
        kept_flat = flat.filter(keep)
        counts = np.bincount(parents[keep_np], minlength=len(b))
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        rebuilt = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            kept_flat.combine_chunks()
            if isinstance(kept_flat, pa.ChunkedArray)
            else kept_flat,
        )
        return pa.table(
            {
                id_col: b[id_col],
                text_col: pc.binary_join(rebuilt, "\n"),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


def dedup_paragraphs_global(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = "\n",
    num_buckets: int | None = None,
):
    """Global paragraph-level exact dedup (the MassiveText/Gopher
    complement to document-level dedup): every distinct paragraph keeps
    exactly ONE copy corpus-wide -- its first occurrence in ``(id,
    position)`` order -- and all later occurrences die, whether in other
    docs or later in the same doc.  Docs reassemble from their surviving
    paragraphs in order; docs left with zero paragraphs drop out.
    Returns ``(id, text)``.

    Scale shape (two shuffles, no broadcast, no driver state):

    1. explode -- vectorized ``split_pattern``/``list_flatten``; each row
       becomes ``(id, para_idx, para)``.
    2. winner per distinct paragraph -- ONE coarse hash-bucket shuffle on
       the paragraph, then a single ``sort_by((para, id, idx))`` +
       first-of-run neighbor mask per bucket (the distinct_first pattern;
       no per-group Python, and the lexicographic sort IS the
       first-occurrence tie-break).
    3. reassemble -- ONE coarse hash-bucket shuffle on the id, then per
       bucket ``sort_by((id, idx))``, neighbor-change offsets ->
       ``ListArray`` -> one ``pc.binary_join``.

    Both exchanges carry each surviving paragraph exactly once; the
    pre-winner exchange carries each input paragraph once (the unavoidable
    minimum for a global-identity operator).
    """
    from ..functions.hashing import bucket_codes
    from .dedup import _coarse_buckets_default

    nb = num_buckets or _coarse_buckets_default()

    def explode(b: pa.Table) -> pa.Table:
        col = pc.fill_null(b[text_col], "")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        split = pc.split_pattern(col, sep)
        flat = pc.list_flatten(split)
        parents = pc.list_parent_indices(split)
        counts = pc.list_value_length(split).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        t = pa.table(
            {
                id_col: pc.take(b[id_col], parents),
                "para_idx": pa.array(within, pa.int64()),
                "para": flat,
            }
        )
        return t.append_column("_cb", bucket_codes(t["para"], nb))

    def winners(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("para", "ascending"),
                (id_col, "ascending"),
                ("para_idx", "ascending"),
            ]
        )
        keys = t["para"]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = keys.to_numpy(zero_copy_only=False)
        if not len(keys):
            return t.drop_columns(["_cb"])
        mask = np.concatenate(([True], keys[1:] != keys[:-1]))
        return t.filter(pa.array(mask)).drop_columns(["_cb"])

    def key_by_id(b: pa.Table) -> pa.Table:
        return b.append_column("_cb", bucket_codes(b[id_col], nb))

    def rebuild(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(id_col, "ascending"), ("para_idx", "ascending")]
        )
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        n = len(ids_np)
        if n == 0:
            return pa.table(
                {
                    id_col: pa.array([], t.schema.field(id_col).type),
                    text_col: pa.array([], pa.string()),
                }
            )
        change = np.nonzero(ids_np[1:] != ids_np[:-1])[0] + 1
        starts = np.concatenate(([0], change)).astype(np.int64)
        offsets = np.concatenate((starts, [n])).astype(np.int32)
        paras = t["para"]
        if isinstance(paras, pa.ChunkedArray):
            paras = paras.combine_chunks()
        rebuilt = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), paras
        )
        return pa.table(
            {
                id_col: ids.take(pa.array(starts, pa.int64())),
                text_col: pc.binary_join(rebuilt, sep),
            }
        )

    won = (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(winners, batch_format="pyarrow")
    )
    return (
        won.map_batches(key_by_id, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(rebuild, batch_format="pyarrow")
    )


def mixture_flatten_sample(
    ds,
    *,
    group_col: str = "source",
    id_col: str = "doc_id",
):
    """Temperature-flattened source mixture (the Pile/ROOTS reweighting
    shape at tau = 1/2, anchored at the rarest source): source ``s``
    keeps rows at rate ``sqrt(n_min / n_s)``, so over-represented sources
    are downsampled toward the mixture a tau=0.5 temperature would give
    while the rarest source keeps everything (Bernoulli sampling cannot
    upsample).  Composes ONE tiny groupby-count (driver state O(#sources),
    documented and bounded -- sources are registries, not data) with the
    deterministic ``weighted_sample`` filter, so membership inherits its
    properties: pure function of (id, weight), nested under tightening,
    stateless vectorized, no shuffle of the data side.

    tau is FIXED at 1/2: ``sqrt`` of an exact integer ratio is a
    correctly-rounded IEEE op in every engine, so the SQL oracle computes
    bit-identical thresholds -- a general ``pow(n, tau)`` would not
    (libm pow is not correctly rounded)."""
    import math

    import ray

    counts = ds.groupby(group_col).count().materialize()
    n_by: dict = {}
    for t in ray.get(counts.to_arrow_refs()):
        if t.num_rows == 0 or group_col not in t.column_names:
            continue
        cname = "count()" if "count()" in t.column_names else "count"
        for g, n in zip(t[group_col].to_pylist(), t[cname].to_pylist()):
            n_by[g] = n_by.get(g, 0) + int(n)
    if not n_by:
        return ds
    n_min = min(n_by.values())
    weights = {g: math.sqrt(n_min / n) for g, n in n_by.items()}
    return weighted_sample(
        ds, weights, id_col=id_col, group_col=group_col, default_weight=1.0
    )


def inverted_index(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_df: int = 1,
    num_buckets: int | None = None,
):
    """Build a term -> postings inverted index over whitespace tokens:
    one row per distinct term with ``df`` (document frequency) and
    ``postings`` (the doc ids containing the term, ascending,
    comma-joined -- a string so the layout hashes identically across
    engines).  The search-index analog of the reference's predicate index
    (its triple store indexes graph edges by predicate; sparql_update.rb)
    over the documents table.

    Scale shape: each batch emits DISTINCT (term, doc_id) pairs fully
    columnar (regex split -> flatten -> parent-index gather -> Arrow
    group_by; a doc's repeated tokens dedup BEFORE the exchange, so
    shuffle volume is per-doc vocabulary, not token count); ONE coarse
    hash shuffle on the term co-locates each term's pairs; per bucket the
    postings build is a single sort + grouped ``list``/``count``
    aggregation -- no Python per term.  Stopword-grade terms are the
    documented skew: a hot term's postings row is inherently O(df); cap
    it upstream with a stoplist / ``min_df`` band, or salt the term key
    and merge, as production index builders do.
    """
    from ..functions.hashing import bucket_codes

    nb = num_buckets or 64

    def pairs(b: pa.Table) -> pa.Table:
        text = b[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = pc.split_pattern_regex(pc.fill_null(text, ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        ids = pc.take(b[id_col], parent)
        t = pa.table({"term": flat, id_col: ids})
        # split on \s+ can emit empty edge tokens; \S+ never does
        t = t.filter(pc.not_equal(t["term"], ""))
        t = t.group_by(["term", id_col], use_threads=False).aggregate([])
        return t.append_column("_cb", bucket_codes(t["term"], nb))

    def build(group: pa.Table) -> pa.Table:
        t = group.sort_by([("term", "ascending"), (id_col, "ascending")])
        agg = t.group_by(["term"], use_threads=False).aggregate(
            [(id_col, "list"), (id_col, "count")]
        )
        posts = pc.binary_join(
            pc.cast(agg[f"{id_col}_list"], pa.list_(pa.string())), ","
        )
        out = pa.table(
            {
                "term": agg["term"],
                "df": pc.cast(agg[f"{id_col}_count"], pa.int64()),
                "postings": posts,
            }
        )
        if min_df > 1:
            out = out.filter(pc.greater_equal(out["df"], min_df))
        return out

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby("_cb")
        .map_groups(build, batch_format="pyarrow")
    )


def _window_hashes(text: str, width: int) -> list[str]:
    """16-hex-char md5 of every ``width``-token whitespace window (token
    windows joined by single space -- replayable as DuckDB
    ``substr(md5(array_to_string(t[i:i+w-1], ' ')), 1, 16)``)."""
    import hashlib

    toks = _TOKEN_RE.findall(text or "")
    if len(toks) < width:
        return []
    return [
        hashlib.md5(
            " ".join(toks[i: i + width]).encode("utf-8")
        ).hexdigest()[:16]
        for i in range(len(toks) - width + 1)
    ]


def decontaminate_hashed(
    ds,
    spans_ds,
    *,
    width: int = 6,
    id_col: str = "doc_id",
    text_col: str = "text",
    span_col: str = "s",
):
    """Window-hash decontamination -- the SCALE path promised in
    :func:`decontaminate`'s docstring for million-span blocklists: drop
    every document sharing at least one ``width``-token whitespace window
    with any blocked span.  The matching rule is token-window overlap
    (the standard n-gram decontamination criterion, e.g. the GPT-3
    appendix-C 13-gram rule -- public), NOT literal substring
    containment; a span shorter than ``width`` tokens contributes no
    windows and is logged as skipped.

    Scale shape: both sides reduce to md5 window hashes BEFORE any
    exchange -- the blocklist text itself never ships, only its distinct
    16-hex-char hash set; doc windows dedup within each batch.
    Membership detection and the final doc-id drop both go through the
    broadcast-or-join shape (``anti_join_filter``): one vectorized
    ``is_in`` per batch while the plan broadcasts the hash set, a
    distributed hash join above it.  Nothing ever materializes the
    corpus."""
    import logging

    import ray

    from .dedup import anti_join_filter, distinct_first

    def span_hashes(b: pa.Table) -> pa.Table:
        hs: set[str] = set()
        skipped = 0
        for s in b[span_col].to_pylist():
            w = _window_hashes(s, width)
            if not w and (s or "").strip():
                skipped += 1
            hs.update(w)
        if skipped:
            logging.getLogger(__name__).warning(
                "decontaminate_hashed: %d spans shorter than width=%d "
                "tokens contribute no windows", skipped, width,
            )
        return pa.table({"h": pa.array(sorted(hs), pa.string())})

    blocked = distinct_first(
        spans_ds.map_batches(span_hashes, batch_format="pyarrow"), "h"
    ).materialize()

    def doc_hashes(b: pa.Table) -> pa.Table:
        ids, hh = [], []
        for i, t in zip(
            b[id_col].to_pylist(), b[text_col].to_pylist()
        ):
            for h in set(_window_hashes(t, width)):
                ids.append(i)
                hh.append(h)
        return pa.table(
            {
                id_col: pa.array(ids, b[id_col].type),
                "h": pa.array(hh, pa.string()),
            }
        )

    pairs = ds.map_batches(doc_hashes, batch_format="pyarrow")

    tab, blocked = plan.small_side("decontaminate_hashed", blocked)
    if tab is not None:
        if not tab.num_rows:
            return ds
        ref = ray.put(tab["h"].combine_chunks())

        def hit_ids(b: pa.Table) -> pa.Table:
            hit = pc.is_in(b["h"], value_set=ray.get(ref))
            return b.filter(pc.fill_null(hit, False)).select([id_col])

        hits = pairs.map_batches(hit_ids, batch_format="pyarrow")
    else:
        marked = blocked.map_batches(
            lambda b: pa.table(
                {
                    "h": b["h"],
                    "_seen": pa.array(np.ones(len(b), np.int8), pa.int8()),
                }
            ),
            batch_format="pyarrow",
        )
        nparts = plan.join_partitions()
        from .dedup import normalize_join_blocks

        hits = pairs.join(
            normalize_join_blocks(marked, nparts),
            join_type="inner", num_partitions=nparts, on=("h",)
        ).map_batches(
            lambda b: b.select([id_col]), batch_format="pyarrow"
        )

    hits = distinct_first(hits, id_col)
    return anti_join_filter(ds, hits, id_col)


def bm25_topk(
    ds,
    query_terms: list[str],
    *,
    k: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """BM25 relevance ranking (Robertson/Sparck Jones, public; k1=1.2,
    b=0.75) of documents against a bag of query terms over whitespace
    tokens -- the retrieval scorer that pairs with
    :func:`inverted_index`.  Returns the top ``k`` (id, microbits) rows,
    score desc / id asc.

    Determinism contract (ops/lm.py's microbit trick): each (doc, term)
    contribution floors to integer MICRO-bits --
    ``floor(idf * tf*2.2 / (tf + 0.3 + 0.9*len*N/SUMLEN) * 1e6 + 0.5)``
    with ``idf = ln((N-df+0.5)/(df+0.5)+1)`` -- BEFORE summing, so
    per-doc scores are exact integers and no float summation order can
    diverge from the SQL oracle evaluating the same IEEE expression.

    Scale shape: pass 1 reduces to O(#batches) one-row partials (doc
    count, total token count, per-query-term df) -- the query is the
    broadcast small side by construction; pass 2 is stateless scoring
    emitting at most ``k`` candidate rows per batch; the final top-k is
    a distributed sort over those candidates only."""
    terms = list(query_terms)

    def stats_partial(b: pa.Table) -> pa.Table:
        texts = b[text_col].to_pylist()
        toks = [_TOKEN_RE.findall(t or "") for t in texts]
        df = [sum(1 for x in toks if term in x) for term in terms]
        return pa.table(
            {
                "nd": pa.array([len(texts)], pa.int64()),
                "sumlen": pa.array(
                    [sum(len(x) for x in toks)], pa.int64()
                ),
                "df": pa.array([df], pa.list_(pa.int64())),
            }
        )

    nd = 0
    sumlen = 0
    df = np.zeros(len(terms), np.int64)
    for r in ds.map_batches(stats_partial, batch_format="pyarrow").take_all():
        nd += int(r["nd"])
        sumlen += int(r["sumlen"])
        df += np.asarray(r["df"], np.int64)
    if nd == 0 or sumlen == 0:
        return ds.limit(0).map_batches(
            lambda b: pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "microbits": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    idf = np.log(
        (np.float64(nd) - df.astype(np.float64) + 0.5)
        / (df.astype(np.float64) + 0.5)
        + 1.0
    )

    def score(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        texts = b[text_col].to_pylist()
        toks = [_TOKEN_RE.findall(t or "") for t in texts]
        dl = np.array([len(x) for x in toks], np.int64)
        total = np.zeros(len(ids), np.int64)
        hit = np.zeros(len(ids), bool)
        for j, term in enumerate(terms):
            tf = np.array([x.count(term) for x in toks], np.int64)
            m = tf > 0
            if not m.any():
                continue
            hit |= m
            tff = tf[m].astype(np.float64)
            den = (
                tff
                + 0.3
                + 0.9 * dl[m].astype(np.float64) * np.float64(nd)
                / np.float64(sumlen)
            )
            c = idf[j] * (tff * 2.2) / den
            total[m] += np.floor(c * 1e6 + 0.5).astype(np.int64)
        t = pa.table(
            {
                id_col: pa.array(ids[hit], b[id_col].type),
                "microbits": pa.array(total[hit], pa.int64()),
            }
        )
        t = t.sort_by(
            [("microbits", "descending"), (id_col, "ascending")]
        )
        return t.slice(0, k)

    return (
        ds.map_batches(score, batch_format="pyarrow")
        .sort(key=["microbits", id_col], descending=[True, False])
        .limit(k)
    )


def dedup_duplicate_spans(
    ds,
    *,
    width: int = 6,
    min_count: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Cross-corpus exact duplicated-SPAN removal (the operator behind
    "Deduplicating Training Data Makes Language Models Better", Lee et
    al. 2021 -- public): every ``width``-token whitespace window whose
    corpus-wide occurrence count reaches ``min_count`` (across documents
    or repeated inside one) marks its tokens for removal; surviving
    tokens reassemble in order (single spaces) and emptied docs drop.
    Distinct from :func:`dedup_paragraphs_global` (structural units, one
    survivor) and document-level dedup: here the unit is ANY repeated
    token run and ALL copies die -- the removal decision is a pure
    function of the global window counts, so it is order-independent,
    replayable, and SQL-expressible (the ``docs_span_dedup`` oracle).

    Scale shape:
    - pass 1: per-batch (window-hash, partial count) Arrow combiner ->
      ONE small groupby-sum -> filter count >= min_count.  Only 16-hex
      hashes ever shuffle, never text.
    - pass 2, hot set broadcast by the plan: ray.put once, then a
      stateless per-batch rebuild -- doc texts never leave their read
      tasks (zero text exchange).
    - pass 2, hot set joined instead: (doc, pos, hash) window rows
      semi-join the hot hashes (ops/dedup.semi_join_filter), collapse to
      per-doc covered-position lists, and ONE left join ships each doc
      text exactly once -- the distributed path when the duplicated-window
      set itself is huge.
    Both paths share the same vectorized cover mask (diff-array over
    token positions) and are parity-tested against each other.
    """
    from ray.data.aggregate import Sum

    from .dedup import normalize_join_blocks, semi_join_filter

    def count_partial(b: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        for t in b[text_col].to_pylist():
            cnt.update(_window_hashes(t, width))
        if not cnt:
            return pa.table({"h": pa.array([], pa.string()),
                             "__c": pa.array([], pa.int64())})
        ks, vs = zip(*cnt.items())
        return pa.table({"h": pa.array(list(ks), pa.string()),
                         "__c": pa.array(list(vs), pa.int64())})

    hot = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("h").aggregate(Sum("__c"))
        .map_batches(
            lambda b: pa.table(
                {"h": b.filter(
                    pc.greater_equal(b["sum(__c)"], min_count))["h"]}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def _rebuild(toks: list[str], hot_positions: np.ndarray) -> str:
        cover = np.zeros(len(toks) + width, np.int32)
        np.add.at(cover, hot_positions, 1)
        np.add.at(cover, hot_positions + width, -1)
        keep = np.cumsum(cover[: len(toks)]) == 0
        return " ".join(t for t, k in zip(toks, keep) if k)

    tab, hot = plan.small_side("dedup_duplicate_spans", hot)
    if tab is not None:
        import ray

        hotset = set(tab["h"].to_pylist()) if tab.num_rows else set()
        ref = ray.put(hotset)

        def rebuild_bcast(b: pa.Table) -> pa.Table:
            hs = ray.get(ref)
            ids, outs = [], []
            for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
                toks = _TOKEN_RE.findall(t or "")
                wh = _window_hashes(t, width)
                pos = np.array(
                    [j for j, h in enumerate(wh) if h in hs], np.int64
                )
                out = _rebuild(toks, pos) if len(pos) else " ".join(toks)
                if out:
                    ids.append(i)
                    outs.append(out)
            return pa.table({id_col: pa.array(ids, pa.int64()),
                             text_col: pa.array(outs, pa.string())})

        return ds.map_batches(rebuild_bcast, batch_format="pyarrow")

    # distributed path: window rows -> semi-join -> per-doc cover lists
    def window_rows(b: pa.Table) -> pa.Table:
        ids, pos, hh = [], [], []
        for i, t in zip(b[id_col].to_pylist(), b[text_col].to_pylist()):
            for j, h in enumerate(_window_hashes(t, width)):
                ids.append(i)
                pos.append(j)
                hh.append(h)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "h": pa.array(hh, pa.string())})

    covered = semi_join_filter(
        ds.map_batches(window_rows, batch_format="pyarrow"), hot, "h"
    )

    def pos_lists(group: pa.Table) -> pa.Table:
        # Acero's hash join rejects list<> payload columns, so the per-doc
        # covered-position list travels as a little-endian int64 blob.
        g = group.group_by([id_col], use_threads=False).aggregate(
            [("pos", "list")]
        )
        blobs = [
            np.asarray(v, np.int64).tobytes() for v in g["pos_list"].to_pylist()
        ]
        return pa.table({id_col: g[id_col],
                         "pos_blob": pa.array(blobs, pa.binary())})

    import ray

    nparts = plan.join_partitions()
    per_doc = (
        covered.groupby(id_col)
        .map_groups(pos_lists, batch_format="pyarrow")
    )
    joined = ds.map_batches(
        lambda b: pa.table({id_col: pc.cast(b[id_col], pa.int64()),
                            text_col: b[text_col]}),
        batch_format="pyarrow",
    ).join(normalize_join_blocks(per_doc, nparts),
           join_type="left_outer", num_partitions=nparts, on=(id_col,))

    def rebuild_joined(b: pa.Table) -> pa.Table:
        ids, outs = [], []
        pl = b["pos_blob"].to_pylist()
        for i, t, ps in zip(
            b[id_col].to_pylist(), b[text_col].to_pylist(), pl
        ):
            toks = _TOKEN_RE.findall(t or "")
            if ps:
                out = _rebuild(toks, np.frombuffer(ps, np.int64))
            else:
                out = " ".join(toks)
            if out:
                ids.append(i)
                outs.append(out)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         text_col: pa.array(outs, pa.string())})

    return joined.map_batches(rebuild_joined, batch_format="pyarrow")


def select_token_budget(
    ds,
    budget: int,
    *,
    id_col: str = "doc_id",
    score_col: str = "score",
    tokens_col: str = "n_tokens",
    keep_cum: bool = True,
):
    """Quality-ranked token-budget selection -- the "take the best N
    billion tokens" curation step: order docs by (``score_col`` DESC,
    ``id_col`` ASC) and keep the prefix whose cumulative ``tokens_col``
    stays <= ``budget`` (SQL: ``SUM(tokens) OVER (ORDER BY score DESC,
    id) <= budget``).  Input is the SLIM (id, score, tokens) table --
    compute scores upstream and semi-join texts back after selection, so
    document text never rides this exchange.

    Distributed as the pack_streaming two-phase prefix sum, keyed by
    score instead of id-range: (1) per-batch (score, token-sum) combiner
    partials -> one tiny groupby-sum -> the driver computes exclusive
    offsets in descending-score order (driver state O(#distinct scores),
    the exact_quantiles-style documented bound -- scores are coarse
    integers by construction); (2) ONE groupby(score) shuffle, each task
    sorts its score cohort by id and adds the local exclusive cumsum to
    the cohort offset, then filters to ``cum <= budget``.

    Partitioning assumption (custom-operator rule): one score cohort's
    rows fit one task; quantized scores spread docs across cohorts, and a
    degenerate all-one-score input degrades to a single-task sort of slim
    int64 rows (logged via the windows hot-key guard pattern upstream).
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "s": pc.cast(b[score_col], pa.int64()),
                    "t": pc.cast(b[tokens_col], pa.int64()),
                }
            )
            .group_by(["s"], use_threads=False)
            .aggregate([("t", "sum")])
        )
        return g.rename_columns(["s", "cnt"])

    tiny = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("s")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    offsets, run = {}, 0
    for row in sorted(tiny, key=lambda r: -int(r["s"])):
        offsets[int(row["s"])] = run
        run += int(row["cnt"])

    def slim(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: pc.cast(b[id_col], pa.int64()),
                "s": pc.cast(b[score_col], pa.int64()),
                "t": pc.cast(b[tokens_col], pa.int64()),
            }
        )

    def cohort(group: pa.Table) -> pa.Table:
        ids = group[id_col].to_numpy(zero_copy_only=False)
        toks = group["t"].to_numpy(zero_copy_only=False)
        s = int(group["s"][0].as_py())
        if s not in offsets:
            # the tfidf-two-pass trap (ADVICE r3): a score present in the
            # selection pass but absent from the offset pass means the
            # input changed between the two reads -- fail diagnosably.
            raise RuntimeError(
                f"select_token_budget: score {s} not seen in the offset "
                "pass; input changed between the two reads of ds"
            )
        order = np.argsort(ids, kind="stable")
        ids, toks = ids[order], toks[order]
        cum = np.cumsum(toks) + offsets[s]
        keep = cum <= budget
        cols = {
            id_col: pa.array(ids[keep], pa.int64()),
            score_col: pa.array(np.full(int(keep.sum()), s), pa.int64()),
            tokens_col: pa.array(toks[keep], pa.int64()),
        }
        if keep_cum:
            cols["cum_tokens"] = pa.array(cum[keep], pa.int64())
        return pa.table(cols)

    return (
        ds.map_batches(slim, batch_format="pyarrow")
        .groupby("s")
        .map_groups(cohort, batch_format="pyarrow")
    )


class BPETokenCount:
    """Byte-pair-encoding tokenization (apply-only) as an actor-pool
    stage: given a fixed merge table [(a, b), ...] ordered by priority,
    repeatedly merge the lowest-rank adjacent symbol pair present,
    merging ALL its non-overlapping occurrences left-to-right per step
    (the standard BPE apply semantics) -- the token-budget primitive an
    LLM-data pipeline runs before packing (reference analog: the
    per-field tokenization in the conversion rules, marc2rdf's
    substr/split functions, generalized to subword units).

    Scale shape: the merge-rank dict compiles ONCE per actor; tokenized
    words cache per actor (dict word -> n_subtokens), so each distinct
    word pays the merge loop once per actor regardless of corpus-wide
    frequency -- per-batch work is then a dict lookup per word.  Output
    is one slim (id, n_tokens) row per document; nothing shuffles.

    Exact by construction and replayed in SQL: the DuckDB oracle encodes
    each word as '<c><c>..' and applies replace() with the same
    min-rank-first, all-occurrences-left-to-right semantics in a
    recursive CTE (entry_queries.docs_bpe_tokens).
    """

    WORD_RE = re.compile(r"[a-z]+")

    def __init__(self, merges: list[tuple[str, str]],
                 text_col: str = "text", id_col: str = "doc_id"):
        self.ranks = {pair: i for i, pair in enumerate(merges)}
        self.text_col = text_col
        self.id_col = id_col
        self.cache: dict[str, int] = {}

    def _apply(self, word: str) -> int:
        syms = list(word)
        while len(syms) > 1:
            best_rank = None
            best_pair = None
            for i in range(len(syms) - 1):
                r = self.ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank = r
                    best_pair = (syms[i], syms[i + 1])
            if best_pair is None:
                break
            a, b = best_pair
            out = []
            i = 0
            while i < len(syms):
                if (
                    i < len(syms) - 1
                    and syms[i] == a
                    and syms[i + 1] == b
                ):
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    def __call__(self, b: pa.Table) -> pa.Table:
        texts = b[self.text_col].to_pylist()
        n = np.zeros(len(texts), np.int64)
        cache = self.cache
        for i, t in enumerate(texts):
            total = 0
            for w in self.WORD_RE.findall((t or "").lower()):
                ntok = cache.get(w)
                if ntok is None:
                    ntok = self._apply(w)
                    cache[w] = ntok
                total += ntok
            n[i] = total
        return pa.table(
            {
                self.id_col: b[self.id_col],
                "n_tokens": pa.array(n, pa.int64()),
            }
        )


def bpe_token_counts(ds, merges, *, text_col="text", id_col="doc_id",
                     concurrency=(2, 8)):
    """Per-document BPE token counts via the :class:`BPETokenCount`
    actor pool (merge table compiled once per actor, word cache
    amortizes across batches)."""
    return ds.map_batches(
        BPETokenCount,
        fn_constructor_args=(list(merges), text_col, id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


_SYM_RE = re.compile(r"<([^>]*)>")


def bpe_train(ds, *, n_merges: int = 6, text_col: str = "text",
              word_re=BPETokenCount.WORD_RE):
    """BPE merge-table TRAINING: learn the ``n_merges`` highest-count
    adjacent symbol pairs, greedily, with deterministic
    (count DESC, a ASC, b ASC) tie-breaking -- the learn side of
    :class:`BPETokenCount` (which applies a fixed table).

    Standard practice (and the honest distributed shape): training runs
    on the distinct-word VOCABULARY with frequencies, not the corpus --
    one word-count shuffle reduces 100 TB of text to a vocab table, and
    each merge step is then (a) per-batch pair-count partials over the
    vocab (Counter per batch, weighted by word frequency; pairs counted
    with overlap, zip(syms, syms[1:]), on BOTH sides), (b) one tiny
    (a, b) groupby-sum, (c) a per-batch top-1 partial so the driver
    reduces <= #blocks single-row candidates (O(1) driver state), and
    (d) one vectorized ``pc.replace_substring`` pass re-encoding the
    vocab -- string replace is left-to-right non-overlapping, exactly
    the BPE merge scan, and exactly what the DuckDB oracle's replace()
    replays (entry_queries.docs_bpe_train unrolls every step).

    Vocab state is the '<sym><sym>..' encoded string; symbols are
    [a-z]+ so the angle brackets can never collide.

    Returns a pa.Table of (step, a, b, cnt).
    """
    from collections import Counter

    import ray
    from ray.data.aggregate import Sum

    def wc(b: pa.Table) -> pa.Table:
        words = []
        for t in b[text_col].to_pylist():
            words.extend(word_re.findall((t or "").lower()))
        if not words:
            return pa.table(
                {"w": pa.array([], pa.string()),
                 "c": pa.array([], pa.int64())}
            )
        u, c = np.unique(words, return_counts=True)
        return pa.table(
            {"w": pa.array(u.tolist(), pa.string()),
             "c": pa.array(c.astype(np.int64), pa.int64())}
        )

    def encode(b: pa.Table) -> pa.Table:
        s = ["".join(f"<{ch}>" for ch in w) for w in b["w"].to_pylist()]
        return pa.table(
            {"s": pa.array(s, pa.string()), "c": b["c"]}
        )

    vocab = (
        ds.map_batches(wc, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("c", alias_name="c"))
        .map_batches(encode, batch_format="pyarrow")
        .materialize()
    )

    def pair_partial(b: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for s, c in zip(b["s"].to_pylist(), b["c"].to_pylist()):
            syms = _SYM_RE.findall(s)
            for a, bb in zip(syms, syms[1:]):
                cnt[(a, bb)] += c
        if not cnt:
            return pa.table(
                {"a": pa.array([], pa.string()),
                 "b": pa.array([], pa.string()),
                 "cnt": pa.array([], pa.int64())}
            )
        ks = list(cnt.keys())
        return pa.table(
            {
                "a": pa.array([k[0] for k in ks], pa.string()),
                "b": pa.array([k[1] for k in ks], pa.string()),
                "cnt": pa.array([cnt[k] for k in ks], pa.int64()),
            }
        )

    def top1_partial(b: pa.Table) -> pa.Table:
        if not b.num_rows:
            return b
        cnt = b["cnt"].to_numpy(zero_copy_only=False)
        a = np.asarray(b["a"].to_pylist())
        bb = np.asarray(b["b"].to_pylist())
        o = np.lexsort((bb, a, -cnt))
        return b.take(pa.array(o[:1]))

    merges = []
    for step in range(n_merges):
        pairs = (
            vocab.map_batches(pair_partial, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Sum("cnt", alias_name="cnt"))
        )
        cands = pairs.map_batches(
            top1_partial, batch_format="pyarrow"
        ).take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["cnt"], r["a"], r["b"]))
        merges.append((step, best["a"], best["b"], int(best["cnt"])))
        pat = f"<{best['a']}><{best['b']}>"
        rep = f"<{best['a']}{best['b']}>"

        def apply_merge(b: pa.Table, pat=pat, rep=rep) -> pa.Table:
            return pa.table(
                {
                    "s": pc.replace_substring(b["s"], pattern=pat,
                                              replacement=rep),
                    "c": b["c"],
                }
            )

        vocab = vocab.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    return pa.table(
        {
            "step": pa.array([m[0] for m in merges], pa.int64()),
            "a": pa.array([m[1] for m in merges], pa.string()),
            "b": pa.array([m[2] for m in merges], pa.string()),
            "cnt": pa.array([m[3] for m in merges], pa.int64()),
        }
    )


class HashedLinearScore:
    """FastText-shaped hashed-feature linear classifier INFERENCE as an
    actor-pool stage: logit(doc) = sum over token occurrences of
    W[h(token) % n_buckets] -- the model-based quality-filter shape
    (classifier-scored corpus filtering) with a deterministic weight
    table so the whole scoring pass is replayable in SQL.

    h(token) = int(md5(token)[:8], 16); W[b] = (b * 37) % 101 - 50
    (pure arithmetic on the bucket id -- no weight table ships
    anywhere).  Integer logit units; no sigmoid (monotone, so
    threshold filters are equivalent).

    Scale shape: token->weight memoizes per actor (dict), output is one
    slim (id, logit) row per doc, nothing shuffles.
    """

    def __init__(self, n_buckets: int = 64,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.n_buckets = n_buckets
        self.text_col = text_col
        self.id_col = id_col
        self.memo: dict[str, int] = {}

    def _w(self, tok: str) -> int:
        w = self.memo.get(tok)
        if w is None:
            b = int(hashlib.md5(tok.encode()).hexdigest()[:8], 16) \
                % self.n_buckets
            w = (b * 37) % 101 - 50
            self.memo[tok] = w
        return w

    def __call__(self, b: pa.Table) -> pa.Table:
        texts = b[self.text_col].to_pylist()
        out = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            out[i] = sum(
                self._w(tok)
                for tok in BPETokenCount.WORD_RE.findall((t or "").lower())
            )
        return pa.table(
            {
                self.id_col: b[self.id_col],
                "logit_units": pa.array(out, pa.int64()),
            }
        )


def hashed_linear_scores(ds, *, n_buckets: int = 64, text_col: str = "text",
                         id_col: str = "doc_id", concurrency=(2, 8)):
    """Per-document hashed linear classifier logits via the
    :class:`HashedLinearScore` actor pool."""
    return ds.map_batches(
        HashedLinearScore,
        fn_constructor_args=(n_buckets, text_col, id_col),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


def deterministic_shuffle_rank(ds, *, id_col: str = "doc_id",
                               num_range_buckets: int | None = None):
    """Deterministic GLOBAL SHUFFLE order for training: every row gets
    the dense rank of its md5 key (md5_u64(id), ties broken by id) --
    the reproducible corpus permutation a training run needs before
    packing/sharding, WITHOUT ray.data.random_shuffle's seed-dependent
    all-to-all or a global sort of the payload.

    Scale shape: md5 keys are uniform, so the key space range-partitions
    evenly: (1) per-batch partial counts per range bucket -> one tiny
    groupby-sum -> driver cumulative offsets (O(#buckets) state);
    (2) ONE bucket shuffle of slim (id, key) rows; within each bucket a
    vectorized argsort yields local positions, plus the broadcast bucket
    offset = the exact global rank.  Payloads never move -- join the
    rank back by id, or read in rank order via take.

    Returns (id, rank), rank in [0, n) dense and collision-free
    (md5_u64 ties broken by id, both replayed by the SQL ROW_NUMBER
    oracle).
    """
    import ray
    from ray.data.aggregate import Sum

    from .dedup import md5_u64

    nb = num_range_buckets or max(
        16, int(ray.cluster_resources().get("CPU", 8)) * 2
    )
    # bucket = top bits of the uint64 key: range-partition, ORDER-PRESERVING
    step = (1 << 64) // nb

    def keyed(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_pylist()
        keys = np.array([md5_u64(str(i)) for i in ids], np.uint64)
        return pa.table(
            {
                id_col: pa.array(ids, b[id_col].type),
                "_k": pa.array(keys, pa.uint64()),
                "_rb": pa.array(
                    (keys // np.uint64(step)).astype(np.int32), pa.int32()
                ),
            }
        )

    slim = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    def bucket_counts(b: pa.Table) -> pa.Table:
        u, c = np.unique(
            b["_rb"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"_rb": pa.array(u, pa.int32()),
             "c": pa.array(c.astype(np.int64), pa.int64())}
        )

    counts = {
        r["_rb"]: r["c"]
        for r in slim.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("_rb")
        .aggregate(Sum("c", alias_name="c"))
        .take_all()
    }
    offsets = np.zeros(nb, np.int64)
    acc = 0
    for rb in range(nb):
        offsets[rb] = acc
        acc += counts.get(rb, 0)
    off_ref = ray.put(offsets)

    def rank_bucket(g: pa.Table) -> pa.Table:
        off = ray.get(off_ref)
        rb = int(g["_rb"][0].as_py())
        k = g["_k"].to_numpy(zero_copy_only=False)
        ids = g[id_col].to_numpy(zero_copy_only=False)
        o = np.lexsort((ids, k))
        rank = np.empty(len(k), np.int64)
        rank[o] = off[rb] + np.arange(len(k), dtype=np.int64)
        return pa.table(
            {id_col: g[id_col], "rank": pa.array(rank, pa.int64())}
        )

    return slim.groupby("_rb").map_groups(
        rank_bucket, batch_format="pyarrow"
    )
