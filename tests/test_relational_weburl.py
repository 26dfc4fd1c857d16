"""Tests for the relational wide-ops (rollup, compaction), the web-URL
operators (canonicalization parity, URL dedup, domain stats) and BFS
levels."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest


class TestRollup:
    def test_matches_duckdb_rollup(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import rollup_aggregate

        rng = np.random.RandomState(7)
        n = 1000
        tab = pa.table({
            "a": pa.array([f"a{v}" for v in rng.randint(0, 3, n)]),
            "b": pa.array([f"b{v}" for v in rng.randint(0, 4, n)]),
            "v": pa.array(rng.uniform(-50, 50, n)),
        })
        got = (
            rollup_aggregate(rd.from_arrow(tab), ["a", "b"], "v")
            .to_pandas()
        )
        want = duckdb.sql("""
            SELECT a, b,
                   CAST(SUM(CAST(ROUND(v * 100) AS BIGINT)) AS BIGINT)
                     AS sum_cents,
                   COUNT(*)::BIGINT AS n,
                   (GROUPING(a) + GROUPING(b))::BIGINT AS lvl
            FROM tab GROUP BY ROLLUP(a, b)
        """).df()
        key = ["lvl", "a", "b"]
        g = got.sort_values(key, na_position="last").reset_index(drop=True)
        w = want.sort_values(key, na_position="last").reset_index(drop=True)
        assert len(g) == len(w) == 3 * 4 + 3 + 1
        assert g["sum_cents"].tolist() == w["sum_cents"].tolist()
        assert g["n"].tolist() == w["n"].tolist()
        # grand total row: both keys null, lvl 2
        gt = g[g["lvl"] == 2]
        assert len(gt) == 1 and gt["a"].isna().all() and gt["b"].isna().all()
        assert int(gt["n"].iloc[0]) == n

    def test_sentinel_collision_fails_loud(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import rollup_aggregate

        bad = rd.from_arrow(pa.table({
            "a": pa.array(["\x00__ROLLED__"]), "v": pa.array([1.0]),
        }))
        with pytest.raises(Exception, match="sentinel"):
            rollup_aggregate(bad, ["a"], "v").materialize()


class TestCompactLatest:
    def test_latest_per_key_with_ties(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import compact_latest

        tab = pa.table({
            "k": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array([10, 30, 30, 5, 7, 1], pa.int64()),
            "seq": pa.array([100, 101, 102, 200, 201, 300], pa.int64()),
            "payload": pa.array(["a", "b", "c", "d", "e", "f"]),
        })
        out = (
            compact_latest(rd.from_arrow(tab), key_col="k", ts_col="ts",
                           tie_col="seq")
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        # k=1: ts tie at 30 -> larger seq (102) wins; payload passes through
        assert out["seq"].tolist() == [102, 201, 300]
        assert out["payload"].tolist() == ["c", "e", "f"]
        assert list(out.columns) == ["k", "ts", "seq", "payload"]

    def test_single_winner_per_key(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import compact_latest

        rng = np.random.RandomState(3)
        n = 2000
        tab = pa.table({
            "k": pa.array(rng.randint(0, 50, n), pa.int64()),
            "ts": pa.array(rng.randint(0, 100, n), pa.int64()),
            "seq": pa.array(np.arange(n), pa.int64()),
        })
        out = compact_latest(rd.from_arrow(tab), key_col="k", ts_col="ts",
                             tie_col="seq").to_pandas()
        assert len(out) == out["k"].nunique() == 50
        want = duckdb.sql("""
            SELECT k, seq FROM (
              SELECT k, seq, row_number() OVER (
                PARTITION BY k ORDER BY ts DESC, seq DESC) rn FROM tab)
            WHERE rn = 1 ORDER BY k
        """).df()
        got = out.sort_values("k").reset_index(drop=True)
        assert got["seq"].tolist() == want["seq"].tolist()


# the cross-engine contract for canonicalization: polars (Rust regex) and
# DuckDB (RE2) must emit byte-identical canonical forms on this vector set
URL_VECTORS = [
    "HTTPS://WWW.Example.COM/Path/Sub/?utm_source=x&id=2#frag",
    "https://www.example.com/path/sub?id=2",
    "http://A.com/",
    "http://a.com",
    "http://a.com/p?utm_a=1&utm_b=2&id=3",
    "http://a.com/p?id=1&ref=abc",
    "http://a.com/p?xref=1",      # 'ref' must not match inside 'xref'
    "http://a.com/p?refresh=1&gclid=zz",
    "not a url /path?utm_x=1",    # no scheme://host -> no case folding
    "HTTP://H.example.org:8080/UP/low?fbclid=abc&keep=1",
]


class TestUrlCanonicalization:
    def test_polars_duckdb_parity(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.weburl import canonicalize_urls

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(range(len(URL_VECTORS)), pa.int64()),
            "url": pa.array(URL_VECTORS),
        }))
        got = (
            canonicalize_urls(ds).to_pandas()
            .sort_values("doc_id")["canonical_url"].tolist()
        )
        con = duckdb.connect()
        con.execute("CREATE TABLE t(i BIGINT, u VARCHAR)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        list(enumerate(URL_VECTORS)))
        want = [r[0] for r in con.execute(r"""
            WITH s1 AS (SELECT i, regexp_replace(u, '#.*$', '') t1 FROM t),
            s2 AS (SELECT i, regexp_replace(t1,
              '[?&](utm_[a-z0-9]+|fbclid|gclid|ref)=[^&#]*', '', 'g') t2
              FROM s1),
            s3 AS (SELECT i, regexp_replace(
              regexp_replace(t2, '^([^?]*?)&', '\1?'), '/+\?', '?') t3
              FROM s2),
            s4 AS (SELECT i, t3, regexp_extract(t3,
              '^([A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*)', 1) auth FROM s3)
            SELECT regexp_replace(
              CASE WHEN auth = '' THEN t3
                   ELSE lower(auth) || regexp_replace(t3,
                     '^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*', '') END,
              '[/?]+$', '')
            FROM s4 ORDER BY i
        """).fetchall()]
        assert got == want
        # spot-pin the semantics themselves, not just parity
        assert got[0] == "https://www.example.com/Path/Sub?id=2"
        assert got[6] == "http://a.com/p?xref=1"
        assert got[9] == "http://h.example.org:8080/UP/low?keep=1"

    def test_url_dedup_keeps_min_id(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.weburl import url_dedup_min_id

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([5, 3, 9, 7], pa.int64()),
            "url": pa.array([
                "HTTP://A.com/x?utm_a=1",
                "http://a.com/x",
                "http://a.com/x/",
                "http://b.com/x",
            ]),
        }))
        out = (
            url_dedup_min_id(ds).to_pandas()
            .sort_values("canonical_url").reset_index(drop=True)
        )
        assert out["canonical_url"].tolist() == [
            "http://a.com/x", "http://b.com/x"]
        assert out["doc_id"].tolist() == [3, 7]

    def test_domain_stats(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.weburl import domain_stats

        ds = rd.from_arrow(pa.table({
            "url": pa.array([
                "https://WWW.A.com:443/x", "http://a.com/y",
                "http://b.org/z", "no scheme here",
            ]),
            "n_chars": pa.array([10, 20, 5, 1], pa.int64()),
        }))
        out = (
            domain_stats(ds, chars_col="n_chars").to_pandas()
            .sort_values("domain").reset_index(drop=True)
        )
        assert out["domain"].tolist() == ["", "a.com", "b.org"]
        assert out["n_docs"].tolist() == [1, 2, 1]
        assert out["sum_chars"].tolist() == [1, 30, 5]


class TestBfsLevels:
    def test_min_distance_depth_cap_and_cycle(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import bfs_levels

        # 0 -> 1 -> 2 -> 3 -> 4 -> 5, plus cycle 2 -> 0, shortcut 0 -> 3,
        # and an unreachable island 10 -> 11
        edges = rd.from_arrow(pa.table({
            "src": pa.array([0, 1, 2, 3, 4, 2, 0, 10], pa.int64()),
            "dst": pa.array([1, 2, 3, 4, 5, 0, 3, 11], pa.int64()),
        }))
        seeds = rd.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
        out = (
            bfs_levels(edges, seeds, max_depth=3).to_pandas()
            .sort_values("node").reset_index(drop=True)
        )
        want = {0: 0, 1: 1, 2: 2, 3: 1, 4: 2}  # 5 is at 3 via 0->3->4->5
        want[5] = 3
        assert dict(zip(out["node"], out["lvl"])) == want  # 10/11 absent

    def test_multi_seed_takes_min(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import bfs_levels

        edges = rd.from_arrow(pa.table({
            "src": pa.array([0, 1, 2, 3], pa.int64()),
            "dst": pa.array([1, 2, 3, 4], pa.int64()),
        }))
        seeds = rd.from_arrow(
            pa.table({"node": pa.array([0, 3], pa.int64())}))
        out = bfs_levels(edges, seeds, max_depth=4).to_pandas()
        got = dict(zip(out["node"], out["lvl"]))
        assert got == {0: 0, 3: 0, 1: 1, 4: 1, 2: 2}


class TestCube:
    def test_matches_duckdb_cube(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import cube_aggregate

        rng = np.random.RandomState(11)
        n = 800
        tab = pa.table({
            "a": pa.array([f"a{v}" for v in rng.randint(0, 2, n)]),
            "b": pa.array([f"b{v}" for v in rng.randint(0, 3, n)]),
            "v": pa.array(rng.uniform(-10, 10, n)),
        })
        got = cube_aggregate(rd.from_arrow(tab), ["a", "b"], "v").to_pandas()
        want = duckdb.sql("""
            SELECT a, b,
                   CAST(SUM(CAST(ROUND(v * 100) AS BIGINT)) AS BIGINT)
                     AS sum_cents,
                   COUNT(*)::BIGINT AS n,
                   GROUPING(a, b)::BIGINT AS lvl
            FROM tab GROUP BY CUBE(a, b)
        """).df()
        assert len(got) == len(want) == 2 * 3 + 2 + 3 + 1
        key = ["lvl", "a", "b"]
        g = got.sort_values(key, na_position="last").reset_index(drop=True)
        w = want.sort_values(key, na_position="last").reset_index(drop=True)
        assert g["sum_cents"].tolist() == w["sum_cents"].tolist()
        assert g["n"].tolist() == w["n"].tolist()
        assert g["lvl"].tolist() == w["lvl"].tolist()
        # bitmask semantics: b-only rows (a rolled) carry bit of a = 2
        bonly = g[(g["a"].isna()) & (~g["b"].isna())]
        assert set(bonly["lvl"]) == {2}


class TestCoalesceIntervals:
    def test_islands_merge_and_split(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.windows import coalesce_intervals

        tab = pa.table({
            "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
            # [0,10] + [5,15] + touching [15,20] merge; [30,40] splits
            "start_us": pa.array([0, 5, 15, 30, 0], pa.int64()),
            "end_us": pa.array([10, 15, 20, 40, 1], pa.int64()),
        })
        out = (
            coalesce_intervals(rd.from_arrow(tab), key_col="user_id")
            .to_pandas()
            .sort_values(["user_id", "island_start"])
            .reset_index(drop=True)
        )
        assert out.values.tolist() == [
            [1, 0, 20, 3], [1, 30, 40, 1], [2, 0, 1, 1]]

    def test_contained_interval_and_random_vs_duckdb(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.windows import coalesce_intervals

        rng = np.random.RandomState(5)
        n = 3000
        s = rng.randint(0, 10_000, n)
        tab = pa.table({
            "user_id": pa.array(rng.randint(0, 40, n), pa.int64()),
            "start_us": pa.array(s, pa.int64()),
            "end_us": pa.array(s + rng.randint(1, 300, n), pa.int64()),
        })
        got = (
            coalesce_intervals(rd.from_arrow(tab), key_col="user_id")
            .to_pandas()
            .sort_values(["user_id", "island_start"])
            .reset_index(drop=True)
        )
        want = duckdb.sql("""
            WITH x AS (
              SELECT user_id, start_us s, end_us e,
                     MAX(end_us) OVER (PARTITION BY user_id
                       ORDER BY start_us, end_us
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) pm
              FROM tab),
            y AS (SELECT *, CASE WHEN pm IS NULL OR s > pm THEN 1 ELSE 0 END brk
                  FROM x),
            z AS (SELECT *, SUM(brk) OVER (PARTITION BY user_id
                    ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING
                    AND CURRENT ROW) island FROM y)
            SELECT user_id, MIN(s) island_start, MAX(e) island_end,
                   COUNT(*)::BIGINT n_rows
            FROM z GROUP BY user_id, island
            ORDER BY user_id, island_start
        """).df()
        assert got["island_start"].tolist() == want["island_start"].tolist()
        assert got["island_end"].tolist() == want["island_end"].tolist()
        assert got["n_rows"].tolist() == want["n_rows"].tolist()


class TestSpanDedup:
    def _docs(self):
        import ray.data as rd

        phrase = "one two three four five six"
        rows = [
            # phrase shared across docs 0 and 1 -> removed from BOTH
            {"doc_id": 0, "text": f"aaa bbb {phrase} ccc0 ddd0 eee0 fff0 ggg0"},
            {"doc_id": 1, "text": f"xxx yyy {phrase} zzz1 www1 vvv1 uuu1 ttt1"},
            # within-doc repetition -> removed
            {"doc_id": 2, "text": f"{phrase} {phrase} tail2a tail2b tail2c tail2d tail2e tail2f"},
            # shorter than width -> untouched (whitespace-normalized)
            {"doc_id": 3, "text": "tiny  doc"},
            # doc that is ONLY the shared phrase -> emptied, drops out
            {"doc_id": 4, "text": phrase},
            # unique doc -> untouched
            {"doc_id": 5, "text": "u0 u1 u2 u3 u4 u5 u6 u7 u8 u9"},
        ]
        return rd.from_items(rows)

    def test_semantics_broadcast_path(self, ray_session):
        from marc2rdf_ray.ops.corpus import dedup_duplicate_spans

        out = dedup_duplicate_spans(self._docs(), width=6).to_pandas()
        got = dict(zip(out["doc_id"], out["text"]))
        # 4 emptied -> absent; the shared phrase is gone everywhere
        assert set(got) == {0, 1, 2, 3, 5}
        assert "three" not in got[0] and "three" not in got[1]
        assert got[3] == "tiny doc"
        assert got[5] == "u0 u1 u2 u3 u4 u5 u6 u7 u8 u9"
        # doc 2: both copies of the phrase die; junction windows between
        # the copies are unique so the tail survives
        assert got[2].startswith("tail2a")

    def test_join_path_parity(self, ray_session, plan_budgets):
        from marc2rdf_ray.ops.corpus import dedup_duplicate_spans

        a = (
            dedup_duplicate_spans(self._docs(), width=6)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        plan_budgets(broadcast=0)
        b = (
            dedup_duplicate_spans(self._docs(), width=6)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert a.equals(b)


class TestInterarrival:
    def test_gaps_exact(self, ray_session):
        import ray.data as rd
        from datetime import datetime

        from marc2rdf_ray.ops.windows import interarrival_stats

        def ts(m):
            return datetime(2024, 1, 1, 0, m)

        rows = [
            {"event_id": 1, "user_id": 1, "ts": ts(0)},
            {"event_id": 2, "user_id": 1, "ts": ts(5)},
            {"event_id": 3, "user_id": 1, "ts": ts(7)},
            # single-event user -> no output row
            {"event_id": 4, "user_id": 2, "ts": ts(1)},
            # tie on ts resolves by event_id (gap 0 then 60s)
            {"event_id": 6, "user_id": 3, "ts": ts(0)},
            {"event_id": 5, "user_id": 3, "ts": ts(0)},
            {"event_id": 7, "user_id": 3, "ts": ts(1)},
        ]
        out = interarrival_stats(rd.from_items(rows)).to_pandas()
        out = out.sort_values("user_id").reset_index(drop=True)
        assert out["user_id"].tolist() == [1, 3]
        assert out["n_gaps"].tolist() == [2, 2]
        assert out["min_gap_us"].tolist() == [120_000_000, 0]
        assert out["max_gap_us"].tolist() == [300_000_000, 60_000_000]
        assert out["sum_gap_us"].tolist() == [420_000_000, 60_000_000]


class TestModePerKey:
    def test_mode_and_ties(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import mode_per_key

        rows = (
            [{"user_id": 1, "event_type": "a"}] * 3
            + [{"user_id": 1, "event_type": "b"}] * 2
            # tie 2-2 -> lexicographically smaller wins
            + [{"user_id": 2, "event_type": "z"}] * 2
            + [{"user_id": 2, "event_type": "c"}] * 2
        )
        out = mode_per_key(
            rd.from_items(rows), key_col="user_id", value_col="event_type"
        ).to_pandas().sort_values("user_id").reset_index(drop=True)
        assert out["mode_value"].tolist() == ["a", "c"]
        assert out["mode_count"].tolist() == [3, 2]


class TestGroupedMoments:
    def test_matches_numpy(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_moments

        vals = [1.0, 2.0, 3.5, 4.25]
        rows = [{"k": "x", "value": v} for v in vals] + [
            {"k": "y", "value": 7.0}
        ]
        out = grouped_moments(
            rd.from_items(rows), key_col="k", value_col="value"
        ).to_pandas().sort_values("k").reset_index(drop=True)
        assert out["n_rows"].tolist() == [4, 1]
        assert abs(out["mean_v"][0] - np.mean(vals)) < 1e-9
        assert abs(out["var_v"][0] - np.var(vals, ddof=1)) < 1e-9
        assert np.isnan(out["var_v"][1])


class TestGroupedCountDistinct:
    def test_exact_counts_across_batches(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_count_distinct

        # duplicates of (key, value) pairs deliberately span batches so a
        # per-batch-only dedup would overcount
        rows = (
            [{"k": "a", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 1}] * 5
            + [{"k": "a", "v": 3}, {"k": "b", "v": 1}, {"k": "b", "v": 9}]
        )
        ds = rd.from_items(rows).repartition(4)
        out = (
            grouped_count_distinct(ds, key_col="k", value_col="v")
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert out["k"].tolist() == ["a", "b"]
        assert out["n_distinct"].tolist() == [3, 2]


class TestGopherFilter:
    def test_rules(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.textstats import gopher_filter

        good = "the cat sat with the dog and ran " * 8  # 64 words, stops
        nostop = "cat sat dog ran big red fox car " * 8  # no stopwords
        short = "the cat with a dog"
        symbols = ("the dog with " + "# " * 30).strip()  # symbol ratio > 0.1
        rows = [
            {"doc_id": 0, "text": good},
            {"doc_id": 1, "text": nostop},
            {"doc_id": 2, "text": short},
            {"doc_id": 3, "text": symbols},
        ]
        out = gopher_filter(
            rd.from_items(rows), min_words=10
        ).to_pandas()
        assert out["doc_id"].tolist() == [0]
        assert out["n_words"][0] == 64
        assert out["n_stop_hits"][0] == 32


class TestTokenBudget:
    def test_prefix_selection(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import select_token_budget

        rows = [
            {"doc_id": 1, "score": 10, "n_tokens": 4},
            {"doc_id": 2, "score": 10, "n_tokens": 3},
            {"doc_id": 3, "score": 5, "n_tokens": 5},
            {"doc_id": 4, "score": 1, "n_tokens": 100},
        ]
        out = select_token_budget(
            rd.from_items(rows), 12
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        # order: d1(4) cum4, d2(3) cum7, d3(5) cum12, d4 cum112 > 12
        assert out["doc_id"].tolist() == [1, 2, 3]
        assert out["cum_tokens"].tolist() == [4, 7, 12]


class TestHits:
    def test_two_rounds_by_hand(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import hits

        # star: 1->3, 2->3, 3->4
        edges = rd.from_items(
            [{"src": 1, "dst": 3}, {"src": 2, "dst": 3}, {"src": 3, "dst": 4}]
        )
        nodes = rd.from_items([{"node": n} for n in (1, 2, 3, 4)])
        out = hits(edges, nodes, rounds=2).to_pandas()
        got = {
            int(r["node"]): (int(r["hub"]), int(r["auth"]))
            for _, r in out.iterrows()
        }
        # h0 = 1 everywhere
        # a1: 3 <- h(1)+h(2) = 2 ; 4 <- h(3) = 1
        # h1: 1 = a1(3) = 2 ; 2 = 2 ; 3 = a1(4) = 1
        # a2: 3 <- h1(1)+h1(2) = 4 ; 4 <- h1(3) = 1
        # h2: 1 = a2(3) = 4 ; 2 = 4 ; 3 = a2(4) = 1
        assert got == {1: (4, 0), 2: (4, 0), 3: (1, 4), 4: (0, 1)}


class TestCommonNeighbors:
    def test_wedges_minus_edges(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        # path 1-2-3 plus 3-4: candidates (1,3)x? no: 1,3 share 2;
        # (2,4) share 3; (1,3) is NOT an edge, (2,4) NOT an edge.
        # add edge 1-3 so that pair is suppressed.
        edges = rd.from_items(
            [
                {"src": 1, "dst": 2},
                {"src": 2, "dst": 3},
                {"src": 3, "dst": 4},
                {"src": 1, "dst": 3},
            ]
        )
        out = common_neighbors_topk(edges, k=10).to_pandas()
        pairs = {
            (int(r["u"]), int(r["v"])): int(r["cnt"])
            for _, r in out.iterrows()
        }
        # shared neighbors: (1,2) via 3 -> edge exists; (2,4) via 3;
        # (1,4) via 3; (2,3) via 1 -> edge; (1,3) edge suppressed.
        assert pairs == {(2, 4): 1, (1, 4): 1}

    def test_adamic_adar_weights(self, ray_session):
        import math

        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        # star 0-{1,2,3} plus path 1-4: deg(0)=3, deg(1)=2.
        # (2,3),(2,4)... shared neighbors:
        #   (1,2),(1,3),(2,3) via 0 (deg 3); (0,4) via 1 (deg 2).
        edges = rd.from_items(
            [
                {"src": 0, "dst": 1},
                {"src": 0, "dst": 2},
                {"src": 0, "dst": 3},
                {"src": 1, "dst": 4},
            ]
        )
        out = common_neighbors_topk(
            edges, k=10, adamic_adar=True
        ).to_pandas()
        got = {
            (int(r["u"]), int(r["v"])): int(r["score_micro"])
            for _, r in out.iterrows()
        }
        w3 = math.floor(1e6 / math.log(3.0) + 0.5)
        w2 = math.floor(1e6 / math.log(2.0) + 0.5)
        assert got == {
            (1, 2): w3, (1, 3): w3, (2, 3): w3, (0, 4): w2,
        }

    def test_strict_cap_raises(self, ray_session):
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        edges = rd.from_items(
            [{"src": 0, "dst": i} for i in range(1, 8)]
        )
        with pytest.raises(Exception, match="neighbors"):
            common_neighbors_topk(
                edges, k=5, max_neighbors=3, strict=True
            ).to_pandas()
        ok = common_neighbors_topk(
            edges, k=100, max_neighbors=3, strict=False
        ).to_pandas()
        assert len(ok) == 3  # truncated to 3 neighbors -> C(3,2) pairs


class TestSkewSaltedJoin:
    def _tables(self):
        import ray.data as rd

        fact = rd.from_items(
            [{"event_id": i, "k": "hot" if i < 40 else f"c{i % 5}",
              "v": i} for i in range(60)]
        )
        dim = rd.from_items(
            [{"k": "hot", "attr": "H"}]
            + [{"k": f"c{j}", "attr": f"A{j}"} for j in range(5)]
            + [{"k": "nomatch", "attr": "X"}]
        )
        return fact, dim

    def test_equals_plain_join(self, ray_session):
        from marc2rdf_ray.ops.joins import skew_salted_join

        fact, dim = self._tables()
        out = skew_salted_join(
            fact, dim, key="k", fact_id_col="event_id",
            salt_factor=4, hot_threshold=10,
        ).to_pandas().sort_values("event_id").reset_index(drop=True)
        assert len(out) == 60                       # inner join, all match
        assert "__salt" not in out.columns
        assert (out[out["k"] == "hot"]["attr"] == "H").all()
        assert out.loc[out["event_id"] == 41, "attr"].iloc[0] == "A1"

    def test_no_hot_keys_path(self, ray_session):
        from marc2rdf_ray.ops.joins import skew_salted_join

        fact, dim = self._tables()
        out = skew_salted_join(
            fact, dim, key="k", fact_id_col="event_id",
            salt_factor=4, hot_threshold=1_000,
        ).to_pandas()
        assert len(out) == 60

    def test_non_power_of_two_salt(self, ray_session):
        from marc2rdf_ray.ops.joins import skew_salted_join

        fact, dim = self._tables()
        out = skew_salted_join(
            fact, dim, key="k", fact_id_col="event_id",
            salt_factor=3, hot_threshold=10,
        ).to_pandas()
        assert len(out) == 60
        assert (out[out["k"] == "hot"]["attr"] == "H").all()


class TestGapfillCounts:
    def test_zero_fills_interior_gaps(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.relational import gapfill_counts

        t0 = dt.datetime(2024, 1, 1)

        def ts(h, m=0):
            return t0 + dt.timedelta(hours=h, minutes=m)

        rows = [
            # key a: hours 0 (x2), 3 -> grid 0,1,2,3 with [2,0,0,1]
            {"k": "a", "ts": ts(0)},
            {"k": "a", "ts": ts(0, 30)},
            {"k": "a", "ts": ts(3)},
            # key b: single hour -> one row, no expansion
            {"k": "b", "ts": ts(7)},
        ]
        out = (
            gapfill_counts(
                rd.from_items(rows).repartition(2), key_col="k", ts_col="ts"
            )
            .to_pandas()
            .sort_values(["k", "bucket_us"])
            .reset_index(drop=True)
        )
        us = lambda h: int(ts(h).timestamp() * 1e6)  # noqa: E731
        a = out[out["k"] == "a"]
        assert a["bucket_us"].tolist() == [us(0), us(1), us(2), us(3)]
        assert a["n_events"].tolist() == [2, 0, 0, 1]
        b = out[out["k"] == "b"]
        assert b["bucket_us"].tolist() == [us(7)]
        assert b["n_events"].tolist() == [1]


class TestTopkPerGroup:
    def test_topk_across_batches(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import topk_per_group

        # values chosen so the per-batch partial cut MUST keep ties and
        # cross-batch winners; repartition forces multiple combiners
        rows = [
            {"k": "a", "id": i, "v": float(v)}
            for i, v in enumerate([5, 1, 9, 9, 3, 7])
        ] + [
            {"k": "b", "id": 100 + i, "v": float(v)}
            for i, v in enumerate([2, 2, 2])
        ]
        out = (
            topk_per_group(
                rd.from_items(rows).repartition(4),
                key_col="k", value_col="v", id_col="id", k=2,
            )
            .to_pandas()
            .sort_values(["k", "rnk"])
            .reset_index(drop=True)
        )
        # a: 9@id2, 9@id3 ; b: 2@id100, 2@id101 (id asc tiebreak)
        assert out["id"].tolist() == [2, 3, 100, 101]
        assert out["rnk"].tolist() == [1, 2, 1, 2]
        assert out["value_units"].tolist() == [9000, 9000, 2000, 2000]

    def test_group_smaller_than_k(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import topk_per_group

        rows = [{"k": "solo", "id": 1, "v": 4.0}]
        out = topk_per_group(
            rd.from_items(rows), key_col="k", value_col="v",
            id_col="id", k=5,
        ).to_pandas()
        assert len(out) == 1 and out["rnk"].tolist() == [1]


class TestRollingDistinctUsers:
    def test_vs_duckdb_window_replay(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.relational import rolling_distinct_users

        rng = np.random.default_rng(7)
        rows = [
            {
                "user_id": int(rng.integers(0, 20)),
                "ts": dt.datetime(2024, 1, 1)
                + dt.timedelta(hours=int(rng.integers(0, 24 * 40))),
            }
            for _ in range(400)
        ]
        out = (
            rolling_distinct_users(
                rd.from_items(rows).repartition(3),
                key_col="user_id", ts_col="ts",
            )
            .to_pandas()
            .sort_values("day_bucket")
            .reset_index(drop=True)
        )
        import pandas as pd

        df = pd.DataFrame(rows)
        con = duckdb.connect()
        con.register("ev", df)
        exp = con.sql(
            """
            WITH a AS (
              SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS d
              FROM ev
            ), w AS (
              SELECT DISTINCT a.user_id, a.d + g.i AS wd
              FROM a, (SELECT unnest(generate_series(0, 6)) AS i) g
              WHERE a.d + g.i <= (SELECT MAX(d) FROM a)
            )
            SELECT wd AS day_bucket, COUNT(*)::BIGINT AS n_users
            FROM w GROUP BY wd ORDER BY wd
            """
        ).df()
        assert out["day_bucket"].tolist() == exp["day_bucket"].tolist()
        assert out["n_users"].tolist() == exp["n_users"].tolist()


class TestZOrderKey:
    def test_interleave_matches_reference(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.relational import zorder_key

        def ref(x, y, bits=16):
            z = 0
            for i in range(bits):
                z |= ((x >> i) & 1) << (2 * i)
                z |= ((y >> i) & 1) << (2 * i + 1)
            return z

        xs, ys = [0, 1, 2, 3, 65535, 70000], [0, 1, 3, 5, 65535, 2]
        ds = rd.from_arrow(
            pa.table({"x": pa.array(xs, pa.int64()),
                      "y": pa.array(ys, pa.int64())})
        )
        out = zorder_key(ds, ["x", "y"]).to_pandas()
        # values mask to the low 16 bits (70000 & 0xFFFF == 4464)
        want = [ref(x & 0xFFFF, y & 0xFFFF) for x, y in zip(xs, ys)]
        assert list(out["zkey"]) == want

    def test_negative_fails_loud(self, ray_session):
        import pyarrow as pa
        import pytest as _pytest
        import ray.data as rd

        from marc2rdf_ray.ops.relational import zorder_key

        ds = rd.from_arrow(
            pa.table({"x": pa.array([-1], pa.int64()),
                      "y": pa.array([1], pa.int64())})
        )
        with _pytest.raises(Exception, match="[Zz]-order"):
            zorder_key(ds, ["x", "y"]).to_pandas()

    def test_overflow_guard(self, ray_session):
        import pytest as _pytest

        from marc2rdf_ray.ops.relational import zorder_key

        with _pytest.raises(ValueError, match="overflow"):
            zorder_key(None, ["a", "b", "c", "d"], bits=16)


class TestTableProfile:
    def test_counts_nulls_distincts(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.relational import table_profile

        tab = pa.table(
            {
                "a": pa.array([1, 1, 2, None, None], pa.int64()),
                "b": pa.array(["x", "", "x", "y", None], pa.string()),
                "c": pa.array([0.5, 0.5, 0.5, 0.5, 0.5], pa.float64()),
            }
        )
        # two blocks so batch partials must combine across batches
        ds = rd.from_arrow(tab).repartition(2)
        out = table_profile(ds, ["a", "b", "c"]).to_pandas()
        got = {
            r["col"]: (r["n_rows"], r["n_nulls"], r["n_distinct"])
            for _, r in out.iterrows()
        }
        assert got == {
            "a": (5, 2, 2),
            "b": (5, 1, 3),   # empty string is a value, not a null
            "c": (5, 0, 1),
        }


class TestTableProfileProperty:
    def test_matches_pandas_on_random_frames(self, ray_session):
        """Property: table_profile == pandas count/null/nunique on random
        typed frames (ints with nulls, strings, floats with repeats)."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.relational import table_profile

        rng = np.random.default_rng(21)
        for trial in range(3):
            n = int(rng.integers(5, 200))
            ints = rng.integers(0, 10, n).astype("float64")
            ints[rng.random(n) < 0.2] = np.nan
            strs = rng.choice(["a", "bb", "ccc", ""], n)
            flts = rng.choice([0.5, 1.25, -3.75], n)
            tab = pa.table(
                {
                    "i": pa.array(
                        [None if np.isnan(x) else int(x) for x in ints],
                        pa.int64()),
                    "s": pa.array(strs, pa.string()),
                    "f": pa.array(flts, pa.float64()),
                }
            )
            out = table_profile(
                rd.from_arrow(tab).repartition(3), ["i", "s", "f"]
            ).to_pandas().set_index("col")
            df = tab.to_pandas()
            for c in ("i", "s", "f"):
                assert out.loc[c, "n_rows"] == n, trial
                assert out.loc[c, "n_nulls"] == int(df[c].isna().sum())
                assert out.loc[c, "n_distinct"] == int(
                    df[c].dropna().nunique())
