"""Tests for training-data ops (dedup, ANN, text stats, multimodal) and the
remaining canonicalization operators."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    rows = []
    base = [
        "the quick brown fox jumps over the lazy dog near the river bank",
        "pack my box with five dozen liquor jugs before the winter storm",
        "sphinx of black quartz judge my vow under ancient starlit skies",
        "how vexingly quick daft zebras jump across the frozen harbour ice",
    ]
    for i in range(40):
        t = base[i % 4] + f" variant {i // 4}"
        rows.append({"doc_id": i, "text": t})
    # exact duplicates of docs 0..3
    for i in range(4):
        rows.append({"doc_id": 100 + i, "text": rows[i]["text"]})
    # near duplicate of doc 0 (one word changed)
    rows.append({"doc_id": 200, "text": rows[0]["text"].replace("lazy", "sleepy")})
    return rd.from_items(rows)


class TestExactDedup:
    def test_groups_and_representatives(self, docs_ds):
        from marc2rdf_ray.ops.dedup import exact_dedup_groups

        out = exact_dedup_groups(docs_ds).to_pandas()
        assert len(out) == 41  # 40 distinct + 1 near-dup; 4 exact dups folded
        dup_rows = out[out["cnt"] > 1]
        assert len(dup_rows) == 4
        assert set(dup_rows["doc_id"]) == {0, 1, 2, 3}  # min id kept

    def test_exact_dedup_keeps_one_per_content(self, docs_ds):
        from marc2rdf_ray.ops.dedup import exact_dedup

        keep = exact_dedup(docs_ds).to_pandas()
        assert len(keep) == 41


class TestMinHash:
    def test_signature_similarity_tracks_jaccard(self):
        from marc2rdf_ray.ops.dedup import MinHasher, ngram_jaccard

        h = MinHasher(num_perm=128)
        a = "the quick brown fox jumps over the lazy dog near the river"
        b = a.replace("lazy", "sleepy")
        c = "completely different words entirely unrelated content here now"
        sa, sb, sc = h.signature(a), h.signature(b), h.signature(c)
        est_ab = (sa == sb).mean()
        est_ac = (sa == sc).mean()
        true_ab = ngram_jaccard(a, b)
        assert abs(est_ab - true_ab) < 0.2
        assert est_ac < 0.2 < est_ab

    def test_lsh_finds_exact_and_near_dups(self, docs_ds):
        from marc2rdf_ray.ops.dedup import minhash_lsh_pairs

        pairs = minhash_lsh_pairs(
            docs_ds, threshold=0.5, id_col="doc_id"
        ).to_pandas()
        got = set(map(tuple, pairs[["a", "b"]].values.tolist()))
        for i in range(4):
            assert (i, 100 + i) in got  # exact dups found
        assert (0, 200) in got  # near dup found

    def test_no_self_pairs_and_no_duplicates(self, docs_ds):
        from marc2rdf_ray.ops.dedup import minhash_lsh_pairs

        pairs = minhash_lsh_pairs(docs_ds, threshold=0.5).to_pandas()
        assert (pairs["a"] < pairs["b"]).all()
        assert not pairs.duplicated(["a", "b"]).any()


class TestSimHash:
    def test_near_dups_within_hamming(self, docs_ds):
        from marc2rdf_ray.ops.dedup import simhash_pairs

        pairs = simhash_pairs(docs_ds, max_hamming=4).to_pandas()
        got = set(map(tuple, pairs[["a", "b"]].values.tolist()))
        for i in range(4):
            assert (i, 100 + i) in got
        assert (pairs["hamming"] <= 4).all()


class TestEmbeddingDedup:
    def test_cosine_pairs(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.dedup import embedding_dup_pairs

        rng = np.random.RandomState(0)
        base = rng.randn(30, 16)
        rows = [
            {"vec_id": i, "embedding": list(map(float, base[i]))}
            for i in range(30)
        ]
        # rows 100.. are near-copies of 0..4
        for i in range(5):
            v = base[i] + rng.randn(16) * 0.01
            rows.append({"vec_id": 100 + i, "embedding": list(map(float, v))})
        ds = rd.from_items(rows)
        pairs = embedding_dup_pairs(ds, threshold=0.98).to_pandas()
        got = set(map(tuple, pairs[["a", "b"]].values.tolist()))
        assert {(i, 100 + i) for i in range(5)} <= got


class TestANN:
    def test_brute_matches_numpy(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import brute_topk

        rng = np.random.RandomState(1)
        mat = rng.randn(200, 32)
        rows = [
            {"vec_id": i, "embedding": list(map(float, mat[i]))}
            for i in range(200)
        ]
        ds = rd.from_items(rows)
        q = mat[:3]
        out = brute_topk(ds, [0, 1, 2], q, k=5).to_pandas()
        unit = mat / np.linalg.norm(mat, axis=1)[:, None]
        for qi in range(3):
            sims = unit @ unit[qi]
            want = set(np.argsort(-sims)[:5].tolist())
            got = set(out[out["qid"] == qi]["vec_id"].tolist())
            assert got == want
            assert len(out[out["qid"] == qi]) == 5

    def test_lsh_recall_reasonable(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import brute_topk, lsh_topk

        rng = np.random.RandomState(2)
        mat = rng.randn(300, 16)
        rows = [
            {"vec_id": i, "embedding": list(map(float, mat[i]))}
            for i in range(300)
        ]
        ds = rd.from_items(rows)
        qids = [0, 1, 2, 3]
        brute = brute_topk(ds, qids, mat[:4], k=10).to_pandas()
        approx = lsh_topk(
            ds, qids, mat[:4], k=10, num_planes=6, probe_bits=2
        ).to_pandas()
        recalls = []
        for qi in qids:
            b = set(brute[brute["qid"] == qi]["vec_id"])
            a = set(approx[approx["qid"] == qi]["vec_id"])
            recalls.append(len(a & b) / len(b))
        assert sum(recalls) / len(recalls) >= 0.5

    def test_ivf_recall_reasonable(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import brute_topk, ivf_topk

        rng = np.random.RandomState(3)
        # clustered data so inverted lists are meaningful
        centers = rng.randn(8, 16) * 4
        mat = np.vstack([centers[i % 8] + rng.randn(16) for i in range(400)])
        rows = [
            {"vec_id": i, "embedding": list(map(float, mat[i]))}
            for i in range(400)
        ]
        ds = rd.from_items(rows)
        qids = [0, 1, 2, 3]
        cents = mat[:16]
        brute = brute_topk(ds, qids, mat[:4], k=10).to_pandas()
        approx = ivf_topk(ds, qids, mat[:4], cents, k=10, nprobe=3).to_pandas()
        recalls = []
        for qi in qids:
            b = set(brute[brute["qid"] == qi]["vec_id"])
            a = set(approx[approx["qid"] == qi]["vec_id"])
            recalls.append(len(a & b) / len(b))
        assert sum(recalls) / len(recalls) >= 0.6


class TestTextStats:
    def test_token_counts(self):
        from marc2rdf_ray.ops.textstats import token_stats_batch

        b = pa.table({"doc_id": [1, 2], "text": ["a b  c", ""]})
        out = token_stats_batch(b)
        assert out["ws_tokens"].to_pylist() == [3, 0]
        assert out["n_chars"].to_pylist() == [6, 0]

    def test_langid(self):
        from marc2rdf_ray.ops.textstats import detect_lang

        assert detect_lang("the cat and the dog of the house") == "en"
        assert detect_lang("det er og på er det og på det er") == "no"
        assert detect_lang("") == "und"

    def test_fingerprint_stable_and_ws_insensitive(self):
        from marc2rdf_ray.ops.textstats import fingerprint

        assert fingerprint("a b c") == fingerprint("a  b   c")
        assert fingerprint("a b c") != fingerprint("a b d")

    def test_quality(self):
        from marc2rdf_ray.ops.textstats import quality_batch

        b = pa.table({"doc_id": [1], "text": ["The cat, and the dog!"]})
        out = quality_batch(b).to_pandas().iloc[0]
        assert out["n_tokens"] == 5
        assert 0 < out["punct_ratio"] < 0.2
        assert out["stop_ratio"] == pytest.approx(3 / 5)  # the, and, the


class TestMultimodal:
    def test_decode_stub_requires_fake(self):
        from marc2rdf_ray.ops.multimodal import DecodeStub

        with pytest.raises(NotImplementedError):
            DecodeStub()

    def test_decode_and_features(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.multimodal import (
            DecodeStub,
            FeatureExtractStub,
            synth_media_table,
        )

        ds = rd.from_arrow(synth_media_table(50))
        dec = ds.map_batches(
            DecodeStub,
            fn_constructor_kwargs={"fake": True},
            batch_format="pyarrow",
            batch_size=16,
            concurrency=2,
        ).to_pandas()
        assert dec["decode_ok"].all()
        assert (dec["width"] >= 64).all()

        feats = ds.map_batches(
            FeatureExtractStub, batch_format="pyarrow", batch_size=16,
            concurrency=2,
        ).to_pandas()
        assert len(feats) == 50
        assert all(len(f) == 8 for f in feats["features"])


class TestCanonicalizeExtras:
    def test_connected_components(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.stages.canonicalize import connected_components

        edges = rd.from_items(
            [
                {"subj": "b", "obj": "a"},
                {"subj": "c", "obj": "b"},   # chain a-b-c
                {"subj": "e", "obj": "d"},   # pair d-e
                {"subj": "f", "obj": "f"},   # self loop
            ]
        )
        out = connected_components(edges, rounds=3).to_pandas()
        roots = dict(zip(out["node"], out["root"]))
        assert roots["a"] == roots["b"] == roots["c"] == "a"
        assert roots["d"] == roots["e"] == "d"
        assert roots["f"] == "f"

    def test_salted_group_distinct_matches_plain(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.stages.canonicalize import salted_group_distinct

        rows = []
        for i in range(200):
            rows.append({"k": f"key{i % 3}", "v": f"val{i % 7}"})
        ds = rd.from_items(rows)
        out = salted_group_distinct(ds, ["k"], "v", salt=4).to_pandas()
        got = set(map(tuple, out[["k", "v"]].values.tolist()))
        want = {(f"key{i % 3}", f"val{i % 7}") for i in range(200)}
        assert got == want


class TestWindows:
    def test_sessionize_matches_naive(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import sessionize

        # 3 users, crafted gaps around the 30-min boundary
        rows = []
        base = 1_700_000_000_000_000
        for u, gaps in [(1, [0, 100, 1_800_000_001, 5]),      # 2 sessions
                        (2, [0, 1_800_000_000]),               # exactly at gap: SAME session
                        (3, [0])]:                             # singleton
            t = base
            for g in gaps:
                t += g
                rows.append({"user_id": u, "ts": t, "value": 1.25})
        tab = pa.table(
            {
                "user_id": pa.array([r["user_id"] for r in rows], pa.int64()),
                "ts": pa.array(
                    [r["ts"] for r in rows], pa.timestamp("us")
                ),
                "value": pa.array([r["value"] for r in rows], pa.float64()),
            }
        )
        out = sessionize(rd.from_arrow(tab)).to_pandas().sort_values(
            ["user_id", "session_start_us"]).reset_index(drop=True)
        per_user = out.groupby("user_id").size().to_dict()
        assert per_user == {1: 2, 2: 1, 3: 1}
        u1 = out[out.user_id == 1]
        assert list(u1["n_events"]) == [2, 2]
        assert list(u1["sum_value_cents"]) == [250, 250]
        assert int(out[out.user_id == 2]["n_events"].iloc[0]) == 2


class TestMultimodalExtras:
    def test_resize_and_frames_stub_plumbing(self, ray_session):
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.multimodal import (
            FrameSampleStub,
            ResizeStub,
            synth_media_table,
        )

        # honest stubs: real decode paths raise without fake=True
        with pytest.raises(NotImplementedError):
            ResizeStub()
        with pytest.raises(NotImplementedError):
            FrameSampleStub()

        tab = synth_media_table(90, kinds=("image", "audio", "video"))
        assert set(tab["kind"].to_pylist()) == {"image", "audio", "video"}
        ds = rd.from_arrow(tab)
        resized = ds.map_batches(
            ResizeStub, fn_constructor_kwargs={"fake": True, "target": (224, 224)},
            batch_format="pyarrow", batch_size=32, concurrency=2,
        ).to_pandas()
        assert len(resized) == 90
        assert set(resized["width"]) == {224}
        assert resized["resized_md5"].nunique() == 90

        frames = ds.map_batches(
            FrameSampleStub, fn_constructor_kwargs={"fake": True, "stride": 10},
            batch_format="pyarrow", batch_size=32, concurrency=2,
        ).to_pandas()
        # only video rows expand; frame indices stride-aligned
        assert set(frames["media_id"]) <= set(range(2, 90, 3))
        assert (frames["frame_idx"] % 10 == 0).all()
        assert (frames["frame_ts_ms"] == frames["frame_idx"] * 40).all()


class TestPageRank:
    def test_matches_reference_replay(self, ray_session):
        import random

        import ray.data as rd

        from marc2rdf_ray.ops.graph import pagerank, pagerank_reference

        rng = random.Random(7)
        nodes = list(range(60))
        # mixed topology: a hub, a chain, dangling nodes (no out-edges),
        # parallel edges (count twice), and random noise
        edges = [(i, 0) for i in range(1, 30)]          # hub in-links
        edges += [(i, i + 1) for i in range(30, 40)]    # chain
        edges += [(5, 6), (5, 6)]                       # parallel edge
        edges += [(rng.randrange(50), rng.randrange(60)) for _ in range(80)]
        edges = [(s, d) for s, d in edges if s < 50]    # nodes 50..59 dangle

        got = (
            pagerank(
                rd.from_items([{"src": s, "dst": d} for s, d in edges]),
                rd.from_items([{"node": v} for v in nodes]),
                iterations=4,
                num_buckets=8,
            )
            .to_pandas()
        )
        want = pagerank_reference(edges, nodes, iterations=4)
        assert len(got) == len(nodes)
        assert dict(zip(got["node"], got["rank"])) == want

    def test_personalized_matches_reference_replay(self, ray_session):
        import random

        import ray.data as rd

        from marc2rdf_ray.ops.graph import pagerank, pagerank_reference

        rng = random.Random(11)
        nodes = list(range(60))
        edges = [(i, 0) for i in range(1, 30)]
        edges += [(i, i + 1) for i in range(30, 40)]
        edges += [(rng.randrange(50), rng.randrange(60)) for _ in range(80)]
        edges = [(s, d) for s, d in edges if s < 50]
        seeds = {v for v in nodes if v % 10 == 0}
        got = (
            pagerank(
                rd.from_items([{"src": s, "dst": d} for s, d in edges]),
                rd.from_items([{"node": v} for v in nodes]),
                iterations=4,
                num_buckets=8,
                seed_fn=lambda ids: ids % 10 == 0,
                n_seeds=len(seeds),
            )
            .to_pandas()
        )
        want = pagerank_reference(edges, nodes, iterations=4, seeds=seeds)
        assert dict(zip(got["node"], got["rank"])) == want
        # non-seed nodes with no in-links have exactly zero rank
        in_linked = {d for _, d in edges}
        zeros = [v for v in nodes if v not in seeds and v not in in_linked]
        gd = dict(zip(got["node"], got["rank"]))
        assert zeros and all(gd[v] == 0 for v in zeros)

    def test_rank_mass_conserved_and_hub_wins(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import pagerank

        n = 40
        edges = [{"src": i, "dst": 0} for i in range(1, n)]
        out = pagerank(
            rd.from_items(edges),
            rd.from_items([{"node": v} for v in range(n)]),
            iterations=3,
            num_buckets=4,
        ).to_pandas()
        ranks = dict(zip(out["node"], out["rank"]))
        # the hub must dominate every other node
        assert ranks[0] > max(v for k, v in ranks.items() if k != 0) * 5
        # total mass stays within deterministic floor loss of 1.0
        assert 0.9 * 10**12 < sum(ranks.values()) <= 10**12


class TestTimeJoins:
    @staticmethod
    def _mk(ray_rows):
        import ray.data as rd

        return rd.from_items(ray_rows)

    def test_asof_matches_naive(self, ray_session):
        import random

        from marc2rdf_ray.ops.joins import asof_join

        rng = random.Random(11)
        right = [
            {"rid": i, "k": rng.randrange(6), "t": rng.randrange(100)}
            for i in range(120)
        ]
        left = [
            {"lid": i, "k": rng.randrange(8), "t": rng.randrange(100)}
            for i in range(80)
        ]
        out = asof_join(
            self._mk(left),
            self._mk(right),
            by="k",
            on="t",
            tiebreak="rid",
            left_cols=["lid", "k", "t"],
            right_cols=["rid", "t"],
            num_buckets=5,
        ).to_pandas()

        def naive(l):
            cands = [r for r in right if r["k"] == l["k"] and r["t"] <= l["t"]]
            if not cands:
                return None
            return max(cands, key=lambda r: (r["t"], r["rid"]))

        got = {row.lid: (row.rid_match, row.t_match) for row in out.itertuples()}
        assert len(got) == len(left)
        import pandas as pd

        for l in left:
            want = naive(l)
            g = got[l["lid"]]
            if want is None:
                assert pd.isna(g[0])
            else:
                assert (int(g[0]), int(g[1])) == (want["rid"], want["t"])

    def test_range_join_matches_naive(self, ray_session):
        import random

        from marc2rdf_ray.ops.joins import range_join

        rng = random.Random(13)
        right = [
            {"rid": i, "k": rng.randrange(5), "t": rng.randrange(200)}
            for i in range(150)
        ]
        left = [
            {"lid": i, "k": rng.randrange(6), "t": rng.randrange(200)}
            for i in range(70)
        ]
        out = range_join(
            self._mk(left),
            self._mk(right),
            by="k",
            on="t",
            lower=-15,
            upper=5,
            left_cols=["lid", "t"],
            right_cols=["rid", "t"],
            num_buckets=4,
        ).to_pandas()
        got = set(zip(out["lid"], out["rid_match"]))
        want = {
            (l["lid"], r["rid"])
            for l in left
            for r in right
            if r["k"] == l["k"] and l["t"] - 15 <= r["t"] <= l["t"] + 5
        }
        assert got == want
        # bounds inclusive on both ends
        assert len(got) == len(out)


class TestKMeans:
    def test_matches_numpy_replay(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.ann import _quantize, kmeans_quantized

        rng = np.random.default_rng(5)
        n, d, C, iters = 120, 8, 4, 3
        mat = rng.normal(size=(n, d)).astype(np.float32)
        ds = rd.from_items(
            [{"vec_id": i, "embedding": mat[i].tolist()} for i in range(n)]
        )
        cents, assign = kmeans_quantized(
            ds, n_clusters=C, iterations=iters
        )
        got = dict(
            zip(*(lambda p: (p["vec_id"], p["cluster"]))(assign.to_pandas()))
        )

        # single-threaded integer replay
        vq = _quantize(np.array(mat, np.float64))
        c = vq[:C].copy()
        for _ in range(iters):
            d2 = ((vq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            cid = np.argmin(d2, axis=1)
            for j in range(C):
                if (cid == j).any():
                    c[j] = vq[cid == j].sum(axis=0) // (cid == j).sum()
        d2 = ((vq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        want = np.argmin(d2, axis=1)
        assert np.array_equal(cents, c)
        assert all(got[i] == want[i] for i in range(n))
        # sanity: multiple clusters actually used
        assert len(set(got.values())) > 1


class TestQuantiles:
    def test_matches_numpy_definition(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import exact_quantiles

        rng = np.random.default_rng(3)
        vals = np.round(rng.gamma(2.0, 50.0, size=5000), 2)
        ds = rd.from_items([{"value": float(v)} for v in vals])
        out = exact_quantiles(ds, "value").to_pydict()
        cents = np.sort(np.round(vals * 100).astype(np.int64))
        n = len(cents)
        for q, got, (num, den) in zip(
            out["q"], out["value_cents"], ((1, 2), (9, 10), (99, 100))
        ):
            rank = (num * n + den - 1) // den
            assert got == int(cents[rank - 1])
            assert q == num / den

    def test_duplicates_and_tiny_inputs(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import exact_quantiles

        ds = rd.from_items([{"value": 1.0}] * 7 + [{"value": 2.0}] * 3)
        out = exact_quantiles(ds, "value").to_pydict()
        # p50 -> rank 5 -> 100 cents; p90 -> rank 9 -> 200; p99 -> rank 10
        assert out["value_cents"] == [100, 200, 200]

    def test_sql_round_tie_semantics(self, ray_session):
        """ADVICE r2: .5-cent ties must round HALF AWAY FROM ZERO like SQL
        ROUND (1.125*100 = 112.5 -> 113), not half-to-even (-> 112)."""
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import exact_quantiles

        ds = rd.from_items([{"value": 1.125}] * 4)
        out = exact_quantiles(ds, "value").to_pydict()
        assert out["value_cents"] == [113, 113, 113]


class TestAdviceFixes:
    def test_sessionize_tie_rounding(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import sessionize

        tab = pa.table(
            {
                "user_id": pa.array([1, 1], pa.int64()),
                "ts": pa.array(
                    [1_700_000_000_000_000, 1_700_000_000_000_100],
                    pa.timestamp("us"),
                ),
                "value": pa.array([1.125, -1.125], pa.float64()),
            }
        )
        out = sessionize(rd.from_arrow(tab)).to_pandas()
        # ROUND(112.5) + ROUND(-112.5) = 113 - 113 = 0 in SQL semantics;
        # half-to-even would give 112 - 112 = 0 too, so test one-sided:
        tab1 = pa.table(
            {
                "user_id": pa.array([1], pa.int64()),
                "ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
                "value": pa.array([1.125], pa.float64()),
            }
        )
        out1 = sessionize(rd.from_arrow(tab1)).to_pandas()
        assert int(out1["sum_value_cents"].iloc[0]) == 113
        assert int(out["sum_value_cents"].iloc[0]) == 0

    def test_kmeans_sparse_offset_ids(self, ray_session):
        """ADVICE r2: init must pick the k smallest ids even when the id
        space is sparse / offset (no rows with id < n_clusters)."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.ann import _quantize, kmeans_quantized

        rng = np.random.default_rng(9)
        n, d, C, iters = 60, 6, 3, 2
        mat = rng.normal(size=(n, d)).astype(np.float32)
        ids = [1000 + 7 * i for i in range(n)]  # sparse, offset
        ds = rd.from_items(
            [{"vec_id": ids[i], "embedding": mat[i].tolist()} for i in range(n)]
        )
        cents, assign = kmeans_quantized(ds, n_clusters=C, iterations=iters)
        assert cents.shape == (C, d)
        # replay: init = vectors with the 3 smallest ids = rows 0..2
        vq = _quantize(np.array(mat, np.float64))
        c = vq[:C].copy()
        for _ in range(iters):
            d2 = ((vq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            cid = np.argmin(d2, axis=1)
            for j in range(C):
                if (cid == j).any():
                    c[j] = vq[cid == j].sum(axis=0) // (cid == j).sum()
        assert np.array_equal(cents, c)

    def test_kmeans_empty_input_raises(self, ray_session):
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.ann import kmeans_quantized

        ds = rd.from_items(
            [{"vec_id": 0, "embedding": [0.0, 1.0]}]
        ).filter(lambda r: False)
        with pytest.raises(ValueError, match="no vectors"):
            kmeans_quantized(ds, n_clusters=2, iterations=1)

    def test_asof_keeps_null_key_probe_rows(self, ray_session):
        """ADVICE r2: LEFT-join semantics -- null-key/null-time left rows
        pass through unmatched instead of vanishing."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.joins import asof_join

        left = pa.table(
            {
                "lid": pa.array([0, 1, 2, 3], pa.int64()),
                "k": pa.array([1, None, 1, None], pa.int64()),
                "t": pa.array([50, 50, None, None], pa.int64()),
            }
        )
        right = pa.table(
            {
                "rid": pa.array([7], pa.int64()),
                "k": pa.array([1], pa.int64()),
                "t": pa.array([40], pa.int64()),
            }
        )
        out = asof_join(
            rd.from_arrow(left),
            rd.from_arrow(right),
            by="k",
            on="t",
            tiebreak="rid",
            left_cols=["lid"],
            right_cols=["rid"],
            num_buckets=3,
        ).to_pandas()
        assert len(out) == 4  # all left rows survive
        got = dict(zip(out["lid"], out["rid_match"]))
        assert int(got[0]) == 7
        for lid in (1, 2, 3):
            assert pd.isna(got[lid])

    def test_jaccard_join_fallback_matches_broadcast(
        self, ray_session, plan_budgets
    ):
        """VERDICT r2 #2: the distributed two-join text attach must equal
        the broadcast path exactly."""
        import pandas as pd

        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"

        def frame(ds):
            return (
                ds.to_pandas()
                .sort_values(["a", "b"])
                .reset_index(drop=True)[["a", "b", "jaccard"]]
            )

        want = frame(eq.dedup_jaccard_verified(sf))
        plan_budgets(broadcast=1)  # force the over-budget join fallbacks
        got = frame(eq.dedup_jaccard_verified(sf))
        pd.testing.assert_frame_equal(got, want)

    def test_quantile_bounds_continuous(self, ray_session):
        """VERDICT r2 #7: fixed-width binning front -- exact rank-q value
        provably inside the returned [lo, hi) bin on a continuous column."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import exact_quantile_bounds

        rng = np.random.default_rng(7)
        vals = rng.normal(100.0, 25.0, size=4000)  # continuous, all distinct
        ds = rd.from_items([{"value": float(v)} for v in vals])
        out = exact_quantile_bounds(ds, "value", bin_width=5.0).to_pydict()
        srt = np.sort(vals)
        n = len(srt)
        for (num, den), lo, hi, bc in zip(
            ((1, 2), (9, 10), (99, 100)), out["lo"], out["hi"],
            out["bin_count"],
        ):
            rank = (num * n + den - 1) // den
            exact = srt[rank - 1]
            assert lo <= exact < hi
            assert hi - lo == 5.0
            # the bin count equals the true number of values in [lo, hi)
            assert bc == int(((srt >= lo) & (srt < hi)).sum())

    def test_quantile_bounds_validates_width(self, ray_session):
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import exact_quantile_bounds

        with pytest.raises(ValueError):
            exact_quantile_bounds(
                rd.from_items([{"value": 1.0}]), "value", bin_width=0.0
            )

    def test_asof_wide_matches_slim(self, ray_session):
        """asof_join_wide (slim shuffle + row-id gather) must produce the
        same matches as asof_join carrying the payload through."""
        import random

        import pandas as pd

        from marc2rdf_ray.ops.joins import asof_join, asof_join_wide

        import ray.data as rd

        def mk(rows):
            return rd.from_items(rows)

        rng = random.Random(21)
        right = [
            {"rid": i, "k": rng.randrange(5), "t": rng.randrange(80),
             "payload": f"r{i}" * 3}
            for i in range(90)
        ]
        left = [
            {"lid": i, "k": rng.randrange(7), "t": rng.randrange(80),
             "note": f"l{i}"}
            for i in range(60)
        ]
        slim = asof_join(
            mk(left), mk(right),
            by="k", on="t", tiebreak="rid",
            left_cols=["lid", "note"], right_cols=["rid", "payload"],
            num_buckets=4,
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        wide = asof_join_wide(
            mk(left), mk(right),
            by="k", on="t", tiebreak="rid",
            left_id="lid", right_id="rid",
            left_cols=["lid", "note"], right_cols=["rid", "payload"],
            num_buckets=4, num_partitions=3,
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            wide[slim.columns.tolist()], slim, check_dtype=False
        )
        # forward direction plumbs through the wide variant identically
        slim_f = asof_join(
            mk(left), mk(right),
            by="k", on="t", tiebreak="rid",
            left_cols=["lid", "note"], right_cols=["rid", "payload"],
            num_buckets=4, direction="forward",
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        wide_f = asof_join_wide(
            mk(left), mk(right),
            by="k", on="t", tiebreak="rid",
            left_id="lid", right_id="rid",
            left_cols=["lid", "note"], right_cols=["rid", "payload"],
            num_buckets=4, num_partitions=3, direction="forward",
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            wide_f[slim_f.columns.tolist()], slim_f, check_dtype=False
        )
        assert not slim_f["rid_match"].equals(slim["rid_match"])

    def test_asof_wide_join_fallback_matches_broadcast(self, ray_session,
                                                       plan_budgets):
        """Forcing a zero broadcast budget must route the payload gather
        through the distributed hash joins and produce identical rows."""
        import random

        import pandas as pd

        from marc2rdf_ray.ops.joins import asof_join_wide

        import ray.data as rd

        rng = random.Random(33)
        right = [
            {"rid": i, "k": rng.randrange(5), "t": rng.randrange(60),
             "payload": f"r{i}"}
            for i in range(70)
        ]
        left = [
            {"lid": i, "k": rng.randrange(7), "t": rng.randrange(60),
             "note": f"l{i}"}
            for i in range(50)
        ]
        kw = dict(
            by="k", on="t", tiebreak="rid", left_id="lid", right_id="rid",
            left_cols=["lid", "note"], right_cols=["rid", "payload"],
            num_buckets=4, num_partitions=3,
        )
        bcast = asof_join_wide(
            rd.from_items(left), rd.from_items(right), **kw
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        plan_budgets(broadcast=0)
        joined = asof_join_wide(
            rd.from_items(left), rd.from_items(right), **kw
        ).to_pandas().sort_values("lid").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            joined[bcast.columns.tolist()], bcast, check_dtype=False
        )


class TestCorpusOps:
    def test_top_ngrams_matches_counter(self, ray_session):
        import re
        from collections import Counter

        import ray.data as rd

        from marc2rdf_ray.ops.corpus import top_ngrams

        texts = [
            "the cat sat on the mat",
            "the cat ran",
            "a cat sat on a mat",
            "",
        ]
        ds = rd.from_items([{"text": t} for t in texts])
        got = [
            (r["ngram"], r["cnt"])
            for r in top_ngrams(ds, n=2, k=5).take_all()
        ]
        counts = Counter()
        for t in texts:
            toks = re.findall(r"\S+", t)
            counts.update(
                " ".join(toks[i:i + 2]) for i in range(len(toks) - 1)
            )
        want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert got == want

    def test_decontaminate_drops_matching_docs(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import decontaminate

        docs = [
            {"doc_id": 1, "text": "clean document body"},
            {"doc_id": 2, "text": "contains the SECRET EVAL SPAN here"},
            {"doc_id": 3, "text": "another clean one"},
        ]
        out = decontaminate(
            rd.from_items(docs), ["SECRET EVAL SPAN", ""]
        ).to_pandas()
        assert sorted(out["doc_id"]) == [1, 3]
        # empty blocklist is the identity
        out2 = decontaminate(rd.from_items(docs), []).to_pandas()
        assert len(out2) == 3

    def test_per_group_quota_sample_deterministic(self, ray_session):
        import hashlib

        import ray.data as rd

        from marc2rdf_ray.ops.corpus import per_group_quota_sample

        rows = [
            {"doc_id": i, "lang": ["en", "no", "de"][i % 3]}
            for i in range(90)
        ]
        out = per_group_quota_sample(
            rd.from_items(rows), group_col="lang", id_col="doc_id", quota=4
        ).to_pandas()
        assert len(out) == 12
        for lang in ("en", "no", "de"):
            ids = [r["doc_id"] for r in rows if r["lang"] == lang]
            want = sorted(
                ids,
                key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i),
            )[:4]
            got = sorted(out[out.lang == lang]["doc_id"].tolist())
            assert got == sorted(want)


class TestSlidingWindow:
    def test_matches_naive(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import sliding_window

        rng = np.random.RandomState(7)
        n = 2000
        users = rng.randint(0, 25, n)
        base = 1_700_000_000_000_000
        ts = base + rng.randint(0, 3600_000_000 * 40, n)
        vals = np.round(rng.uniform(0, 100, n), 2)
        tab = pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "value": pa.array(vals, pa.float64()),
            }
        )
        hop, width = 3_600_000_000, 3
        out = (
            sliding_window(rd.from_arrow(tab), hop_us=hop, width_hops=width)
            .to_pandas()
            .sort_values(["user_id", "window_end_hop"])
            .reset_index(drop=True)
        )
        # brute force
        import collections

        cents = np.floor(vals * 100 + 0.5).astype(np.int64)
        hops = ts // hop
        per = collections.defaultdict(lambda: [0, 0])  # (u,hop)->[cnt,sum]
        for u, h, c in zip(users, hops, cents):
            per[(u, h)][0] += 1
            per[(u, h)][1] += c
        want = {}
        for (u, h) in per:
            cnt = sum(per.get((u, h - d), [0, 0])[0] for d in range(width))
            s = sum(per.get((u, h - d), [0, 0])[1] for d in range(width))
            want[(u, h)] = (cnt, s)
        assert len(out) == len(want)
        for row in out.itertuples():
            assert want[(row.user_id, row.window_end_hop)] == (
                row.n_events,
                row.sum_value_cents,
            ), (row.user_id, row.window_end_hop)

    def test_window_never_crosses_users(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import sliding_window

        # two users in adjacent hops: each window must only see its own user
        tab = pa.table(
            {
                "user_id": pa.array([1, 2], pa.int64()),
                "ts": pa.array(
                    [3_600_000_000 * 10, 3_600_000_000 * 11], pa.timestamp("us")
                ),
                "value": pa.array([1.0, 2.0], pa.float64()),
            }
        )
        out = (
            sliding_window(rd.from_arrow(tab), width_hops=3)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert list(out["n_events"]) == [1, 1]
        assert list(out["sum_value_cents"]) == [100, 200]


class TestHllSketch:
    def test_registers_match_reference_and_estimate(self, ray_session):
        import hashlib

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.sketches import hll_estimate, hll_registers

        p = 10
        n_distinct = 5000
        keys = np.repeat(np.arange(n_distinct, dtype=np.int64), 2)  # dups
        ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
        regs = hll_registers(ds, "k", p=p).to_pandas()
        # pure-Python reference
        want = {}
        for k in set(keys.tolist()):
            hv = int(hashlib.md5(str(k).encode()).hexdigest()[:16], 16)
            reg = hv >> (64 - p)
            rest = hv & ((1 << (64 - p)) - 1)
            rho = (64 - p) - rest.bit_length() + 1
            want[reg] = max(want.get(reg, 0), rho)
        got = dict(zip(regs["register"], regs["max_rho"]))
        assert got == want
        est = hll_estimate(
            pa.table(
                {
                    "register": pa.array(regs["register"], pa.int64()),
                    "max_rho": pa.array(regs["max_rho"], pa.int64()),
                }
            ),
            p=p,
        )
        assert abs(est - n_distinct) / n_distinct < 0.1


class TestCmsAndBloom:
    def test_cms_upper_bound_and_replay(self, ray_session):
        import hashlib

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.sketches import cms_counts

        rng = np.random.RandomState(3)
        keys = rng.zipf(1.5, 5000) % 200  # skewed counts over 200 keys
        ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
        depth, width = 4, 256
        probes = list(range(20))
        out = cms_counts(ds, "k", probes, depth=depth, width=width)
        got = dict(zip(out["key"].to_pylist(), out["cms_count"].to_pylist()))
        # pure-Python replay
        import collections

        grid = [collections.Counter() for _ in range(depth)]
        for k in keys.tolist():
            for r in range(depth):
                hv = int(
                    hashlib.md5((str(r) + str(k)).encode()).hexdigest()[:16], 16
                )
                grid[r][hv % width] += 1
        exact = collections.Counter(int(k) for k in keys)
        for p in probes:
            want = min(
                grid[r][
                    int(
                        hashlib.md5(
                            (str(r) + str(p)).encode()
                        ).hexdigest()[:16],
                        16,
                    )
                    % width
                ]
                for r in range(depth)
            )
            assert got[str(p)] == want
            assert got[str(p)] >= exact[p]  # CMS never undercounts

    def test_bloom_superset_and_replay(self, ray_session):
        import hashlib

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.sketches import bloom_flag

        ids = list(range(400))
        blocked = [i for i in ids if i % 23 == 0]
        ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64())}))
        m_bits, k = 256, 3
        out = bloom_flag(ds, "doc_id", blocked, m_bits=m_bits, k=k)
        got = sorted(out.to_pandas()["doc_id"].tolist())
        # pure-Python replay (includes any false positives)
        bits = set()
        for b in blocked:
            for j in range(k):
                hv = int(
                    hashlib.md5((str(j) + str(b)).encode()).hexdigest()[:16], 16
                )
                bits.add(hv % m_bits)
        want = [
            i
            for i in ids
            if all(
                int(hashlib.md5((str(j) + str(i)).encode()).hexdigest()[:16], 16)
                % m_bits
                in bits
                for j in range(k)
            )
        ]
        assert got == want
        assert set(blocked) <= set(got)  # no false negatives, ever


class TestWeightedSample:
    def test_rates_nesting_and_replay(self, ray_session):
        import hashlib

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import weighted_sample

        n = 4000
        langs = ["en", "no", "de"]
        tab = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "lang": pa.array([langs[i % 3] for i in range(n)]),
            }
        )
        ds = rd.from_arrow(tab)
        out = weighted_sample(ds, {"en": 0.25, "no": 0.75}).to_pandas()
        # pure-Python replay
        def kept(i, w):
            return int(
                hashlib.md5(str(i).encode()).hexdigest()[:8], 16
            ) < int(w * (1 << 32))

        want = [
            (i, langs[i % 3])
            for i in range(n)
            if kept(i, {"en": 0.25, "no": 0.75}.get(langs[i % 3], 1.0))
        ]
        got = sorted(zip(out["doc_id"], out["lang"]))
        assert got == want
        # empirical rates near the weights
        import collections

        cnt = collections.Counter(out["lang"])
        assert abs(cnt["en"] / (n / 3) - 0.25) < 0.05
        assert abs(cnt["no"] / (n / 3) - 0.75) < 0.05
        n_de = sum(1 for i in range(n) if i % 3 == 2)
        assert cnt["de"] == n_de  # default weight 1.0 keeps everything
        # nesting: a tighter weight selects a SUBSET
        tight = weighted_sample(ds, {"en": 0.1, "no": 0.75}).to_pandas()
        assert set(tight[tight.lang == "en"]["doc_id"]) <= set(
            out[out.lang == "en"]["doc_id"]
        )


class TestPackStreaming:
    def test_matches_serial_prefix_sum(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import pack_streaming

        rng = np.random.RandomState(7)
        ids = np.arange(0, 600, 3)  # sparse id space
        texts = [
            " ".join(f"t{j}" for j in range(rng.randint(0, 40)))
            for _ in ids
        ]
        texts[5] = ""  # zero-token doc
        tab = pa.table({"doc_id": pa.array(ids, pa.int64()),
                        "text": pa.array(texts)})
        out = (
            pack_streaming(rd.from_arrow(tab).repartition(7), 50,
                           n_buckets=5)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        cnt = np.array([len(t.split()) for t in texts], np.int64)
        start = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        assert (out["doc_id"].to_numpy() == ids).all()
        assert (out["n_tokens"].to_numpy() == cnt).all()
        assert (out["start_offset"].to_numpy() == start).all()
        assert (out["pack_id"].to_numpy() == start // 50).all()


class TestChunkText:
    def test_matches_python_slicing(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import chunk_text

        texts = ["abcdefghij", "åøæ日本語xy", "", None, "12345"]
        tab = pa.table(
            {"doc_id": pa.array(range(5), pa.int64()),
             "text": pa.array(texts, pa.string())}
        )
        out = (
            chunk_text(rd.from_arrow(tab).repartition(3), 4)
            .to_pandas()
            .sort_values(["doc_id", "chunk_id"])
            .reset_index(drop=True)
        )
        want = []
        for i, t in enumerate(texts):
            t = t or ""
            for k in range(0, len(t), 4):
                want.append((i, k // 4, t[k: k + 4]))
        got = list(out.itertuples(index=False, name=None))
        assert got == want


class TestTfidfTopTerms:
    def _corpus(self):
        import numpy as np

        rng = np.random.RandomState(3)
        vocab = [f"w{j}" for j in range(30)]
        texts = [
            " ".join(vocab[rng.randint(0, 30)] for _ in range(rng.randint(1, 60)))
            for _ in range(40)
        ]
        texts[7] = ""
        return texts

    def _serial(self, texts, k=3):
        import math
        from collections import Counter

        n = len(texts)
        df: Counter = Counter()
        for t in texts:
            df.update(set(t.split()))
        want = []
        for i, t in enumerate(texts):
            tf = Counter(t.split())
            rows = sorted(
                (
                    (-math.floor(c * math.log(n * 1.0 / df[w]) * 10000 + 0.5), w, c)
                    for w, c in tf.items()
                )
            )[:k]
            want += [(i, w, c, -neg) for neg, w, c in rows]
        return sorted(want)

    def test_broadcast_and_join_paths_match_serial(self, ray_session,
                                                   plan_budgets):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import tfidf_top_terms

        texts = self._corpus()
        tab = pa.table(
            {"doc_id": pa.array(range(len(texts)), pa.int64()),
             "text": pa.array(texts)}
        )
        want = self._serial(texts)
        for budget in (256 << 20, 1):  # broadcast path, then join fallback
            plan_budgets(broadcast=budget)
            out = tfidf_top_terms(
                rd.from_arrow(tab).repartition(5), k=3
            ).to_pandas()
            got = sorted(map(tuple, out.itertuples(index=False, name=None)))
            assert got == want, f"budget={budget}"


class TestTriangleCount:
    def test_matches_bruteforce_both_orientations(self, ray_session,
                                                  plan_budgets):
        import itertools

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import triangle_count

        rng = np.random.RandomState(5)
        n, m = 60, 400
        src = rng.randint(0, n, m)
        dst = rng.randint(0, n, m)
        # hub node, self loops, reverse duplicates
        src = np.concatenate([src, np.zeros(30, int), dst[:50], np.arange(10)])
        dst = np.concatenate([dst, rng.randint(0, n, 30), src[:50],
                              np.arange(10)])
        tab = pa.table({"src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64())})
        adj = {(min(s, d), max(s, d)) for s, d in zip(src, dst) if s != d}
        nodes = sorted({x for e in adj for x in e})
        want = sum(
            1
            for a, b, c in itertools.combinations(nodes, 3)
            if (a, b) in adj and (b, c) in adj and (a, c) in adj
        )
        ds = rd.from_arrow(tab).repartition(6)
        assert triangle_count(ds, num_buckets=8) == want
        # degree table over budget -> id-rank orientation, same count
        plan_budgets(broadcast=0)
        assert triangle_count(ds, num_buckets=8) == want


class TestRedact:
    def test_email_and_number_scrub(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import redact

        texts = [
            "mail me at bob.smith+x@ex-ample.co.uk or call 12345678",
            "year 1999 and 123 stay partial: 123 kept, 4567 goes",
            None,
        ]
        tab = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                        "text": pa.array(texts, pa.string())})
        out = (
            redact(rd.from_arrow(tab),
                   [(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
                     "[EMAIL]"),
                    (r"[0-9]{4,}", "[NUM]")])
            .to_pandas().sort_values("doc_id")["text"].tolist()
        )
        assert out == [
            "mail me at [EMAIL] or call [NUM]",
            "year [NUM] and 123 stay partial: 123 kept, [NUM] goes",
            "",
        ]


class TestRepetitionStats:
    def test_counts_and_ppm(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.textstats import repetition_batch

        tab = pa.table(
            {"doc_id": pa.array([0, 1, 2], pa.int64()),
             "text": pa.array(["a a a b", "", "x y z"], pa.string())}
        )
        out = (
            rd.from_arrow(tab)
            .map_batches(repetition_batch, batch_format="pyarrow")
            .to_pandas().sort_values("doc_id")
        )
        assert out["n_tokens"].tolist() == [4, 0, 3]
        assert out["distinct_tokens"].tolist() == [2, 0, 3]
        assert out["top_token_cnt"].tolist() == [3, 0, 1]
        assert out["rep_ppm"].tolist() == [750000, 0, 333333]


class TestHashSplit:
    def test_deterministic_and_exhaustive(self, ray_session):
        import hashlib

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import hash_split

        tab = pa.table({"doc_id": pa.array(range(400), pa.int64())})
        fr = [("train", 0.75), ("val", 0.125), ("test", 0.125)]
        out = (
            hash_split(rd.from_arrow(tab).repartition(4), fr)
            .to_pandas().set_index("doc_id")["split"].to_dict()
        )
        b1, b2 = int(0.75 * (1 << 32)), int(0.875 * (1 << 32))
        for i in range(400):
            h = int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
            want = "train" if h < b1 else ("val" if h < b2 else "test")
            assert out[i] == want, i
        assert set(out.values()) == {"train", "val", "test"}


class TestKnnGraph:
    def test_matches_serial_bruteforce(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.ann import knn_graph

        rng = np.random.RandomState(9)
        n, d = 50, 8
        mat = rng.randn(n, d)
        mat[17] = mat[3]  # exact duplicate -> cosine tie, id-asc break
        tab = pa.table(
            {"vec_id": pa.array(range(n), pa.int64()),
             "embedding": pa.array([list(map(float, r)) for r in mat])}
        )
        out = (
            knn_graph(rd.from_arrow(tab).repartition(5), k=2)
            .to_pandas()
        )
        u = mat / np.linalg.norm(mat, axis=1)[:, None]
        sims = u @ u.T
        np.fill_diagonal(sims, -np.inf)
        want = set()
        for i in range(n):
            order = sorted(range(n), key=lambda j: (-sims[i, j], j))[:2]
            for j in order:
                want.add((i, j, round(float(sims[i, j]), 4)))
        got = set(map(tuple, out.itertuples(index=False, name=None)))
        assert got == want
        # duplicate rows are each other's top neighbor at score 1.0
        assert (3, 17, 1.0) in got and (17, 3, 1.0) in got


class TestRunningTotals:
    def test_matches_pandas_window(self, ray_session):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import running_totals

        rng = np.random.RandomState(4)
        n = 800
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.randint(0, 40, n).astype(np.int64),
                "ts": pd.to_datetime(
                    rng.randint(0, 10**6, n) * 1000, unit="us"
                ),
                "value": np.round(rng.uniform(0, 30, n), 2),
            }
        )
        # timestamp ties inside a user to exercise the id tie-break
        df.loc[1, ["user_id", "ts"]] = df.loc[0, ["user_id", "ts"]]
        tab = pa.Table.from_pandas(df, preserve_index=False)
        # the real events table is timestamp[us] (TESTDATA.md)
        idx = tab.column_names.index("ts")
        tab = tab.set_column(
            idx, "ts", tab["ts"].cast(pa.timestamp("us"))
        )
        out = (
            running_totals(rd.from_arrow(tab).repartition(6))
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        w = df.assign(
            ts_us=df.ts.astype("int64") // 1000,
            vc=np.floor(df.value * 100 + 0.5).astype(np.int64),
        ).sort_values(["user_id", "ts_us", "event_id"])
        w["running_cnt"] = w.groupby("user_id").cumcount() + 1
        w["running_cents"] = w.groupby("user_id")["vc"].cumsum()
        w = w.sort_values("event_id").reset_index(drop=True)
        assert (out["running_cnt"] == w["running_cnt"]).all()
        assert (out["running_cents"] == w["running_cents"]).all()
        assert (out["ts_us"] == w["ts_us"]).all()


class TestDegreeHistogram:
    def test_matches_bruteforce(self, ray_session):
        from collections import Counter

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import degree_histogram

        rng = np.random.RandomState(2)
        src = rng.randint(0, 40, 300)
        dst = rng.randint(0, 40, 300)
        tab = pa.table({"src": pa.array(src, pa.int64()),
                        "dst": pa.array(dst, pa.int64())})
        adj = {(min(s, d), max(s, d)) for s, d in zip(src, dst) if s != d}
        deg: Counter = Counter()
        for u, v in adj:
            deg[u] += 1
            deg[v] += 1
        want = sorted(Counter(deg.values()).items())
        out = (
            degree_histogram(rd.from_arrow(tab).repartition(4),
                             num_buckets=6)
            .to_pandas().sort_values("degree")
        )
        assert list(map(tuple, out.itertuples(index=False, name=None))) == want


class TestPercentileRanks:
    def test_matches_strict_rank(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import percentile_ranks

        rng = np.random.RandomState(6)
        n = 2000
        types = np.array(["a", "b"])[rng.randint(0, 2, n)]
        vals = np.round(rng.uniform(0, 20, n), 2)
        tab = pa.table(
            {
                "event_id": pa.array(range(n), pa.int64()),
                "event_type": pa.array(types),
                "value": pa.array(vals, pa.float64()),
            }
        )
        out = (
            percentile_ranks(
                rd.from_arrow(tab).repartition(5), "event_type", "value"
            )
            .to_pandas().set_index("event_id")
        )
        cents = np.floor(vals * 100 + 0.5).astype(np.int64)
        for g in ("a", "b"):
            gv = cents[types == g]
            ng = len(gv)
            for i in np.flatnonzero(types == g)[:200]:
                want = int((gv < cents[i]).sum()) * 1_000_000 // ng
                assert out.loc[i, "pct_ppm"] == want, i


class TestKnnGraphIvf:
    def test_recall_vs_exact(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.ann import knn_graph, knn_graph_ivf

        rng = np.random.RandomState(12)
        n, d, C = 120, 16, 10
        # clustered data so IVF cells are meaningful
        centers = rng.randn(C, d) * 3
        mat = centers[rng.randint(0, C, n)] + rng.randn(n, d) * 0.4
        tab = pa.table(
            {"vec_id": pa.array(range(n), pa.int64()),
             "embedding": pa.array([list(map(float, r)) for r in mat])}
        )
        ds = rd.from_arrow(tab).repartition(4)
        exact = {
            (r.qid, r.nbr)
            for r in knn_graph(ds, k=2).to_pandas().itertuples()
        }
        approx = knn_graph_ivf(
            ds, mat[:C], k=2, nprobe=3
        ).to_pandas()
        got = {(r.qid, r.vec_id) for r in approx.itertuples()}
        # every query answered, and decent recall on clustered data
        assert len({q for q, _ in got}) == n
        recall = len(got & exact) / len(exact)
        assert recall >= 0.7, recall


class TestPivotCounts:
    def test_matches_pandas_crosstab(self, ray_session):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import pivot_counts

        rng = np.random.RandomState(8)
        n = 1000
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 50, n).astype(np.int64),
                "event_type": np.array(["a", "b", "c"])[rng.randint(0, 3, n)],
            }
        )
        out = (
            pivot_counts(
                rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
                .repartition(5),
                "user_id", "event_type", ["a", "b", "c"],
            )
            .to_pandas().set_index("user_id").sort_index()
        )
        want = pd.crosstab(df.user_id, df.event_type).reindex(
            columns=["a", "b", "c"], fill_value=0
        )
        assert (out[["a", "b", "c"]].values == want.values).all()


class TestUnpivot:
    def test_melt_roundtrip(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import unpivot

        tab = pa.table(
            {
                "k": pa.array([1, 2], pa.int64()),
                "a": pa.array([10, 20], pa.int64()),
                "b": pa.array([30, 40], pa.int64()),
            }
        )
        out = (
            unpivot(rd.from_arrow(tab), ["k"], ["a", "b"])
            .to_pandas().sort_values(["k", "variable"])
            .reset_index(drop=True)
        )
        got = list(out.itertuples(index=False, name=None))
        assert got == [
            (1, "a", 10), (1, "b", 30), (2, "a", 20), (2, "b", 40)
        ]


class TestFunnel:
    def test_matches_serial_chain(self, ray_session):
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import funnel

        rng = np.random.RandomState(13)
        n = 1500
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 60, n).astype(np.int64),
                "event_type": np.array(["view", "click", "purchase", "other"])[
                    rng.randint(0, 4, n)
                ],
                "ts": pd.to_datetime(
                    rng.randint(0, 10**7, n) * 1000, unit="us"
                ),
            }
        )
        tab = pa.Table.from_pandas(df, preserve_index=False)
        idx = tab.column_names.index("ts")
        tab = tab.set_column(idx, "ts", tab["ts"].cast(pa.timestamp("us")))
        out = (
            funnel(rd.from_arrow(tab).repartition(6),
                   ["view", "click", "purchase"])
            .to_pandas().set_index("user_id").sort_index()
        )
        df["tus"] = df.ts.astype("int64") // 1000
        seen_users = sorted(
            df[df.event_type.isin(["view", "click", "purchase"])]
            .user_id.unique()
        )
        assert list(out.index) == seen_users
        for uid in seen_users:
            g = df[df.user_id == uid]

            def first_at_or_after(typ, t0):
                c = g[(g.event_type == typ) & (g.tus >= t0)]
                return int(c.tus.min()) if len(c) else None

            t1 = first_at_or_after("view", -(10**18))
            t2 = first_at_or_after("click", t1) if t1 is not None else None
            t3 = (
                first_at_or_after("purchase", t2)
                if t2 is not None else None
            )
            want_done = 3 if t3 else (2 if t2 else (1 if t1 else 0))
            row = out.loc[uid]
            assert row["steps_completed"] == want_done, uid
            for name, want in (("t1", t1), ("t2", t2), ("t3", t3)):
                got = row[name]
                assert (pd.isna(got) and want is None) or got == want, (
                    uid, name)


class TestIncrementalDedup:
    def _win(self, ids, texts):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array(ids, pa.int64()),
                 "text": pa.array(texts, pa.string())}
            )
        )

    def test_cross_window_state(self, ray_session, tmp_path, plan_budgets):
        import os

        from marc2rdf_ray.ops.dedup import incremental_dedup

        state = str(tmp_path / "dedup_state")
        # window 1: one internal dup
        k1 = incremental_dedup(
            self._win([0, 1, 2], ["aa", "bb", "aa"]), state, "w1"
        ).to_pandas()
        assert sorted(k1["doc_id"]) == [0, 1]  # 'aa' kept once (min id)
        # window 2: one cross-window dup ('bb'), one new
        k2 = incremental_dedup(
            self._win([10, 11], ["bb", "cc"]), state, "w2"
        ).to_pandas()
        assert sorted(k2["doc_id"]) == [11]
        # committed rerun of w2 is idempotent (same survivors)
        k2b = incremental_dedup(
            self._win([10, 11], ["bb", "cc"]), state, "w2"
        ).to_pandas()
        assert sorted(k2b["doc_id"]) == [11]
        # crashed window (dir without _done marker) is ignored as state
        os.makedirs(os.path.join(state, "win=crashed"), exist_ok=True)
        # window 3 via the JOIN fallback path (budget 0): dups vs w1+w2
        plan_budgets(broadcast=0)
        k3 = incremental_dedup(
            self._win([20, 21, 22], ["cc", "dd", "aa"]), state, "w3",
        ).to_pandas()
        assert sorted(k3["doc_id"]) == [21]


class TestHeavyUsers:
    def test_skewed_corpus_end_to_end(self, ray_session, tmp_path):
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from marc2rdf_ray.entry_queries import events_heavy_users

        rng = np.random.RandomState(21)
        # 3 hot users (300 events each) + 60 cold users (~10 each)
        hot = np.repeat([1001, 1002, 1003], 300)
        cold = rng.randint(0, 60, 600)
        users = np.concatenate([hot, cold])
        rng.shuffle(users)
        pq.write_table(
            pa.table({"user_id": pa.array(users, pa.int64())}),
            str(tmp_path / "events.parquet"),
        )
        out = events_heavy_users(str(tmp_path)).to_pandas()
        total, nu = len(users), len(np.unique(users))
        thr = (13 * total) // (10 * nu)
        want = {
            int(u): int((users == u).sum())
            for u in np.unique(users)
            if (users == u).sum() >= thr
        }
        assert dict(zip(out["user_id"], out["cnt"])) == want
        assert set(want) == {1001, 1002, 1003}


class TestAsofForward:
    def test_matches_naive_forward(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.joins import asof_join

        rng = np.random.RandomState(17)
        nl, nr = 200, 300
        left = pa.table(
            {
                "event_id": pa.array(range(nl), pa.int64()),
                "user_id": pa.array(rng.randint(0, 12, nl), pa.int64()),
                "ts_us": pa.array(rng.randint(0, 1000, nl), pa.int64()),
            }
        )
        right = pa.table(
            {
                "event_id": pa.array(range(1000, 1000 + nr), pa.int64()),
                "user_id": pa.array(rng.randint(0, 12, nr), pa.int64()),
                # duplicate timestamps to exercise the tiebreak
                "ts_us": pa.array(rng.randint(0, 500, nr), pa.int64()),
            }
        )
        out = (
            asof_join(
                rd.from_arrow(left).repartition(4),
                rd.from_arrow(right).repartition(3),
                by="user_id", on="ts_us", tiebreak="event_id",
                left_cols=["event_id", "user_id", "ts_us"],
                right_cols=["event_id", "ts_us"],
                direction="forward",
                num_buckets=5,
            )
            .to_pandas().set_index("event_id").sort_index()
        )
        r = right.to_pandas()
        for i in range(nl):
            u, t = left["user_id"][i].as_py(), left["ts_us"][i].as_py()
            cand = r[(r.user_id == u) & (r.ts_us >= t)]
            row = out.loc[i]
            if len(cand):
                cand = cand.sort_values(["ts_us", "event_id"]).iloc[0]
                assert row["event_id_match"] == cand["event_id"], i
                assert row["ts_us_match"] == cand["ts_us"], i
            else:
                import pandas as pd

                assert pd.isna(row["event_id_match"]), i


class TestGroupedQuantiles:
    def test_matches_numpy_per_group(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import grouped_quantiles

        rng = np.random.RandomState(11)
        n = 5000
        groups = np.array(["a", "b", "c"])[rng.randint(0, 3, n)]
        vals = np.round(rng.uniform(0, 50, n), 2)
        tab = pa.table(
            {
                "event_type": pa.array(groups),
                "value": pa.array(vals, pa.float64()),
            }
        )
        qs = ((1, 2), (9, 10))
        out = (
            grouped_quantiles(rd.from_arrow(tab), "event_type", "value", qs)
            .to_pandas()
            .set_index(["event_type", "q"])["value_cents"]
            .to_dict()
        )
        cents = np.floor(vals * 100 + 0.5).astype(np.int64)
        for g in ("a", "b", "c"):
            gv = np.sort(cents[groups == g])
            ng = len(gv)
            for num, den in qs:
                rank = (num * ng + den - 1) // den
                assert out[(g, num / den)] == gv[rank - 1], (g, num, den)


class TestAdviceR3Fixes:
    def test_triangle_truncation_flag_and_strict(self, ray_session):
        """ADVICE r3: a capped tail must be programmatically visible --
        with_truncation reports the tally, strict raises in the worker."""
        import itertools

        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.graph import triangle_count

        # K6: every node has degree 5; max_out=2 forces truncation
        nodes = range(6)
        pairs = list(itertools.combinations(nodes, 2))
        tab = pa.table(
            {
                "src": pa.array([a for a, _ in pairs], pa.int64()),
                "dst": pa.array([b for _, b in pairs], pa.int64()),
            }
        )
        ds = rd.from_arrow(tab)
        full, tr0 = triangle_count(ds, num_buckets=4, with_truncation=True)
        assert full == 20 and tr0 == 0
        n, tr = triangle_count(
            ds, num_buckets=4, max_out=2, with_truncation=True
        )
        assert tr > 0 and n < 20  # undercount is now detectable
        # plain int return is unchanged for existing callers
        assert triangle_count(ds, num_buckets=4) == 20
        with pytest.raises(Exception, match="max_out"):
            triangle_count(ds, num_buckets=4, max_out=2, strict=True)

    def test_asof_wide_rejects_null_row_ids(self, ray_session):
        """ADVICE r3: a null left_id would silently drop the row from the
        inner gather join; the op must fail loudly instead."""
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.joins import asof_join_wide

        left = pa.table(
            {
                "user_id": pa.array([1, 1], pa.int64()),
                "ts": pa.array([10, 20], pa.int64()),
                "lid": pa.array([1, None], pa.int64()),
            }
        )
        right = pa.table(
            {
                "user_id": pa.array([1], pa.int64()),
                "ts": pa.array([5], pa.int64()),
                "rid": pa.array([1], pa.int64()),
                "val": pa.array([7.0], pa.float64()),
            }
        )
        with pytest.raises(Exception, match="non-null"):
            asof_join_wide(
                rd.from_arrow(left),
                rd.from_arrow(right),
                by="user_id",
                on="ts",
                tiebreak="rid",
                left_id="lid",
                right_id="rid",
                left_cols=["lid", "ts"],
                right_cols=["val"],
            ).take_all()

    def test_tfidf_missing_term_is_diagnosable(self, ray_session):
        """ADVICE r3: a term absent from the df pass raises a ValueError
        naming the term, not a bare KeyError deep in a worker."""
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import tfidf_top_terms

        docs = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["alpha beta", "beta gamma"], pa.string()),
            }
        )
        out = tfidf_top_terms(rd.from_arrow(docs), k=2).take_all()
        assert len(out) == 4  # healthy path unchanged

        class Mutating:
            """Dataset stand-in whose second read returns different text."""

            def __init__(self, inner):
                self.inner = inner
                self.reads = 0

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def map_batches(self, fn, **kw):
                self.reads += 1
                if self.reads == 1:
                    return self.inner.map_batches(fn, **kw)
                swapped = self.inner.map_batches(
                    lambda b: pa.table(
                        {
                            "doc_id": b["doc_id"],
                            "text": pa.array(
                                ["NEWTERM"] * len(b), pa.string()
                            ),
                        }
                    ),
                    batch_format="pyarrow",
                )
                return swapped.map_batches(fn, **kw)

        with pytest.raises(Exception, match="NEWTERM"):
            tfidf_top_terms(Mutating(rd.from_arrow(docs)), k=1).take_all()


class TestHotKeyGuard:
    def test_warn_hot_keys_logs_and_names_key(self, caplog):
        """VERDICT r3 #5: pathological per-key skew must be observable."""
        import logging

        import numpy as np

        from marc2rdf_ray.ops.windows import _warn_hot_keys

        keys = np.sort(np.array([7] * 30 + [1, 2, 3], np.int64))
        with caplog.at_level(logging.WARNING, logger="marc2rdf_ray.windows"):
            _warn_hot_keys("sessionize", keys, cap=10)
        assert any("key 7" in r.message and "30 rows" in r.message
                   for r in caplog.records)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="marc2rdf_ray.windows"):
            _warn_hot_keys("sessionize", keys, cap=100)  # under cap: silent
        assert not caplog.records

    def test_hot_key_results_unchanged(self, ray_session):
        """The guard only observes: a synthetic hot key (one user owning
        90% of events) still sessionizes exactly like the serial replay."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.windows import sessionize

        rng = np.random.RandomState(7)
        n = 2000
        users = np.where(rng.rand(n) < 0.9, 42, rng.randint(0, 20, n))
        ts = np.sort(rng.randint(0, 10**10, n))
        vals = np.round(rng.rand(n) * 100, 2)
        tab = pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "ts": pa.array(ts, pa.int64()),
                "value": pa.array(vals, pa.float64()),
            }
        )
        out = sessionize(
            rd.from_arrow(tab), gap_us=10**8, num_buckets=4
        ).to_pandas().sort_values(
            ["user_id", "session_start_us"]
        ).reset_index(drop=True)

        # serial replay
        import pandas as pd

        df = tab.to_pandas()
        df["vc"] = np.floor(df["value"] * 100 + 0.5).astype(np.int64)
        rows = []
        for u, g in df.sort_values(["user_id", "ts"]).groupby("user_id"):
            start = None
            cur = []
            prev = None
            for _, r in g.iterrows():
                if prev is not None and r["ts"] - prev > 10**8:
                    rows.append((u, start, len(cur), sum(cur)))
                    start, cur = None, []
                if start is None:
                    start = r["ts"]
                cur.append(r["vc"])
                prev = r["ts"]
            rows.append((u, start, len(cur), sum(cur)))
        want = pd.DataFrame(
            rows,
            columns=[
                "user_id", "session_start_us", "n_events", "sum_value_cents"
            ],
        ).sort_values(["user_id", "session_start_us"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            out.astype(np.int64), want.astype(np.int64)
        )


class TestPluggableDecoders:
    def test_injected_decoder_replaces_raise(self, ray_session):
        """VERDICT r3 #3: with an injected decoder the stub raise path is
        gone, and the injected callable's answer flows through the same
        actor-pool plumbing (including the None -> decode_ok=False path)."""
        import ray.data as rd

        from marc2rdf_ray.ops.multimodal import (
            DecodeStub,
            FrameSampleStub,
            ResizeStub,
            synth_media_table,
        )

        media = synth_media_table(12, kinds=("image",))
        ds = rd.from_arrow(media)

        def toy_decoder(payload):
            if payload and payload[0] % 2 == 0:
                return (len(payload) % 100, 17)
            return None  # decode failure path

        out = ds.map_batches(
            DecodeStub,
            fn_constructor_kwargs={"decoder": toy_decoder},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=2,
        ).to_pandas().set_index("media_id")
        for r in media.to_pylist():
            want = toy_decoder(r["payload"])
            got = out.loc[r["media_id"]]
            if want is None:
                assert not got["decode_ok"] and got["width"] == 0
            else:
                assert got["decode_ok"]
                assert (got["width"], got["height"]) == want

        def toy_resizer(payload, target):
            return bytes(target[0] % 256) + (payload or b"")[:4]

        rz = ds.map_batches(
            ResizeStub,
            fn_constructor_kwargs={"resizer": toy_resizer, "target": (32, 32)},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=2,
        ).take_all()
        import hashlib as hl

        by_id = {r["media_id"]: r for r in rz}
        for r in media.to_pylist():
            want = hl.md5(toy_resizer(r["payload"], (32, 32))).hexdigest()
            assert by_id[r["media_id"]]["resized_md5"] == want

        def toy_prober(payload):
            if not payload:
                return None
            return (6, 100)  # 6 frames, 100ms apart

        fr = rd.from_arrow(media).map_batches(
            FrameSampleStub,
            fn_constructor_kwargs={"prober": toy_prober, "stride": 2},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=2,
        ).take_all()
        assert len(fr) == 12 * 3  # frames 0, 2, 4 per media row
        assert {(r["frame_idx"], r["frame_ts_ms"]) for r in fr} == {
            (0, 0), (2, 200), (4, 400)
        }

    def test_pil_factories_raise_clearly_without_pillow(self):
        import pytest

        from marc2rdf_ray.ops.multimodal import pil_decoder, pil_resizer

        try:
            import PIL  # noqa: F401

            pytest.skip("Pillow unexpectedly present")
        except ImportError:
            pass
        with pytest.raises(ImportError, match="decoder=callable"):
            pil_decoder()
        with pytest.raises(ImportError, match="resizer=callable"):
            pil_resizer()


class TestMRLSketch:
    def test_rank_error_within_proven_bound(self):
        """Property: for random data, random batch splits and merge
        orders, every quantile answer's true rank stays within the
        sketch's own error_bound() -- the documented MRL guarantee."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from marc2rdf_ray.ops.quantiles import MRLSketch

        @settings(max_examples=25, deadline=None)
        @given(
            st.lists(
                st.integers(min_value=-10**6, max_value=10**6),
                min_size=1,
                max_size=4000,
            ),
            st.integers(min_value=1, max_value=7),
            st.randoms(use_true_random=False),
        )
        def check(values, n_parts, rng):
            k = 64
            parts = [values[i::n_parts] for i in range(n_parts)]
            rng.shuffle(parts)
            sketches = [MRLSketch(k).add_many(p) for p in parts if p]
            merged = sketches[0]
            for s in sketches[1:]:
                merged.merge(s)
            assert merged.n == len(values)
            bound = merged.error_bound()
            arr = np.sort(np.asarray(values, np.int64))
            for num, den in ((1, 2), (9, 10), (99, 100)):
                v = merged.quantile(num, den)
                target = (num * len(arr) + den - 1) // den
                lo = int(np.searchsorted(arr, v, side="left"))
                hi = int(np.searchsorted(arr, v, side="right"))
                # v occupies ranks [lo+1, hi]; strict on the lo side
                assert lo + 1 <= target + bound and hi >= target - bound, (
                    v, target, bound, lo, hi,
                )

        check()

    def test_compact_state_and_roundtrip(self):
        """State stays O(k log(n/k)) values and the array serialization
        rebuilds an equivalent sketch."""
        import numpy as np

        from marc2rdf_ray.ops.quantiles import MRLSketch

        rng = np.random.RandomState(3)
        sk = MRLSketch(128)
        n = 200_000
        for i in range(20):
            sk.add_many(rng.randint(0, 10**9, n // 20))
        stored = sum(len(b) for b in sk.levels)
        assert stored < 2 * 128 * (len(sk.levels) + 1)  # O(k log) values
        assert sk.n == n
        vals, lvls, total = sk.to_arrays()
        back = MRLSketch.from_arrays(vals, lvls, total, 128)
        assert back.n == sk.n
        for num, den in ((1, 2), (99, 100)):
            assert back.quantile(num, den) == sk.quantile(num, den)

    def test_sketch_quantiles_dataset_op(self, ray_session):
        """The distributed op: answers land within the returned bound of
        the numpy exact answer on a skewed corpus."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import sketch_quantiles

        rng = np.random.RandomState(11)
        vals = np.round(np.exp(rng.randn(50_000) * 2) * 10, 2)  # heavy tail
        tab = pa.table({"value": pa.array(vals, pa.float64())})
        out, n, bound = sketch_quantiles(
            rd.from_arrow(tab).repartition(8), "value", k=256
        )
        assert n == len(vals)
        cents = np.sort(np.floor(vals * 100 + 0.5).astype(np.int64))
        for q, v in zip(out["q"].to_pylist(), out["value_cents"].to_pylist()):
            target = int(np.ceil(q * n))
            lo = int(np.searchsorted(cents, v, side="left"))
            hi = int(np.searchsorted(cents, v, side="right"))
            assert lo + 1 <= target + bound and hi >= target - bound
        # the bound itself is small relative to n (useful, not vacuous)
        assert bound < 0.05 * n


class TestBoilerplateRemoval:
    def test_threshold_order_and_empty_doc(self, ray_session):
        """Lines in >= min_docs DISTINCT docs are dropped (within-doc
        repeats count once); survivors keep order; a doc reduced to
        nothing stays as an empty-text row."""
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import remove_boilerplate_lines

        hot = "COOKIE BANNER"
        rows = []
        for i in range(10):
            rows.append((i, f"{hot}\nunique body {i}\n{hot}\n{hot}"))
        rows.append((100, hot))               # only the hot line -> ''
        rows.append((101, "rare line\nrare line"))  # 1 doc: kept, both
        tab = pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
        out = {
            r["doc_id"]: r["text"]
            for r in remove_boilerplate_lines(
                rd.from_arrow(tab).repartition(3), min_docs=11
            ).take_all()
        }
        # hot appears in 11 distinct docs (repeats in one doc count once)
        assert out[3] == "unique body 3"
        assert out[100] == ""          # row kept, text emptied
        assert out[101] == "rare line\nrare line"
        assert len(out) == 12

        # threshold just above: nothing removed
        out2 = {
            r["doc_id"]: r["text"]
            for r in remove_boilerplate_lines(
                rd.from_arrow(tab), min_docs=12
            ).take_all()
        }
        assert out2[3] == rows[3][1]


class TestParagraphDedup:
    """dedup_paragraphs_global: global first-occurrence-wins paragraph
    dedup (ops/corpus.py) -- the MassiveText complement to boilerplate
    removal (which kills ALL occurrences)."""

    def _ds(self, rows):
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                }
            )
        )

    def test_first_occurrence_wins_and_within_doc_repeat(self, ray_session):
        from marc2rdf_ray.ops.corpus import dedup_paragraphs_global

        ds = self._ds(
            [
                (1, "alpha\nshared\nbeta"),
                (2, "shared\ngamma\nshared"),  # within-doc repeat too
                (3, "shared"),                 # emptied -> dropped
                (4, "delta"),
            ]
        )
        out = {
            r["doc_id"]: r["text"]
            for r in dedup_paragraphs_global(ds).take_all()
        }
        assert out == {
            1: "alpha\nshared\nbeta",  # doc 1 owns the first 'shared'
            2: "gamma",                # both copies die (doc 1 won)
            4: "delta",
        }

    def test_position_breaks_tie_within_doc(self, ray_session):
        from marc2rdf_ray.ops.corpus import dedup_paragraphs_global

        ds = self._ds([(7, "x\ny\nx\nx")])
        out = dedup_paragraphs_global(ds).take_all()
        assert out == [{"doc_id": 7, "text": "x\ny"}]

    def test_null_and_empty_text(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import dedup_paragraphs_global

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array([None, "only"], pa.string()),
                }
            )
        )
        out = {
            r["doc_id"]: r["text"]
            for r in dedup_paragraphs_global(ds).take_all()
        }
        # null -> "" -> one empty paragraph, globally distinct -> survives
        assert out == {1: "", 2: "only"}


class TestTrigramLM:
    """Char-trigram LM scoring (ops/lm.py): model counts and microbit
    scores must equal a brute-force Python reference."""

    def _ref_counts(self, texts):
        import collections
        import re as _re

        c3 = collections.Counter()
        for t in texts:
            s = _re.sub(r"[^a-z ]", "", (t or "").lower())
            for i in range(max(len(s) - 2, 0)):
                c3[s[i: i + 3]] += 1
        return c3

    def test_counts_match_reference(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.lm import V, train_trigram_counts

        texts = ["Hello, World!", "abc abc ABC", "", None, "zz", "   "]
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        cnt3 = train_trigram_counts(ds)
        ref = self._ref_counts(texts)
        assert int(cnt3.sum()) == sum(ref.values())
        sym = "abcdefghijklmnopqrstuvwxyz "
        for tri, n in ref.items():
            code = (
                sym.index(tri[0]) * V * V
                + sym.index(tri[1]) * V
                + sym.index(tri[2])
            )
            assert cnt3[code] == n, tri

    def test_microbits_match_reference(self, ray_session):
        import math
        import re as _re

        import ray.data as rd

        from marc2rdf_ray.ops.lm import (
            V,
            train_trigram_counts,
            trigram_bits,
        )

        texts = ["the cat sat on the mat", "the dog", "zzzz", "a"]
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )
        cnt3 = train_trigram_counts(ds)
        out = {
            r["doc_id"]: (r["n_tri"], r["microbits"])
            for r in trigram_bits(ds, cnt3).take_all()
        }
        ref = self._ref_counts(texts)
        ctx = {}
        for tri, n in ref.items():
            ctx[tri[:2]] = ctx.get(tri[:2], 0) + n
        for i, t in enumerate(texts):
            s = _re.sub(r"[^a-z ]", "", (t or "").lower())
            m = max(len(s) - 2, 0)
            micro = 0
            for k in range(m):
                tri = s[k: k + 3]
                p = (ref[tri] + 1.0) / (ctx[tri[:2]] + float(V))
                micro += math.floor(-math.log2(p) * 1e6 + 0.5)
            assert out[i] == (m, micro), (i, t)

    def test_unseen_context_scores_uniform(self, ray_session):
        import math

        import ray.data as rd

        from marc2rdf_ray.ops.lm import V3, trigram_bits

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([0], pa.int64()),
                    "text": pa.array(["qxz"], pa.string()),
                }
            )
        )
        out = trigram_bits(ds, np.zeros(V3, np.int64)).take_all()
        # empty model: p = 1/27 for every window
        expect = math.floor(-math.log2(1.0 / 27.0) * 1e6 + 0.5)
        assert out == [{"doc_id": 0, "n_tri": 1, "microbits": expect}]


class TestMixtureFlatten:
    def test_flattens_toward_rarest_source(self, ray_session):
        import hashlib as _hashlib
        import math

        import ray.data as rd

        from marc2rdf_ray.ops.corpus import mixture_flatten_sample

        # 600 head / 300 mid / 100 tail
        ids = list(range(1000))
        srcs = ["head"] * 600 + ["mid"] * 300 + ["tail"] * 100
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "source": pa.array(srcs, pa.string()),
                }
            )
        )
        out = mixture_flatten_sample(ds).take_all()
        got = {}
        for r in out:
            got.setdefault(r["source"], set()).add(r["doc_id"])
        # tail (rarest) keeps everything
        assert got["tail"] == set(range(900, 1000))
        # membership replays the weighted_sample contract exactly
        for src, n in (("head", 600), ("mid", 300)):
            thr = int(math.sqrt(100 / n) * (1 << 32))
            lo = 0 if src == "head" else 600
            expect = {
                i
                for i in range(lo, lo + n)
                if int(
                    _hashlib.md5(str(i).encode()).hexdigest()[:8], 16
                ) < thr
            }
            assert got.get(src, set()) == expect, src
        # and it actually downsampled the head harder than the mid
        assert len(got["head"]) / 600 < len(got["mid"]) / 300

    def test_single_source_is_identity(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import mixture_flatten_sample

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "source": pa.array(["a", "a", "a"], pa.string()),
                }
            )
        )
        assert sorted(
            r["doc_id"] for r in mixture_flatten_sample(ds).take_all()
        ) == [1, 2, 3]


class TestSemDedup:
    def _ds(self):
        import numpy as np
        import ray.data as rd

        rng = np.random.default_rng(11)
        base = rng.normal(size=(40, 8)).astype(np.float64)
        rows = [
            {"vec_id": i, "embedding": base[i].tolist()} for i in range(40)
        ]
        # exact copies of the first 10 vectors at ids 100..109
        rows += [
            {"vec_id": 100 + i, "embedding": base[i].tolist()}
            for i in range(10)
        ]
        return rd.from_items(rows), base

    def test_semdedup_drops_copies_keeps_base(self, ray_session):
        """Exact copies (cos == 1) must be pruned; every base row (first
        occurrence by id) must survive any threshold < 1."""
        from marc2rdf_ray.ops.ann import semdedup

        ds, _ = self._ds()
        out = semdedup(
            ds, n_clusters=4, iterations=2, threshold=0.99
        ).to_pandas()
        kept = set(out["vec_id"])
        assert set(range(40)) <= kept
        assert not (kept & set(range(100, 110)))
        # one output row per kept id, cluster ids in range
        assert len(out) == len(kept)
        assert out["cluster"].between(0, 3).all()

    def test_semdedup_threshold_one_keeps_all_near_dups(self, ray_session):
        """At threshold just above every pairwise sim, nothing except the
        exact copies is pruned -- the greedy rule only fires on >= thr."""
        import numpy as np

        from marc2rdf_ray.ops.ann import semdedup

        ds, base = self._ds()
        out = semdedup(
            ds, n_clusters=4, iterations=2, threshold=1.0
        ).to_pandas()
        # cos(x, x) == 1.0 exactly after unit normalization? numpy matmul
        # of a unit row with itself can land at 0.9999999999999998 -- the
        # op must still prune EXACT copies at threshold 1.0 only if the
        # dot lands >= 1.0, so just assert all 40 base rows survive.
        assert set(out["vec_id"]) >= set(range(40))

    def test_semdedup_matches_serial_replay(self, ray_session):
        """Distributed result == serial greedy replay of the same
        semantics (cluster -> sort by id -> drop on earlier sim >= thr)."""
        import numpy as np

        from marc2rdf_ray.ops.ann import _quantize, semdedup

        ds, base = self._ds()
        thr = 0.6
        out = semdedup(ds, n_clusters=4, iterations=2, threshold=thr)
        got = sorted(out.to_pandas()["vec_id"].tolist())

        # serial replay
        ids = list(range(40)) + list(range(100, 110))
        mat = np.vstack([base, base[:10]])
        vq = _quantize(mat)
        c = vq[:4].copy()
        for _ in range(2):
            d2 = ((vq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            cid = np.argmin(d2, axis=1)
            for j in range(4):
                if (cid == j).any():
                    c[j] = vq[cid == j].sum(axis=0) // (cid == j).sum()
        d2 = ((vq[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        cid = np.argmin(d2, axis=1)
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        kept: list[int] = []
        for j in sorted(set(cid)):
            idx = [k for k in sorted(range(len(ids)), key=lambda k: ids[k])
                   if cid[k] == j]
            kept_rows: list[int] = []
            for k in idx:
                sims = [float(unit[k] @ unit[p]) for p in idx
                        if ids[p] < ids[k]]
                if not any(s >= thr for s in sims):
                    kept.append(ids[k])
        assert got == sorted(kept)


class TestInvertedIndex:
    def test_inverted_index_basics(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import inverted_index

        tab = pa.table(
            {
                "doc_id": pa.array([3, 1, 2, 4], pa.int64()),
                "text": pa.array(
                    ["b a a b", "a c", None, "  "]  # repeats, null, blank
                ),
            }
        )
        out = inverted_index(rd.from_arrow(tab)).to_pandas()
        rows = {r["term"]: (r["df"], r["postings"])
                for _, r in out.iterrows()}
        # repeated tokens dedup within a doc; postings ascend by doc id
        assert rows["a"] == (2, "1,3")
        assert rows["b"] == (1, "3")
        assert rows["c"] == (1, "1")
        assert set(rows) == {"a", "b", "c"}  # null/blank docs emit nothing

    def test_inverted_index_min_df(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import inverted_index

        tab = pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["x shared", "shared"]),
            }
        )
        out = inverted_index(rd.from_arrow(tab), min_df=2).to_pandas()
        assert out["term"].tolist() == ["shared"]
        assert out["postings"].tolist() == ["1,2"]


class TestSQ8TopK:
    def test_sq8_recall_vs_brute(self, ray_session):
        """With generous oversampling the SQ8 scan must recover the exact
        brute-force top-k (unit vectors, so int-dot ranking ~ cosine)."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.ann import brute_topk, sq8_topk

        rng = np.random.default_rng(5)
        mat = rng.normal(size=(200, 16))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        ds = rd.from_items(
            [
                {"vec_id": i, "embedding": mat[i].tolist()}
                for i in range(200)
            ]
        )
        qids, qmat = [0, 1], mat[:2]
        exact = brute_topk(ds, qids, qmat, k=5).to_pandas()
        got = sq8_topk(ds, qids, qmat, k=5, oversample=8).to_pandas()
        for q in qids:
            e = exact[exact["qid"] == q].sort_values(
                ["score", "vec_id"], ascending=[False, True]
            )["vec_id"].tolist()
            g = got[got["qid"] == q].sort_values(
                ["score", "vec_id"], ascending=[False, True]
            )["vec_id"].tolist()
            assert g == e

    def test_sq8_candidate_determinism(self, ray_session):
        """Two runs produce identical rows (integer candidate selection
        has no float tie ambiguity)."""
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.ann import sq8_topk

        rng = np.random.default_rng(6)
        mat = rng.normal(size=(50, 8))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        rows = [
            {"vec_id": i, "embedding": mat[i].tolist()} for i in range(50)
        ]
        a = sq8_topk(
            rd.from_items(rows), [3], mat[3:4], k=4, oversample=2
        ).to_pandas().sort_values("vec_id").reset_index(drop=True)
        b = sq8_topk(
            rd.from_items(rows), [3], mat[3:4], k=4, oversample=2
        ).to_pandas().sort_values("vec_id").reset_index(drop=True)
        assert a.equals(b)
        assert (a["qid"] == 3).all() and len(a) == 4


class TestDecontaminateHashed:
    def _data(self):
        import pyarrow as pa
        import ray.data as rd

        docs = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        "the quick brown fox jumps over the lazy dog",
                        "completely unrelated words live here today now",
                        "prefix filler quick brown fox jumps over the end",
                        "short doc",
                    ]
                ),
            }
        )
        spans = pa.table(
            {"s": pa.array(["quick brown fox jumps over the", "tiny"])}
        )
        return rd.from_arrow(docs), rd.from_arrow(spans)

    def test_hashed_drop_by_shared_window(self, ray_session):
        """Docs 1 and 3 share the blocked 6-token window; 2 and 4 stay.
        The <width 'tiny' span contributes nothing (skipped, logged)."""
        from marc2rdf_ray.ops.corpus import decontaminate_hashed

        docs, spans = self._data()
        out = decontaminate_hashed(docs, spans, width=6).to_pandas()
        assert sorted(out["doc_id"]) == [2, 4]

    def test_hashed_join_fallback_same_result(self, ray_session,
                                              plan_budgets):
        """A zero broadcast budget forces the distributed-join path for
        both membership and the final drop -- result identical."""
        from marc2rdf_ray.ops.corpus import decontaminate_hashed

        docs, spans = self._data()
        plan_budgets(broadcast=0)
        out = decontaminate_hashed(docs, spans, width=6).to_pandas()
        assert sorted(out["doc_id"]) == [2, 4]

    def test_hashed_empty_blocklist_keeps_all(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import decontaminate_hashed

        docs, _ = self._data()
        spans = rd.from_arrow(pa.table({"s": pa.array([], pa.string())}))
        out = decontaminate_hashed(docs, spans, width=6).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2, 3, 4]


class TestDropLateEvents:
    def test_matches_serial_watermark_replay(self, ray_session):
        """Distributed prefix-max result == serial streaming replay, with
        few buckets so the cross-bucket watermark carry is exercised."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import drop_late_events

        rng = np.random.default_rng(3)
        n = 500
        ts = np.cumsum(rng.integers(0, 4, n)).astype(np.int64) * 100
        ts -= rng.integers(0, 600, n)  # out-of-order jitter
        tab = pa.table(
            {
                "event_id": pa.array(np.arange(n), pa.int64()),
                "tsu": pa.array(ts, pa.int64()),
            }
        )
        delay = 250
        out = drop_late_events(
            rd.from_arrow(tab), ts_col="tsu", seq_col="event_id",
            delay_us=delay, num_buckets=7,
        ).to_pandas()

        run = None
        kept = []
        for i in range(n):
            if run is None or ts[i] >= run - delay:
                kept.append(i)
            run = ts[i] if run is None else max(run, ts[i])
        assert sorted(out["event_id"]) == kept
        assert 0 < len(kept) < n  # nontrivial on both sides

    def test_first_event_never_late(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import drop_late_events

        tab = pa.table(
            {
                "event_id": pa.array([0, 1, 2], pa.int64()),
                "tsu": pa.array([1000, 2000, 10], pa.int64()),
            }
        )
        out = drop_late_events(
            rd.from_arrow(tab), ts_col="tsu", seq_col="event_id",
            delay_us=100,
        ).to_pandas()
        # event 0 opens the stream; event 2 is 1990us behind the watermark
        assert sorted(out["event_id"]) == [0, 1]


class TestHLLByGroup:
    def test_grouped_registers_match_per_group_run(self, ray_session):
        """hll_registers_by == hll_registers run per group slice, and
        estimates stay within HLL error of the exact counts."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.sketches import (
            hll_estimate,
            hll_registers,
            hll_registers_by,
        )

        rng = np.random.default_rng(7)
        grp = rng.choice(["a", "b", "c"], size=3000).tolist()
        key = rng.integers(0, 400, 3000).tolist()
        tab = pa.table({"g": pa.array(grp), "k": pa.array(key, pa.int64())})
        ds = rd.from_arrow(tab)

        by = hll_registers_by(ds, "g", "k", p=8).to_pandas()
        for g in ["a", "b", "c"]:
            solo = hll_registers(
                rd.from_arrow(tab.filter(pa.compute.equal(tab["g"], g))),
                "k", p=8,
            ).to_pandas().sort_values("register").reset_index(drop=True)
            mine = (
                by[by["g"] == g][["register", "max_rho"]]
                .sort_values("register").reset_index(drop=True)
            )
            assert mine.equals(solo)
            exact = len({k for k, gg in zip(key, grp) if gg == g})
            est = hll_estimate(
                pa.table(
                    {
                        "register": pa.array(mine["register"], pa.int64()),
                        "max_rho": pa.array(mine["max_rho"], pa.int64()),
                    }
                ),
                p=8,
            )
            assert abs(est - exact) / exact < 0.25


class TestBM25:
    def test_bm25_matches_serial_reference(self, ray_session):
        import math

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import bm25_topk

        docs = [
            (1, "apple banana apple cherry"),
            (2, "banana banana banana"),
            (3, "cherry apple"),
            (4, "nothing relevant here at all"),
            (5, "apple apple apple apple banana"),
        ]
        tab = pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([t for _, t in docs]),
            }
        )
        terms = ["apple", "banana"]
        out = bm25_topk(
            rd.from_arrow(tab), terms, k=3
        ).to_pandas().sort_values(
            ["microbits", "doc_id"], ascending=[False, True]
        ).reset_index(drop=True)

        # serial replay of the exact microbit formula
        toks = {d: t.split() for d, t in docs}
        nd = len(docs)
        sumlen = sum(len(x) for x in toks.values())
        scores = {}
        for term in terms:
            dfv = sum(1 for x in toks.values() if term in x)
            idf = math.log((nd - dfv + 0.5) / (dfv + 0.5) + 1)
            for d, x in toks.items():
                tf = x.count(term)
                if tf == 0:
                    continue
                den = tf + 0.3 + 0.9 * len(x) * nd / sumlen
                micro = math.floor(idf * (tf * 2.2) / den * 1e6 + 0.5)
                scores[d] = scores.get(d, 0) + micro
        want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        got = list(zip(out["doc_id"], out["microbits"]))
        assert got == want
        assert 4 not in dict(got)  # no query term -> never ranked

    def test_bm25_empty_corpus(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.corpus import bm25_topk

        tab = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
            }
        )
        out = bm25_topk(rd.from_arrow(tab), ["x"], k=5).to_pandas()
        assert len(out) == 0


class TestKCore:
    def _edges(self):
        import pyarrow as pa
        import ray.data as rd

        # K4 on {0,1,2,3} + a tail 4-5-6 + self-loop + duplicate edge
        pairs = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (3, 4), (4, 5), (5, 6), (6, 6), (1, 0),
        ]
        return rd.from_arrow(
            pa.table(
                {
                    "src": pa.array([a for a, _ in pairs], pa.int64()),
                    "dst": pa.array([b for _, b in pairs], pa.int64()),
                }
            )
        )

    def test_kcore_fixpoint(self, ray_session):
        """3-core of K4+tail is exactly K4; self-loops and duplicate /
        reversed edges must not inflate degrees."""
        from marc2rdf_ray.ops.graph import kcore

        out = kcore(self._edges(), k=3, rounds=None).to_pandas()
        assert sorted(out["node"]) == [0, 1, 2, 3]

    def test_kcore_fixed_rounds_match_serial(self, ray_session):
        """rounds=1 keeps every node with initial degree >= 2 (node 4 has
        degree 2 via 3-4 and 4-5); the fixpoint then peels the tail."""
        from marc2rdf_ray.ops.graph import kcore

        one = kcore(self._edges(), k=2, rounds=1).to_pandas()
        assert sorted(one["node"]) == [0, 1, 2, 3, 4, 5]
        fix = kcore(self._edges(), k=2, rounds=None).to_pandas()
        assert sorted(fix["node"]) == [0, 1, 2, 3]

    def test_kcore_join_fallback(self, ray_session, plan_budgets):
        from marc2rdf_ray.ops.graph import kcore

        plan_budgets(broadcast=0)
        out = kcore(self._edges(), k=3, rounds=None).to_pandas()
        assert sorted(out["node"]) == [0, 1, 2, 3]

    def test_kcore_everything_peels(self, ray_session):
        from marc2rdf_ray.ops.graph import kcore

        out = kcore(self._edges(), k=5, rounds=None).to_pandas()
        assert len(out) == 0


class TestLabelPropagation:
    def test_matches_reference_replay(self, ray_session):
        """Distributed synchronous LPA == single-threaded replay on a
        random multigraph with a self-loop, duplicate/reversed edges and
        an isolated node (keeps its own label)."""
        import random

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import (
            label_propagation,
            label_propagation_reference,
        )

        rng = random.Random(11)
        nodes = list(range(50)) + [99]  # 99 is isolated
        edges = [(rng.randrange(50), rng.randrange(50)) for _ in range(120)]
        edges += [(7, 7), (3, 4), (4, 3), (3, 4)]  # self-loop + dup/reversed

        want = label_propagation_reference(edges, nodes, rounds=3)
        e_ds = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array([s for s, _ in edges], pa.int64()),
                    "dst": pa.array([d for _, d in edges], pa.int64()),
                }
            )
        )
        n_ds = rd.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64())})
        )
        got = label_propagation(e_ds, n_ds, rounds=3, num_buckets=6).to_pandas()
        assert len(got) == len(nodes)
        assert dict(zip(got["node"], got["label"])) == want
        assert dict(got.set_index("node")["label"])[99] == 99

    def test_two_cliques_two_communities(self, ray_session):
        """Two 5-cliques joined by one bridge edge converge to exactly two
        labels, one per clique (the community semantics, not just the
        replay)."""
        import itertools

        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import label_propagation

        a = list(range(5))
        b = list(range(10, 15))
        edges = list(itertools.combinations(a, 2))
        edges += list(itertools.combinations(b, 2))
        edges.append((0, 10))
        e_ds = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array([s for s, _ in edges], pa.int64()),
                    "dst": pa.array([d for _, d in edges], pa.int64()),
                }
            )
        )
        n_ds = rd.from_arrow(pa.table({"node": pa.array(a + b, pa.int64())}))
        out = label_propagation(e_ds, n_ds, rounds=4, num_buckets=4).to_pandas()
        lbl = dict(zip(out["node"], out["label"]))
        assert len({lbl[v] for v in a}) == 1
        assert len({lbl[v] for v in b}) == 1
        assert {lbl[v] for v in a} != {lbl[v] for v in b}


class TestLocalCC:
    def test_local_cc_matches_distributed(self, ray_session):
        """connected_components_local fixpoint == distributed rounds on a
        chain long enough that FEW rounds would NOT converge -- the local
        path must still reach the exact component min."""
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.stages.canonicalize import (
            connected_components,
            connected_components_local,
        )

        # chain 0-1-2-...-19 plus a separate triangle {100,101,102}
        subj = list(range(19)) + [100, 101, 102]
        obj = list(range(1, 20)) + [101, 102, 100]
        edges = rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array(subj, pa.int64()),
                    "obj": pa.array(obj, pa.int64()),
                }
            )
        )
        local = connected_components_local(edges).to_pandas()
        got = dict(zip(local["node"], local["root"]))
        assert all(got[i] == 0 for i in range(20))
        assert all(got[i] == 100 for i in (100, 101, 102))

        dist = connected_components(edges, rounds=8).to_pandas()
        want = dict(zip(dist["node"], dist["root"]))
        assert got == want

    def test_local_cc_over_budget_returns_none(self, ray_session,
                                               plan_budgets):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.stages.canonicalize import (
            connected_components_local,
        )

        edges = rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array([1, 2], pa.int64()),
                    "obj": pa.array([2, 3], pa.int64()),
                }
            )
        )
        plan_budgets(one_task_slim=0)
        assert connected_components_local(edges) is None

    def test_local_cc_string_nodes(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.stages.canonicalize import (
            connected_components_local,
        )

        edges = rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array(["b", "c"]),
                    "obj": pa.array(["a", "b"]),
                }
            )
        )
        out = connected_components_local(edges).to_pandas()
        got = dict(zip(out["node"], out["root"]))
        assert got == {"a": "a", "b": "a", "c": "a"}


class TestOffsetLimit:
    def test_pages_tile_the_order(self, ray_session):
        """Consecutive pages partition the sorted sequence exactly; a
        deep page and past-the-end pages behave like SQL."""
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import offset_limit

        tab = pa.table(
            {
                "k": pa.array(list(range(37)), pa.int64()),
                "v": pa.array([i * 7 % 37 for i in range(37)], pa.int64()),
            }
        )
        ds = rd.from_arrow(tab)
        want = sorted(
            zip(tab["v"].to_pylist(), tab["k"].to_pylist())
        )
        got = []
        for page in range(5):
            out = offset_limit(
                ds, sort_key=["v", "k"], offset=page * 10, limit=10
            ).to_pandas()
            if len(out):
                got.extend(zip(out["v"], out["k"]))
        assert got == want  # 37 rows: last page has 7, page 4 is empty
        beyond = offset_limit(
            ds, sort_key=["v", "k"], offset=100, limit=10
        ).to_pandas()
        assert len(beyond) == 0

    def test_offset_without_limit(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.windows import offset_limit

        ds = rd.from_arrow(
            pa.table({"v": pa.array([3, 1, 2], pa.int64())})
        )
        out = offset_limit(ds, sort_key="v", offset=1).to_pandas()
        assert out["v"].tolist() == [2, 3]


class TestDsirWeights:
    def test_target_docs_score_higher(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.lm import dsir_weights

        tgt = "clean wiki prose sentence " * 6
        raw = "spam junk casino lotto " * 6
        rows = (
            [{"doc_id": i, "text": tgt, "is_target": True}
             for i in range(5)]
            + [{"doc_id": 5 + i, "text": raw, "is_target": False}
               for i in range(5)]
        )
        out = dsir_weights(rd.from_items(rows)).to_pandas()
        w = dict(zip(out["doc_id"], out["weight_micro"]))
        # every target-looking doc outweighs every raw-only doc
        assert min(w[i] for i in range(5)) > max(w[5 + i] for i in range(5))
        assert (out["n_bigrams"] == 23).all()

    def test_empty_text_zero(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.lm import dsir_weights

        rows = [
            {"doc_id": 0, "text": "", "is_target": False},
            {"doc_id": 1, "text": "a b c", "is_target": True},
        ]
        out = dsir_weights(rd.from_items(rows)).to_pandas()
        z = out[out["doc_id"] == 0].iloc[0]
        assert z["n_bigrams"] == 0 and z["weight_micro"] == 0


class TestIqrOutliers:
    def test_fences_by_hand(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import iqr_outliers

        # group g: values 1..8 cents plus one 100-cent spike
        rows = [
            {"event_id": i, "event_type": "g", "value": v / 100}
            for i, v in enumerate([1, 2, 3, 4, 5, 6, 7, 8, 100])
        ]
        out = iqr_outliers(
            rd.from_items(rows), "event_type", "value", "event_id"
        ).to_pandas()
        # n=9: q1 = v[ceil(9/4)=3rd] = 3, q3 = v[ceil(27/4)=7th] = 7
        # fences: lo = 3 - 6 = -3, hi = 7 + 6 = 13 -> only 100 is out
        assert out["event_id"].tolist() == [8]
        assert out["value_cents"].tolist() == [100]


class TestPagerankLocal:
    def _graph(self):
        import numpy as np
        import ray.data as rd

        rng = np.random.RandomState(11)
        nodes = list(range(40))
        # include a foreign src (50, not in node set) and an edge to a
        # dst outside the rank universe (99) -- the distributed
        # semantics corners
        edges = [
            {"src": int(rng.randint(0, 40)), "dst": int(rng.randint(0, 40))}
            for _ in range(120)
        ] + [{"src": 50, "dst": 3}, {"src": 2, "dst": 99}]
        return (
            rd.from_items(edges),
            rd.from_items([{"node": n} for n in nodes]),
        )

    def test_bit_identical_to_distributed(self, ray_session):
        from marc2rdf_ray.ops.graph import pagerank, pagerank_local

        edges, nodes = self._graph()
        loc = (
            pagerank_local(edges, nodes, iterations=4)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        dist = (
            pagerank(edges, nodes, iterations=4)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert loc["node"].tolist() == dist["node"].tolist()
        assert loc["rank"].tolist() == dist["rank"].tolist()

    def test_personalized_parity(self, ray_session):
        from marc2rdf_ray.ops.graph import pagerank, pagerank_local

        edges, nodes = self._graph()
        kw = dict(iterations=3, seed_fn=lambda ids: ids % 7 == 0,
                  n_seeds=6)
        loc = (
            pagerank_local(edges, nodes, **kw)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        dist = (
            pagerank(edges, nodes, **kw)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert loc["rank"].tolist() == dist["rank"].tolist()

    def test_over_budget_returns_none(self, ray_session, plan_budgets):
        from marc2rdf_ray.ops.graph import pagerank_local

        edges, nodes = self._graph()
        plan_budgets(one_task=1)
        assert pagerank_local(edges, nodes) is None


class TestHitsLocalParity:
    def test_bit_identical_paths(self, ray_session, plan_budgets):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.graph import hits

        rng = np.random.RandomState(5)
        edges = rd.from_items(
            [{"src": int(rng.randint(0, 30)),
              "dst": int(rng.randint(0, 30))} for _ in range(90)]
            # endpoint outside the node set
            + [{"src": 77, "dst": 1}]
        )
        nodes = rd.from_items([{"node": n} for n in range(30)])
        loc = (
            hits(edges, nodes, rounds=2)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        plan_budgets(one_task=0)
        dist = (
            hits(edges, nodes, rounds=2)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert loc["node"].tolist() == dist["node"].tolist()
        assert loc["hub"].tolist() == dist["hub"].tolist()
        assert loc["auth"].tolist() == dist["auth"].tolist()


class TestGroupedEntropy:
    def test_by_hand(self, ray_session):
        import math

        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_entropy

        rows = (
            [{"k": 1, "v": "a"}] * 2
            + [{"k": 1, "v": "b"}] * 2
            + [{"k": 2, "v": "x"}] * 3
        )
        out = grouped_entropy(
            rd.from_items(rows), key_col="k", value_col="v"
        ).to_pandas().sort_values("k").reset_index(drop=True)
        assert out["n_rows"].tolist() == [4, 3]
        m = int(math.floor(-math.log(0.5) * 1e6 + 0.5))
        assert out["surprisal_micro"].tolist() == [4 * m, 0]


class TestRetentionCohorts:
    def test_by_hand(self, ray_session):
        from datetime import datetime

        import ray.data as rd

        from marc2rdf_ray.ops.relational import retention_cohorts

        def d(day):
            return datetime(2024, 1, 1 + day)

        rows = [
            # u1 cohort week 0, active weeks 0,1 (plus a dup in week 0)
            {"user_id": 1, "ts": d(0)},
            {"user_id": 1, "ts": d(1)},
            {"user_id": 1, "ts": d(8)},
            # u2 cohort week 0 only
            {"user_id": 2, "ts": d(2)},
            # u3 cohort week 1
            {"user_id": 3, "ts": d(9)},
        ]
        out = (
            retention_cohorts(rd.from_items(rows))
            .to_pandas()
            .sort_values(["cohort_bucket", "age_buckets"])
            .reset_index(drop=True)
        )
        base = out["cohort_bucket"].min()
        rel = {
            (int(r["cohort_bucket"] - base), int(r["age_buckets"])):
                int(r["n_users"])
            for _, r in out.iterrows()
        }
        assert rel == {(0, 0): 2, (0, 1): 1, (1, 0): 1}


class TestSnapshotDiff:
    def test_three_kinds(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import snapshot_diff

        old = rd.from_items(
            [
                {"id": 1, "v": "a"},
                {"id": 2, "v": "b"},
                {"id": 3, "v": "c"},
            ]
        )
        new = rd.from_items(
            [
                {"id": 1, "v": "a"},      # unchanged -> absent
                {"id": 2, "v": "B"},      # changed
                {"id": 4, "v": "d"},      # added
            ]
        )
        out = snapshot_diff(
            old, new, id_col="id", hash_cols=["v"]
        ).to_pandas().sort_values("id").reset_index(drop=True)
        assert dict(zip(out["id"], out["change"])) == {
            2: "changed", 3: "removed", 4: "added"
        }


class TestZscorePerGroup:
    def test_matches_numpy(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.relational import zscore_per_group

        vals = [1.0, 2.0, 3.0, 10.0]
        rows = [
            {"id": i, "k": "g", "value": v} for i, v in enumerate(vals)
        ] + [{"id": 99, "k": "solo", "value": 5.0}]  # n=1 -> dropped
        out = zscore_per_group(
            rd.from_items(rows), key_col="k", value_col="value",
            id_col="id",
        ).to_pandas().sort_values("id").reset_index(drop=True)
        assert out["id"].tolist() == [0, 1, 2, 3]
        v = np.array(vals) * 1000
        want = (v - v.mean()) / v.std(ddof=1)
        assert np.allclose(out["z"].to_numpy(), want)


class TestTransitionCounts:
    def test_pairs_and_tiebreak(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import transition_counts

        t0 = dt.datetime(2024, 1, 1)
        rows = [
            # user 1: a -> b -> b   (ts tie between b/a broken by id)
            {"event_id": 1, "user_id": 1, "ts": t0, "event_type": "a"},
            {"event_id": 2, "user_id": 1, "ts": t0, "event_type": "b"},
            {"event_id": 3, "user_id": 1,
             "ts": t0 + dt.timedelta(hours=1), "event_type": "b"},
            # user 2: single event -> no transition
            {"event_id": 4, "user_id": 2, "ts": t0, "event_type": "a"},
            # user 3: b -> a
            {"event_id": 5, "user_id": 3, "ts": t0, "event_type": "b"},
            {"event_id": 6, "user_id": 3,
             "ts": t0 + dt.timedelta(hours=2), "event_type": "a"},
        ]
        out = (
            transition_counts(rd.from_items(rows).repartition(3))
            .to_pandas()
            .sort_values(["prev_type", "next_type"])
            .reset_index(drop=True)
        )
        got = {
            (r.prev_type, r.next_type): r.n_transitions
            for r in out.itertuples()
        }
        assert got == {("a", "b"): 1, ("b", "b"): 1, ("b", "a"): 1}


class TestValidityIntervals:
    def test_collapse_runs_and_open_tail(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import validity_intervals

        t0 = dt.datetime(2024, 1, 1)

        def ts(h):
            return t0 + dt.timedelta(hours=h)

        rows = [
            # key 1: O,O,F,O -> runs O(0..2), F(2..3), O(3..open)
            {"id": 1, "k": 1, "ts": ts(0), "v": "O"},
            {"id": 2, "k": 1, "ts": ts(1), "v": "O"},
            {"id": 3, "k": 1, "ts": ts(2), "v": "F"},
            {"id": 4, "k": 1, "ts": ts(3), "v": "O"},
            # key 2: single row -> one open interval
            {"id": 5, "k": 2, "ts": ts(5), "v": "P"},
        ]
        out = (
            validity_intervals(
                rd.from_items(rows).repartition(3),
                key_col="k", ts_col="ts", id_col="id", value_col="v",
            )
            .to_pandas()
            .sort_values(["k", "valid_from_us"])
            .reset_index(drop=True)
        )
        us = lambda h: int(ts(h).timestamp() * 1e6)  # noqa: E731
        assert out["k"].tolist() == [1, 1, 1, 2]
        assert out["v"].tolist() == ["O", "F", "O", "P"]
        assert out["valid_from_us"].tolist() == [us(0), us(2), us(3), us(5)]
        import pandas as pd

        tos = out["valid_to_us"].tolist()
        assert tos[0] == us(2) and tos[1] == us(3)
        assert pd.isna(tos[2]) and pd.isna(tos[3])


class TestEditdistNamePairs:
    def test_dp_matches_reference(self, ray_session):
        import itertools
        import random

        from marc2rdf_ray.ops.dedup import _encode_padded, _lev_pairs

        def ref(a, b):
            prev = list(range(len(b) + 1))
            for i in range(1, len(a) + 1):
                cur = [i] + [0] * len(b)
                for j in range(1, len(b) + 1):
                    cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                                 prev[j - 1] + (a[i - 1] != b[j - 1]))
                prev = cur
            return prev[len(b)]

        rng = random.Random(3)
        names = ["", "a", "ab", "käse", "kase", "red widget",
                 "red gadget", "blue bolt"] + [
            "".join(rng.choice("abcde") for _ in range(rng.randint(1, 9)))
            for _ in range(30)
        ]
        names = sorted(set(names))
        mat, ln = _encode_padded(names)
        ia, ib = zip(*itertools.combinations(range(len(names)), 2))
        ia = np.array(ia)
        ib = np.array(ib)
        got = _lev_pairs(mat, ln, ia, ib)
        for x, y, d in zip(ia, ib, got):
            assert d == ref(names[x], names[y]), (names[x], names[y])

    def test_pairs_and_multiplicities(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.dedup import editdist_name_pairs

        rows = (
            [{"p_name": "red widget"}] * 3
            + [{"p_name": "red widgex"}] * 2
            + [{"p_name": "red gadget"}]   # dist 2 from widget -> included
            + [{"p_name": "red gaxxxt"}]   # dist 4 from gadget -> excluded
            + [{"p_name": "blue widget"}]  # other block, never a candidate
        )
        out = (
            editdist_name_pairs(
                rd.from_items(rows).repartition(3), name_col="p_name",
                threshold=2,
            )
            .to_pandas()
            .sort_values(["name_a", "name_b"])
            .reset_index(drop=True)
        )
        recs = list(out.itertuples(index=False))
        assert ("red widget", "red widgex", 1, 6) in [tuple(r) for r in recs]
        assert ("red widget", "red widget", 0, 3) in [tuple(r) for r in recs]
        assert ("red widgex", "red widgex", 0, 1) in [tuple(r) for r in recs]
        assert ("red gadget", "red widget", 2, 3) in [tuple(r) for r in recs]
        assert not any(r.name_a == "blue widget" or r.name_b == "blue widget"
                       for r in recs if r.dist > 0)
        # beyond-threshold pair in the same block stays out
        assert not any("gaxxxt" in r.name_a and "gadget" in r.name_b
                       or "gadget" in r.name_a and "gaxxxt" in r.name_b
                       for r in recs)


class TestPathTrigramCounts:
    def test_vs_duckdb_double_lag(self, ray_session):
        import datetime as dt

        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.windows import path_trigram_counts

        rng = np.random.default_rng(11)
        rows = [
            {
                "event_id": i,
                "user_id": int(rng.integers(0, 6)),
                "event_type": str(rng.choice(["a", "b", "c"])),
                "ts": dt.datetime(2024, 1, 1)
                + dt.timedelta(minutes=int(rng.integers(0, 5000))),
            }
            for i in range(300)
        ]
        out = (
            path_trigram_counts(rd.from_items(rows).repartition(4))
            .to_pandas()
            .sort_values(["t0", "t1", "t2"])
            .reset_index(drop=True)
        )
        import duckdb

        con = duckdb.connect()
        con.register("ev", pd.DataFrame(rows))
        exp = con.sql(
            """
            WITH s AS (
              SELECT user_id, event_type,
                     LAG(event_type, 2) OVER w AS p2,
                     LAG(event_type, 1) OVER w AS p1
              FROM ev WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT p2 AS t0, p1 AS t1, event_type AS t2,
                   COUNT(*)::BIGINT AS n_paths
            FROM s WHERE p2 IS NOT NULL
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
            """
        ).df()
        assert out["t0"].tolist() == exp["t0"].tolist()
        assert out["n_paths"].tolist() == exp["n_paths"].tolist()


class TestGroupedLinreg:
    def test_vs_numpy_polyfit(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_linreg

        rows = []
        for i in range(60):
            # key "up": y = 2x + 5 exactly; key "noisy": pseudo-random
            rows.append({"k": "up", "ts": dt.datetime(2024, 1, 1 + i % 25),
                         "value": 2.0 * ((i % 25) + 19723) + 5.0})
            rows.append({"k": "noisy", "ts": dt.datetime(2024, 1, 1 + i % 28),
                         "value": float((i * 37) % 11)})
        rows.append({"k": "const_x", "ts": dt.datetime(2024, 2, 1),
                     "value": 1.0})
        rows.append({"k": "const_x", "ts": dt.datetime(2024, 2, 1),
                     "value": 9.0})
        out = (
            grouped_linreg(
                rd.from_items(rows).repartition(3),
                key_col="k", ts_col="ts", value_col="value",
            )
            .to_pandas()
            .set_index("k")
        )
        # constant-x group must drop (denominator zero)
        assert "const_x" not in out.index
        # exact line: slope 2000 milli-units/day, intercept 5000+2000*19723
        assert abs(out.loc["up", "slope_units"] - 2000.0) < 1e-6
        # noisy group matches numpy lstsq closed form
        import pandas as pd

        df = pd.DataFrame([r for r in rows if r["k"] == "noisy"])
        x = (df["ts"].astype("int64") // 10**6 // 86_400_000).to_numpy()
        y = np.round(df["value"].to_numpy() * 1000)
        slope = np.polyfit(x, y, 1)[0]
        assert abs(out.loc["noisy", "slope_units"] - slope) < 1e-6


class TestSkyline2D:
    def test_frontier_with_duplicates(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.relational import skyline_2d

        rows = [
            # (price, date): frontier should be (100, d1), (90, d0), dup of
            # (100, d1); (95, d2) dominated by (100, d1); (90, d3) dominated
            {"id": 1, "p": 100.0, "d": dt.datetime(2024, 1, 2)},
            {"id": 2, "p": 100.0, "d": dt.datetime(2024, 1, 2)},  # dup point
            {"id": 3, "p": 90.0, "d": dt.datetime(2024, 1, 1)},
            {"id": 4, "p": 95.0, "d": dt.datetime(2024, 1, 3)},
            {"id": 5, "p": 90.0, "d": dt.datetime(2024, 1, 4)},
        ]
        out = skyline_2d(
            rd.from_items(rows).repartition(3),
            id_col="id", max_col="p", min_col="d",
        ).to_pandas()
        assert sorted(out["id"].tolist()) == [1, 2, 3]

    def test_vs_duckdb_not_exists(self, ray_session):
        import datetime as dt

        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.relational import skyline_2d

        rng = np.random.default_rng(5)
        rows = [
            {
                "id": i,
                "p": float(rng.integers(1, 500)),
                "d": dt.datetime(2024, 1, 1)
                + dt.timedelta(hours=int(rng.integers(0, 2000))),
            }
            for i in range(300)
        ]
        out = skyline_2d(
            rd.from_items(rows).repartition(4),
            id_col="id", max_col="p", min_col="d",
        ).to_pandas()
        import duckdb

        con = duckdb.connect()
        con.register("t", pd.DataFrame(rows))
        exp = con.sql(
            """
            WITH p AS (
              SELECT id, CAST(ROUND(p * 100) AS BIGINT) AS x,
                     epoch_us(d) AS y
              FROM t
            )
            SELECT a.id FROM p a WHERE NOT EXISTS (
              SELECT 1 FROM p b
              WHERE b.x >= a.x AND b.y <= a.y AND (b.x > a.x OR b.y < a.y)
            ) ORDER BY a.id
            """
        ).df()
        assert sorted(out["id"].tolist()) == exp["id"].tolist()


class TestClusteringCoefficient:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import clustering_coefficient

        edges = [(1, 2), (2, 3), (1, 3), (1, 4), (2, 4), (5, 6), (5, 7),
                 (2, 1),  # reverse dup collapses
                 (3, 3)]  # self-loop drops
        ds = rd.from_items([{"src": s, "dst": d} for s, d in edges])
        out = (
            clustering_coefficient(ds)
            .to_pandas()
            .set_index("node")
            .sort_index()
        )
        assert out.index.tolist() == [1, 2, 3, 4, 5]
        assert out["n_triangles"].tolist() == [2, 2, 1, 1, 0]
        assert out["deg"].tolist() == [3, 3, 2, 2, 2]
        assert out["coef_micro"].tolist() == [
            666666, 666666, 1000000, 1000000, 0
        ]


class TestExactAuc:
    def test_vs_sklearn_formula(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import exact_auc

        rng = np.random.default_rng(9)
        # positives shifted up -> AUC clearly above 0.5; ties included
        rows = [
            {"label": "pos", "score": float(rng.integers(3, 12))}
            for _ in range(40)
        ] + [
            {"label": "neg", "score": float(rng.integers(0, 9))}
            for _ in range(60)
        ]
        out = exact_auc(
            rd.from_items(rows).repartition(4), score_col="score",
            label_col="label", positive_value="pos",
        ).to_pandas()
        # brute-force pairwise AUC with half credit for ties
        pos = [r["score"] for r in rows if r["label"] == "pos"]
        neg = [r["score"] for r in rows if r["label"] == "neg"]
        wins = sum(
            1.0 if p > q else (0.5 if p == q else 0.0)
            for p in pos for q in neg
        )
        expect = int(wins * 1_000_000 // (len(pos) * len(neg)))
        assert out["n_pos"].tolist() == [40]
        assert out["n_neg"].tolist() == [60]
        assert out["auc_micro"].tolist() == [expect]

    def test_degenerate_single_class(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import exact_auc

        rows = [{"label": "neg", "score": 1.0}] * 5
        out = exact_auc(
            rd.from_items(rows), score_col="score", label_col="label",
            positive_value="pos",
        ).to_pandas()
        assert out["n_pos"].tolist() == [0]
        assert out["auc_micro"].isna().all()


class TestReciprocity:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import reciprocity

        edges = [(1, 2), (2, 1),          # reciprocated pair
                 (1, 2),                  # duplicate collapses
                 (3, 4),                  # one-way
                 (5, 5),                  # self-loop drops
                 (4, 5), (5, 4)]          # second reciprocated pair
        out = reciprocity(
            rd.from_items([{"src": s, "dst": d} for s, d in edges])
            .repartition(3)
        ).to_pandas()
        # distinct non-loop edges: (1,2),(2,1),(3,4),(4,5),(5,4) = 5
        assert out["n_edges"].tolist() == [5]
        assert out["n_reciprocated"].tolist() == [4]
        assert out["reciprocity_micro"].tolist() == [800000]


class TestCooccurrencePairs:
    def test_distinct_users_both(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import cooccurrence_pairs

        rows = (
            [{"u": 1, "it": "a"}, {"u": 1, "it": "b"}, {"u": 1, "it": "b"},
             {"u": 2, "it": "a"}, {"u": 2, "it": "b"}, {"u": 2, "it": "c"},
             {"u": 3, "it": "c"}]
        )
        out = (
            cooccurrence_pairs(
                rd.from_items(rows).repartition(3),
                entity_col="u", item_col="it",
            )
            .to_pandas()
            .sort_values(["item_a", "item_b"])
            .reset_index(drop=True)
        )
        assert list(map(tuple, out.values)) == [
            ("a", "b", 2), ("a", "c", 1), ("b", "c", 1)
        ]


class TestMmrSelect:
    def test_serial_greedy_replay(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import mmr_select

        rng = np.random.default_rng(13)
        vecs = rng.normal(size=(30, 8)).astype(np.float32)
        rows = [
            {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(30)
        ]
        out = (
            mmr_select(
                rd.from_items(rows).repartition(4), k=5, query_id=0,
            )
            .to_pandas()
            .sort_values("step")
            .reset_index(drop=True)
        )
        # serial replay of the exact integer greedy
        q = np.floor(vecs.astype(np.float64) * (1 << 20) + 0.5).astype(
            np.int64
        )
        rel = q @ q[0]
        sel, scores = [], []
        for _ in range(5):
            if not sel:
                score = rel.copy()
            else:
                score = rel - (q @ q[sel].T).max(axis=1)
            score_l = [
                (int(score[i]), i) for i in range(30) if i not in sel
            ]
            s, i = max(score_l, key=lambda t: (t[0], -t[1]))
            sel.append(i)
            scores.append(s)
        assert out["vec_id"].tolist() == sel
        assert out["score_units"].tolist() == scores

    def test_k_exceeds_corpus(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import mmr_select

        rows = [
            {"vec_id": i, "embedding": [float(i), 1.0]} for i in range(3)
        ]
        out = mmr_select(rd.from_items(rows), k=10, query_id=0).to_pandas()
        assert len(out) == 3


class TestWinsorizePerGroup:
    def test_clamps_at_exact_fences(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import winsorize_per_group

        # 10 rows 1..10 -> p10 fence = 1 (ceil(0.1*10)=1st), p90 = 9
        rows = [
            {"id": i, "g": "a", "v": float(i)} for i in range(1, 11)
        ] + [{"id": 100, "g": "b", "v": 5.0}]
        out = (
            winsorize_per_group(
                rd.from_items(rows).repartition(3),
                group_col="g", value_col="v", id_col="id",
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        a = out[out["g"] == "a"]["v_winsorized"].tolist()
        # cents: 100..1000; clamped to [100, 900]
        assert a == [100, 200, 300, 400, 500, 600, 700, 800, 900, 900]
        assert out[out["g"] == "b"]["v_winsorized"].tolist() == [500]


class TestPartsNameClusters:
    def test_transitive_merge(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.dedup import editdist_name_pairs
        from marc2rdf_ray.stages.canonicalize import (
            connected_components_local,
        )

        # chain: widget -- widgex -- widgyx (each 1 edit apart, ends 2)
        rows = [{"p_name": n} for n in
                ["red widget", "red widgex", "red widgyx", "red zzzzzz",
                 "blue bolt"]]
        pairs = editdist_name_pairs(
            rd.from_items(rows), name_col="p_name", threshold=1,
        )
        edges = pairs.map_batches(
            lambda b: pa.table({"subj": b["name_a"], "obj": b["name_b"]}),
            batch_format="pyarrow",
        )
        out = (
            connected_components_local(edges)
            .to_pandas()
            .sort_values("node")
            .reset_index(drop=True)
        )
        # the 3-chain merges transitively under one canon despite the
        # ends being 2 edits apart; loners never appear
        assert sorted(out["node"].tolist()) == [
            "red widget", "red widgex", "red widgyx"
        ]
        assert set(out["root"].tolist()) == {"red widget"}
        assert len(out) == 3


class TestRobustZscore:
    def test_vs_serial_median_mad(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.quantiles import robust_zscore_per_group

        rng = np.random.default_rng(21)
        rows = [
            {"id": i, "g": "a", "v": float(rng.integers(0, 50))}
            for i in range(41)
        ] + [
            {"id": 100 + i, "g": "const", "v": 7.0} for i in range(5)
        ]
        out = (
            robust_zscore_per_group(
                rd.from_items(rows).repartition(4),
                group_col="g", value_col="v", id_col="id",
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        # MAD-0 group drops entirely
        assert (out["g"] == "const").sum() == 0
        vals = np.array(
            [round(r["v"] * 100) for r in rows if r["g"] == "a"], np.int64
        )
        n = len(vals)
        sv = np.sort(vals)
        cum = np.arange(1, n + 1)
        med = int(sv[np.searchsorted(cum, (n + 1) // 2)])
        dev = np.sort(np.abs(vals - med))
        mad = int(dev[np.searchsorted(cum, (n + 1) // 2)])
        exp = ((vals - med) * 1000 + mad * 100000) // mad - 100000
        got = out[out["g"] == "a"].sort_values("id")["rz_milli"].to_numpy()
        assert (got == exp).all()


class TestMaxConcurrency:
    def test_sweep_with_touching_intervals(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.windows import max_concurrency

        rows = [
            {"s": 0, "e": 10},
            {"s": 10, "e": 20},   # touches the first: overlaps (closed)
            {"s": 5, "e": 7},
            {"s": 6, "e": 30},
            {"s": 100, "e": 110},
        ]
        out = max_concurrency(
            rd.from_items(rows).repartition(3), start_col="s", end_col="e",
        ).to_pandas()
        # at t=6: [0,10], [5,7], [6,30] open -> 3; t=10 has 3 too
        # ([0,10] closes only after [10,20] opens) but 6 comes first
        assert out["max_concurrent"].tolist() == [3]
        assert out["first_at_us"].tolist() == [6]

    def test_empty_and_vs_duckdb(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.windows import max_concurrency

        rng = np.random.default_rng(17)
        rows = []
        for i in range(200):
            s = int(rng.integers(0, 10_000))
            rows.append({"s": s, "e": s + int(rng.integers(0, 500))})
        out = max_concurrency(
            rd.from_items(rows).repartition(4), start_col="s", end_col="e",
            num_buckets=16,
        ).to_pandas()
        import duckdb

        con = duckdb.connect()
        con.register("iv", pd.DataFrame(rows))
        exp = con.sql(
            """
            WITH pts AS (
              SELECT s AS t, 1 AS d FROM iv
              UNION ALL SELECT e, -1 FROM iv
            ), run AS (
              SELECT t, SUM(d) OVER (ORDER BY t, d DESC
                                     ROWS UNBOUNDED PRECEDING) AS c
              FROM pts
            ), m AS (SELECT MAX(c) AS mx FROM run)
            SELECT CAST(m.mx AS BIGINT) AS mx,
                   (SELECT MIN(t) FROM run WHERE c = m.mx) AS at
            FROM m
            """
        ).df()
        assert out["max_concurrent"].tolist() == exp["mx"].tolist()
        assert out["first_at_us"].tolist() == exp["at"].tolist()


class TestClusteringCoefLocalParity:
    def test_local_equals_distributed(self, ray_session, plan_budgets):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import clustering_coefficient

        rng = np.random.default_rng(23)
        edges = [
            {"src": int(rng.integers(0, 60)), "dst": int(rng.integers(0, 60))}
            for _ in range(400)
        ]
        ds = rd.from_items(edges).repartition(4)
        a = (
            clustering_coefficient(ds)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        plan_budgets(one_task_wedges=0)
        b = (
            clustering_coefficient(ds)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert a.equals(b)


class TestNtile:
    def test_vs_duckdb_ntile_uneven(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.relational import ntile

        rng = np.random.default_rng(31)
        # 103 rows / 4 tiles -> uneven split with heavy score ties
        rows = [
            {"id": i, "v": float(rng.integers(0, 9))} for i in range(103)
        ]
        out = (
            ntile(
                rd.from_items(rows).repartition(5),
                score_col="v", id_col="id", q=4,
            )
            .to_pandas()
            .sort_values("id")
            .reset_index(drop=True)
        )
        import duckdb

        con = duckdb.connect()
        con.register("t", pd.DataFrame(rows))
        exp = con.sql(
            """
            WITH q AS (SELECT id, CAST(ROUND(v * 1000) AS BIGINT) AS s
                       FROM t)
            SELECT id, CAST(NTILE(4) OVER (ORDER BY s, id) AS BIGINT)
                   AS tile
            FROM q ORDER BY id
            """
        ).df()
        assert out["tile"].tolist() == exp["tile"].tolist()


class TestDimStats:
    def test_vs_numpy(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.ann import dim_stats

        rng = np.random.default_rng(33)
        vecs = rng.normal(scale=0.3, size=(50, 6)).astype(np.float32)
        rows = [{"embedding": vecs[i].tolist()} for i in range(50)]
        out = (
            dim_stats(rd.from_items(rows).repartition(4))
            .to_pandas()
            .sort_values("dim")
            .reset_index(drop=True)
        )
        qm = np.floor(vecs.astype(np.float64) * (1 << 20) + 0.5).astype(
            np.int64
        )
        s = qm.sum(0).astype(np.float64)
        ss = (qm * qm).sum(0).astype(np.float64)
        n = 50.0
        mean = (s / n) / float(1 << 20)
        var = ((ss - s * s / n) / (n - 1.0)) / float(1 << 20) ** 2
        assert np.array_equal(out["mean_v"].to_numpy(), mean)
        assert np.array_equal(out["var_v"].to_numpy(), var)


class TestPeriodDeltas:
    def test_vs_duckdb_lag(self, ray_session):
        import datetime as dt

        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.relational import period_deltas

        rng = np.random.default_rng(41)
        rows = [
            {
                "k": str(rng.choice(["a", "b"])),
                "ts": dt.datetime(2024, 1, 1)
                + dt.timedelta(hours=int(rng.integers(0, 24 * 60))),
            }
            for _ in range(500)
        ]
        out = (
            period_deltas(
                rd.from_items(rows).repartition(4), key_col="k",
                ts_col="ts",
            )
            .to_pandas()
            .sort_values(["k", "bucket_us"])
            .reset_index(drop=True)
        )
        import duckdb

        con = duckdb.connect()
        con.register("t", pd.DataFrame(rows))
        exp = con.sql(
            """
            WITH c AS (
              SELECT k, (epoch_us(ts) // 604800000000) * 604800000000
                        AS bucket_us,
                     COUNT(*)::BIGINT AS n
              FROM t GROUP BY 1, 2
            ), d AS (
              SELECT k, bucket_us, n,
                     LAG(n) OVER (PARTITION BY k ORDER BY bucket_us) AS p
              FROM c
            )
            SELECT k, bucket_us, n, (n - p)::BIGINT AS delta
            FROM d WHERE p IS NOT NULL ORDER BY k, bucket_us
            """
        ).df()
        assert out["delta"].tolist() == exp["delta"].tolist()
        assert out["n_events"].tolist() == exp["n"].tolist()


class TestHarmonicCentrality:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import harmonic_centrality

        # 1 -> 2 -> 3 -> 4, 1 -> 5; seed 1: d(2)=1, d(5)=1, d(3)=2, d(4)=3
        edges = rd.from_items(
            [{"src": 1, "dst": 2}, {"src": 2, "dst": 3},
             {"src": 3, "dst": 4}, {"src": 1, "dst": 5}]
        )
        seeds = rd.from_items([{"node": 1}, {"node": 4}])
        out = (
            harmonic_centrality(edges, seeds, max_depth=4)
            .to_pandas()
            .sort_values("seed")
            .reset_index(drop=True)
        )
        assert out["seed"].tolist() == [1, 4]
        assert out["n_reached"].tolist() == [4, 0]
        assert out["harmonic_micro"].tolist() == [
            1_000_000 + 1_000_000 + 500_000 + 333_333, 0
        ]


class TestGiniCoefficient:
    def test_uniform_and_skewed(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import gini_coefficient

        uniform = rd.from_items(
            [{"k": i % 10} for i in range(100)]
        ).repartition(3)
        out = gini_coefficient(uniform, key_col="k").to_pandas()
        assert out["gini_micro"].tolist() == [0]
        # one key owns 91 of 100 rows -> strong skew
        skewed = rd.from_items(
            [{"k": 0}] * 91 + [{"k": i} for i in range(1, 10)]
        ).repartition(3)
        out2 = gini_coefficient(skewed, key_col="k").to_pandas()
        c = np.sort(np.array([91] + [1] * 9, np.int64))
        n, s = 10, 100
        num = 2 * int((np.arange(1, 11) * c).sum()) - (n + 1) * s
        assert out2["gini_micro"].tolist() == [num * 1_000_000 // (n * s)]
        assert out2["n_keys"].tolist() == [10]


class TestAvgNeighborDegree:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import avg_neighbor_degree

        # star 1-{2,3,4} plus edge 2-3: deg 1=3, 2=2, 3=2, 4=1
        edges = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 2)]  # dup collapses
        out = (
            avg_neighbor_degree(
                rd.from_items([{"src": s, "dst": d} for s, d in edges])
                .repartition(3)
            )
            .to_pandas()
            .set_index("node")
            .sort_index()
        )
        assert out.loc[1, "sum_nbr_deg"] == 5      # 2+2+1
        assert out.loc[2, "sum_nbr_deg"] == 5      # 3+2
        assert out.loc[4, "and_micro"] == 3_000_000
        assert out.loc[1, "and_micro"] == 5 * 1_000_000 // 3


class TestNegativeSamples:
    def test_no_real_edges_no_self(self, ray_session):
        import hashlib as _h

        import ray.data as rd

        from marc2rdf_ray.ops.graph import negative_samples

        n = 20
        edges = rd.from_items(
            [{"src": i, "dst": (i + 1) % n} for i in range(n)]
        )
        nodes = rd.from_items([{"node": i} for i in range(n)])
        out = negative_samples(edges, nodes, n, k=3).to_pandas()
        real = {(i, (i + 1) % n) for i in range(n)}
        got = set(zip(out["src"], out["neg_dst"]))
        assert not (got & real)
        assert all(s != d for s, d in got)
        # deterministic replay
        expect = set()
        for i in range(n):
            for t in range(3):
                j = int(_h.md5(f"{i}:n{t}".encode()).hexdigest()[:8],
                        16) % n
                if j != i and (i, j) not in real:
                    expect.add((i, j))
        assert got == expect


class TestAssortativity:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import assortativity

        # star 1-{2,3,4} plus edge 2-3 (dup + self-loop collapse)
        edges = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 2), (4, 4)]
        out = assortativity(
            rd.from_items([{"src": s, "dst": d} for s, d in edges])
            .repartition(3)
        ).to_pandas()
        # degrees: 1->3, 2->2, 3->2, 4->1; directed pairs of 4 edges
        du = np.array([3, 3, 3, 2, 2, 2, 2, 1], np.int64)
        dv = np.array([2, 2, 1, 3, 3, 2, 2, 3], np.int64)
        m, sx = len(du), int(du.sum())
        sxy, sxx = int((du * dv).sum()), int((du * du).sum())
        assert out["m"].tolist() == [m]
        assert out["sx"].tolist() == [sx]
        assert out["sxy"].tolist() == [sxy]
        assert out["sxx"].tolist() == [sxx]
        want = float(m * sxy - sx * sx) / float(m * sxx - sx * sx)
        assert out["r_pearson"].tolist() == [want]
        # negative on a star-ish graph (hub links to leaves)
        assert want < 0

    def test_regular_graph_degenerate(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import assortativity

        # 4-cycle: every degree 2 -> zero variance -> r is NULL
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        out = assortativity(
            rd.from_items([{"src": s, "dst": d} for s, d in edges])
        ).to_pandas()
        assert out["m"].tolist() == [8]
        assert out["r_pearson"].isna().all()


class TestSsspWeighted:
    def test_hand_path(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import sssp_weighted

        # 0 ->(2) 1 ->(3) 2 ->(1) 3, shortcut 0 ->(9) 2; node 9 unreachable
        edges = rd.from_items(
            [
                {"src": 0, "dst": 1},
                {"src": 1, "dst": 2},
                {"src": 2, "dst": 3},
                {"src": 0, "dst": 2},
            ]
        ).repartition(2)
        seeds = rd.from_items([{"node": 0}])
        w = {(0, 1): 2, (1, 2): 3, (2, 3): 1, (0, 2): 9}

        def weight_of(s, d):
            return np.array(
                [w[(a, b)] for a, b in zip(s.tolist(), d.tolist())], np.int64
            )

        out = (
            sssp_weighted(edges, seeds, rounds=3, weight_of=weight_of)
            .to_pandas()
            .set_index("node")["dist"]
            .sort_index()
        )
        assert out.to_dict() == {0: 0, 1: 2, 2: 5, 3: 6}

    def test_round_bound_and_min(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import sssp_weighted

        # long cheap path vs short pricey edge: with rounds=1 only the
        # direct edge is seen; with rounds=3 the cheap path wins
        edges = rd.from_items(
            [
                {"src": 0, "dst": 1},
                {"src": 1, "dst": 2},
                {"src": 2, "dst": 3},
                {"src": 0, "dst": 3},
            ]
        )
        seeds = rd.from_items([{"node": 0}])
        w = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 10}

        def weight_of(s, d):
            return np.array(
                [w[(a, b)] for a, b in zip(s.tolist(), d.tolist())], np.int64
            )

        one = (
            sssp_weighted(edges, seeds, rounds=1, weight_of=weight_of)
            .to_pandas().set_index("node")["dist"]
        )
        assert one[3] == 10
        three = (
            sssp_weighted(edges, seeds, rounds=3, weight_of=weight_of)
            .to_pandas().set_index("node")["dist"]
        )
        assert three[3] == 3


class TestTpchShapedJoins:
    def _frames_equal(self, a, b, keys):
        import pandas as pd

        a = a.to_pandas().sort_values(keys).reset_index(drop=True)
        b = b.to_pandas().sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_q5_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q5_local_supplier_volume(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q5_local_supplier_volume(sf)
        self._frames_equal(want, got, ["n_name"])

    def test_q4_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q4_order_priority(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q4_order_priority(sf)
        self._frames_equal(want, got, ["o_orderpriority"])

    def test_q17_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import pandas as pd

        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q17_small_quantity_revenue(sf).to_pandas()
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q17_small_quantity_revenue(sf).to_pandas()
        pd.testing.assert_frame_equal(got, want)
        assert int(want["revenue_cents"].iloc[0]) > 0

    def test_q7_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q7_volume_shipping(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q7_volume_shipping(sf)
        self._frames_equal(
            want, got, ["supp_region", "cust_region", "l_year"]
        )

    def test_q10_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q10_returned_items(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q10_returned_items(sf)
        self._frames_equal(want, got, ["c_custkey"])

    def test_q18_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q18_large_volume_customers(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q18_large_volume_customers(sf)
        self._frames_equal(want, got, ["o_orderkey"])

    def test_q13_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q13_customer_distribution(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q13_customer_distribution(sf)
        self._frames_equal(want, got, ["c_count"])


class TestChisqContingency:
    def test_hand_table(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import chisq_contingency

        rows = (
            [{"t": "a", "h": 0}] * 30
            + [{"t": "a", "h": 1}] * 10
            + [{"t": "b", "h": 0}] * 10
            + [{"t": "b", "h": 1}] * 30
        )
        out = (
            chisq_contingency(rd.from_items(rows).repartition(4), "t", "h")
            .to_pandas()
            .set_index(["t", "h"])
            .sort_index()
        )
        n = 80
        # marginals: rt(a)=rt(b)=40, ct(0)=ct(1)=40 -> exp = 20 per cell
        for (t, h), obs in [(("a", 0), 30), (("a", 1), 10),
                            (("b", 0), 10), (("b", 1), 30)]:
            assert out.loc[(t, h), "obs"] == obs
            diff = float(obs * n - 40 * 40)
            want = (diff * diff) / (float(40 * 40) * float(n))
            assert out.loc[(t, h), "contrib"] == want
        # chi2 = sum contrib = 4 * (800^2 / (1600*80)) = 20.0
        assert out["contrib"].sum() == 20.0

    def test_independent_is_zero(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import chisq_contingency

        rows = [
            {"t": t, "h": h}
            for t in ("a", "b", "c")
            for h in (0, 1)
            for _ in range(5)
        ]
        out = chisq_contingency(rd.from_items(rows), "t", "h").to_pandas()
        assert (out["contrib"] == 0.0).all()
        assert len(out) == 6


class TestJaccardLinkPrediction:
    def test_hand_graph(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        # path 1-2-3 plus 2-4: candidates (1,3),(1,4),(3,4) all share {2}
        edges = [(1, 2), (2, 3), (2, 4)]
        out = (
            common_neighbors_topk(
                rd.from_items([{"src": s, "dst": d} for s, d in edges]),
                k=10, jaccard=True,
            )
            .to_pandas()
            .set_index(["u", "v"])
            .sort_index()
        )
        # degrees: 1->1, 2->3, 3->1, 4->1; each pair cn=1,
        # jac = 1e6 // (1 + 1 - 1) = 1e6
        for pair in [(1, 3), (1, 4), (3, 4)]:
            assert out.loc[pair, "cnt"] == 1
            assert out.loc[pair, "jac_micro"] == 1_000_000
        assert len(out) == 3

    def test_rerank_differs_from_cn(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        # hub 0 connects to 1..5; 1 and 2 also share private neighbor 6;
        # (1,2): cn=2 (0 and 6), deg1=deg2=2+... construct:
        edges = (
            [(0, i) for i in range(1, 6)]
            + [(6, 1), (6, 2), (7, 1), (8, 1), (9, 1)]
        )
        out = common_neighbors_topk(
            rd.from_items([{"src": s, "dst": d} for s, d in edges]),
            k=100, jaccard=True,
        ).to_pandas().set_index(["u", "v"])
        # (1,2): cn=2 (0,6); deg(1)=5 (0,6,7,8,9), deg(2)=2 (0,6)
        assert out.loc[(1, 2), "cnt"] == 2
        assert out.loc[(1, 2), "jac_micro"] == 2 * 1_000_000 // (5 + 2 - 2)
        # (3,4): cn=1 (0); deg=1 each -> jac 1e6 ranks ABOVE (1,2)'s 400000
        assert out.loc[(3, 4), "jac_micro"] == 1_000_000

    def test_mutually_exclusive_modes(self, ray_session):
        import pytest
        import ray.data as rd

        from marc2rdf_ray.ops.graph import common_neighbors_topk

        with pytest.raises(ValueError):
            common_neighbors_topk(
                rd.from_items([{"src": 1, "dst": 2}]),
                adamic_adar=True, jaccard=True,
            )


class TestTrailingWeightedSum:
    def test_hand_sequence(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import trailing_weighted_sum

        t0 = dt.datetime(2026, 1, 1)
        rows = []
        # user A: values 1, 2, 3, 4, 5 in ts order
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0]):
            rows.append({"event_id": i, "user_id": 1,
                         "ts": t0 + dt.timedelta(hours=i), "value": v})
        # user B: single event (no lags)
        rows.append({"event_id": 100, "user_id": 2, "ts": t0, "value": 7.0})
        out = (
            trailing_weighted_sum(rd.from_items(rows).repartition(3))
            .to_pandas()
            .set_index("event_id")["wsum_cents"]
            .sort_index()
        )
        # cents: 100,200,300,400,500; weights 8/4/2/1
        assert out[0] == 8 * 100
        assert out[1] == 8 * 200 + 4 * 100
        assert out[2] == 8 * 300 + 4 * 200 + 2 * 100
        assert out[3] == 8 * 400 + 4 * 300 + 2 * 200 + 1 * 100
        assert out[4] == 8 * 500 + 4 * 400 + 2 * 300 + 1 * 200
        assert out[100] == 8 * 700  # boundary: no bleed from user A

    def test_key_boundary_no_bleed(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import trailing_weighted_sum

        t0 = dt.datetime(2026, 1, 1)
        rows = [
            {"event_id": 1, "user_id": 1, "ts": t0, "value": 9.0},
            {"event_id": 2, "user_id": 2, "ts": t0, "value": 1.0},
            {"event_id": 3, "user_id": 2,
             "ts": t0 + dt.timedelta(minutes=1), "value": 1.0},
        ]
        out = (
            trailing_weighted_sum(rd.from_items(rows))
            .to_pandas().set_index("event_id")["wsum_cents"]
        )
        assert out[2] == 800
        assert out[3] == 8 * 100 + 4 * 100  # only user-2 history


class TestCusumScan:
    def test_hand_sequence(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import cusum_scan

        t0 = dt.datetime(2026, 1, 1)
        # k=100 cents, h=150: values 3,0,0,2,4 dollars
        vals = [3.0, 0.0, 0.0, 2.0, 4.0]
        rows = [
            {"event_id": i, "user_id": 1,
             "ts": t0 + dt.timedelta(hours=i), "value": v}
            for i, v in enumerate(vals)
        ]
        out = (
            cusum_scan(
                rd.from_items(rows).repartition(2),
                drift_cents=100, alarm_cents=150,
            )
            .to_pandas().set_index("event_id").sort_index()
        )
        # serial replay: s = max(0, s + vc - 100)
        s, want = 0, []
        for v in vals:
            s = max(0, s + int(round(v * 100)) - 100)
            want.append(s)
        assert out["cusum_cents"].tolist() == want  # [200,100,0,100,400]
        assert out["alarm"].tolist() == [int(x > 150) for x in want]

    def test_key_reset(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import cusum_scan

        t0 = dt.datetime(2026, 1, 1)
        rows = [
            {"event_id": 1, "user_id": 1, "ts": t0, "value": 100.0},
            {"event_id": 2, "user_id": 2,
             "ts": t0 + dt.timedelta(hours=1), "value": 1.0},
        ]
        out = (
            cusum_scan(rd.from_items(rows), drift_cents=50, alarm_cents=10)
            .to_pandas().set_index("event_id")
        )
        assert out.loc[1, "cusum_cents"] == 10000 - 50
        # user 2 starts fresh: max(0, 100 - 50) = 50, no bleed from user 1
        assert out.loc[2, "cusum_cents"] == 50


class TestSetsimJoinExact:
    def test_hand_corpus_complete(self, ray_session):
        from itertools import combinations

        import ray.data as rd

        from marc2rdf_ray.ops.dedup import _token_set, setsim_join_exact

        docs = {
            0: "alpha beta gamma delta epsilon",
            1: "alpha beta gamma delta zeta",       # jac 4/6 with 0
            2: "alpha beta gamma delta epsilon",    # jac 1.0 with 0
            3: "totally different words here now",
            4: "alpha beta gamma delta epsilon ex", # jac 5/6 with 0,2
        }
        ds = rd.from_items(
            [{"doc_id": i, "text": t} for i, t in docs.items()]
        ).repartition(3)
        got = (
            setsim_join_exact(ds, threshold_micro=800_000)
            .to_pandas().set_index(["a", "b"]).sort_index()
        )
        # brute force truth
        want = {}
        for x, y in combinations(sorted(docs), 2):
            sa, sb = set(_token_set(docs[x])), set(_token_set(docs[y]))
            inter = len(sa & sb)
            uni = len(sa | sb)
            if uni and inter * 1_000_000 >= 800_000 * uni:
                want[(x, y)] = (inter, uni, inter * 1_000_000 // uni)
        assert set(got.index) == set(want)
        for k, (i, u, j) in want.items():
            assert got.loc[k, "inter"] == i
            assert got.loc[k, "uni"] == u
            assert got.loc[k, "jac_micro"] == j
        assert (0, 2) in want and want[(0, 2)][2] == 1_000_000

    def test_prefix_filter_misses_nothing_random(self, ray_session):
        from itertools import combinations

        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.dedup import _token_set, setsim_join_exact

        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(30)]
        docs = {
            i: " ".join(
                rng.choice(vocab, size=rng.integers(5, 15), replace=True)
            )
            for i in range(40)
        }
        ds = rd.from_items(
            [{"doc_id": i, "text": t} for i, t in docs.items()]
        ).repartition(4)
        gdf = setsim_join_exact(ds, threshold_micro=300_000).to_pandas()
        got = set(map(tuple, gdf[["a", "b"]].values.tolist()))
        want = set()
        for x, y in combinations(sorted(docs), 2):
            sa, sb = set(_token_set(docs[x])), set(_token_set(docs[y]))
            inter, uni = len(sa & sb), len(sa | sb)
            if uni and inter * 1_000_000 >= 300_000 * uni:
                want.add((x, y))
        assert want, "fixture must produce pairs for the test to bite"
        assert got == want


class TestSetsimScalePathParity:
    def test_distributed_verify_matches_broadcast(self, ray_session,
                                                  plan_budgets):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from marc2rdf_ray.ops.dedup import setsim_join_exact

        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(25)]
        rows = [
            {"doc_id": i,
             "text": " ".join(rng.choice(vocab, size=rng.integers(4, 12)))}
            for i in range(30)
        ]

        def frame(budget):
            plan_budgets(broadcast=budget)
            return (
                setsim_join_exact(
                    rd.from_items(rows).repartition(3),
                    threshold_micro=300_000,
                )
                .to_pandas()
                .sort_values(["a", "b"])
                .reset_index(drop=True)
            )

        want = frame(256 << 20)
        got = frame(0)  # force df-join + distributed pair-token verify
        assert len(want) > 0
        pd.testing.assert_frame_equal(
            got[["a", "b", "inter", "uni", "jac_micro"]],
            want[["a", "b", "inter", "uni", "jac_micro"]],
        )


class TestGroupedMlr2:
    def test_numpy_parity(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_mlr2

        rng = np.random.default_rng(3)
        rows = []
        for g in ("a", "b"):
            for _ in range(200):
                x1 = int(rng.integers(0, 24))
                x2 = int(rng.integers(0, 7))
                y = int(50 + 3 * x1 - 2 * x2 + rng.integers(-5, 6))
                rows.append({"g": g, "x1": x1, "x2": x2, "y": y})
        out = (
            grouped_mlr2(
                rd.from_items(rows).repartition(4),
                group_col="g", x1_col="x1", x2_col="x2", y_col="y",
            )
            .to_pandas().set_index("g")
        )
        import pandas as pd

        df = pd.DataFrame(rows)
        for g in ("a", "b"):
            sub = df[df["g"] == g]
            A = np.column_stack(
                [np.ones(len(sub)), sub["x1"], sub["x2"]]
            ).astype(float)
            beta, *_ = np.linalg.lstsq(A, sub["y"].astype(float), rcond=None)
            got = out.loc[g]
            assert abs(got["b0"] - beta[0]) < 1e-8
            assert abs(got["b1"] - beta[1]) < 1e-8
            assert abs(got["b2"] - beta[2]) < 1e-8
            # coefficients recover the generating line within noise
            assert abs(got["b1"] - 3) < 0.2 and abs(got["b2"] + 2) < 0.4

    def test_singular_group_dropped(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.relational import grouped_mlr2

        rows = [
            {"g": "const", "x1": 5, "x2": 3, "y": v} for v in (1, 2, 3)
        ] + [
            {"g": "ok", "x1": x, "x2": x * x % 7, "y": x * 2}
            for x in range(10)
        ]
        out = grouped_mlr2(
            rd.from_items(rows), group_col="g",
            x1_col="x1", x2_col="x2", y_col="y",
        ).to_pandas()
        assert set(out["g"]) == {"ok"}


class TestLocfGapfill:
    def test_hand_grid(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import locf_gapfill

        H = dt.datetime(2024, 1, 1)

        def at(hours, minutes=0):
            return H + dt.timedelta(hours=hours, minutes=minutes)

        rows = [
            # user 1: hours 0 and 3; hour 0 has an intra-hour tie on ts
            # (event_id 11 wins) and a later-ts close (12 wins over both)
            {"event_id": 10, "user_id": 1, "ts": at(0, 5), "value": 1.0},
            {"event_id": 11, "user_id": 1, "ts": at(0, 5), "value": 2.0},
            {"event_id": 12, "user_id": 1, "ts": at(0, 30), "value": 3.0},
            {"event_id": 13, "user_id": 1, "ts": at(3, 0), "value": 9.0},
            # user 2: single hour
            {"event_id": 20, "user_id": 2, "ts": at(5, 0), "value": 4.5},
        ]
        out = (
            locf_gapfill(rd.from_items(rows).repartition(3))
            .to_pandas().sort_values(["user_id", "hour"])
            .reset_index(drop=True)
        )
        base = int(H.timestamp() // 3600)
        u1 = out[out.user_id == 1]
        assert u1["hour"].tolist() == [base, base + 1, base + 2, base + 3]
        # hour 0 close is event 12 (later ts beats the id tie pair),
        # carried through the two gap hours
        assert u1["value_cents"].tolist() == [300, 300, 300, 900]
        u2 = out[out.user_id == 2]
        assert u2["hour"].tolist() == [base + 5]
        assert u2["value_cents"].tolist() == [450]

    def test_id_tiebreak_same_ts(self, ray_session):
        import datetime as dt

        import ray.data as rd

        from marc2rdf_ray.ops.windows import locf_gapfill

        t = dt.datetime(2024, 1, 1, 10, 15)
        rows = [
            {"event_id": 2, "user_id": 7, "ts": t, "value": 5.0},
            {"event_id": 1, "user_id": 7, "ts": t, "value": 8.0},
        ]
        out = locf_gapfill(rd.from_items(rows)).to_pandas()
        assert len(out) == 1
        assert out["value_cents"].iloc[0] == 500  # max event_id wins


class TestEmbeddingGram:
    def test_matches_numpy(self, ray_session):
        import numpy as np
        import ray.data as rd

        from marc2rdf_ray.ops.ann import embedding_gram

        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(40, 6)).astype(np.float32)
        ds = rd.from_items(
            [{"embedding": v.tolist()} for v in vecs]
        ).repartition(4)
        out = (
            embedding_gram(ds)
            .to_pandas().set_index(["i", "j"]).sort_index()
        )
        q = np.where(
            vecs.astype(np.float64) * 1e6 >= 0,
            np.floor(vecs.astype(np.float64) * 1e6 + 0.5),
            np.ceil(vecs.astype(np.float64) * 1e6 - 0.5),
        ).astype(np.int64)
        want = q.T @ q
        assert len(out) == 6 * 7 // 2
        for i in range(6):
            for j in range(i, 6):
                assert out.loc[(i, j), "g"] == want[i, j]

    def test_overflow_guard(self, ray_session):
        import numpy as np
        import ray.data as rd

        import pytest

        from marc2rdf_ray.ops.ann import embedding_gram

        # |v| = 4e3 -> quantized 4e9 micro-units; one pair product 1.6e19
        # already exceeds int64: the guard must fail loudly, not wrap
        ds = rd.from_items([{"embedding": [4000.0, 4000.0]}] * 10)
        with pytest.raises(Exception) as ei:
            embedding_gram(ds).materialize()
        assert "overflow" in str(ei.value).lower() or "OverflowError" in str(
            ei.getrepr()
        )


class TestBgpStarMatch:
    def _triples(self, rows):
        import ray.data as rd

        return rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        ).repartition(3)

    def test_hand_graph_bindings(self, ray_session):
        from marc2rdf_ray.ops.bgp import bgp_star_match

        LANG = "urn:lang"
        SRC = "urn:src"
        rows = [
            ("d1", LANG, "en"),
            ("d1", LANG, "en"),       # duplicate triple -> set semantics
            ("d1", SRC, "web"),
            ("d2", LANG, "no"),
            ("d2", LANG, "fr"),       # multi-valued -> cross product
            ("d2", SRC, "mail"),
            ("d2", SRC, "feed"),
            ("d3", LANG, "en"),       # missing SRC -> no binding
            ("d4", SRC, "web"),       # missing LANG -> no binding
            ("d4", "urn:other", "x"), # non-pattern predicate ignored
        ]
        got = (
            bgp_star_match(self._triples(rows),
                           [(LANG, "lang"), (SRC, "src")])
            .to_pandas().sort_values(["subj", "lang", "src"])
            .reset_index(drop=True)
        )
        want = sorted(
            [("d1", "en", "web"),
             ("d2", "no", "mail"), ("d2", "no", "feed"),
             ("d2", "fr", "mail"), ("d2", "fr", "feed")]
        )
        assert [tuple(r) for r in got.values] == want

    def test_empty_pattern_rejected(self, ray_session):
        import pytest as _pytest

        from marc2rdf_ray.ops.bgp import bgp_star_match

        with _pytest.raises(ValueError):
            bgp_star_match(self._triples([]), [])
        with _pytest.raises(ValueError):
            bgp_star_match(self._triples([]), [("p", "v"), ("q", "v")])


class TestPredicateStats:
    def test_hand_graph_counts(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import predicate_stats

        rows = [
            ("d1", "urn:p", "a"),
            ("d1", "urn:p", "a"),   # duplicate triple collapses
            ("d1", "urn:p", "b"),
            ("d2", "urn:p", "a"),
            ("d2", "urn:q", "d2"),  # value equal to a subject elsewhere
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        ).repartition(2)
        got = predicate_stats(ds).to_pandas().set_index("pred")
        assert got.loc["urn:p", "n_triples"] == 3
        assert got.loc["urn:p", "n_subjects"] == 2
        assert got.loc["urn:p", "n_objects"] == 2
        assert got.loc["urn:q", "n_triples"] == 1
        assert got.loc["urn:q", "n_subjects"] == 1
        assert got.loc["urn:q", "n_objects"] == 1


class TestNewTpchShapedFallbacks:
    def _frames_equal(self, a, b, keys):
        import pandas as pd

        if not isinstance(a, pd.DataFrame):
            a = a.to_pandas()
        if not isinstance(b, pd.DataFrame):
            b = b.to_pandas()
        a = a.sort_values(keys).reset_index(drop=True)
        b = b.sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_q12_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q12_priority_by_delay(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q12_priority_by_delay(sf)
        self._frames_equal(want, got, ["bucket"])

    def test_q9_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q9_product_profit(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q9_product_profit(sf)
        self._frames_equal(want, got, ["n_name", "o_year"])

    def test_q21_fallback_matches_broadcast(self, ray_session, plan_budgets):
        import marc2rdf_ray.entry_queries as eq

        sf = "/root/testdata/sf0.001"
        want = eq.q21_waiting_suppliers(sf)
        plan_budgets(broadcast=1)  # force the join fallbacks
        got = eq.q21_waiting_suppliers(sf)
        self._frames_equal(want, got, ["s_name"])


class TestBgpChainMatch:
    def test_two_hop_chain(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import bgp_chain_match

        SAME = "urn:sameAs"
        LANG = "urn:lang"
        rows = [
            ("a", SAME, "b"),
            ("a", SAME, "b"),     # duplicate triple -> one binding
            ("b", LANG, "en"),
            ("b", LANG, "fr"),    # multi-valued tail -> two bindings
            ("c", SAME, "d"),     # d has no language -> no binding
            ("e", LANG, "no"),    # no incoming sameAs -> no binding
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        ).repartition(3)
        got = (
            bgp_chain_match(ds, [SAME, LANG], ["doc", "canon", "lang"])
            .to_pandas().sort_values(["doc", "canon", "lang"])
            .reset_index(drop=True)
        )
        assert [tuple(r) for r in got.values] == [
            ("a", "b", "en"), ("a", "b", "fr")
        ]

    def test_bad_args_rejected(self, ray_session):
        import pytest as _pytest
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import bgp_chain_match

        ds = rd.from_items([{"subj": "a", "pred": "p", "obj": "b"}])
        with _pytest.raises(ValueError):
            bgp_chain_match(ds, ["p"], ["x"])
        with _pytest.raises(ValueError):
            bgp_chain_match(ds, ["p"], ["x", "x"])


class TestInferTypes:
    def test_transitive_closure_inference(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import infer_types

        TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        rows = [
            ("d1", TYPE, "A", "uri"),
            ("d1", TYPE, "A", "uri"),   # duplicate assertion collapses
            ("d2", TYPE, "B", "uri"),
            ("d3", TYPE, "Z", "uri"),   # class outside the T-Box
            ("d1", "urn:other", "A", "uri"),  # non-type triple ignored
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o, "obj_kind": k}
             for s, p, o, k in rows]
        ).repartition(2)
        got = (
            infer_types(ds, [("A", "B"), ("B", "C")])
            .to_pandas().sort_values(["subj", "obj"]).reset_index(drop=True)
        )
        want = sorted([("d1", "B"), ("d1", "C"), ("d2", "C")])
        assert [(r.subj, r.obj) for r in got.itertuples()] == want
        assert set(got["pred"]) == {TYPE}
        assert set(got["obj_kind"]) == {"uri"}


class TestBgpStarOptional:
    def test_optional_binds_or_null(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import bgp_star_match_optional

        LANG, SAME = "urn:lang", "urn:same"
        rows = [
            ("d1", LANG, "en"),
            ("d1", SAME, "c1"),
            ("d2", LANG, "no"),          # no sameAs -> NULL canon
            ("d3", SAME, "c3"),          # no lang -> excluded (required)
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        ).repartition(2)
        got = (
            bgp_star_match_optional(ds, [(LANG, "lang")], [(SAME, "canon")])
            .to_pandas().sort_values("subj").reset_index(drop=True)
        )
        assert got["subj"].tolist() == ["d1", "d2"]
        assert got["lang"].tolist() == ["en", "no"]
        assert got["canon"].tolist()[0] == "c1"
        assert got["canon"].isna().tolist() == [False, True]

    def test_required_empty_rejected(self, ray_session):
        import pytest as _pytest
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import bgp_star_match_optional

        ds = rd.from_items([{"subj": "a", "pred": "p", "obj": "b"}])
        with _pytest.raises(ValueError):
            bgp_star_match_optional(ds, [], [("p", "v")])


class TestUpdateWhere:
    def test_delete_insert_with_filter(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import update_where

        LANG = "urn:lang"
        rows = [
            ("d1", LANG, "no", "uri"),
            ("d1", "urn:src", "web", "uri"),
            ("d2", LANG, "en", "uri"),
            ("d2", "urn:src", "mail", "uri"),
            ("d2", LANG, "en", "uri"),   # duplicate collapses
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o, "obj_kind": k}
             for s, p, o, k in rows]
        ).repartition(2)
        got = update_where(
            ds,
            [(LANG, "lang"), ("urn:src", "src")],
            delete_templates=[("?subj", LANG, "?lang", "uri")],
            insert_templates=[
                ("?subj", LANG, "nob", "uri"),
                ("?subj", "urn:norm", "true", "literal"),
            ],
            filters={"lang": "no"},
        ).to_pandas()
        trips = set(map(tuple, got[["subj", "pred", "obj"]].values))
        assert ("d1", LANG, "no") not in trips          # deleted
        assert ("d1", LANG, "nob") in trips             # inserted
        assert ("d1", "urn:norm", "true") in trips      # inserted
        assert ("d2", LANG, "en") in trips              # untouched
        assert ("d2", "urn:src", "mail") in trips
        assert len(got) == len(trips)                   # distinct output


class TestGraphDiff:
    def test_added_removed(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import graph_diff

        def g(rows):
            return rd.from_items(
                [{"subj": s, "pred": p, "obj": o, "obj_kind": k}
                 for s, p, o, k in rows]
            ).repartition(2)

        old = g([("a", "p", "1", "literal"),
                 ("a", "q", "2", "literal"),
                 ("a", "q", "2", "literal"),   # dup collapses
                 ("b", "p", "3", "literal")])
        new = g([("a", "p", "1", "literal"),   # unchanged
                 ("a", "q", "9", "literal"),   # changed value
                 ("c", "p", "4", "literal")])  # new subject
        got = graph_diff(old, new).to_pandas()
        d = set(map(tuple, got[["op", "subj", "pred", "obj"]].values))
        assert d == {
            ("+", "a", "q", "9"), ("+", "c", "p", "4"),
            ("-", "a", "q", "2"), ("-", "b", "p", "3"),
        }


class TestValidateCardinality:
    def test_min_max_violations(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import validate_cardinality

        rows = [
            ("a", "urn:lang", "en"), ("a", "urn:lang", "en"),  # 1 distinct
            ("b", "urn:lang", "en"), ("b", "urn:lang", "fr"),  # 2 -> viol
            ("c", "urn:lang", "x"), ("c", "urn:lang", "y"),
            ("c", "urn:lang", "z"),                            # 3 -> viol
            ("d", "urn:other", "w"),                           # not checked
        ]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        ).repartition(3)
        got = (
            validate_cardinality(ds, "urn:lang", min_count=1, max_count=1)
            .to_pandas().set_index("subj")["n_values"].to_dict()
        )
        assert got == {"b": 2, "c": 3}

    def test_min_two_finds_underfilled(self, ray_session):
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import validate_cardinality

        rows = [("a", "urn:tag", "t1"), ("b", "urn:tag", "t1"),
                ("b", "urn:tag", "t2")]
        ds = rd.from_items(
            [{"subj": s, "pred": p, "obj": o} for s, p, o in rows]
        )
        got = (
            validate_cardinality(ds, "urn:tag", min_count=2, max_count=9)
            .to_pandas().set_index("subj")["n_values"].to_dict()
        )
        assert got == {"a": 1}


class TestIntervalOverlapJoin:
    def _mk(self, rows):
        import ray.data as rd

        return rd.from_items(
            [{"id": i, "s": s, "e": e} for i, s, e in rows]
        ).repartition(2)

    def test_hand_intervals_vs_brute(self, ray_session):
        from marc2rdf_ray.ops.joins import interval_overlap_join

        left = [(1, 0, 10), (2, 5, 15), (3, 100, 101), (4, 20, 20)]
        right = [(10, 9, 12), (11, 15, 25), (12, 0, 1), (13, 99, 200)]
        got = interval_overlap_join(
            self._mk(left), self._mk(right), width_us=7
        ).to_pandas()
        got_pairs = set(map(tuple, got[["left_id", "right_id"]].values))
        want = {
            (li, ri)
            for li, ls, le in left if le > ls
            for ri, rs, re in right
            if ls < re and rs < le
        }
        assert got_pairs == want
        assert len(got) == len(got_pairs)  # ownership: no double emission

    def test_long_interval_spans_many_tiles_once(self, ray_session):
        from marc2rdf_ray.ops.joins import interval_overlap_join

        # one long left interval overlapping many short rights, tiny tiles
        left = [(1, 0, 1000)]
        right = [(i, i * 10, i * 10 + 5) for i in range(50)]
        got = interval_overlap_join(
            self._mk(left), self._mk(right), width_us=13
        ).to_pandas()
        assert sorted(got["right_id"]) == list(range(50))
        assert (got["left_id"] == 1).all()

    def test_pair_cap_fails_loud(self, ray_session):
        import pytest as _pytest

        from marc2rdf_ray.ops.joins import interval_overlap_join

        left = [(i, 0, 10) for i in range(40)]
        right = [(i, 0, 10) for i in range(40)]
        with _pytest.raises(Exception, match="pair_cap"):
            interval_overlap_join(
                self._mk(left), self._mk(right), width_us=100, pair_cap=100
            ).materialize()


class TestKTruss:
    def _edges(self):
        import pyarrow as pa
        import ray.data as rd

        # K4 on {0,1,2,3} + a pendant triangle {3,4,5} + a bridge 5-6
        # + self-loop + duplicate/reversed edges
        pairs = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (3, 4), (3, 5), (4, 5), (5, 6), (6, 6), (1, 0), (2, 1),
        ]
        return rd.from_arrow(
            pa.table(
                {
                    "src": pa.array([a for a, _ in pairs], pa.int64()),
                    "dst": pa.array([b for _, b in pairs], pa.int64()),
                }
            )
        )

    def test_truss4_keeps_only_k4(self, ray_session):
        """4-truss (support >= 2): K4 edges each sit in 2 triangles; the
        pendant triangle's edges sit in 1 and peel; the bridge has 0."""
        from marc2rdf_ray.ops.graph import ktruss

        out = ktruss(self._edges(), k=4, rounds=None).to_pandas()
        got = sorted(map(tuple, out[["u", "v"]].values.tolist()))
        assert got == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_truss3_keeps_both_triangles(self, ray_session):
        from marc2rdf_ray.ops.graph import ktruss

        out = ktruss(self._edges(), k=3, rounds=None).to_pandas()
        got = sorted(map(tuple, out[["u", "v"]].values.tolist()))
        assert (3, 4) in got and (4, 5) in got and (5, 6) not in got
        assert len(got) == 9

    def test_distributed_rounds_match_local(self, ray_session,
                                            plan_budgets):
        """A zero one_task_python budget forces the distributed per-round
        support path; output must be identical to the one-task fast
        path."""
        from marc2rdf_ray.ops import plan
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import ktruss

        rng = np.random.default_rng(11)
        src = rng.integers(0, 150, 1200)
        dst = rng.integers(0, 150, 1200)
        ds = rd.from_arrow(
            pa.table(
                {"src": pa.array(src, pa.int64()),
                 "dst": pa.array(dst, pa.int64())}
            )
        )
        local = plan.BUDGETS["one_task_python"]
        for k, rounds in ((4, 2), (5, None)):
            plan_budgets(one_task_python=local)
            loc = ktruss(ds, k=k, rounds=rounds).to_pandas()
            plan_budgets(one_task_python=0)
            dist = ktruss(ds, k=k, rounds=rounds).to_pandas()
            assert len(loc) == len(dist)
            if len(loc):
                loc = loc.sort_values(["u", "v"]).reset_index(drop=True)
                dist = dist.sort_values(["u", "v"]).reset_index(drop=True)
                assert loc.equals(dist)

    def test_strict_raises_on_truncation(self, ray_session, plan_budgets):
        import pytest as _pytest

        from marc2rdf_ray.ops.graph import ktruss

        plan_budgets(one_task_python=0)
        with _pytest.raises(ValueError, match="max_out"):
            ktruss(
                self._edges(), k=3, rounds=1, max_out=1, strict=True,
            ).to_pandas()

    def test_k_below_3_rejected(self, ray_session):
        import pytest as _pytest

        from marc2rdf_ray.ops.graph import ktruss

        with _pytest.raises(ValueError, match="k >= 3"):
            ktruss(self._edges(), k=2)


class TestOhlcAndValidation:
    def test_ohlc_tie_breaks_on_event_id(self, ray_session, tmp_path):
        """Two events at the identical timestamp: open takes the min
        event_id's value, close the max's; high/low span the bar."""
        import datetime as dt

        import pyarrow as pa
        import pyarrow.parquet as pq

        from marc2rdf_ray.entry_queries import events_hourly_ohlc

        ts = dt.datetime(2024, 1, 1, 10, 15)
        tab = pa.table(
            {
                "event_id": pa.array([2, 1, 3], pa.int64()),
                "ts": pa.array([ts, ts, ts + dt.timedelta(minutes=5)],
                               pa.timestamp("us")),
                "user_id": pa.array([1, 1, 1], pa.int64()),
                "event_type": pa.array(["click"] * 3, pa.string()),
                "value": pa.array([5.0, 9.0, 1.0], pa.float64()),
                "props": pa.array([""] * 3, pa.string()),
            }
        )
        pq.write_table(tab, str(tmp_path / "events.parquet"))
        out = events_hourly_ohlc(str(tmp_path)).to_pandas()
        assert len(out) == 1
        r = out.iloc[0]
        assert (r["open"], r["high"], r["low"], r["close"]) == (
            9.0, 9.0, 1.0, 1.0
        )

    def test_validate_pattern_flags_nulls_and_dedups(self, ray_session):
        """Null objects are violations (cannot conform); duplicate
        triples collapse to one report row (RDF set semantics)."""
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.bgp import validate_pattern

        tab = pa.table(
            {
                "subj": pa.array(["a", "a", "b", "c"], pa.string()),
                "pred": pa.array(["p", "p", "p", "q"], pa.string()),
                "obj": pa.array(["xx", "xx", None, "zz"], pa.string()),
            }
        )
        out = validate_pattern(
            rd.from_arrow(tab), "p", r"^[a-z]{3}$", check_name="len3"
        ).to_pandas()
        got = sorted(
            (s, o if o is not None else "<null>")
            for s, o in zip(out["subj"], out["obj"])
        )
        assert got == [("a", "xx"), ("b", "<null>")]
        assert set(out["check"]) == {"len3"}


class TestPQTopk:
    def _data(self, n=300, d=16, seed=3):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        rng = np.random.default_rng(seed)
        mat = rng.normal(size=(n, d))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        tab = pa.table(
            {
                "vec_id": pa.array(np.arange(n), pa.int64()),
                "embedding": pa.array(
                    [row.astype("float32") for row in mat],
                    pa.list_(pa.float32()),
                ),
            }
        )
        return rd.from_arrow(tab), mat

    def test_pq_recall_against_brute(self, ray_session):
        """ADC candidates + exact rescore must recover most of the true
        top-10 (quantization is lossy; the rescore repairs ranking)."""
        from marc2rdf_ray.ops.ann import brute_topk, pq_topk

        ds, mat = self._data()
        qids = [0, 1, 2]
        qmat = mat[:3]
        pq = pq_topk(ds, qids, qmat, k=10, n_sub=2, ksub=8,
                     iterations=2, oversample=4).to_pandas()
        bf = brute_topk(ds, qids, qmat, k=10).to_pandas()
        recalls = []
        for q in qids:
            got = set(pq[pq["qid"] == q]["vec_id"])
            want = set(bf[bf["qid"] == q]["vec_id"])
            assert len(got) == 10
            recalls.append(len(got & want) / 10)
        assert sum(recalls) / len(recalls) >= 0.5

    def test_pq_deterministic_across_runs(self, ray_session):
        from marc2rdf_ray.ops.ann import pq_topk

        ds, mat = self._data(n=120, d=8, seed=9)
        a = pq_topk(ds, [0], mat[:1], k=5, n_sub=2, ksub=4,
                    iterations=1).to_pandas()
        b = pq_topk(ds, [0], mat[:1], k=5, n_sub=2, ksub=4,
                    iterations=1).to_pandas()
        assert a.equals(b)

    def test_pq_rejects_indivisible_dim(self, ray_session):
        import pytest as _pytest

        from marc2rdf_ray.ops.ann import pq_topk

        ds, mat = self._data(n=40, d=10)
        with _pytest.raises(ValueError, match="divisible"):
            pq_topk(ds, [0], mat[:1], n_sub=3)


class TestKTrussBruteReference:
    def test_matches_independent_set_based_reference(self, ray_session,
                                                     plan_budgets):
        """Distributed ktruss vs an independent adjacency-set reference
        on random graphs (both fixed-round and fixpoint)."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import ktruss

        def reference(src, dst, k, rounds):
            E = {(min(a, b), max(a, b))
                 for a, b in zip(src.tolist(), dst.tolist()) if a != b}
            cur = set(E)
            r = 0
            while cur and (rounds is None or r < rounds):
                adj = {}
                for u, v in cur:
                    adj.setdefault(u, set()).add(v)
                    adj.setdefault(v, set()).add(u)
                nxt = {e for e in cur
                       if len(adj[e[0]] & adj[e[1]]) >= k - 2}
                if rounds is None and nxt == cur:
                    break
                cur = nxt
                r += 1
            return sorted(cur)

        for seed, k, rounds in ((1, 3, 2), (2, 4, None), (5, 5, 3)):
            rng = np.random.default_rng(seed)
            src = rng.integers(0, 80, 600)
            dst = rng.integers(0, 80, 600)
            ds = rd.from_arrow(
                pa.table({"src": pa.array(src, pa.int64()),
                          "dst": pa.array(dst, pa.int64())})
            )
            for budget in (8 << 20, 0):  # local path and distributed
                plan_budgets(one_task_python=budget)
                out = ktruss(ds, k=k, rounds=rounds).to_pandas()
                got = (sorted(map(tuple, out[["u", "v"]].values.tolist()))
                       if len(out) else [])
                assert got == reference(src, dst, k, rounds), (
                    seed, k, rounds, budget)


class TestRandomWalks:
    def _edges(self):
        import pyarrow as pa
        import ray.data as rd

        # 0 -> {1, 2}; 1 -> {3}; 3 is a sink; 2 -> {0}; dup edge + loop
        pairs = [(0, 1), (0, 2), (1, 3), (2, 0), (0, 1), (3, 3)]
        return rd.from_arrow(
            pa.table(
                {"src": pa.array([a for a, _ in pairs], pa.int64()),
                 "dst": pa.array([b for _, b in pairs], pa.int64())}
            )
        )

    def test_sink_truncates_with_nulls(self, ray_session):
        import hashlib

        from marc2rdf_ray.ops.graph import random_walks

        out = random_walks(self._edges(), steps=3).to_pandas()
        out = out.set_index("start").sort_index()
        # starts: only nodes with out-edges (3's self-loop is dropped)
        assert sorted(out.index) == [0, 1, 2]
        # walk from 1: 1 -> 3 (only neighbor), then sink -> NULLs
        assert out.loc[1, "s1"] == 3
        assert out.loc[1, ["s2", "s3"]].isna().all()
        # walk from 0: choice replayed from md5("0:1") % 2 over [1, 2]
        pick = int(hashlib.md5(b"0:1").hexdigest()[:8], 16) % 2
        assert out.loc[0, "s1"] == [1, 2][pick]

    def test_join_path_matches_broadcast(self, ray_session, plan_budgets):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from marc2rdf_ray.ops.graph import random_walks

        rng = np.random.default_rng(17)
        ds = rd.from_arrow(
            pa.table(
                {"src": pa.array(rng.integers(0, 60, 300), pa.int64()),
                 "dst": pa.array(rng.integers(0, 60, 300), pa.int64())}
            )
        )
        a = random_walks(ds, steps=2).to_pandas().sort_values(
            "start").reset_index(drop=True)
        plan_budgets(broadcast=0)
        b = random_walks(ds, steps=2).to_pandas(
        ).sort_values("start").reset_index(drop=True)
        assert len(a) == len(b)
        for c in a.columns:
            av = a[c].fillna(-1).astype("int64")
            bv = b[c].fillna(-1).astype("int64")
            assert (av == bv).all(), c


class TestIncrementalMinhashDedup:
    def _win(self, ids, texts):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array(ids, pa.int64()),
                 "text": pa.array(texts, pa.string())}
            )
        )

    def test_cross_window_near_dup_state(self, ray_session, tmp_path,
                                         plan_budgets):
        import os

        from marc2rdf_ray.ops.dedup import incremental_minhash_dedup

        glue = ["the", "and", "of", "in", "it", "is"]

        def doc(i, drop_last=False):
            toks = []
            for k in range(24):
                toks.append(f"v{i}w{k}")
                toks.append(glue[k % len(glue)])
            if drop_last:
                toks = toks[:-1]
            return " ".join(toks)

        state = str(tmp_path / "mh_state")
        # w1: distinct docs + a near copy of doc 0 (within-window drop)
        k1 = sorted(
            r["doc_id"] for r in incremental_minhash_dedup(
                self._win(
                    [0, 1, 5], [doc(0), doc(1), doc(0, drop_last=True)]
                ),
                state, "w1",
            ).take_all()
        )
        assert k1 == [0, 1]
        # w2: near copy of w1's doc 1 (cross drop) + genuinely new doc
        k2 = sorted(
            r["doc_id"] for r in incremental_minhash_dedup(
                self._win([10, 11], [doc(1, drop_last=True), doc(7)]),
                state, "w2",
            ).take_all()
        )
        assert k2 == [11]
        # committed rerun is idempotent
        k2b = sorted(
            r["doc_id"] for r in incremental_minhash_dedup(
                self._win([10, 11], [doc(1, drop_last=True), doc(7)]),
                state, "w2",
            ).take_all()
        )
        assert k2b == [11]
        # crashed window dirs (no _done) are invisible as state
        os.makedirs(os.path.join(state, "win=crashed"), exist_ok=True)
        # near copy of the DROPPED doc 10 must SURVIVE (state keeps only
        # the corpus you kept), via the join fallback path (budget 0)
        plan_budgets(broadcast=0)
        k3 = sorted(
            r["doc_id"] for r in incremental_minhash_dedup(
                self._win([20, 21], [doc(7, drop_last=True), doc(9)]),
                state, "w3",
            ).take_all()
        )
        assert k3 == [21]  # 20 is a near copy of kept doc 7's twin 11


class TestBmpDecoder:
    """Real stdlib BMP decode through the injection point (round-5 #6)."""

    def test_decodes_real_bmp_headers(self):
        from marc2rdf_ray.ops.multimodal import bmp_decoder, synth_bmp_table

        dec = bmp_decoder()
        t = synth_bmp_table(32, corrupt_every=16)
        import hashlib as _h

        for i, p in enumerate(t["payload"].to_pylist()):
            h = _h.sha256(f"42:{i}".encode()).digest()
            want = (64 + h[0] % 64, 64 + h[1] % 64)
            if i % 16 == 15:
                assert dec(p) is None  # truncated pixel array
            else:
                assert dec(p) == want

    def test_rejects_malformed(self):
        import struct

        from marc2rdf_ray.ops.multimodal import bmp_decoder

        dec = bmp_decoder()
        assert dec(b"") is None
        assert dec(b"not a bmp at all" * 10) is None
        assert dec(b"BM" + b"\0" * 52) is None  # zero dims
        # top-down BMP (negative height) decodes with abs(height)
        w, ht = 4, 3
        row = ((w * 3 + 3) // 4) * 4
        pix = bytes(range(row))[:row] * ht
        hdr = (b"BM" + struct.pack("<IHHI", 54 + len(pix), 0, 0, 54)
               + struct.pack("<Iii", 40, w, -ht)
               + struct.pack("<HH", 1, 24)
               + struct.pack("<IIiiII", 0, len(pix), 0, 0, 0, 0))
        assert dec(hdr + pix) == (w, ht)

    def test_stub_still_raises_without_injection(self):
        import pytest as _pytest

        from marc2rdf_ray.ops.multimodal import DecodeStub

        with _pytest.raises(NotImplementedError):
            DecodeStub()


def test_attach_cache_evicts_least_recent_under_byte_cap(monkeypatch):
    """The worker-global sameAs canon cache holds at most its byte cap:
    a miss evicts least recently used tables first, and a table larger
    than the cap is still cached (alone)."""
    from collections import OrderedDict

    from marc2rdf_ray.stages import canonicalize as cz

    monkeypatch.setattr(cz, "_ATTACH_CACHE", OrderedDict())
    monkeypatch.setattr(cz, "_ATTACH_CACHE_BYTES", 3000)
    loads = []

    def table(key, nbytes):
        def load():
            loads.append(key)
            col = pa.array(np.zeros(nbytes // 16, np.int64))
            return (col, col)
        return load

    for k in ("a", "b", "c"):
        cz._attach_state(k, table(k, 1000))
    assert list(cz._ATTACH_CACHE) == ["a", "b", "c"]
    cz._attach_state("a", table("a", 1000))  # hit: no load, now newest
    assert loads == ["a", "b", "c"]
    cz._attach_state("d", table("d", 1000))  # evicts b, the least recent
    assert list(cz._ATTACH_CACHE) == ["c", "a", "d"]
    cz._attach_state("e", table("e", 2000))  # needs two slots: c, a go
    assert list(cz._ATTACH_CACHE) == ["d", "e"]
    cz._attach_state("big", table("big", 8000))
    assert list(cz._ATTACH_CACHE) == ["big"]
    cz._attach_state("b", table("b", 1000))
    assert list(cz._ATTACH_CACHE) == ["b"] and loads[-1] == "b"
