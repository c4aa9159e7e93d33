"""End-to-end pipeline tests (SURVEY.md §5 items 3-5): recall vs the
sequential reference-semantics oracle, the per-turn row invariant, resume
from checkpoint, and order-free determinism across partitioning."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from raydedup.config import DedupConfig
from raydedup.pipelines.oracle import greedy_star_pairs, pair_recall


@pytest.fixture(scope="module")
def e2e(ray_session, fixture_dir, tmp_path_factory):
    """One full pipeline run over the shared 400-conv fixture."""
    from raydedup.pipelines.dedup import run_pipeline

    out_dir = str(tmp_path_factory.mktemp("e2e"))
    cfg = DedupConfig(num_partitions=4, sig_concurrency=(1, 2))
    res = run_pipeline(f"{fixture_dir}/transcripts.parquet", out_dir, cfg)
    clusters = res["clusters"].to_pandas()
    return {"res": res, "clusters": clusters, "out_dir": out_dir, "cfg": cfg,
            "fixture_dir": fixture_dir}


def _oracle(fixture_dir, cfg):
    turns = pq.read_table(f"{fixture_dir}/transcripts.parquet").to_pandas()
    ok = turns.dropna(subset=["text"]).sort_values(["conv_id", "turn_idx"])
    docs = [(cid, "\n".join(g["text"])) for cid, g in ok.groupby("conv_id", sort=True)]
    return greedy_star_pairs(docs, cfg.shingle_k, cfg.jaccard_threshold)


def test_recall_vs_oracle(e2e):
    orc = _oracle(e2e["fixture_dir"], e2e["cfg"])
    assert len(orc.pairs) > 50
    assign = dict(zip(e2e["clusters"].conv_id, e2e["clusters"].cluster_id))
    recall = pair_recall(orc.pairs, assign)
    assert recall >= 0.99


def test_every_conv_assigned_exactly_once(e2e):
    turns = pq.read_table(f"{e2e['fixture_dir']}/transcripts.parquet").to_pandas()
    cl = e2e["clusters"]
    assert cl.conv_id.is_unique
    assert set(cl.conv_id) == set(turns.conv_id)
    # cluster_id is the min conv_id of its component
    assert (cl.groupby("cluster_id")["conv_id"].min() ==
            cl.groupby("cluster_id")["cluster_id"].first()).all()


def test_statuses_and_boilerplate_precision(e2e):
    truth = pq.read_table(f"{e2e['fixture_dir']}/truth.parquet").to_pandas()
    cl = e2e["clusters"].set_index("conv_id")
    zero = truth[truth.family == "zero"].conv_id
    assert (cl.loc[zero, "status"] == "no_content").all()
    corrupt = truth[truth.family == "corrupt"].conv_id
    assert (cl.loc[corrupt, "status"] == "corrupted").all()
    # quarantined rows are singletons
    assert (cl.loc[zero, "cluster_id"].to_numpy() == zero.to_numpy()).all()
    assert (cl.loc[corrupt, "cluster_id"].to_numpy() == corrupt.to_numpy()).all()
    # boilerplate-only conversations never co-cluster with each other
    boiler = truth[truth.family == "boiler"].conv_id
    assert cl.loc[boiler, "cluster_id"].is_unique


def test_longrep_family_caught(e2e):
    """Long verbatim spans (MinHash-diluted) are linked by the suffix pass."""
    truth = pq.read_table(f"{e2e['fixture_dir']}/truth.parquet").to_pandas()
    cl = e2e["clusters"].set_index("conv_id")
    groups = truth[truth.family == "longrep"].groupby("group_id")["conv_id"].apply(list)
    hit = sum(1 for g in groups if cl.loc[g, "cluster_id"].nunique() == 1)
    assert hit / len(groups) >= 0.9


def test_row_invariant_label_turns(e2e, ray_session):
    """Per-turn text equality under stable turn ordering (north rule)."""
    import ray.data as rd

    from raydedup.pipelines.dedup import label_turns

    turns_ds = rd.read_parquet(f"{e2e['fixture_dir']}/transcripts.parquet")
    labeled = label_turns(turns_ds, e2e["res"]["clusters"], e2e["cfg"]).to_pandas()
    src = pq.read_table(f"{e2e['fixture_dir']}/transcripts.parquet").to_pandas()
    # corrupted convs may hold duplicate turn_idx; break ties on the payload
    for df in (src, labeled):
        df["_t"] = df["text"].fillna("\0")
    key = ["conv_id", "turn_idx", "_t", "role"]
    a = src.sort_values(key).reset_index(drop=True)
    b = labeled.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a["_t"] == b["_t"]).all()
    assert (a["role"] == b["role"]).all()
    assert b["cluster_id"].notna().all()


def test_memory_mode_matches_disk(e2e, tmp_path):
    """Ephemeral checkpoint_mode='memory' (object-store materialization,
    no parquet round-trip, no resume) yields byte-identical clusters."""
    from raydedup.pipelines.dedup import run_pipeline

    cfg = DedupConfig(
        num_partitions=4, sig_concurrency=(1, 2), checkpoint_mode="memory"
    )
    res = run_pipeline(
        f"{e2e['fixture_dir']}/transcripts.parquet", str(tmp_path / "mem"), cfg
    )
    mem = res["clusters"].to_pandas().sort_values("conv_id").reset_index(drop=True)
    disk = e2e["clusters"].sort_values("conv_id").reset_index(drop=True)
    assert mem.equals(disk)
    # no stage checkpoint dirs were written
    assert not os.path.exists(str(tmp_path / "mem" / "signatures"))


def test_resume_skips_recompute(e2e):
    """Second run with identical (input, config) resumes every stage.
    Fused stages (candidates below the fuse gate) are lazy graphs that
    never execute when their consumer resumes — no recompute either."""
    from raydedup.pipelines.dedup import run_pipeline

    res2 = run_pipeline(
        f"{e2e['fixture_dir']}/transcripts.parquet", e2e["out_dir"], e2e["cfg"]
    )
    actions = {ev["stage"]: ev["action"] for ev in res2["events"]}
    assert all(a in ("resumed", "fused") for a in actions.values()), actions
    assert actions["signatures"] == "resumed" and actions["clusters"] == "resumed"
    cl2 = res2["clusters"].to_pandas().sort_values("conv_id").reset_index(drop=True)
    cl1 = e2e["clusters"].sort_values("conv_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(cl1[["conv_id", "cluster_id", "status"]],
                                  cl2[["conv_id", "cluster_id", "status"]])


def test_partial_resume_after_config_change(e2e, tmp_path):
    """A config change invalidates checkpoints (lineage hash mismatch)."""
    from raydedup.pipelines.dedup import run_pipeline

    cfg2 = DedupConfig(num_partitions=4, sig_concurrency=(1, 2), bands=16, rows=8)
    res = run_pipeline(f"{e2e['fixture_dir']}/transcripts.parquet", e2e["out_dir"], cfg2)
    actions = {ev["stage"]: ev["action"] for ev in res["events"]}
    assert actions["docs"] == "computed"  # config hash differs → recompute


def test_determinism_across_partitioning(e2e, tmp_path_factory):
    """Different partition count ⇒ identical cluster assignment (order-free
    semantics; SURVEY.md §4 ordering row)."""
    from raydedup.pipelines.dedup import run_pipeline

    out2 = str(tmp_path_factory.mktemp("e2e_p2"))
    cfg2 = DedupConfig(num_partitions=7, sig_concurrency=(1, 2))
    res2 = run_pipeline(f"{e2e['fixture_dir']}/transcripts.parquet", out2, cfg2)
    cl2 = res2["clusters"].to_pandas().sort_values("conv_id").reset_index(drop=True)
    cl1 = e2e["clusters"].sort_values("conv_id").reset_index(drop=True)
    assert (cl1["cluster_id"].to_numpy() == cl2["cluster_id"].to_numpy()).all()


def test_capped_bucket_recall(ray_session, tmp_path):
    """Skew hardening: shared boilerplate makes every band a mega-bucket;
    with caps tight enough to actually trigger (asserted), the
    signature-ordered chain emission still keeps dup-pair recall >= 0.99."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup import run_pipeline
    from raydedup.pipelines.oracle import greedy_star_pairs, pair_recall

    rng = np.random.RandomState(11)
    boiler = " ".join(f"b{i}" for i in range(200))
    texts, convs = [], []
    for g in range(5):  # 5 groups x 6 near-identical members
        uniq = " ".join(f"u{g}_{k}" for k in range(100))
        for m in range(6):
            words = (boiler + " " + uniq).split()
            words[-(m + 1) * 7] = f"mut{g}_{m}"  # ~7 shingles differ per member
            convs.append(f"dup{g:02d}_{m}")
            texts.append(" ".join(words))
    for i in range(80):  # fillers share only the boilerplate
        convs.append(f"fill{i:03d}")
        texts.append(boiler + " " + " ".join(f"f{i}_{k}" for k in range(100)))
    order = rng.permutation(len(convs))
    tbl = pa.table(
        {
            "conv_id": pa.array([convs[i] for i in order]),
            "turn_idx": pa.array(np.zeros(len(convs), dtype=np.int32)),
            "role": pa.array(["user"] * len(convs)),
            "text": pa.array([texts[i] for i in order]),
            "tool": pa.array([""] * len(convs)),
            "ts": pa.array(np.zeros(len(convs), dtype="datetime64[us]")),
        }
    )
    src = tmp_path / "skew"
    src.mkdir()
    pq.write_table(tbl, src / "transcripts.parquet")

    cfg = DedupConfig(
        num_partitions=4, bucket_pair_cap=4, salt_buckets=2, checkpoint_parts=2,
    )
    res = run_pipeline(str(src / "transcripts.parquet"), str(tmp_path / "out"), cfg)
    cands = res["pairs"]  # post-verify pairs carry no capped flag; check candidates
    import ray.data as rd

    cand_capped = rd.read_parquet(str(tmp_path / "out" / "candidates")).to_pandas()
    assert cand_capped["capped"].sum() > 0  # the caps really triggered

    cl = res["clusters"].to_pandas()
    docs = sorted(zip(convs, texts))
    orc = greedy_star_pairs(docs, cfg.shingle_k, cfg.jaccard_threshold)
    recall = pair_recall(orc.pairs, dict(zip(cl.conv_id, cl.cluster_id)))
    assert len(orc.pairs) >= 5 * (6 - 1)  # every group is a real dup family
    assert recall >= 0.99
    _ = cands


def test_boilerplate_mask_recall_and_bucket_shrink(ray_session, fixture_dir, tmp_path):
    """SURVEY §4 skew row: masking shingles of verbatim-shared turns
    (system prompts — every synth conv opens with one of 5) must shrink
    the unsalted LSH band buckets at the source while planted dup-pair
    recall vs the (unmasked) oracle holds."""
    from raydedup.pipelines.dedup import run_pipeline
    from raydedup.ray_utils import read_parquet_clean
    from raydedup.stages.boilerplate import boilerplate_shingle_mask
    from raydedup.stages.lsh import make_band_rows
    from raydedup.stages.signatures import compute_signatures

    cfg = DedupConfig(num_partitions=4, sig_concurrency=(1, 2),
                      checkpoint_mode="memory", boilerplate_mask_min_convs=10)
    res = run_pipeline(f"{fixture_dir}/transcripts.parquet",
                       str(tmp_path / "out"), cfg)
    cl = res["clusters"].to_pandas()

    assign = dict(zip(cl.conv_id, cl.cluster_id))
    # recall vs the MASK-CONSISTENT oracle (boilerplate turns removed
    # before the sequential greedy scan — the similarity definition the
    # masked pipeline implements) must be essentially perfect...
    turns = pq.read_table(f"{fixture_dir}/transcripts.parquet").to_pandas()
    ok = turns.dropna(subset=["text"]).sort_values(["conv_id", "turn_idx"])
    nconv = ok.groupby("text")["conv_id"].nunique()
    boiler_texts = set(nconv[nconv >= cfg.boilerplate_mask_min_convs].index)
    kept = ok[~ok["text"].isin(boiler_texts)]
    docs_m = [(cid, "\n".join(g["text"]))
              for cid, g in kept.groupby("conv_id", sort=True)]
    orc_m = greedy_star_pairs(docs_m, cfg.shingle_k, cfg.jaccard_threshold)
    assert len(orc_m.pairs) > 50
    assert pair_recall(orc_m.pairs, assign) >= 0.99
    # ...while recall vs the UNMASKED oracle degrades only by the handful
    # of borderline pairs whose Jaccard was inflated by shared boilerplate
    # (the pairs the mask exists to stop over-counting)
    orc_u = _oracle(fixture_dir, cfg)
    assert pair_recall(orc_u.pairs, assign) >= 0.95

    # the metrics table records a non-trivial mask
    mt = res["metrics"].table().to_pandas()
    row = mt[(mt.stage == "signatures") & (mt.counter == "masked_shingle_hashes")]
    assert len(row) == 1 and int(row.value.iloc[0]) > 0

    # hot-bucket shrink, measured on the same docs with and without mask
    docs = res["docs"]
    mask = boilerplate_shingle_mask(
        read_parquet_clean(f"{fixture_dir}/transcripts.parquet",
                           columns=["conv_id", "text"]), cfg)

    def bucket_profile(sigs):
        rows = sigs.map_batches(make_band_rows(cfg, gated=True),
                                batch_format="pyarrow",
                                zero_copy_batch=True).to_pandas()
        vc = rows["bucket"].value_counts()
        return int(vc.max()), int((vc * (vc - 1) // 2).sum())

    max0, mass0 = bucket_profile(compute_signatures(docs, cfg))
    max1, mass1 = bucket_profile(compute_signatures(docs, cfg, shingle_mask=mask))
    assert max1 < max0          # mega-buckets shrink (13 -> 3 on this fixture)
    assert mass1 < mass0        # total candidate-pair mass drops


def test_artifact_sink(ray_session, fixture_dir, tmp_path):
    """S11 analog: emit_artifacts writes a resumable per-doc feature table
    (top shingle hashes + simhash), one row per signature row."""
    import numpy as np
    import ray.data as rd

    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup import run_pipeline

    for mode in ("exact", "estimate"):
        cfg = DedupConfig(num_partitions=4, emit_artifacts=True, verify_mode=mode,
                          artifact_top_k=6)
        out = str(tmp_path / f"art_{mode}")
        res = run_pipeline(f"{fixture_dir}/transcripts.parquet", out, cfg)
        art = rd.read_parquet(f"{out}/artifacts").to_pandas()
        n_sigs = res["signatures"].count()
        assert len(art) == n_sigs
        assert set(art.columns) == {"conv_id", "top_features", "simhash", "n_shingles"}
        lens = art["top_features"].map(len)
        assert (lens <= 6).all()
        nonempty = art[art["n_shingles"] > 0]
        assert (nonempty["top_features"].map(len) > 0).all()
        # content-addressed & sorted ascending (deterministic debug output)
        assert all(
            (lambda a: len(a) < 2 or np.all(a[:-1] <= a[1:]))(
                np.asarray(v, dtype=np.uint64)
            )
            for v in art["top_features"]
        )


def test_csv_report_sinks(ray_session, fixture_dir, tmp_path):
    """emit_csv_reports exports pairs + clusters as CSV (the reference's
    duplicates/unique CSV reports, duplicate_face.py:114-134) alongside —
    never instead of — the parquet checkpoints; contents round-trip."""
    import glob

    from raydedup.pipelines.dedup import run_pipeline

    out = str(tmp_path / "out")
    cfg = DedupConfig(
        num_partitions=4, sig_concurrency=(1, 2), emit_csv_reports=True
    )
    res = run_pipeline(f"{fixture_dir}/transcripts.parquet", out, cfg)
    for name, ds in (("pairs", res["pairs"]), ("clusters", res["clusters"])):
        files = glob.glob(os.path.join(out, "csv", name, "*.csv"))
        assert files, f"no CSV files for {name}"
        got = pd.concat([pd.read_csv(f) for f in files], ignore_index=True)
        want = ds.to_pandas()
        assert len(got) == len(want)
        assert sorted(got.columns) == sorted(want.columns)
        key = ["a", "b"] if name == "pairs" else ["conv_id"]
        g = got.sort_values(key).reset_index(drop=True)
        w = want.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            g[sorted(got.columns)], w[sorted(want.columns)], check_dtype=False
        )


def test_empty_corpus_both_modes(ray_session, fixture_dir, tmp_path):
    """A 0-row transcripts file yields 0 pairs and 0 clusters in both
    checkpoint modes (a 0-row shuffle output has no schema, so its disk
    checkpoint holds no parquet file), and a second disk run resumes every
    persisted stage."""
    from raydedup.pipelines.dedup import run_pipeline

    src = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_table(f"{fixture_dir}/transcripts.parquet").slice(0, 0), src)
    kw = dict(num_partitions=4, sig_concurrency=(1, 2))
    for mode in ("memory", "disk"):
        res = run_pipeline(src, str(tmp_path / mode), DedupConfig(checkpoint_mode=mode, **kw))
        assert res["pairs"].count() == 0 and res["clusters"].count() == 0, mode
    first = [e["stage"] for e in res["events"] if e["action"] == "computed"]
    again = run_pipeline(src, str(tmp_path / "disk"), DedupConfig(**kw))
    assert again["pairs"].count() == 0 and again["clusters"].count() == 0
    persisted = [e for e in again["events"] if e["action"] != "fused"]
    assert [e["stage"] for e in persisted] == first
    assert all(e["action"] == "resumed" for e in persisted), again["events"]
