"""Unit tests for the checkpoint store (lineage chain, manifest validity,
parquet row counting) — driver-side only, no pipeline run."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from raydedup.state.checkpoint import CheckpointStore, _parquet_rows, input_fingerprint


def _write_stage_like(tmp_path, name, rows):
    d = tmp_path / name
    d.mkdir(parents=True)
    pq.write_table(pa.table({"x": list(range(rows))}), d / "part-0.parquet")
    return d


def test_parquet_rows(tmp_path):
    d = _write_stage_like(tmp_path, "s", 7)
    pq.write_table(pa.table({"x": [1, 2]}), d / "part-1.parquet")
    assert _parquet_rows(str(d)) == 9


def test_input_fingerprint_changes_with_content(tmp_path):
    f = tmp_path / "in.parquet"
    pq.write_table(pa.table({"x": [1]}), f)
    fp1 = input_fingerprint(str(f))
    os.utime(f, (1, 1))
    assert input_fingerprint(str(f)) != fp1


def test_manifest_validity_and_lineage_chain(tmp_path, ray_session):
    import ray.data as rd

    out = str(tmp_path / "out")
    store = CheckpointStore(out, "cfgA", "fpA")
    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return rd.from_items([{"x": i} for i in range(5)])

    store.stage("alpha", compute)
    assert calls["n"] == 1
    lineage_after_alpha = store.lineage

    # identical store → resumed, not recomputed; lineage advances identically
    store2 = CheckpointStore(out, "cfgA", "fpA")
    store2.stage("alpha", compute)
    assert calls["n"] == 1
    assert store2.events[0]["action"] == "resumed"
    assert store2.lineage == lineage_after_alpha

    # different config hash → recompute
    store3 = CheckpointStore(out, "cfgB", "fpA")
    store3.stage("alpha", compute)
    assert calls["n"] == 2

    # corrupt manifest → recompute
    m = json.load(open(os.path.join(out, "alpha", "_MANIFEST.json")))
    m["lineage"] = "bogus"
    json.dump(m, open(os.path.join(out, "alpha", "_MANIFEST.json"), "w"))
    store4 = CheckpointStore(out, "cfgB", "fpA")
    store4.stage("alpha", compute)
    assert calls["n"] == 3


def test_read_prunes_columns(tmp_path, ray_session):
    import ray.data as rd

    out = str(tmp_path / "out")
    store = CheckpointStore(out, "c", "f")
    store.stage("s", lambda: rd.from_items([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}]))
    slim = store.read("s", ["x"])
    assert slim.schema().names == ["x"]
    assert slim.count() == 2


def test_partitioned_stage_resumes_only_missing_parts(tmp_path, ray_session):
    """North-rule per-partition lineage: after a simulated crash that
    leaves K of N completed part dirs, the rerun recomputes exactly N-K
    parts and the final rows match a clean run."""
    import shutil

    import ray.data as rd

    # upstream checkpoint: 4 parquet files
    up = tmp_path / "out" / "upstream"
    up.mkdir(parents=True)
    for i in range(4):
        pq.write_table(pa.table({"x": [i * 10 + j for j in range(5)]}), up / f"f{i}.parquet")

    out = str(tmp_path / "out")
    calls = {"n": 0}

    def make_ds(files):
        calls["n"] += 1
        return rd.read_parquet(files).map_batches(
            lambda t: t.append_column("y", pa.compute.add(t["x"], 1)),
            batch_format="pyarrow",
        )

    store = CheckpointStore(out, "cfg", "fp")
    object.__setattr__  # noqa: B018 — keep linters quiet about unused import patterns
    ds = store.partitioned_map_stage("sigs", "upstream", make_ds, 4)
    assert calls["n"] == 4
    clean = sorted(r["y"] for r in ds.take_all())
    ev = store.events[-1]
    assert ev["parts_computed"] == 4 and ev["parts_resumed"] == 0

    # simulate crash: stage manifest missing + 2 of 4 parts gone
    os.remove(os.path.join(out, "sigs", "_MANIFEST.json"))
    shutil.rmtree(os.path.join(out, "sigs", "part-1"))
    shutil.rmtree(os.path.join(out, "sigs", "part-3"))

    store2 = CheckpointStore(out, "cfg", "fp")
    ds2 = store2.partitioned_map_stage("sigs", "upstream", make_ds, 4)
    assert calls["n"] == 6  # only the 2 missing parts recomputed
    ev2 = store2.events[-1]
    assert ev2["parts_computed"] == 2 and ev2["parts_resumed"] == 2
    assert sorted(r["y"] for r in ds2.take_all()) == clean
    assert store2.lineage == store.lineage

    # fully valid stage manifest → whole-stage resume, zero recompute
    store3 = CheckpointStore(out, "cfg", "fp")
    store3.partitioned_map_stage("sigs", "upstream", make_ds, 4)
    assert calls["n"] == 6
    assert store3.events[-1]["action"] == "resumed"

    # upstream content change → every part recomputes (lineage is honest)
    os.utime(up / "f0.parquet", (1, 1))
    store4 = CheckpointStore(out, "cfg", "fp2")
    store4.partitioned_map_stage("sigs", "upstream", make_ds, 4)
    assert calls["n"] == 10


def test_lazy_stage_fuses_in_memory_and_checkpoints_on_disk(tmp_path, ray_session):
    """Memory mode: lazy_stage is fused_stage — an unmaterialized Dataset,
    one 'fused' event, nothing registered for read().  Disk mode: it is
    stage — a checkpoint that a second store resumes.  Every entry point
    advances the lineage identically in both modes."""
    import pytest
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    calls = {"n": 0}

    def compute():
        calls["n"] += 1
        return rd.range(6).map_batches(lambda b: b, batch_format="pyarrow")

    def store(mode, sub):
        return CheckpointStore(str(tmp_path / sub), "cfg", "fp", mode=mode)

    lazy = store("memory", "m1")
    ds = lazy.lazy_stage("s", compute)
    assert calls["n"] == 1
    assert not isinstance(ds, MaterializedDataset)
    assert lazy.events == [{"stage": "s", "action": "fused", "rows": -1}]
    with pytest.raises(KeyError):
        lazy.read("s")
    assert ds.count() == 6

    fused, staged = store("memory", "m2"), store("memory", "m3")
    fused.fused_stage("s", compute)
    staged.stage("s", compute)
    assert fused.events[0]["action"] == "fused"
    assert staged.events[0]["action"] == "computed"
    assert lazy.lineage == fused.lineage == staged.lineage != "fp"

    calls["n"] = 0
    disk = store("disk", "d")
    assert disk.lazy_stage("s", compute).count() == 6
    assert calls["n"] == 1
    assert [e["action"] for e in disk.events] == ["computed"]
    assert os.path.exists(os.path.join(disk.path("s"), "_MANIFEST.json"))
    assert disk.lineage == lazy.lineage

    again = store("disk", "d")
    assert again.lazy_stage("s", compute).count() == 6
    assert calls["n"] == 1
    assert [e["action"] for e in again.events] == ["resumed"]
    assert again.lineage == lazy.lineage


def test_parallel_stages_interchangeable_with_sequential(tmp_path, ray_session):
    """parallel_stages writes the same lineage chain as sequential stage()
    calls: checkpoints from one resume under the other, in both
    directions, and the post-call store lineage is identical."""
    import ray.data as rd

    def specs(calls):
        def mk(name, n):
            def fn():
                calls["n"] += 1
                return rd.range(n)
            return (name, fn)
        return [mk("ea", 3), mk("eb", 4), mk("ec", 5)]

    # run 1: concurrent execution from a fresh store
    out = str(tmp_path / "out")
    store = CheckpointStore(out, "cfg", "fp")
    calls = {"n": 0}
    res = store.parallel_stages(specs(calls))
    assert calls["n"] == 3
    assert {k: v.count() for k, v in res.items()} == {"ea": 3, "eb": 4, "ec": 5}
    lineage_after_parallel = store.lineage

    # run 2: SEQUENTIAL stage() calls over the same store dir resume all
    # three from the parallel run's checkpoints (no recompute)
    store2 = CheckpointStore(out, "cfg", "fp")
    calls2 = {"n": 0}
    for name, fn in specs(calls2):
        ds = store2.stage(name, fn)
        assert ds.count() == {"ea": 3, "eb": 4, "ec": 5}[name]
    assert calls2["n"] == 0
    assert store2.lineage == lineage_after_parallel

    # run 3: parallel over sequential checkpoints also resumes, and a
    # partially-complete set recomputes only the missing sibling
    import shutil

    shutil.rmtree(os.path.join(out, "eb"))
    store3 = CheckpointStore(out, "cfg", "fp")
    calls3 = {"n": 0}
    res3 = store3.parallel_stages(specs(calls3))
    assert calls3["n"] == 1
    assert res3["eb"].count() == 4
    assert store3.lineage == lineage_after_parallel


def test_pair_stage_partitioned_resume(ray_session, fixture_dir, tmp_path):
    """pair_checkpoint_parts > 1: the minhash-verify stage persists
    per-part lineage over the candidates checkpoint's files; losing K of
    N parts in a crash recomputes exactly K on resume, and the cluster
    output, the pairs table and each edge stage's rows match a
    single-execution run (candidate rows are independent, so any file
    partitioning yields the same verified edge set).  Clusters ignore
    SimHash edges and the pairs table keeps one source per pair, so only
    the edge stages show a dropped or duplicated SimHash edge."""
    import shutil

    import pandas as pd

    from raydedup.config import DedupConfig
    from raydedup.pipelines.dedup import run_pipeline

    def clusters_of(res):
        df = res["clusters"].to_pandas()
        return (
            df[["conv_id", "cluster_id", "status"]]
            .sort_values("conv_id")
            .reset_index(drop=True)
        )

    def pairs_of(res):
        df = res["pairs"].to_pandas()
        return (
            df[["a", "b", "source", "est_sim"]]
            .sort_values(["a", "b"])
            .reset_index(drop=True)
        )

    edge_stages = ("pairs_minhash", "pairs_suffix", "pairs_simhash")

    def edges_of(out_dir, stage):
        # sources emit a pair once per shared bucket, so compare multisets
        df = pq.read_table(os.path.join(out_dir, stage)).to_pandas()
        cols = ["a", "b", "source", "est_sim"]
        return df[cols].sort_values(cols).reset_index(drop=True)

    base = DedupConfig(num_partitions=4, sig_concurrency=(1, 2))
    ref = run_pipeline(
        f"{fixture_dir}/transcripts.parquet", str(tmp_path / "single"), base
    )
    want = clusters_of(ref)
    want_pairs = pairs_of(ref)
    want_edges = {st: edges_of(str(tmp_path / "single"), st) for st in edge_stages}

    cfg = DedupConfig(
        num_partitions=4, sig_concurrency=(1, 2), pair_checkpoint_parts=2
    )
    out = str(tmp_path / "parts")

    def assert_same_edges(res):
        pd.testing.assert_frame_equal(pairs_of(res), want_pairs)
        for st in edge_stages:
            pd.testing.assert_frame_equal(edges_of(out, st), want_edges[st])

    res = run_pipeline(f"{fixture_dir}/transcripts.parquet", out, cfg)
    ev = [e for e in res["events"] if e["stage"] == "pairs_minhash"][-1]
    assert ev["parts_computed"] == 2 and ev["parts_resumed"] == 0, ev
    pd.testing.assert_frame_equal(clusters_of(res), want)
    assert_same_edges(res)

    # simulated crash mid-stage: one part dir survives, the other (and the
    # stage manifest) are lost
    assert os.path.isdir(os.path.join(out, "pairs_minhash", "part-1"))
    shutil.rmtree(os.path.join(out, "pairs_minhash", "part-1"))
    os.remove(os.path.join(out, "pairs_minhash", "_MANIFEST.json"))

    res2 = run_pipeline(f"{fixture_dir}/transcripts.parquet", out, cfg)
    ev2 = [e for e in res2["events"] if e["stage"] == "pairs_minhash"][-1]
    assert ev2["parts_computed"] == 1 and ev2["parts_resumed"] == 1, ev2
    pd.testing.assert_frame_equal(clusters_of(res2), want)
    assert_same_edges(res2)

    # the suffix/simhash pair stages are partitioned too (key-closed
    # kpart-hive upstream checkpoints + group_by_dir): losing one part of
    # each recomputes exactly that part, from the persisted fp/block rows
    # (the winnow/signature compute is NOT redone), and output is unchanged
    for stage in ("pairs_suffix", "pairs_simhash"):
        parts = sorted(
            d for d in os.listdir(os.path.join(out, stage)) if d.startswith("part-")
        )
        assert len(parts) >= 2, (stage, parts)
        shutil.rmtree(os.path.join(out, stage, parts[0]))
        os.remove(os.path.join(out, stage, "_MANIFEST.json"))
    res3 = run_pipeline(f"{fixture_dir}/transcripts.parquet", out, cfg)
    for stage, upstream in (
        ("pairs_suffix", "suffix_fps"),
        ("pairs_simhash", "simhash_blocks"),
    ):
        ev3 = [e for e in res3["events"] if e["stage"] == stage][-1]
        assert ev3["parts_computed"] == 1 and ev3["parts_resumed"] >= 1, (stage, ev3)
        up = [e for e in res3["events"] if e["stage"] == upstream][-1]
        assert up["action"] == "resumed", (upstream, up)
    pd.testing.assert_frame_equal(clusters_of(res3), want)
    assert_same_edges(res3)
