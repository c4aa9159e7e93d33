"""End-to-end near-duplicate detection + clustering pipeline.

Lifecycle (SURVEY.md §3.4) — each stage a Ray Data transform, each
boundary a resumable Parquet checkpoint:

    read_parquet(turns)
    → hash-repartition(conv_id) + vectorized reassembly  [shuffle → docs/]
    → map_batches(SignatureActor, actor pool)          [→ signatures/]
    → LSH bands → groupby(band,hash,salt) pairs        [shuffle → candidates/]
    → three edge sources, one stage each:
        co-shuffle verification (exact Jaccard)        [→ pairs_minhash/]
        suffix long-repeat pairs (fingerprint shuffle) [→ pairs_suffix/]
        SimHash pigeonhole-block pairs (block shuffle) [→ pairs_simhash/]
    → (a, b) dedup of the edge union                   [shuffle → pairs/]
    → connected components: per-block contraction + one node shuffle,
      then a driver-side union-find endgame below cc_driver_finish_edges
      (above it, groupby-min propagation rounds); one tagged-union key
      shuffle joins labels back onto docs              [→ clusters/]
    → clusters + metrics Parquet

Memory mode keeps stage outputs in the object store instead, and on small
corpora fuses the three edge stages into the pairs execution.  Disk mode
can split the signature and edge stages into resumable parts.

The reference's equivalents are cited in each stage module; nothing here
holds driver-resident dedup state.
"""

from __future__ import annotations

from raydedup.ray_utils import read_parquet_clean

import os

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.stages.components import connected_components
from raydedup.stages.lsh import candidate_pairs
from raydedup.stages.reassemble import reassemble
from raydedup.stages.signatures import compute_signatures
from raydedup.stages.simhash_pairs import simhash_block_rows, simhash_edges_from_blocks
from raydedup.stages.suffix import suffix_edges_from_fps, suffix_fp_rows
from raydedup.stages.verify import verified_pairs
from raydedup.ray_utils import ensure_hash_shuffle
from raydedup.state.checkpoint import CheckpointStore, input_fingerprint
from raydedup.state.metrics import MetricsSink


def run_pipeline(
    input_path: str,
    out_dir: str,
    cfg: DedupConfig | None = None,
    use_simhash_edges: bool = False,
):
    """Run (or resume) the full dedup pipeline.

    Returns dict with Datasets: docs, signatures, pairs, clusters, plus
    checkpoint events and metrics.  ``use_simhash_edges`` adds Hamming-near
    edges to the graph (off by default: the oracle's match rule is Jaccard;
    SimHash edges are reported in pairs/ either way).
    """
    import ray.data as rd

    ensure_hash_shuffle()
    cfg = cfg or DedupConfig()
    store = CheckpointStore(
        out_dir, cfg.config_hash(), input_fingerprint(input_path),
        mode=cfg.checkpoint_mode, compression=cfg.checkpoint_compression,
    )
    metrics = MetricsSink()

    # prune at the read: reassembly needs 3 of the 6 transcript columns,
    # and Ray does not push the downstream select_columns into the scan
    docs = store.stage(
        "docs",
        lambda: reassemble(
            read_parquet_clean(input_path, columns=["conv_id", "turn_idx", "text"]),
            cfg.num_partitions,
            cfg.min_doc_chars,
            combine=cfg.combine_reassembly,
        ),
    )
    # optional boilerplate shingle mask (SURVEY §4 skew row): shingles of
    # turn texts shared by >= N distinct conversations are dropped before
    # signing, shrinking hot LSH buckets at the source.  The mask is a
    # deterministic function of the input (one bounded md5-keyed shuffle,
    # driver collect ∝ turns/min_convs), so resume recomputes it cheaply
    # instead of checkpointing it.
    shingle_mask = None
    if cfg.boilerplate_mask_min_convs > 0:
        from raydedup.stages.boilerplate import boilerplate_shingle_mask

        shingle_mask = boilerplate_shingle_mask(
            read_parquet_clean(input_path, columns=["conv_id", "text"]), cfg
        )
        metrics.add("signatures", "masked_shingle_hashes", len(shingle_mask))

    def whole(upstream, build, rows=None):
        """A stage's one-execution ``compute_fn``: ``build`` over all its
        upstream rows."""
        return lambda: build(rows(1) if rows else store.read(upstream))

    def over_parts(name, upstream, build, n_parts, rows=None, columns=None,
                   run=store.stage):
        """Stage ``name`` = ``build(upstream rows)``: one execution via
        ``run``, or — disk mode, ``n_parts > 1`` — per-partition lineage:
        the upstream checkpoint's files split into parts that compute and
        persist independently.  ``rows=None``: the upstream is the
        completed checkpoint ``upstream``, whose rows are mutually
        independent.  Else ``rows(k)`` builds the upstream rows, tagged
        for ``k > 1`` with ``kpart``, a pure function of their shuffle key:
        they are checkpointed once as ``upstream``, hive-partitioned by
        ``kpart``, and each part is one key-closed ``kpart=i/`` dir, so the
        per-part shuffle is exact and a crash mid-shuffle never redoes the
        row compute."""
        if n_parts <= 1 or cfg.checkpoint_mode != "disk":
            return run(name, whole(upstream, build, rows))
        if rows:
            store.stage(upstream, lambda: rows(n_parts), partition_cols=["kpart"])
        return store.partitioned_map_stage(
            name,
            upstream,
            lambda files: build(
                read_parquet_clean(files, columns=columns) if files else rd.from_items([])
            ),
            n_parts,
            group_by_dir=rows is not None,
        )

    # the signature stage (the expensive narrow stage) checkpoints with
    # per-partition lineage: a crash mid-stage resumes from the completed
    # part-i/ dirs and recomputes only the missing ones (north rule)
    sigs = over_parts(
        "signatures",
        "docs",
        lambda d: compute_signatures(d, cfg, shingle_mask=shingle_mask),
        cfg.checkpoint_parts,
    )

    # Each edge source is its own checkpointed sub-DAG (bounded number of
    # concurrent shuffle ops per execution; finer-grained resume), and each
    # consumer reads only the columns it needs from the wide signature
    # checkpoint (no projection pushdown in read_parquet→select_columns).
    payload = "shingles" if cfg.verify_mode == "exact" else "minhash"
    # docs count is metadata on a materialized/checkpointed dataset, not an
    # execution; it sizes the suffix winnow batches and gates edge fusion
    n_docs = docs.count()
    store.stage(
        "candidates",
        lambda: candidate_pairs(
            store.read("signatures", ["conv_id", "minhash", "n_shingles"]), cfg
        ),
    )
    edge_sources = [  # (stage, upstream, edge builder, kpart row builder, row columns)
        ("pairs_minhash", "candidates",
         lambda c: verified_pairs(c, store.read("signatures", ["conv_id", payload]), cfg),
         None, None),
        ("pairs_suffix", "suffix_fps", lambda r: suffix_edges_from_fps(r, cfg),
         lambda k: suffix_fp_rows(docs, cfg, n_docs=n_docs, n_parts=k),
         ["fp", "conv_id"]),
        ("pairs_simhash", "simhash_blocks", lambda r: simhash_edges_from_blocks(r, cfg),
         lambda k: simhash_block_rows(
             store.read("signatures", ["conv_id", "simhash", "n_shingles"]), cfg, n_parts=k
         ),
         ["block_idx", "block_val", "conv_id", "simhash"]),
    ]
    # The edge policy, picked once (first match wins):
    # - memory mode, n_docs <= fuse_edges_max_docs: each edge source is
    #   consumed exactly once (by the pair dedup below), so it stays lazy
    #   and fuses into the pairs execution — three fewer
    #   executor/aggregator spin-ups.  Size-gated: fused edge shuffles run
    #   concurrently, and at 12M-turn scale the ~3× peak object-store
    #   footprint spills and costs more than the spin-ups save;
    # - disk mode, n_docs <= parallel_edges_max_docs (0 = disabled): the
    #   sources execute concurrently (driver threads), overlapping their
    #   per-execution fixed costs;
    # - otherwise one stage per source, split into resumable parts in
    #   disk mode when configured.
    fuse = cfg.checkpoint_mode == "memory" and n_docs <= cfg.fuse_edges_max_docs
    cap = cfg.parallel_edges_max_docs
    if cfg.checkpoint_mode == "disk" and 0 < cap and n_docs <= cap:
        edges = store.parallel_stages([
            (name, whole(up, build, rows)) for name, up, build, rows, _ in edge_sources
        ])
    else:
        edges = {
            name: over_parts(name, up, build, cfg.pair_checkpoint_parts, rows, cols,
                             run=store.lazy_stage if fuse else store.stage)
            for name, up, build, rows, cols in edge_sources
        }

    def dedup_pairs():
        """Single (a, b) dedup for all edge sources (suffix/simhash emit
        duplicates across their buckets by design) — one shuffle total."""
        import pandas as pd

        from raydedup.ray_utils import keyed_blocks

        # a pair confirmed by several sources keeps the strongest-evidence
        # one (minhash = exact-Jaccard-verified > suffix = exact repeat >
        # simhash), so downstream source filters never drop a verified edge
        prio = {"minhash": 0, "suffix": 1, "simhash": 2}

        def block(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return df
            df = df.assign(_p=df["source"].map(prio).fillna(9)).sort_values(
                ["a", "b", "_p", "est_sim"],
                ascending=[True, True, True, False],
                kind="stable",
            )
            return df.drop_duplicates(["a", "b"], keep="first").drop(columns="_p")

        mh, sf, sh = (
            edges[name].select_columns(["a", "b", "est_sim", "source"])
            for name, *_ in edge_sources
        )
        combined = mh.union(sf).union(sh)
        return keyed_blocks(combined, ["a", "b"], cfg.num_partitions).map_batches(
            block, batch_size=None, batch_format="pandas"
        )

    pairs = store.stage("pairs", dedup_pairs)

    def compute_clusters():
        if use_simhash_edges:
            graph = pairs
        else:
            graph = pairs.map_batches(
                lambda t: t.filter(pa.compute.is_in(t["source"], value_set=pa.array(["minhash", "suffix"]))),
                batch_format="pyarrow",
            )
        # disk mode: propagation rounds (engaged above the CC driver gate)
        # get per-round, per-partition lineage via a sub-store seeded from
        # the parent lineage — deterministic across resumes, and invisible
        # when the clusters checkpoint itself is already valid
        cc_store = None
        if cfg.checkpoint_mode == "disk" and cfg.cc_round_checkpoints:
            cc_store = CheckpointStore(
                os.path.join(out_dir, "cc_rounds"),
                cfg.config_hash(),
                f"{store.lineage}:cc",
                mode="disk",
                compression=cfg.checkpoint_compression,
            )
        labels, n_iters = connected_components(graph, cfg, store=cc_store)
        if cc_store is not None:
            store.events.extend(cc_store.events)
        metrics.add("components", "iterations", abs(n_iters))
        metrics.add("components", "converged", int(n_iters > 0))
        # every doc gets a cluster: component label if present, else itself.
        # Tagged-union co-shuffle (the engine's standard join shape): docs
        # rows carry status, label rows carry a null status marker; ONE
        # key shuffle co-locates them and the in-block merge coalesces —
        # half the shuffle ops of the previous Dataset.join, same volume.
        from raydedup.ray_utils import keyed_blocks

        def doc_side(t: pa.Table) -> pa.Table:
            return pa.table({"key": t["conv_id"], "status": t["status"],
                             "label": pa.nulls(t.num_rows, pa.string())})

        def lab_side(t: pa.Table) -> pa.Table:
            return pa.table({"key": t["node"],
                             "status": pa.nulls(t.num_rows, pa.string()),
                             "label": t["label"]})

        def attach(df):
            import pandas as pd

            if len(df) == 0:
                return pd.DataFrame({"conv_id": pd.Series([], dtype=object),
                                     "cluster_id": pd.Series([], dtype=object),
                                     "status": pd.Series([], dtype=object)})
            is_doc = df["status"].notna()
            d = df[is_doc]
            m = d.merge(df.loc[~is_doc, ["key", "label"]], on="key",
                        how="left", suffixes=("", "_l"))
            lab = m["label_l"].where(m["label_l"].notna(), m["key"])
            return pd.DataFrame({"conv_id": m["key"].to_numpy(dtype=object),
                                 "cluster_id": lab.to_numpy(dtype=object),
                                 "status": m["status"].to_numpy(dtype=object)})

        combined = (
            store.read("docs", ["conv_id", "status"])
            .map_batches(doc_side, batch_format="pyarrow", zero_copy_batch=True)
            .union(labels.map_batches(lab_side, batch_format="pyarrow",
                                      zero_copy_batch=True))
        )
        return keyed_blocks(combined, ["key"], cfg.num_partitions).map_batches(
            attach, batch_size=None, batch_format="pandas"
        )

    clusters = store.stage("clusters", compute_clusters)

    # optional CSV exports (S6/S7/S10 surface parity: the reference's
    # duplicates/unique CSV reports, duplicate_face.py:114-134) — pure
    # sinks, partitioned one file per block like every other output;
    # resume/lineage stays parquet-only
    if cfg.emit_csv_reports:
        import shutil as _shutil

        for csv_name, ds_csv in (("pairs", pairs), ("clusters", clusters)):
            csv_dir = os.path.join(out_dir, "csv", csv_name)
            if os.path.exists(csv_dir):
                _shutil.rmtree(csv_dir)
            ds_csv.write_csv(csv_dir)

    # optional artifact sink (S11 analog: the reference writes every
    # detected face crop to detected_faces/, face_recognition_custom.py:95-100;
    # here: a per-doc extracted-feature debug table, resumable like every
    # stage, off by default)
    artifacts = None
    if cfg.emit_artifacts:
        artifacts = store.lazy_stage("artifacts", lambda: _artifact_table(store, cfg))

    # quarantine partition (S9 analog: the corrupted-list writer,
    # duplicate_face.py:136-140) — a pure filter over the clusters
    # checkpoint, so it stays a FUSED lazy view in both modes: fully
    # derivable (nothing to resume), and checkpointing it separately was
    # one whole executor spin-up + parquet round-trip per run for a
    # filter the consumer can pipeline.  Callers who want it on disk
    # write the returned Dataset.
    quarantine = store.fused_stage(
        "quarantine",
        lambda: store.read("clusters").filter(
            expr="status == 'corrupted' or status == 'no_content'"
        ),
    )

    # stage counters → metrics parquet (analog of the reference's summary
    # panel, duplicate_face.py:234-248), incl. per-status counts (A4)
    for ev in store.events:
        if ev["action"] == "fused":
            continue  # no standalone rows/timing: pipelined into its consumer
        metrics.add(ev["stage"], f"rows_{ev['action']}", ev["rows"])
        if "sec" in ev:
            metrics.add(ev["stage"], "wall_ms", int(ev["sec"] * 1000))
    status_counts: dict = {}  # stays empty for an empty corpus
    if cfg.checkpoint_mode == "disk" and 0 < n_docs <= cfg.status_fold_driver_max_rows:
        # size-gated driver fold: one single-column parquet scan of the
        # clusters checkpoint beats a whole distributed execution for a
        # k-row answer (see cfg.status_fold_driver_max_rows)
        import pyarrow.dataset as pds

        col = pds.dataset(os.path.join(out_dir, "clusters")).to_table(
            columns=["status"]
        )["status"]
        for row in pa.compute.value_counts(col.combine_chunks()):
            status_counts[row["values"].as_py()] = int(row["counts"].as_py())
    elif n_docs:
        status_parts = (
            store.read("clusters", ["status"])
            .map_batches(
                lambda df: df["status"]
                .value_counts()
                .rename_axis("status")
                .rename("n")
                .reset_index(),
                batch_format="pandas",
            )
            .take_all()
        )
        for row in status_parts:
            status_counts[row["status"]] = status_counts.get(row["status"], 0) + row["n"]
    for st, n in sorted(status_counts.items()):
        metrics.add("clusters", f"status_{st}", n)
    metrics.write(f"{out_dir}/metrics")

    return {
        "docs": docs,
        "signatures": sigs,
        "pairs": pairs,
        "clusters": clusters,
        "quarantine": quarantine,
        "artifacts": artifacts,
        "events": store.events,
        "metrics": metrics,
        "config": cfg,
    }


def _artifact_table(store, cfg: DedupConfig):
    """Per-doc feature artifacts: the ``artifact_top_k`` smallest stored
    shingle hashes (exact mode) or the leading MinHash elements (estimate
    mode), plus the SimHash fingerprint — content-addressed debug output,
    never a global counter (T3 mapping).  Debug-only stage: the per-row
    partition loop is acceptable off the hot path."""
    k = cfg.artifact_top_k
    cols = ["conv_id", "simhash", "n_shingles"]
    cols.append("shingles" if cfg.store_shingles else "minhash")

    def art(t: pa.Table) -> pa.Table:
        src = t.column(cols[-1])
        src = src.combine_chunks() if isinstance(src, pa.ChunkedArray) else src
        src = src.cast(pa.list_(pa.uint64()))  # minhash may be fixed-size list
        offs = src.offsets.to_numpy()
        vals = src.values.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
        tops = []
        for i in range(t.num_rows):
            v = vals[offs[i]: offs[i + 1]]
            tops.append(np.sort(v if len(v) <= k else np.partition(v, k)[:k])[:k])
        lens = np.array([len(x) for x in tops], dtype=np.int32)
        flat = np.concatenate(tops) if tops else np.empty(0, np.uint64)
        top_col = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
            pa.array(flat, pa.uint64()),
        )
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "top_features": top_col,
                "simhash": t["simhash"],
                "n_shingles": t["n_shingles"],
            }
        )

    return store.read("signatures", cols).map_batches(
        art, batch_format="pyarrow", zero_copy_batch=True
    )


def label_turns(turns_ds, clusters_ds, cfg: DedupConfig | None = None):
    """Join cluster assignments back onto the turns table (broadcast-style
    hash join; SURVEY.md §2.4 — the one relational join the engine needs).

    Preserves every turn row byte-for-byte (the north-rule row invariant).
    """
    cfg = cfg or DedupConfig()
    ensure_hash_shuffle()
    return turns_ds.join(
        clusters_ds.select_columns(["conv_id", "cluster_id", "status"]),
        join_type="left_outer",
        num_partitions=cfg.num_partitions,
        on=("conv_id",),
        right_on=("conv_id",),
    )
