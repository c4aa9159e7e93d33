"""Exact long-repeat pass ("suffix-array substring" stage).

Per-doc winnowing fingerprints (see ``raydedup.functions.winnow``) are
exploded to ``(fp, conv_id)`` rows; a hash shuffle on ``fp`` then links
documents sharing any verbatim span longer than the detection threshold —
the verbatim repeats (pasted stack traces, quoted documents) that MinHash
dilutes.  Emitted edges are exact matches by construction (``est_sim=1.0``)
and skip Jaccard verification.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.functions.pairs import emit_bucket_pairs
from raydedup.functions.winnow import span_fingerprints_flat, utf8_flat_bytes
from raydedup.ray_utils import keyed_blocks

_EMPTY = pa.table({"a": pa.array([], pa.string()), "b": pa.array([], pa.string())})


def make_fp_rows(cfg: DedupConfig):
    def fp_fn(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pa.compute.equal(batch["status"], "ok"))
        # zero-copy utf-8 bytes straight from the Arrow value buffer, one
        # segmented fingerprint kernel per batch (bit-identical to the
        # per-doc span_fingerprints path; see tests/test_functions.py)
        data, offsets = utf8_flat_bytes(batch["doc_text"])
        d_idx, fps = span_fingerprints_flat(
            data, offsets, cfg.suffix_window, cfg.suffix_fp_len, cfg.suffix_anchor_mod
        )
        if len(fps) == 0:
            return pa.table({"fp": pa.array([], pa.uint64()), "conv_id": pa.array([], pa.string())})
        conv = batch["conv_id"].take(pa.array(d_idx))
        return pa.table({"fp": pa.array(fps), "conv_id": conv})

    return fp_fn


def make_fp_emitter(cfg: DedupConfig):
    """Whole-block fn over hash-partitioned (fp, conv_id) rows → exact edges.

    Exact-equal spans are transitive, so star emission (cap path) preserves
    everything that matters: connectivity.  Arrow-native sort/take — no
    object-dtype Python string comparisons (see ``_sorted_unique_members``).
    """

    from raydedup.stages.lsh import _sorted_unique_members

    cap = cfg.bucket_pair_cap

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY
        gid, cv, _rows = _sorted_unique_members(
            t, [("fp", "ascending"), ("conv_id", "ascending")], "fp"
        )
        i, j, _ = emit_bucket_pairs(gid, cap)
        if len(i) == 0:
            return _EMPTY
        # members sort by conv_id within each fp group and i < j, so the
        # (a, b) pair is already normalized a < b
        return pa.table({"a": cv.take(pa.array(i)), "b": cv.take(pa.array(j))})

    return emit


def _winnow_batch_size(cfg: DedupConfig, n_docs: int | None) -> int:
    """Docs per winnow-kernel task: explicit ``cfg.suffix_batch_size`` wins;
    else adapt to corpus size so small inputs fan out across the CPUs (a
    fixed 2048 gave only ~10 tasks at 20k docs) while the 2048 ceiling keeps
    the kernel's ~30×-text-bytes temporaries bounded at scale."""
    if cfg.suffix_batch_size:
        return cfg.suffix_batch_size
    if not n_docs:
        return 2048
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        cpus = 8
    return max(256, min(2048, n_docs // (4 * cpus) or 256))


def suffix_pairs(docs_ds, cfg: DedupConfig, n_docs: int | None = None):
    """docs → exact long-repeat edges (a, b, est_sim=1.0, source='suffix').

    Edges may repeat across shared fingerprints (deduped once in the
    combined pairs stage — one shuffle for all edge sources instead of one
    per source); emission already dedups within each fingerprint bucket.
    """
    return suffix_edges_from_fps(suffix_fp_rows(docs_ds, cfg, n_docs=n_docs), cfg)


def suffix_fp_rows(docs_ds, cfg: DedupConfig, n_docs: int | None = None,
                   n_parts: int = 1):
    """docs → raw (fp, conv_id) fingerprint rows, optionally tagged with a
    ``kpart = fp % n_parts`` column for a hive-partitioned checkpoint
    (``write_parquet(partition_cols=["kpart"])``).  Because ``kpart`` is a
    pure function of the shuffle key, every fingerprint bucket lives wholly
    inside one ``kpart=i/`` directory — so per-directory pair emission
    (``suffix_edges_from_fps``) over any one part is exact, and the union
    over parts equals the single-shuffle output.
    This is the winnow-kernel half of ``suffix_pairs``, split out so the
    expensive fingerprint compute is checkpointed once and the fp shuffle
    itself becomes per-partition resumable (north rule: "resumes mid-shuffle
    without recomputing signatures")."""
    # bounded batch: the segmented kernel's temporaries are ~30× the
    # batch's text bytes (prefix-product/sum arrays + window vectors),
    # so block-sized batches (tens of MB of text) would allocate GBs
    # per task; the adaptive size keeps the working set ~100 MB at the
    # 2048 ceiling and fans small corpora out across the CPUs
    fps = docs_ds.map_batches(
        make_fp_rows(cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=_winnow_batch_size(cfg, n_docs),
    )
    if n_parts > 1:
        parts = np.uint64(n_parts)

        def tag(t: pa.Table) -> pa.Table:
            fp = np.asarray(t["fp"], dtype=np.uint64)
            return t.append_column(
                "kpart", pa.array((fp % parts).astype(np.int32))
            )

        fps = fps.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return fps


def suffix_edges_from_fps(fps_ds, cfg: DedupConfig):
    """(fp, conv_id) rows → decorated exact edges: one fp hash shuffle,
    then whole-bucket emission.  Rows read back from a parquet checkpoint
    need the shuffle too: Ray may split one written partition across read
    tasks, so block boundaries no longer align with key groups."""
    raw = keyed_blocks(fps_ds, ["fp"], cfg.num_partitions).map_batches(
        make_fp_emitter(cfg),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return raw.map_batches(
        lambda t: pa.table(
            {
                "a": t["a"].combine_chunks().cast(pa.string()) if isinstance(t["a"], pa.ChunkedArray) else t["a"].cast(pa.string()),
                "b": t["b"].combine_chunks().cast(pa.string()) if isinstance(t["b"], pa.ChunkedArray) else t["b"].cast(pa.string()),
                "est_sim": pa.array(np.ones(t.num_rows)),
                "source": pa.array(np.repeat("suffix", t.num_rows), pa.string()),
            }
        ),
        batch_format="pyarrow",
    )
