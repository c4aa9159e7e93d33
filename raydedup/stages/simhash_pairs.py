"""SimHash near-dup edges — the Hamming-space analog of the reference's
cosine matcher (``face_recognition_custom.py:104-112``).

Candidate generation is exact, not probabilistic: the 64-bit fingerprint is
split into ``hamming_threshold + 1`` bit blocks; by pigeonhole, any pair
within the Hamming threshold agrees on at least one whole block, so a hash
shuffle on ``(block_idx, block_value)`` co-locates every such pair.  Block
rows carry the 8-byte fingerprint itself, so verification (exact popcount)
runs inside the same vectorized block pass — no join needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.functions.pairs import emit_bucket_pairs
from raydedup.functions.simhash import hamming64
from raydedup.ray_utils import keyed_blocks

_EMPTY = pa.table(
    {
        "a": pa.array([], pa.string()),
        "b": pa.array([], pa.string()),
        "est_sim": pa.array([], pa.float64()),
    }
)


def make_block_rows(cfg: DedupConfig):
    n_blocks = cfg.hamming_threshold + 1
    bounds = np.linspace(0, cfg.simhash_bits, n_blocks + 1).astype(np.uint64)

    def blocks_fn(batch: pa.Table) -> pa.Table:
        keep = np.asarray(batch["n_shingles"]) > 0
        batch = batch.filter(pa.array(keep))
        n = batch.num_rows
        sh = np.asarray(batch["simhash"], dtype=np.uint64)
        out_idx, out_val, out_sh = [], [], []
        for j in range(n_blocks):
            lo, hi = bounds[j], bounds[j + 1]
            width = np.uint64(hi - lo)
            mask = (np.uint64(1) << width) - np.uint64(1) if width < 64 else np.uint64(0xFFFFFFFFFFFFFFFF)
            val = (sh >> np.uint64(lo)) & mask
            out_idx.append(np.full(n, j, dtype=np.int32))
            out_val.append(val)
            out_sh.append(sh)
        # conv_id repeated per block via C-level take (no object round-trip)
        conv = batch["conv_id"].take(
            pa.array(np.tile(np.arange(n, dtype=np.int64), n_blocks))
        ) if n else pa.array([], pa.string())
        return pa.table(
            {
                "block_idx": pa.array(np.concatenate(out_idx) if n else np.empty(0, np.int32)),
                "block_val": pa.array(np.concatenate(out_val) if n else np.empty(0, np.uint64)),
                "conv_id": conv,
                "simhash": pa.array(np.concatenate(out_sh) if n else np.empty(0, np.uint64)),
            }
        )

    return blocks_fn


def make_block_emitter(cfg: DedupConfig):
    """Whole-block fn over hash-partitioned block rows → Hamming-verified pairs."""

    cap = cfg.bucket_pair_cap
    thr = cfg.hamming_threshold

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY
        from raydedup.stages.lsh import _sorted_unique_members

        gid, cv, rows = _sorted_unique_members(
            t,
            [
                ("block_idx", "ascending"),
                ("block_val", "ascending"),
                ("conv_id", "ascending"),
            ],
            ["block_idx", "block_val"],
        )
        fp = (
            t["simhash"]
            .take(pa.array(rows))
            .to_numpy(zero_copy_only=False)
            .astype(np.uint64)
        )
        i, j, _capped = emit_bucket_pairs(gid, cap)
        if len(i) == 0:
            return _EMPTY
        d = hamming64(fp[i], fp[j])
        ok = d <= thr
        if not ok.any():
            return _EMPTY
        # members sort by conv_id within each block group and i < j, so
        # (a, b) is already normalized a < b
        return pa.table(
            {
                "a": cv.take(pa.array(i[ok])),
                "b": cv.take(pa.array(j[ok])),
                "est_sim": pa.array(1.0 - d[ok] / 64.0),
            }
        )

    return emit


def simhash_pairs(sigs_ds, cfg: DedupConfig):
    """signatures → verified SimHash edges (a, b, est_sim, source='simhash').

    Edges may repeat across the ``hamming_threshold + 1`` pigeonhole
    blocks (deduped once in the combined pairs stage)."""
    return simhash_edges_from_blocks(simhash_block_rows(sigs_ds, cfg), cfg)


def simhash_block_rows(sigs_ds, cfg: DedupConfig, n_parts: int = 1):
    """signatures → raw pigeonhole block rows, optionally tagged with a
    ``kpart`` column (a mixed hash of the shuffle key ``(block_idx,
    block_val)`` mod ``n_parts``) for a hive-partitioned checkpoint.  As
    with ``suffix_fp_rows``, ``kpart`` is a pure function of the shuffle
    key, so every pigeonhole bucket is wholly contained in one ``kpart=i/``
    directory and per-directory emission is exact."""
    blocks = sigs_ds.select_columns(["conv_id", "simhash", "n_shingles"]).map_batches(
        make_block_rows(cfg), batch_format="pyarrow", zero_copy_batch=True
    )
    if n_parts > 1:
        parts = np.uint64(n_parts)
        mix = np.uint64(0x9E3779B97F4A7C15)

        def tag(t: pa.Table) -> pa.Table:
            bv = np.asarray(t["block_val"], dtype=np.uint64)
            bi = np.asarray(t["block_idx"]).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = (bv + bi * mix) * mix
            return t.append_column(
                "kpart", pa.array((h % parts).astype(np.int32))
            )

        blocks = blocks.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return blocks


def simhash_edges_from_blocks(blocks_ds, cfg: DedupConfig):
    """Pigeonhole block rows → Hamming-verified decorated edges: one
    ``(block_idx, block_val)`` hash shuffle, then whole-bucket emission."""
    grouped = keyed_blocks(blocks_ds, ["block_idx", "block_val"], cfg.num_partitions)
    raw = grouped.map_batches(
        make_block_emitter(cfg),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return raw.map_batches(
        lambda t: t.append_column("source", pa.array(np.repeat("simhash", t.num_rows), pa.string())),
        batch_format="pyarrow",
    )
