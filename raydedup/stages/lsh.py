"""LSH banding + candidate-pair emission.

This replaces the reference's driver-resident linear-scan index
(``known_face_encodings``, ``duplicate_face.py:57-82``, O(N·U) compares in
one process's RAM) with data-parallel hash shuffles: signatures → band rows
→ hash-repartition by one mixed ``bucket`` uint64 key → one vectorized
``map_batches`` pass emits bounded candidate pairs per bucket (kernels in
``raydedup.functions.pairs``; no per-group tasks).

Skew handling (north rule): band keys are *salted* with a bucket derived
from ``minhash[0]`` — equal signatures always share a salt (so identical
docs are never split), while boilerplate-driven mega-buckets split into
``salt_buckets`` independent groups.  Inside a bucket, emission is the full
clique below ``bucket_pair_cap`` members; above it, a sorted chain + star
(O(n) edges preserving bucket connectivity), with capped edges flagged so
caps are never silent.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.functions.hashing import splitmix64
from raydedup.functions.pairs import emit_bucket_pairs, group_ids_from_sorted
from raydedup.ray_utils import keyed_blocks

_FNV = np.uint64(0x100000001B3)

_EMPTY_PAIRS = pa.table(
    {
        "a": pa.array([], pa.string()),
        "b": pa.array([], pa.string()),
        "capped": pa.array([], pa.int32()),
    }
)


def _sorted_unique_members(t: pa.Table, sort_keys, group_cols):
    """Sort ``t`` by ``sort_keys`` (C-level Arrow sort — no object-dtype
    Python comparisons), then drop duplicate (group, conv_id) members.

    Returns ``(gid, cv, rows)``: dense group ids (numpy int64), the matching
    deduped conv_id StringArray, and the original row indices of the kept
    members (for callers carrying extra aligned columns).  UTF-8 byte order
    == code-point order, so Arrow's binary string sort matches the previous
    Python-str lexsort."""
    if isinstance(group_cols, str):
        group_cols = [group_cols]
    idx = pa.compute.sort_indices(t, sort_keys=sort_keys)
    idx_np = idx.to_numpy(zero_copy_only=False)
    keys = [t[c].take(idx).to_numpy(zero_copy_only=False) for c in group_cols]
    cv = t["conv_id"].take(idx)
    if isinstance(cv, pa.ChunkedArray):
        cv = cv.combine_chunks()
    gid = group_ids_from_sorted(*keys)
    n = len(gid)
    keep = np.ones(n, dtype=bool)
    if n > 1:
        same_cv = pa.compute.equal(cv.slice(1), cv.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
        keep[1:] = (gid[1:] != gid[:-1]) | ~same_cv
    sel = np.flatnonzero(keep)
    return gid[sel], cv.take(pa.array(sel)), idx_np[sel]

def signature_matrix(batch: pa.Table, num_perm: int) -> np.ndarray:
    """(n, num_perm) uint64 from the minhash list column (fixed-size or plain list)."""
    col = batch["minhash"].combine_chunks() if isinstance(batch["minhash"], pa.ChunkedArray) else batch["minhash"]
    if isinstance(col, pa.FixedSizeListArray):
        flat = col.values
    else:
        flat = col.flatten()
    return flat.to_numpy(zero_copy_only=False).astype(np.uint64).reshape(-1, num_perm)


def make_band_rows(cfg: DedupConfig, hot_buckets: np.ndarray | None = None,
                   gated: bool = False):
    """map_batches fn: signatures → BANDS rows (vectorized, no Python row loop).

    ``gated=False`` (default): every bucket key carries the salt, exactly
    as before.  ``gated=True``: keys start UNSALTED; rows whose unsalted
    key appears in ``hot_buckets`` (the exact over-threshold set from the
    counting pass — see ``_hot_buckets``) switch to the salted key.  A
    bucket is hot or not as a whole, so the two key variants never mix
    within one bucket."""

    powers = _FNV ** np.arange(cfg.rows - 1, -1, -1, dtype=np.uint64)
    band_mix = splitmix64(np.arange(cfg.bands, dtype=np.uint64) + np.uint64(0xB0BA))

    def bands_fn(batch: pa.Table) -> pa.Table:
        keep = np.asarray(batch["n_shingles"]) > 0
        batch = batch.filter(pa.array(keep))
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.uint64()),
                    "sk": pa.array([], pa.uint64()),
                    "conv_id": pa.array([], pa.string()),
                }
            )
        sig = signature_matrix(batch, cfg.num_perm)  # (n, num_perm)
        grouped = sig.reshape(n, cfg.bands, cfg.rows)
        bh = (grouped * powers[None, None, :]).sum(axis=2, dtype=np.uint64)
        bh = splitmix64(bh ^ band_mix[None, :])  # (n, bands); band_idx mixed in
        salt = splitmix64(sig[:, 0]) % np.uint64(cfg.salt_buckets)
        # ONE uint64 shuffle key carrying (band, hash, salt): band_idx is
        # already mixed into bh, the salt folds in here — 8 fewer bytes per
        # band row through the widest shuffle, and equal signatures still
        # share every bucket key.  A 64-bit collision between distinct
        # buckets merely merges them (extra candidate pairs, verified
        # away), never loses a pair.
        salted = splitmix64(bh ^ (salt + np.uint64(0x5A17))[:, None])
        if not gated:
            bucket = salted
        else:
            bucket = splitmix64(bh ^ np.uint64(0x5A17))  # unsalted
            if hot_buckets is not None and len(hot_buckets):
                m = np.isin(bucket, hot_buckets)
                bucket = np.where(m, salted, bucket)
        # chain-ordering key for over-cap buckets: a secondary signature
        # element, so near-identical docs sort adjacently inside a capped
        # bucket and their chain edges survive exact verification
        sk = splitmix64(sig[:, 1] ^ np.uint64(0x5EED))
        # C-level take instead of an object-dtype numpy repeat round-trip
        conv = batch["conv_id"].take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), cfg.bands))
        )
        return pa.table(
            {
                "bucket": pa.array(bucket.reshape(-1)),
                "sk": pa.array(np.repeat(sk, cfg.bands)),
                "conv_id": conv,
            }
        )

    return bands_fn


def make_bucket_emitter(cfg: DedupConfig, pair_mask_fn=None):
    """Whole-block fn over hash-partitioned band rows → candidate pairs (a<b).

    ``pair_mask_fn(a, b) -> bool mask`` optionally prunes pairs AT THE
    EMITTER, before they ever enter the (a, b) dedup shuffle — the hook
    incremental dedup uses to drop corpus-vs-corpus pairs (at scale the
    overwhelming majority) instead of shuffling and then filtering them.
    """

    cap = cfg.bucket_pair_cap

    def emit(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        # members order by (sk, conv_id) inside each bucket: the capped
        # chain then runs through signature space, keeping near-identical
        # docs adjacent (duplicate members share sk, so the member dedup's
        # adjacency requirement still holds)
        gid, cv, _rows = _sorted_unique_members(
            t, [("bucket", "ascending"), ("sk", "ascending"), ("conv_id", "ascending")],
            "bucket",
        )
        i, j, capped = emit_bucket_pairs(gid, cap)
        if len(i) == 0:
            return _EMPTY_PAIRS
        x = cv.take(pa.array(i))
        y = cv.take(pa.array(j))
        swap = pa.compute.greater(x, y)  # normalize a < b (bucket order is signature order)
        a = pa.compute.if_else(swap, y, x)
        b = pa.compute.if_else(swap, x, y)
        if pair_mask_fn is not None:
            m = np.asarray(
                pair_mask_fn(
                    a.to_numpy(zero_copy_only=False), b.to_numpy(zero_copy_only=False)
                ),
                dtype=bool,
            )
            if not m.any():
                return _EMPTY_PAIRS
            sel = pa.array(m)
            a, b, capped = a.filter(sel), b.filter(sel), capped[m]
        return pa.table({"a": a, "b": b, "capped": pa.array(capped.astype(np.int32))})

    return emit


def make_pair_dedup():
    """Whole-block fn over hash-partitioned (a, b) rows → unique pairs with
    band-evidence counters (replaces a per-group aggregate).  Arrow-native
    hash aggregation — no pandas object-dtype groupby."""

    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "n_bands": pa.array([], pa.int64()),
            "capped": pa.array([], pa.int32()),
        }
    )

    def dedup(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        g = t.group_by(["a", "b"], use_threads=False).aggregate(
            [("capped", "count"), ("capped", "max")]
        )
        return pa.table(
            {
                "a": g["a"],
                "b": g["b"],
                "n_bands": g["capped_count"].cast(pa.int64()),
                "capped": g["capped_max"].cast(pa.int32()),
            }
        )

    return dedup


def _hot_buckets(sigs_ds, cfg: DedupConfig) -> np.ndarray:
    """Exact set of unsalted band-bucket keys with at least
    ``cfg.salt_gate_min_bucket`` member rows: one bucket-keyed count
    shuffle over just the 8-byte key column.  Exact global counts are
    partition-invariant, so gated salting preserves the pipeline's
    determinism-across-partitioning property (a per-block heavy-hitter
    estimate would not).  The driver collects the surviving keys as Arrow
    uint64 arrays (``to_arrow_refs``), never per-row Python dicts, so the
    footprint really is ~8 B per hot key — bounded by
    total_band_rows / threshold keys."""
    rows = sigs_ds.map_batches(
        make_band_rows(cfg, gated=True), batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["bucket"])
    thresh = cfg.salt_gate_min_bucket

    def hot(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"bucket": pa.array([], pa.uint64())})
        g = t.group_by(["bucket"], use_threads=False).aggregate([("bucket", "count")])
        g = g.filter(pa.compute.greater_equal(g["bucket_count"], thresh))
        return g.select(["bucket"])

    hot_ds = keyed_blocks(rows, ["bucket"], cfg.num_partitions).map_batches(
        hot, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    import ray as _ray

    tables = [t for t in _ray.get(hot_ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return np.empty(0, np.uint64)
    col = pa.concat_tables(tables)["bucket"].combine_chunks()
    return np.sort(col.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False))


def candidate_pairs(sigs_ds, cfg: DedupConfig, pair_mask_fn=None):
    """signatures → deduplicated candidate pairs (a, b, n_bands, capped).

    ``pair_mask_fn`` prunes pairs inside the bucket emitter (see
    ``make_bucket_emitter``) so unwanted pairs never enter the (a, b)
    shuffle.

    With ``cfg.salt_gate_min_bucket > 0`` the salt split applies only to
    band buckets the exact counting pass found over the threshold (skew
    control without the constant-salting recall factor; costs one extra
    key-column shuffle over the band rows)."""
    gated = cfg.salt_gate_min_bucket > 0
    hot = _hot_buckets(sigs_ds, cfg) if gated else None
    bands = sigs_ds.map_batches(
        make_band_rows(cfg, hot_buckets=hot, gated=gated),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    raw = keyed_blocks(bands, ["bucket"], cfg.num_partitions).map_batches(
        make_bucket_emitter(cfg, pair_mask_fn),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return keyed_blocks(raw, ["a", "b"], cfg.num_partitions).map_batches(
        make_pair_dedup(),
        batch_size=None,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
