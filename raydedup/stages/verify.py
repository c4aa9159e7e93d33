"""Candidate-pair verification (the analog of the reference's actual
threshold compare — Euclidean tolerance at ``duplicate_face.py:66-67``,
cosine at ``face_recognition_custom.py:104-106`` — applied distributed,
after LSH instead of against a linear index).

Payload attachment avoids a relational join: pairs explode to one row per
endpoint, union with the signature payload rows, and a single hash shuffle
on the endpoint key co-locates each pair endpoint with its payload; a
second shuffle on ``(a, b)`` reunites the two endpoints, and similarity is
computed vectorized per block:

* ``verify_mode="exact"``  — exact Jaccard of the stored shingle-hash sets
  (matches the oracle's threshold exactly);
* ``verify_mode="estimate"`` — agreement fraction of the MinHash
  signatures, accepted at ``threshold - est_margin``.  The signature rides
  the attach shuffle as its *low byte* only (8× smaller payload); two
  differing minima collide on the low byte with p=1/256, inflating the
  estimate by at most (1-J)/256 ≈ 0.004 — far inside ``est_margin``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.ray_utils import keyed_blocks


def _payload_type(cfg: DedupConfig):
    return pa.list_(pa.uint64()) if cfg.verify_mode == "exact" else pa.list_(pa.uint8())


def _payload_col(cfg: DedupConfig) -> str:
    return "shingles" if cfg.verify_mode == "exact" else "minhash"


def _endpoint_rows(pairs_ds, ptype):
    """pairs → two rows per pair: (endpoint, a, b, side∈{0,1}, payload=null)."""

    def explode(t: pa.Table) -> pa.Table:
        a = t["a"].combine_chunks() if isinstance(t["a"], pa.ChunkedArray) else t["a"]
        b = t["b"].combine_chunks() if isinstance(t["b"], pa.ChunkedArray) else t["b"]
        a, b = a.cast(pa.string()), b.cast(pa.string())
        n = t.num_rows
        return pa.table(
            {
                "endpoint": pa.concat_arrays([a, b]),
                "a": pa.concat_arrays([a, a]),
                "b": pa.concat_arrays([b, b]),
                "side": pa.array(np.concatenate([np.zeros(n), np.ones(n)]).astype(np.int8)),
                "payload": pa.nulls(2 * n, ptype),
            }
        )

    return pairs_ds.select_columns(["a", "b"]).map_batches(explode, batch_format="pyarrow")


def _endpoint_hash_set(pairs_ds):
    """Sorted uint64 hash array of all pair endpoints (driver-merged from
    tiny per-block uniques).  Used to semi-filter the signature payload
    rows before the attach shuffle — typically pairs ≪ corpus, so this
    cuts the shuffled payload volume by the non-candidate fraction.
    (At extreme scale, where even the endpoint-hash array outgrows the
    driver, skip the filter: correctness is unaffected.)"""
    from raydedup.functions.hashing import hash_strings

    def block_hashes(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], pa.int64())})
        vals = np.unique(
            np.concatenate(
                [hash_strings(t["a"].to_pylist()), hash_strings(t["b"].to_pylist())]
            )
        )
        return pa.table({"h": pa.array(vals.astype(np.int64))})

    rows = pairs_ds.select_columns(["a", "b"]).map_batches(
        block_hashes, batch_format="pyarrow"
    ).take_all()
    return np.unique(np.array([r["h"] for r in rows], dtype=np.int64).astype(np.uint64))


def _sig_rows(sigs_ds, cfg: DedupConfig, endpoint_hashes=None):
    import ray

    from raydedup.functions.hashing import hash_strings

    col = _payload_col(cfg)
    ptype = _payload_type(cfg)
    eh_ref = ray.put(endpoint_hashes) if endpoint_hashes is not None else None

    def tag(t: pa.Table) -> pa.Table:
        if eh_ref is not None and t.num_rows:
            eh = ray.get(eh_ref)
            if len(eh) == 0:
                t = t.slice(0, 0)
            else:
                h = hash_strings(t["conv_id"].to_pylist())
                pos = np.searchsorted(eh, h)
                pos[pos >= len(eh)] = 0
                t = t.filter(pa.array(eh[pos] == h))
        payload = t[col].combine_chunks() if isinstance(t[col], pa.ChunkedArray) else t[col]
        payload = payload.cast(pa.list_(pa.uint64()))
        if cfg.verify_mode != "exact":
            # low byte per permutation: 8× lighter through both shuffles
            vals = payload.values.to_numpy(zero_copy_only=False).astype(np.uint64)
            payload = pa.ListArray.from_arrays(
                payload.offsets, pa.array((vals & np.uint64(0xFF)).astype(np.uint8))
            )
        n = t.num_rows
        return pa.table(
            {
                "endpoint": t["conv_id"],
                "a": pa.nulls(n, pa.string()),
                "b": pa.nulls(n, pa.string()),
                "side": pa.array(np.full(n, -1, dtype=np.int8)),
                "payload": payload,
            }
        )

    return sigs_ds.select_columns(["conv_id", col]).map_batches(tag, batch_format="pyarrow")


def _attach_block(t: pa.Table) -> pa.Table:
    """Block fn keyed by endpoint: give each pair-endpoint row its payload.

    Payloads stay Arrow end-to-end (a pandas round-trip of list columns
    is both slow and fragile); only the small string/index columns touch
    numpy/pandas.
    """
    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "side": pa.array([], pa.int8()),
            "payload": pa.array([], t.schema.field("payload").type),
        }
    )
    if t.num_rows == 0:
        return empty
    # Arrow sort by (endpoint, side): each endpoint's signature row
    # (side=-1, unique per conv_id) leads its group, so every pair-endpoint
    # row's payload is the group-leading row's — a C-level sort + gather
    # instead of an object-dtype pandas Index lookup.
    idx = pa.compute.sort_indices(
        t, sort_keys=[("endpoint", "ascending"), ("side", "ascending")]
    )
    t = t.take(idx).combine_chunks()
    n = t.num_rows
    side = np.asarray(t["side"])
    ep = t["endpoint"].combine_chunks() if isinstance(t["endpoint"], pa.ChunkedArray) else t["endpoint"]
    newgrp = np.ones(n, dtype=bool)
    if n > 1:
        newgrp[1:] = ~pa.compute.equal(ep.slice(1), ep.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
    gid = np.cumsum(newgrp) - 1
    grp_first = np.flatnonzero(newgrp)
    has_sig = (side == -1)[grp_first]
    keep_rows = np.flatnonzero((side >= 0) & has_sig[gid])
    if len(keep_rows) == 0:
        return empty
    ep_tbl = t.take(pa.array(keep_rows))
    payload = t["payload"].combine_chunks().take(
        pa.array(grp_first[gid[keep_rows]], pa.int64())
    )
    return pa.table(
        {
            "a": ep_tbl["a"],
            "b": ep_tbl["b"],
            "side": ep_tbl["side"],
            "payload": payload,
        }
    )


def _payload_slices(col: pa.Array):
    """(offsets, values) numpy views of a list<uint64> array."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offsets = col.offsets.to_numpy()
    values = col.values.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
    return offsets, values


def _flat_payload(off: np.ndarray, val: np.ndarray):
    """Flatten list slices to (pair_id, value) arrays regardless of the
    offsets' starting point (Arrow ``take`` may leave non-zero bases)."""
    lens = np.diff(off).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return lens, np.empty(0, np.int64), np.empty(0, np.uint64)
    pair_id = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    starts = np.repeat(off[:-1].astype(np.int64), lens)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return lens, pair_id, val[starts + local]


def exact_jaccard_sims(off0, val0, off1, val1, n: int) -> np.ndarray:
    """Vectorized exact Jaccard over n pairs of uint64 hash *sets*.

    Replaces the per-pair ``np.intersect1d`` loop: all (pair, value) rows
    from both sides are mapped through one global value dictionary
    (``np.unique``), composite ``pair*V + value_id`` keys make each side a
    flat sorted set, and one ``intersect1d`` + ``bincount`` yields every
    pair's intersection size at once — O(total values · log) for the whole
    block instead of per pair.
    """
    len0, p0, v0 = _flat_payload(off0, val0)
    len1, p1, v1 = _flat_payload(off1, val1)
    denom_base = len0 + len1
    if len(v0) == 0 or len(v1) == 0:
        return np.zeros(n, dtype=np.float64)
    allv = np.concatenate([v0, v1])
    uniq, inv = np.unique(allv, return_inverse=True)
    nv = np.int64(len(uniq))
    k0 = p0 * nv + inv[: len(v0)]
    k1 = p1 * nv + inv[len(v0):]
    common = np.intersect1d(k0, k1, assume_unique=True)
    inter = np.bincount(common // nv, minlength=n).astype(np.int64)
    denom = denom_base - inter
    sims = np.zeros(n, dtype=np.float64)
    nz = denom > 0
    sims[nz] = inter[nz] / denom[nz]
    return sims


def make_verify_block(cfg: DedupConfig):
    exact = cfg.verify_mode == "exact"
    tau = cfg.jaccard_threshold if exact else cfg.jaccard_threshold - cfg.est_margin

    empty = pa.table(
        {
            "a": pa.array([], pa.string()),
            "b": pa.array([], pa.string()),
            "est_sim": pa.array([], pa.float64()),
            "source": pa.array([], pa.string()),
        }
    )

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return empty
        # pair up side-0 and side-1 rows on (a, b): (a, b, side) is unique,
        # so after an Arrow sort a complete pair is exactly an adjacent
        # (side=0, side=1) run with equal keys — C-level sort + neighbor
        # equality instead of an object-dtype pandas MultiIndex lookup
        idx = pa.compute.sort_indices(
            t,
            sort_keys=[("a", "ascending"), ("b", "ascending"), ("side", "ascending")],
        )
        t = t.take(idx).combine_chunks()
        m = t.num_rows
        side = np.asarray(t["side"])
        a_arr = t["a"]
        b_arr = t["b"]
        eq_next = pa.compute.and_(
            pa.compute.equal(a_arr.slice(1), a_arr.slice(0, m - 1)),
            pa.compute.equal(b_arr.slice(1), b_arr.slice(0, m - 1)),
        ).to_numpy(zero_copy_only=False)
        first = np.flatnonzero((side[:-1] == 0) & (side[1:] == 1) & eq_next)
        if len(first) == 0:
            return empty
        t0 = t.take(pa.array(first))
        t1 = t.take(pa.array(first + 1))
        n = t0.num_rows
        off0, val0 = _payload_slices(t0["payload"])
        off1, val1 = _payload_slices(t1["payload"])
        if exact:
            sims = exact_jaccard_sims(off0, val0, off1, val1, n)
        else:
            w = cfg.num_perm
            va = val0.reshape(n, w)
            vb = val1.reshape(n, w)
            sims = (va == vb).mean(axis=1)
        keep = sims >= tau
        kept = t0.select(["a", "b"]).filter(pa.array(keep))
        return pa.table(
            {
                "a": kept["a"],
                "b": kept["b"],
                "est_sim": pa.array(sims[keep]),
                "source": pa.array(np.repeat("minhash", int(keep.sum())), pa.string()),
            }
        )

    return verify


def verified_pairs(pairs_ds, sigs_ds, cfg: DedupConfig):
    """candidate pairs → PAIRS rows passing the similarity threshold.

    The endpoint semi-filter (a driver-merged hash set of pair endpoints
    that prunes non-candidate signature rows before the attach shuffle) is
    size-guarded: above ``cfg.semi_filter_max_endpoints`` endpoints it is
    skipped entirely — the shuffle then carries all signature rows, which
    is correct, just bulkier.  ``pairs_ds`` should be cheap to scan more
    than once (a checkpoint read or a materialized Dataset): the count is
    then parquet-footer or block metadata, and the endpoint collect reads
    the stored rows instead of re-running the candidates graph."""
    if 2 * pairs_ds.count() > cfg.semi_filter_max_endpoints:
        eh = None
    else:
        eh = _endpoint_hash_set(pairs_ds)
    combined = _endpoint_rows(pairs_ds, _payload_type(cfg)).union(
        _sig_rows(sigs_ds, cfg, eh)
    )
    attached = keyed_blocks(combined, ["endpoint"], cfg.num_partitions).map_batches(
        _attach_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    return keyed_blocks(attached, ["a", "b"], cfg.num_partitions).map_batches(
        make_verify_block(cfg), batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
