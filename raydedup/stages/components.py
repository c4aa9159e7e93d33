"""Distributed connected components over the verified pair graph.

Replaces the reference's order-dependent star attribution
(``duplicate_face.py:69-70``: dup → first-seen canonical) with an
order-free rule: cluster id = min ``conv_id`` of the connected component.
Components ⊇ every reference star (each reference pair is a thresholded
edge), which is the ≥0.99 pair-recall argument of SURVEY.md §2.6.

Algorithm: per-block union-find contraction (star edges to block-local
roots), then iterative min-label propagation with a fused reduce —
**one** hash shuffle per iteration over edge-sized data, fully vectorized
block functions (pandas groupby-min / merge), no per-group tasks, no
driver-resident state (BTS/ICDE'24-style label propagation).  Reduced
label rows carry an ``is_lab`` marker, so convergence checks and the
final label extraction are shuffle-free block passes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from raydedup.config import DedupConfig
from raydedup.functions.hashing import hash_strings
from raydedup.ray_utils import keyed_blocks

_EMPTY_MSGS = pd.DataFrame(
    {
        "node": pd.Series([], dtype=object),
        "label": pd.Series([], dtype=object),
        "is_lab": pd.Series([], dtype=bool),
        "nbr": pd.Series([], dtype=object),
    }
)


def _checksum_partial(batch: pa.Table) -> tuple:
    """(xor, wrapping-sum) partial of one state block — the mergeable unit
    of :func:`_label_checksum`, reused by the staged-round tasks (which
    checksum their own output in-task, saving the extra per-round pass)."""
    hn = hash_strings(batch["node"].to_pylist())
    hl = hash_strings(["" if v is None else v for v in batch["label"].to_pylist()])
    hb = hash_strings(["" if v is None else v for v in batch["nbr"].to_pylist()])
    lab_mask = np.asarray(
        pa.compute.fill_null(batch["is_lab"], False), dtype=bool
    ).astype(np.uint64)
    v = (
        (hn * np.uint64(0x9E3779B97F4A7C15))
        ^ hl
        ^ (hb * np.uint64(0xC2B2AE3D27D4EB4F))
        ^ (lab_mask * np.uint64(0xD6E8FEB86659FD93))
    )
    x = np.bitwise_xor.reduce(v)
    s = v.sum(dtype=np.uint64)  # wrapping mod-2^64 sum
    return int(x.astype(np.int64)), int(s.astype(np.int64))


def _label_checksum(msgs_ds) -> tuple:
    """Order-independent checksum of the FULL propagation state — reduced
    labels, in-flight messages and contracted edges — per-block XOR +
    wrapping sum, combined on the driver (one tiny row per block, no
    shuffle).  Labels alone are not enough: with per-round graph
    contraction the edge set keeps evolving for a round or two after
    labels plateau, and an early stop there is both non-deterministic
    across partitionings and potentially non-minimal."""

    def h(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"x": pa.array([], pa.int64()), "s": pa.array([], pa.int64())})
        x, s = _checksum_partial(batch)
        return pa.table({"x": pa.array([x]), "s": pa.array([s])})

    parts = msgs_ds.map_batches(h, batch_format="pyarrow").take_all()
    x_all, s_all = np.uint64(0), np.uint64(0)
    for p in parts:
        x_all ^= np.uint64(np.int64(p["x"]).astype(np.uint64))
        s_all += np.uint64(np.int64(p["s"]).astype(np.uint64))
    return int(x_all), int(s_all)


def _make_propagate_block():
    """Block fn over union(edge rows, message rows) hash-partitioned by node.

    Edge rows have ``nbr`` set; message rows carry candidate labels.  The
    block computes the *local transitive closure* of everything it sees —
    nodes, neighbors and label values are all vertices of one in-block
    graph, min-labels propagate by repeated ``np.minimum.at`` relaxation +
    pointer halving (``lab = lab[lab]``) to a local fixpoint — then
    re-emits ``(node, min_label, is_lab=True)`` per node and
    ``(nbr, min_label, False)`` per out-edge.  Compared to one
    groupby-min hop per round, in-block closure jumps arbitrarily many
    hops per round, so the number of *global* shuffle rounds drops from
    O(component diameter) to roughly O(log diameter) — each round is one
    hash shuffle either way.  Vertex codes come from sorted ``np.unique``,
    so code order equals lexicographic node order and code-min equals
    label-min.
    """

    def propagate(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _EMPTY_MSGS
        lab_rows = df["label"].notna().to_numpy()
        edge_rows = df["nbr"].notna().to_numpy()
        node = df["node"].to_numpy(dtype=object)
        l_n, l_v = node[lab_rows], df["label"].to_numpy(dtype=object)[lab_rows]
        e_u, e_v = node[edge_rows], df["nbr"].to_numpy(dtype=object)[edge_rows]
        names, codes = np.unique(np.concatenate([l_n, l_v, e_u, e_v]), return_inverse=True)
        i = 0
        cl_n = codes[i : i + len(l_n)]; i += len(l_n)
        cl_v = codes[i : i + len(l_v)]; i += len(l_v)
        ce_u = codes[i : i + len(e_u)]; i += len(e_u)
        ce_v = codes[i : i + len(e_v)]
        lab = np.arange(len(names), dtype=np.int64)
        while True:
            prev = lab.copy()
            np.minimum.at(lab, cl_n, lab[cl_v])
            np.minimum.at(lab, cl_v, lab[cl_n])
            np.minimum.at(lab, ce_u, lab[ce_v])
            np.minimum.at(lab, ce_v, lab[ce_u])
            np.minimum(lab, lab[lab], out=lab)  # pointer halving
            if np.array_equal(lab, prev):
                break
        out_nodes = np.unique(cl_n)  # nodes owned by this block (have label rows)
        reduced = pd.DataFrame(
            {"node": names[out_nodes], "label": names[lab[out_nodes]], "is_lab": True}
        )
        # graph contraction for the next round: this round's edges re-keyed
        # to the endpoints' current labels (self-loops vanish as components
        # collapse) plus a label-link edge per unconverged node (u ↔
        # lab(u)).  The label links are the pointer-jumping channel:
        # lab(u)'s block sees the (lab(u), u) edge next round and messages
        # u with lab(lab(u)), so label chains halve per round.  Messages
        # are emitted along THIS round's input edges (one per directed edge
        # row) — never only along the contracted ones: an edge that
        # collapses to a self-loop locally must still deliver the merged
        # label to both original endpoints, or a remote node keeps a stale
        # pointer forever (a stable-but-non-minimal state).
        cx, cy = lab[ce_u], lab[ce_v]
        keep = cx != cy
        ln_keep = lab[out_nodes] != out_nodes
        src = np.concatenate([cx[keep], cy[keep], out_nodes[ln_keep], lab[out_nodes][ln_keep]])
        dst = np.concatenate([cy[keep], cx[keep], lab[out_nodes][ln_keep], out_nodes[ln_keep]])
        if len(src):
            uniq = np.unique(src * np.int64(len(names)) + dst)
            src, dst = uniq // len(names), uniq % len(names)
        edges = pd.DataFrame({"node": names[src], "nbr": names[dst], "is_lab": False})
        sent = pd.DataFrame(
            {"node": names[ce_v], "label": names[lab[ce_u]], "is_lab": False}
        )
        return pd.concat([reduced, sent, edges], ignore_index=True)

    return propagate


def _under_driver_gate(directed, n_directed: int, cfg) -> bool:
    """Row- AND byte-gated check for the driver CC endgame.

    ``directed`` is materialized, so ``size_bytes()`` is the exact Arrow
    size of the two-string-column edge list in the object store — the
    quantity the endgame's driver collect is proportional to (peak
    transient ~3-4× it; see ``DedupConfig.cc_driver_finish_bytes``).
    Row count alone under-estimates the footprint when node ids are long.
    """
    if not cfg.cc_driver_finish_edges or n_directed > cfg.cc_driver_finish_edges:
        return False
    byte_gate = getattr(cfg, "cc_driver_finish_bytes", 0)
    if byte_gate:
        sz = directed.size_bytes()
        if sz is not None and sz > byte_gate:
            return False
    return True


def _finish_on_driver(directed, n_directed: int):
    """labels for the gated endgame: driver union-find over the collected
    contracted edge list, broadcast back through one narrow map.

    ``directed`` is the block-contracted, hash-partitioned (node, nbr)
    edge list with both directions present, so its distinct ``node``
    values cover every vertex incident to an edge — the same output
    contract as the distributed path.  The min-label relaxation is the
    vectorized in-block-closure kernel from ``_make_propagate_block``
    applied to the whole (gated, bounded) graph at once; sorted
    ``np.unique`` codes make code-min equal lexicographic node-min, so
    labels match the distributed fixpoint exactly.
    """
    import ray
    import ray.data

    if n_directed == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.string()), "label": pa.array([], pa.string())})
        )

    import pyarrow.compute as pc

    chunks_u, chunks_v = [], []
    for b in directed.iter_batches(batch_format="pyarrow", batch_size=None):
        chunks_u.append(b["node"].combine_chunks() if isinstance(b["node"], pa.ChunkedArray) else b["node"])
        chunks_v.append(b["nbr"].combine_chunks() if isinstance(b["nbr"], pa.ChunkedArray) else b["nbr"])
    u_arr = pa.concat_arrays(chunks_u)
    v_arr = pa.concat_arrays(chunks_v)
    n_e = len(u_arr)
    # dictionary codes ranked through the sorted permutation, so code order
    # == lexicographic node order and code-min == node-min (same kernel as
    # contract_block — no object-dtype unique over millions of strings)
    enc = pa.concat_arrays([u_arr, v_arr]).dictionary_encode()
    dic = enc.dictionary
    order = pc.sort_indices(dic).to_numpy(zero_copy_only=False)
    rank = np.empty(len(dic), dtype=np.int64)
    rank[order] = np.arange(len(dic), dtype=np.int64)
    codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
    u, v = codes[:n_e], codes[n_e:]
    lab = np.arange(len(dic), dtype=np.int64)
    while True:
        prev = lab.copy()
        np.minimum.at(lab, u, lab[v])
        np.minimum.at(lab, v, lab[u])
        np.minimum(lab, lab[lab], out=lab)  # pointer halving
        if np.array_equal(lab, prev):
            break
    names = dic.take(pa.array(order))       # sorted node names
    roots = dic.take(pa.array(order[lab]))  # their component-min labels
    mapping_ref = ray.put((names, roots))  # one object-store copy, read per task

    def assign(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"node": pa.array([], pa.string()), "label": pa.array([], pa.string())}
            )
        names_, roots_ = ray.get(mapping_ref)
        nodes = pc.unique(t["node"])  # block-complete: hash-partitioned by node
        idx = pc.index_in(nodes, value_set=names_)
        return pa.table({"node": nodes, "label": roots_.take(idx)})

    return directed.map_batches(
        assign, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


_STATE_SCHEMA = pa.schema(
    [
        ("node", pa.string()),
        ("label", pa.string()),
        ("is_lab", pa.bool_()),
        ("nbr", pa.string()),
    ]
)


def _round_part_impl(files: list, round_dir: str, part: int, n_kparts: int,
                     config_hash: str, lineage: str, input_fp: str,
                     compression: str) -> tuple:
    """One staged propagation part: read its key-closed input files (all
    rows whose node hashes to this kpart), run the in-block-closure kernel
    on the WHOLE part at once, write the output hive-split by destination
    kpart plus a part manifest (tmp → rename, atomic), and return
    ``(rows, xor, sum)`` — the part's state-checksum partial, computed
    in-task so no separate per-round checksum pass is needed.

    Runs as a plain Ray task: per-part resumable iteration is the one
    place the Dataset API can't express the semantics (a round's resume
    granularity must be a durable partition manifest, not a block)."""
    import os
    import shutil
    import uuid

    import pyarrow.parquet as pq

    from raydedup.state.checkpoint import _write_manifest

    tables = [pq.read_table(f) for f in files]
    df = (
        pa.concat_tables(tables, promote_options="default")
        .to_pandas()[["node", "label", "is_lab", "nbr"]]
    )
    out = _make_propagate_block()(df)
    out_t = pa.table(
        {
            "node": pa.array(out["node"].to_numpy(dtype=object), pa.string()),
            "label": pa.array(
                [None if v is None or v != v else v for v in out["label"]],
                pa.string(),
            ),
            "is_lab": pa.array(out["is_lab"].to_numpy(dtype=bool)),
            "nbr": pa.array(
                [None if v is None or v != v else v for v in out["nbr"]],
                pa.string(),
            ),
        },
        schema=_STATE_SCHEMA,
    )
    x, s = _checksum_partial(out_t) if out_t.num_rows else (0, 0)
    kp = (hash_strings(list(out["node"])) % np.uint64(n_kparts)).astype(np.int64)
    part_dir = os.path.join(round_dir, f"src-{part}")
    tmp = f"{part_dir}.tmp-{uuid.uuid4().hex[:8]}"
    for i in np.unique(kp):
        d = os.path.join(tmp, f"kpart={int(i)}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            out_t.take(pa.array(np.flatnonzero(kp == i))),
            os.path.join(d, "data.parquet"),
            compression=compression,
        )
    os.makedirs(tmp, exist_ok=True)
    manifest = {
        "part": part,
        "config_hash": config_hash,
        "lineage": lineage,
        "input_fp": input_fp,
        "rows": int(out_t.num_rows),
        "x": x,
        "s": s,
    }
    _write_manifest(os.path.join(tmp, "_PART_MANIFEST.json"), manifest)
    if os.path.exists(part_dir):
        shutil.rmtree(part_dir)
    os.rename(tmp, part_dir)
    return int(out_t.num_rows), x, s


def _staged_propagation(directed, cfg: DedupConfig, store, cc_parts: int):
    """Disk-mode label propagation with per-PARTITION lineage per round
    (north rule: resume mid-shuffle).  Each round is a disk-based
    exchange: the previous round's output is hive-partitioned by
    ``kpart = hash(node) % P`` (the write IS the node shuffle), and P
    parallel Ray tasks each consume one key-closed kpart, run the
    unchanged in-block-closure kernel, and write their output hive-split
    by destination kpart with an atomic per-part manifest.  A crash
    mid-round redispatches only the parts whose manifests are missing or
    stale; completed rounds resume from their round manifest without
    dispatching anything (the stored checksum replaces the per-round
    checksum pass).  Labels are identical to the in-memory path — the
    kernel, the partitioning invariant (node-complete parts) and the
    checksum convergence rule are the same.

    File-count note: a round writes ≤ P² files (each part splits by
    destination kpart).  P targets ~500k rows/part, so this is ~600 files
    per round at the 12M-edge gate boundary; at far larger graphs raise
    rows-per-part before raising P.
    """
    import glob
    import hashlib
    import os
    import shutil
    import time
    import uuid

    import ray

    from raydedup.state.checkpoint import (
        _files_fingerprint,
        _valid_manifest,
        _write_manifest,
    )

    P = cc_parts
    root = store.path("rounds")
    os.makedirs(root, exist_ok=True)
    seed = store.lineage
    cfgh = store.config_hash
    compression = store.compression

    def round_lineage(k: int) -> str:
        return hashlib.sha256(f"{seed}|round-{k}|{cfgh}".encode()).hexdigest()[:16]

    def round_manifest(round_dir: str) -> str:
        return os.path.join(round_dir, "_MANIFEST.json")

    # ---- round 0: initial state (edges + self-labels), hive-written ----
    r0_dir = os.path.join(root, "round-0")
    r0_lineage = round_lineage(0)
    if _valid_manifest(round_manifest(r0_dir), cfgh, r0_lineage) is None:
        def state0_block(df: pd.DataFrame):
            if len(df) == 0:
                return _STATE_SCHEMA.empty_table().append_column(
                    "kpart", pa.array([], pa.int32())
                )
            nodes = pd.unique(df["node"])
            node_col = np.concatenate(
                [df["node"].to_numpy(dtype=object), nodes.astype(object)]
            )
            n_e, n_l = len(df), len(nodes)
            t = pa.table(
                {
                    "node": pa.array(node_col, pa.string()),
                    "label": pa.array(
                        np.concatenate([np.full(n_e, None, object), nodes.astype(object)]),
                        pa.string(),
                    ),
                    "is_lab": pa.array(
                        np.concatenate([np.zeros(n_e, bool), np.ones(n_l, bool)])
                    ),
                    "nbr": pa.array(
                        np.concatenate(
                            [df["nbr"].to_numpy(dtype=object), np.full(n_l, None, object)]
                        ),
                        pa.string(),
                    ),
                }
            )
            kp = (hash_strings(list(node_col)) % np.uint64(P)).astype(np.int32)
            return t.append_column("kpart", pa.array(kp, pa.int32()))

        t0 = time.time()
        tmp = f"{r0_dir}.tmp-{uuid.uuid4().hex[:8]}"
        directed.map_batches(
            state0_block, batch_size=None, batch_format="pandas"
        ).write_parquet(
            os.path.join(tmp, "src-init"), compression=compression,
            partition_cols=["kpart"],
        )
        _write_manifest(round_manifest(tmp),
                        {"config_hash": cfgh, "lineage": r0_lineage, "round": 0})
        if os.path.exists(r0_dir):
            shutil.rmtree(r0_dir)
        os.rename(tmp, r0_dir)
        store.events.append(
            {"stage": "cc_round_0", "action": "computed", "rows": -1,
             "sec": round(time.time() - t0, 2)}
        )
    else:
        store.events.append(
            {"stage": "cc_round_0", "action": "resumed", "rows": -1, "sec": 0.0}
        )

    run_part = ray.remote(num_cpus=1)(_round_part_impl)

    prev_sum = None
    n_iters = 0
    converged = False
    final_dir = r0_dir
    for k in range(1, cfg.max_cc_iters + 1):
        n_iters += 1
        prev_dir = os.path.join(root, f"round-{k - 1}")
        round_dir = os.path.join(root, f"round-{k}")
        lineage_k = round_lineage(k)
        t0 = time.time()
        m = _valid_manifest(round_manifest(round_dir), cfgh, lineage_k)
        if m is not None:
            cur = (m["x"], m["s"])
            store.events.append(
                {"stage": f"cc_round_{k}", "action": "resumed",
                 "rows": m.get("rows", -1), "sec": 0.0}
            )
        else:
            os.makedirs(round_dir, exist_ok=True)
            part_inputs = {
                i: sorted(
                    glob.glob(os.path.join(prev_dir, "*", f"kpart={i}", "*.parquet"))
                )
                for i in range(P)
            }
            refs, done = [], []
            for i, files in part_inputs.items():
                if not files:
                    continue
                fp = _files_fingerprint(files)
                part_dir = os.path.join(round_dir, f"src-{i}")
                pm = _valid_manifest(os.path.join(part_dir, "_PART_MANIFEST.json"),
                                     cfgh, lineage_k, fp)
                if pm is not None:
                    done.append((pm["rows"], pm["x"], pm["s"]))
                else:
                    refs.append(
                        run_part.remote(
                            files, round_dir, i, P, cfgh, lineage_k, fp, compression
                        )
                    )
            results = done + list(ray.get(refs))
            rows = sum(r[0] for r in results)
            x_all, s_all = np.uint64(0), np.uint64(0)
            for _r, x, s in results:
                x_all ^= np.uint64(np.int64(x).astype(np.uint64))
                s_all += np.uint64(np.int64(s).astype(np.uint64))
            cur = (int(np.int64(x_all.astype(np.int64))), int(np.int64(s_all.astype(np.int64))))
            _write_manifest(
                round_manifest(round_dir),
                {"config_hash": cfgh, "lineage": lineage_k, "round": k,
                 "rows": rows, "x": cur[0], "s": cur[1]},
            )
            store.events.append(
                {"stage": f"cc_round_{k}", "action": "computed", "rows": rows,
                 "sec": round(time.time() - t0, 2),
                 "parts_computed": len(refs), "parts_resumed": len(done)}
            )
        final_dir = round_dir
        if prev_sum is not None and cur == prev_sum:
            converged = True
            break
        prev_sum = cur

    from raydedup.ray_utils import read_parquet_clean

    labels = read_parquet_clean(final_dir).map_batches(
        lambda t: t.filter(pa.compute.fill_null(t["is_lab"], False)).select(
            ["node", "label"]
        ),
        batch_format="pyarrow",
    )
    return labels, n_iters, converged


def connected_components(pairs_ds, cfg: DedupConfig, store=None):
    """pairs(a,b,...) → (labels_ds(node,label), n_iters).

    Only nodes incident to an edge appear; callers default absent nodes to
    singleton clusters (label = own conv_id).

    When the contracted edge list fits under ``cfg.cc_driver_finish_edges``
    the gated driver endgame answers in one round (``n_iters`` = 1);
    labels are identical to the distributed fixpoint.

    Convergence is detected by two consecutive identical label checksums;
    exhausting ``cfg.max_cc_iters`` without convergence means some
    component's labels may still be split, which is never silent: a
    ``RuntimeWarning`` is emitted and ``n_iters`` is returned negative
    (callers record ``converged = n_iters > 0`` in metrics).

    ``store`` (a disk-mode CheckpointStore): above the driver gate, the
    propagation rounds run via :func:`_staged_propagation` — per-round,
    per-PARTITION resumable disk exchanges with identical labels.
    """
    edges = pairs_ds.select_columns(["a", "b"])

    def contract_block(t: pa.Table) -> pa.Table:
        """Local contraction per edge block → star edges to block-local roots
        (both directions).  Cuts edge multiplicity and caps the local
        diameter at 2, so global propagation converges in fewer rounds.

        Vectorized: Arrow dictionary_encode for codes (ranked through a
        sorted-dictionary permutation so code order == lexicographic node
        order), then the same min-relaxation + pointer-halving kernel the
        propagate blocks use — the fixpoint root is the component's min
        rank, exactly the min-node root the sequential union-find picked."""
        if t.num_rows == 0:
            return pa.table(
                {"node": pa.array([], pa.string()), "nbr": pa.array([], pa.string())}
            )
        a = t["a"].combine_chunks() if isinstance(t["a"], pa.ChunkedArray) else t["a"]
        b = t["b"].combine_chunks() if isinstance(t["b"], pa.ChunkedArray) else t["b"]
        enc = pa.concat_arrays(
            [a.cast(pa.string()), b.cast(pa.string())]
        ).dictionary_encode()
        dic = enc.dictionary
        order = pa.compute.sort_indices(dic).to_numpy(zero_copy_only=False)
        rank = np.empty(len(dic), dtype=np.int64)
        rank[order] = np.arange(len(dic), dtype=np.int64)
        codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
        n_rows = t.num_rows
        ca, cb = codes[:n_rows], codes[n_rows:]
        lab = np.arange(len(dic), dtype=np.int64)
        while True:
            prev = lab.copy()
            np.minimum.at(lab, ca, lab[cb])
            np.minimum.at(lab, cb, lab[ca])
            np.minimum(lab, lab[lab], out=lab)  # pointer halving
            if np.array_equal(lab, prev):
                break
        non_root = np.flatnonzero(lab != np.arange(len(dic)))
        node_pos = order[non_root]
        root_pos = order[lab[non_root]]
        return pa.table(
            {
                "node": dic.take(pa.array(np.concatenate([node_pos, root_pos]))),
                "nbr": dic.take(pa.array(np.concatenate([root_pos, node_pos]))),
            }
        )

    # Two-level contraction: the first pass contracts within raw pair
    # blocks (whose granularity follows the upstream checkpoint layout —
    # finer at higher num_partitions, so contraction quality would
    # otherwise DEGRADE with cluster size: measured at 36M turns, the
    # 32-partition leg missed the driver-finish gate the 8-partition leg
    # hit, inverting the clusters-stage scaling to 0.05).  The second
    # pass re-contracts after the node-keyed shuffle, where each block
    # holds complete node neighborhoods — contraction quality is then a
    # function of data, not partition count.  Re-contraction emits nodes
    # outside the block's key range (a local root may live in another
    # partition), so a second — cheap, star-edges-only — node shuffle
    # restores the block-completeness invariant that ``init_labels`` and
    # the endgame's ``assign`` rely on for exactly-once node emission.
    def recontract(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # empty shuffle partitions may carry no schema
            return pa.table(
                {"node": pa.array([], pa.string()), "nbr": pa.array([], pa.string())}
            )
        return contract_block(t.rename_columns(["a", "b"]))

    directed = keyed_blocks(
        edges.map_batches(contract_block, batch_format="pyarrow", zero_copy_batch=True),
        ["node"],
        cfg.num_partitions,
    ).materialize()

    # Size-gated driver endgame (the distributed-CC analog of the endpoint
    # semi-filter's size guard): once block-local contraction has shrunk
    # the edge list under ``cc_driver_finish_edges`` rows, every remaining
    # propagation round would shuffle a small dataset while still paying
    # the full per-round fixed cost (aggregator spin-up + execution +
    # checksum pass, ~4-5 s/round).  Finishing union-find on the driver —
    # one bounded collect, the same vectorized min-relaxation the blocks
    # use, one broadcast assignment map — replaces O(log diameter) such
    # rounds.  The gate is checked on the FIRST-level contraction (the
    # endgame is a general union-find: it needs node-partitioned coverage,
    # not star edges), so the common path pays one shuffle.  Gated on rows
    # AND collected Arrow bytes (cc_driver_finish_bytes) so long node ids
    # can't blow the driver's memory budget.  Above the gate (real 100-TB
    # runs) the distributed path below runs unchanged.
    n_directed = directed.count()
    if _under_driver_gate(directed, n_directed, cfg):
        return _finish_on_driver(directed, n_directed), 1

    # Above the gate, re-contract before the propagation rounds: each
    # node-keyed block now holds complete neighborhoods, so this second
    # pass collapses what the partition-sliced first pass could not —
    # contraction quality becomes a function of data, not upstream
    # partition count (measured at 36M turns: the 32-partition first pass
    # left a graph the 8-partition one contracted, inverting the stage's
    # scaling).  Re-contraction emits nodes outside the block's key range
    # (a local root may live in another partition), so one more — cheap,
    # star-edges-only — node shuffle restores the block-completeness
    # invariant that ``init_labels`` relies on for exactly-once emission.
    recontracted = directed.map_batches(
        recontract, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    directed = keyed_blocks(recontracted, ["node"], cfg.num_partitions).materialize()
    n_directed = directed.count()
    if _under_driver_gate(directed, n_directed, cfg):
        # the neighborhood-complete pass may shrink the graph under the
        # gate even when the partition-sliced one could not
        return _finish_on_driver(directed, n_directed), 1

    # Partition the propagation rounds by DATA size, not cluster size:
    # star-edge rows are tiny (two ids), so at moderate scale
    # cfg.num_partitions partitions would each hold a few MB while every
    # round still pays per-partition aggregator + task fixed costs —
    # measured as the clusters stage running 5x SLOWER at 32 cpus than 8
    # on the same 36M-turn input.  ~500k rows (~30 MB) per partition
    # keeps blocks worker-sized without starving parallelism just above
    # the driver gate; huge edge sets still fan out to the full
    # cfg.num_partitions.
    cc_parts = max(2, min(cfg.num_partitions, -(-n_directed // cfg.cc_rows_per_part)))

    if store is not None and getattr(store, "mode", "") == "disk":
        labels, n_iters, converged = _staged_propagation(directed, cfg, store, cc_parts)
        if not converged:
            import warnings

            warnings.warn(
                f"connected_components: label propagation did not converge within "
                f"max_cc_iters={cfg.max_cc_iters}; some clusters may be split. "
                f"Raise max_cc_iters (diameter after contraction exceeds the budget).",
                RuntimeWarning,
            )
        return labels, (n_iters if converged else -n_iters)

    # initial messages: every node labels itself (nodes are complete per
    # block after the keyed repartition, so one reduced row per node)
    def init_labels(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _EMPTY_MSGS
        nodes = pd.unique(df["node"])
        return pd.DataFrame({"node": nodes, "label": nodes, "is_lab": True})

    msgs = directed.map_batches(init_labels, batch_size=None, batch_format="pandas").materialize()

    with_null_label = directed.map_batches(
        lambda t: t.append_column("label", pa.nulls(t.num_rows, pa.string())),
        batch_format="pyarrow",
    ).materialize()

    propagate = _make_propagate_block()
    prev_sum = None
    n_iters = 0
    converged = False
    state = None  # round ≥2 input: propagate's own output (labels + messages + contracted edges)
    for _ in range(cfg.max_cc_iters):
        n_iters += 1
        if state is None:
            msg_rows = msgs.map_batches(
                lambda t: pa.table(
                    {"node": t["node"], "nbr": pa.nulls(t.num_rows, pa.string()), "label": t["label"]}
                ),
                batch_format="pyarrow",
            )
            combined = keyed_blocks(
                with_null_label.union(msg_rows), ["node"], cc_parts
            )
        else:
            combined = keyed_blocks(state, ["node"], cc_parts)
        state = combined.map_batches(
            propagate, batch_size=None, batch_format="pandas"
        ).materialize()
        msgs = state
        cur = _label_checksum(msgs)
        if prev_sum is not None and cur == prev_sum:
            converged = True
            break
        prev_sum = cur

    if not converged:
        import warnings

        warnings.warn(
            f"connected_components: label propagation did not converge within "
            f"max_cc_iters={cfg.max_cc_iters}; some clusters may be split. "
            f"Raise max_cc_iters (diameter after contraction exceeds the budget).",
            RuntimeWarning,
        )

    labels = msgs.map_batches(
        lambda t: t.filter(t["is_lab"]).select(["node", "label"]),
        batch_format="pyarrow",
    )
    return labels, (n_iters if converged else -n_iters)
