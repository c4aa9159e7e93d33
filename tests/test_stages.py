"""Unit tests for the vectorized stage kernels (no Ray needed)."""

import numpy as np
import pandas as pd

from raydedup.functions.pairs import (
    dedup_sorted_members,
    emit_bucket_pairs,
    group_ids_from_sorted,
)
from raydedup.stages.reassemble import _assemble_block, assemble_group


def test_group_ids_from_sorted():
    a = np.array([1, 1, 2, 2, 2, 3])
    b = np.array([0, 0, 0, 1, 1, 1])
    gid = group_ids_from_sorted(a, b)
    assert gid.tolist() == [0, 0, 1, 2, 2, 3]


def test_emit_bucket_pairs_clique_and_cap():
    # groups of size 3, 2, 1, 6 with cap=4
    gid = np.array([0, 0, 0, 1, 1, 2, 3, 3, 3, 3, 3, 3])
    i, j, capped = emit_bucket_pairs(gid, cap=4)
    assert (~capped).sum() == 3 + 1          # cliques: C(3,2) + C(2,2)
    assert capped.sum() == 2 * 6 - 3         # chain+star on the big group
    assert (i < j).all()
    # capped group stays connected: union-find over its edges
    big = {6: 6, 7: 7, 8: 8, 9: 9, 10: 10, 11: 11}

    def find(x):
        while big[x] != x:
            x = big[x]
        return x

    for a, b in zip(i[capped], j[capped]):
        big[find(a)] = find(b)
    assert len({find(x) for x in big}) == 1


def test_emit_bucket_pairs_empty_and_singletons():
    i, j, c = emit_bucket_pairs(np.array([], dtype=np.int64), cap=5)
    assert len(i) == 0
    i, j, c = emit_bucket_pairs(np.array([0, 1, 2]), cap=5)
    assert len(i) == 0


def test_dedup_sorted_members():
    gid = np.array([0, 0, 0, 1, 1])
    mem = np.array(["a", "a", "b", "a", "a"], dtype=object)
    keep = dedup_sorted_members(gid, mem)
    assert keep.tolist() == [True, False, True, True, False]


def _block_df(rows):
    return pd.DataFrame(rows, columns=["conv_id", "turn_idx", "text"])


def test_assemble_block_matches_scalar():
    rows = [
        ("c1", 1, "world"),
        ("c1", 0, "hello"),
        ("c2", 0, None),          # null text → corrupted
        ("c2", 1, "x"),
        ("c3", 0, "a"),
        ("c3", 2, "b"),           # gap → corrupted
        ("c4", 0, "  "),
        ("c4", 1, ""),            # whitespace only → no_content
    ]
    import pyarrow as pa

    out = _block_df(rows)
    res = _assemble_block(pa.Table.from_pandas(out)).to_pandas().set_index("conv_id")
    assert res.loc["c1", "doc_text"] == "hello world"  # normalized at reassembly
    assert res.loc["c1", "status"] == "ok"
    assert res.loc["c2", "status"] == "corrupted" and res.loc["c2", "doc_text"] == ""
    assert res.loc["c3", "status"] == "corrupted"
    assert res.loc["c4", "status"] == "no_content"
    # parity with the scalar twin on every conversation
    for cid, g in _block_df(rows).groupby("conv_id"):
        texts = [None if pd.isna(t) else t for t in g["text"]]
        doc, status = assemble_group(g["turn_idx"].to_numpy(), texts)
        assert res.loc[cid, "doc_text"] == doc
        assert res.loc[cid, "status"] == status


def test_assemble_block_empty():
    import pyarrow as pa

    res = _assemble_block(
        pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "turn_idx": pa.array([], pa.int64()),
                "text": pa.array([], pa.string()),
            }
        )
    )
    assert res.num_rows == 0
    assert res.column_names == ["conv_id", "doc_text", "n_turns", "status"]


def test_cc_pendant_chains_all_partitionings(ray_session):
    """Regression (stale-pointer bug): pendant nodes attached to long
    chains must converge to the component min at every partition count —
    an edge that contracts to a local self-loop must still deliver the
    merged label to the remote endpoint."""
    import ray.data as rd

    from raydedup.config import DedupConfig
    from raydedup.ray_utils import ensure_hash_shuffle
    from raydedup.stages.components import connected_components

    ensure_hash_shuffle()
    edges = [(f"c{i:03d}", f"c{i + 1:03d}") for i in range(30)]
    edges += [(f"c{i:03d}", f"p{i:03d}") for i in range(1, 31, 3)]  # pendants
    df = pd.DataFrame({"a": [a for a, _ in edges], "b": [b for _, b in edges]})
    expected = "c000"
    for p in (2, 5, 9):
        # gate disabled: this regression targets the distributed propagation
        labels, n_iters = connected_components(
            rd.from_pandas(df), DedupConfig(num_partitions=p, cc_driver_finish_edges=0)
        )
        lp = labels.to_pandas()
        assert n_iters > 0, "must converge"
        assert set(lp["label"]) == {expected}, f"partitions={p}"
        assert len(lp) == len(set(df.a) | set(df.b))


def test_cc_driver_endgame_matches_distributed(ray_session):
    """The size-gated driver endgame must produce byte-identical labels to
    the distributed propagation fixpoint on random graphs (chains, stars,
    isolated pairs, cross-links)."""
    import numpy as np
    import ray.data as rd

    from raydedup.config import DedupConfig
    from raydedup.ray_utils import ensure_hash_shuffle
    from raydedup.stages.components import connected_components

    ensure_hash_shuffle()
    rng = np.random.RandomState(11)
    for trial in range(3):
        n = 120
        m = rng.randint(40, 200)
        a = rng.randint(0, n, size=m)
        b = rng.randint(0, n, size=m)
        keep = a != b
        df = pd.DataFrame(
            {"a": [f"v{x:03d}" for x in a[keep]], "b": [f"v{x:03d}" for x in b[keep]]}
        )
        res = {}
        for gate in (0, 10**6):  # distributed vs driver endgame
            labels, n_iters = connected_components(
                rd.from_pandas(df),
                DedupConfig(num_partitions=3, cc_driver_finish_edges=gate),
            )
            assert n_iters > 0
            res[gate] = (
                labels.to_pandas().sort_values("node").reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(res[0], res[10**6])


def test_size_gated_salting_recall(ray_session):
    """Constant salting can lose a true near-dup pair at a low-band
    config: two docs that differ at minhash[0] (→ different salts) but
    agree on a whole band never share a salted bucket key.  The exact
    size-gated mode (salt_gate_min_bucket > 0) leaves sub-threshold
    buckets unsalted, so the pair is found — while an over-threshold
    mega-bucket of identical signatures still gets the salt split (equal
    signatures share every key, so its pairs survive either way)."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.config import DedupConfig
    from raydedup.functions.hashing import splitmix64
    from raydedup.stages.lsh import candidate_pairs

    base = dict(num_perm=8, bands=2, rows=4, salt_buckets=64)

    # hand-built signatures: A and B agree on band 1 (sig[4:8]) but differ
    # at sig[0], with salts provably different under salt_buckets=64
    sig_a = np.array([11, 21, 31, 41, 101, 102, 103, 104], dtype=np.uint64)
    sig_b = sig_a.copy()
    for cand in range(12, 1000):
        sig_b[0] = cand
        if splitmix64(sig_a[:1])[0] % 64 != splitmix64(sig_b[:1])[0] % 64:
            break
    assert splitmix64(sig_a[:1])[0] % 64 != splitmix64(sig_b[:1])[0] % 64

    # an over-threshold bucket: 30 identical signatures
    mega = np.array([7, 8, 9, 10, 77, 88, 99, 111], dtype=np.uint64)
    rows_ = [
        {"conv_id": "A", "minhash": sig_a.tolist(), "n_shingles": 8},
        {"conv_id": "B", "minhash": sig_b.tolist(), "n_shingles": 8},
    ] + [
        {"conv_id": f"M{i:02d}", "minhash": mega.tolist(), "n_shingles": 8}
        for i in range(30)
    ]
    sigs = rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array([r["conv_id"] for r in rows_]),
                "minhash": pa.array([r["minhash"] for r in rows_], pa.list_(pa.uint64())),
                "n_shingles": pa.array([r["n_shingles"] for r in rows_], pa.int64()),
            }
        )
    )

    def pairs_with(**over):
        cfg = DedupConfig(num_partitions=2, **base, **over)
        got = candidate_pairs(sigs, cfg).to_pandas()
        return set(zip(got["a"], got["b"]))

    constant = pairs_with(salt_gate_min_bucket=0)
    gated = pairs_with(salt_gate_min_bucket=10)

    assert ("A", "B") not in constant          # today's recall factor, demonstrated
    assert ("A", "B") in gated                 # gate removes it
    # the mega-bucket stays connected in BOTH modes
    for pairs in (constant, gated):
        mm = {p for p in pairs if p[0].startswith("M") and p[1].startswith("M")}
        nodes = {x for p in mm for x in p}
        assert len(nodes) == 30, f"mega bucket lost members: {len(nodes)}"


def test_reassemble_combine_parity(ray_session):
    """The map-side-combined, zstd-compressed reassembly path must be
    bit-identical to the uncombined per-turn shuffle — including null
    texts, non-dense turn indices, null turn_idx, whitespace-only docs
    and conversations whose turns span multiple input blocks."""
    import ray.data as rd

    from raydedup.ray_utils import ensure_hash_shuffle
    from raydedup.stages.reassemble import reassemble

    ensure_hash_shuffle()
    rng = np.random.default_rng(7)
    rows = []
    for c in range(300):
        n = int(rng.integers(1, 10))
        for i in rng.permutation(n):
            r = rng.random()
            txt = (
                None
                if r < 0.05
                else ("The  QUICK brown fox. " * int(rng.integers(0, 25)) + f"c{c} t{i}")
            )
            ti = int(i) + (1 if rng.random() < 0.04 else 0)  # occasional gap
            rows.append({"conv_id": f"conv-{c:04d}", "turn_idx": ti, "text": txt})
    rows.append({"conv_id": "conv-ws", "turn_idx": 0, "text": "   \t "})
    rows.append({"conv_id": "conv-nullidx", "turn_idx": None, "text": "x"})
    df = pd.DataFrame(rows).astype({"turn_idx": "Int64"})
    ds = rd.from_pandas(df).repartition(9)

    for gate in (1, 40):
        a = (
            reassemble(ds, 5, gate, combine=False)
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        b = (
            reassemble(ds, 5, gate, combine=True)
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)
    assert set(b["status"]) >= {"ok", "corrupted"}
