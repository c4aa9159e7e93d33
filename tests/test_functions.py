"""Unit tests for the numeric kernels (SURVEY.md §5 item 2)."""

import numpy as np
import pyarrow as pa

from raydedup.functions.hashing import hash_strings, hash_tokens, poly_window_hash, splitmix64
from raydedup.functions.minhash import MinHasher, estimate_jaccard
from raydedup.functions.shingle import batch_shingles, doc_shingles, exact_jaccard
from raydedup.functions.simhash import hamming64, simhash64
from raydedup.functions.textnorm import normalize_array, normalize_text
from raydedup.functions.winnow import span_fingerprints


def test_normalize_idempotent_and_vectorized_matches_scalar():
    texts = ["  Hello   WORLD \t x ", "a\nb\nc", "", "ünïcode  Ünïcode"]
    arr = normalize_array(pa.array(texts))
    for raw, got in zip(texts, arr.to_pylist()):
        assert got == normalize_text(raw)
        assert normalize_text(got) == got  # idempotent


def test_normalize_null_safe():
    arr = normalize_array(pa.array(["a", None, " B "]))
    assert arr.to_pylist() == ["a", None, "b"]


def test_hashing_deterministic():
    toks = ["alpha", "beta", "alpha2"]
    h1, h2 = hash_tokens(toks), hash_tokens(toks)
    assert np.array_equal(h1, h2)
    assert len(set(h1.tolist())) == 3
    assert np.array_equal(hash_strings(["xy", "z"]), hash_strings(["xy", "z"]))
    assert splitmix64(np.array([1, 2], dtype=np.uint64))[0] != splitmix64(np.array([2], dtype=np.uint64))[0]


def test_poly_window_hash_positions():
    codes = hash_tokens(list("abcdefg"))
    h = poly_window_hash(codes, 3)
    assert len(h) == 5
    # identical windows hash identically
    codes2 = hash_tokens(list("abcabc"))
    h2 = poly_window_hash(codes2, 3)
    assert h2[0] == h2[3]


def test_shingles_batch_matches_scalar_and_short_docs():
    texts = ["one two three four five six", "tiny doc", "", None]
    sets, capped = batch_shingles(texts, k=5)
    assert not capped.any()
    assert np.array_equal(sets[0], doc_shingles(texts[0], 5))
    assert len(sets[0]) == 2  # 6 tokens, k=5 → 2 shingles
    assert len(sets[1]) == 1  # shorter than k → one whole-doc shingle
    assert len(sets[2]) == 0 and len(sets[3]) == 0


def test_shingle_cap_deterministic():
    text = " ".join(f"w{i}" for i in range(2000))
    a, ca = batch_shingles([text], k=5, max_shingles=100)
    b, cb = batch_shingles([text], k=5, max_shingles=100)
    assert ca[0] and cb[0]
    assert np.array_equal(a[0], b[0]) and len(a[0]) == 100


def test_minhash_unbiased_estimate():
    rng = np.random.RandomState(0)
    mh = MinHasher(num_perm=256, seed=7)
    universe = rng.randint(0, 2**63, size=3000).astype(np.uint64)
    a = np.unique(universe[:2000])
    b = np.unique(universe[1000:])
    true_j = exact_jaccard(np.sort(a), np.sort(b))
    est = estimate_jaccard(mh.signature(a), mh.signature(b))
    assert abs(est - true_j) < 0.08  # 256 perms → std ≈ 0.03


def test_minhash_identical_and_disjoint():
    mh = MinHasher(128, 42)
    a = np.unique(np.arange(100, dtype=np.uint64) * np.uint64(2654435761))
    assert estimate_jaccard(mh.signature(a), mh.signature(a)) == 1.0
    b = a + np.uint64(1)
    assert estimate_jaccard(mh.signature(a), mh.signature(b)) < 0.1


def test_simhash_monotone_with_overlap():
    rng = np.random.RandomState(1)
    base = rng.randint(0, 2**63, size=1000).astype(np.uint64)
    near = np.concatenate([base[:950], rng.randint(0, 2**63, size=50).astype(np.uint64)])
    far = rng.randint(0, 2**63, size=1000).astype(np.uint64)
    s0, s1, s2 = simhash64(base), simhash64(near), simhash64(far)
    d_near = hamming64(np.array([s0]), np.array([s1]))[0]
    d_far = hamming64(np.array([s0]), np.array([s2]))[0]
    assert d_near < d_far
    assert hamming64(np.array([s0]), np.array([s0]))[0] == 0


def test_winnow_shared_long_span_detected_but_short_not():
    rng = np.random.RandomState(3)
    words = lambda n: " ".join("w%04d" % rng.randint(5000) for _ in range(n))
    span = words(140)  # ~900 chars
    doc_a = words(200) + " " + span + " " + words(150)
    doc_b = words(180) + " " + span + " " + words(120)
    fa = span_fingerprints(doc_a)
    fb = span_fingerprints(doc_b)
    assert len(np.intersect1d(fa, fb)) > 0
    # 300-char shared span (boilerplate scale) → no shared fingerprint, ever
    short = words(45)[:300]
    doc_c = words(200) + " " + short + " " + words(150)
    doc_d = words(180) + " " + short + " " + words(120)
    assert len(np.intersect1d(span_fingerprints(doc_c), span_fingerprints(doc_d))) == 0


def test_span_fingerprints_flat_bit_identical_to_scalar():
    import pyarrow as pa

    from raydedup.functions.winnow import (
        span_fingerprints,
        span_fingerprints_flat,
        utf8_flat_bytes,
    )

    rng = np.random.RandomState(11)
    vocab = ["alpha", "beta", "gamma", "δélta", "ε", "zeta?"]
    shared = " ".join(rng.choice(vocab, 200))  # long span two docs share
    docs = [
        "",  # empty
        None,  # null
        "short doc",  # below window+fp_len
        " ".join(rng.choice(vocab, 150)),
        shared + " " + " ".join(rng.choice(vocab, 40)),
        " ".join(rng.choice(vocab, 30)) + " " + shared,
        "日本語テキスト " * 120,  # multi-byte utf-8
    ]
    w, fl, mod = 16, 48, 4
    arr = pa.chunked_array([pa.array(docs[:3], pa.string()), pa.array(docs[3:], pa.string())])
    data, offsets = utf8_flat_bytes(arr)
    d_idx, fps = span_fingerprints_flat(data, offsets, w, fl, mod)
    for i, t in enumerate(docs):
        expect = span_fingerprints(t or "", w, fl, mod)
        got = fps[d_idx == i]
        np.testing.assert_array_equal(got, expect)
    # the two shared-span docs overlap in fingerprints
    assert len(np.intersect1d(fps[d_idx == 4], fps[d_idx == 5])) > 0
    # sliced (offset != 0) arrays read the right bytes
    sl = arr.combine_chunks().slice(3, 3)
    data2, off2 = utf8_flat_bytes(sl)
    d2, f2 = span_fingerprints_flat(data2, off2, w, fl, mod)
    np.testing.assert_array_equal(f2[d2 == 0], span_fingerprints(docs[3], w, fl, mod))
