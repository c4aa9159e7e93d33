"""Engine configuration.

The reference exposes no config surface — its knobs are module-level
constants (``duplicate_face.py:14`` BATCH_SIZE=6161, ``duplicate_face.py:67``
Euclidean tolerance 0.32, ``face_recognition_custom.py:16-19`` cosine 0.65 /
blur 100).  Here every knob is a field of a frozen dataclass so a pipeline
run is fully described by (input, config) — which is also what the
checkpoint manifests hash (see ``raydedup.state.checkpoint``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class DedupConfig:
    # --- shingling (the "feature extraction"; analog of the 128-d face
    # embedding at duplicate_face.py:44) ---
    shingle_k: int = 5              # tokens per word-shingle
    max_shingles_per_doc: int = 50_000   # cap via smallest-hash sampling; recorded in metrics
    # Mask shingles of turn texts shared verbatim by at least this many
    # distinct conversations (0 = off).  System prompts / canned tool
    # headers are what explode LSH band buckets; dropping their shingles
    # at the signature stage shrinks hot buckets at the source instead of
    # leaving it all to the gated salting (stages/boilerplate.py).
    boilerplate_mask_min_convs: int = 0

    # --- MinHash signature ---
    num_perm: int = 128
    seed: int = 42

    # --- LSH banding: num_perm = bands * rows ---
    bands: int = 32
    rows: int = 4
    # Salted re-partition of band buckets (skew control).  Recall note:
    # equal signatures always share a salt, but a *near*-identical pair can
    # land in different salt sub-buckets — each band's collision chance for
    # a J-similar pair becomes ≈ J + (1-J)/salt_buckets.  At the default 32
    # bands this is negligible (pair recall stays ~1 for J ≥ 0.8); with few
    # bands or high thresholds, lower salt_buckets before lowering bands.
    salt_buckets: int = 4
    # Size-gated salting: 0 (default) salts every band bucket as above.
    # >0 enables an exact two-pass gate — band buckets are first counted
    # (one extra 8-byte-key shuffle over the band rows), and only buckets
    # with at least this many member rows get the salt split.  This
    # removes the ≈(J + (1-J)/salt_buckets) recall factor entirely for
    # low-band / high-threshold configs, where constant salting can lose
    # a true pair whose two docs draw different salts.  Exact counts are
    # partition-invariant, so determinism across partitionings holds.
    salt_gate_min_bucket: int = 0
    bucket_pair_cap: int = 50       # clique emission below this group size; chain above

    # --- verification thresholds (analog of duplicate_face.py:67 tolerance
    # 0.32 / face_recognition_custom.py:18 cosine 0.65) ---
    jaccard_threshold: float = 0.8  # exact-Jaccard match threshold (shared with the oracle)
    verify_mode: str = "exact"      # "exact" (shingle-set Jaccard) | "estimate" (signature agreement)
    est_margin: float = 0.10        # estimate mode: accept est >= jaccard_threshold - est_margin
    # store shingle sets in the signature checkpoint; estimate mode never
    # reads them, so it skips the dominant checkpoint volume
    store_shingles: bool | None = None  # None → (verify_mode == "exact")

    # endpoint semi-filter: before the payload-attach shuffle, the driver
    # collects the distinct pair-endpoint hashes (8 B each) to pre-filter
    # signature rows.  Above this many endpoints the filter is skipped —
    # correctness is unaffected, only shuffle volume grows.
    semi_filter_max_endpoints: int = 10_000_000

    # --- SimHash (secondary fingerprint; cosine analog) ---
    simhash_bits: int = 64
    hamming_threshold: int = 4      # simhash near-dup edge if hamming <= this

    # --- suffix / long-repeat pass (winnowing-style content-defined anchors) ---
    suffix_window: int = 64         # rolling-hash window (bytes)
    suffix_fp_len: int = 320        # fingerprinted span length (bytes) after the anchor window
    suffix_anchor_mod: int = 64     # anchor density: E[gap] = this many bytes
    # spans >= suffix_window + suffix_fp_len + a few anchor gaps are detected
    # w.h.p.; spans <= suffix_window + suffix_fp_len are never detected (this
    # is what keeps shared 200-400 char boilerplate system prompts from
    # producing exact-repeat edges).
    # Docs per winnow-kernel batch.  0 (default) → adaptive:
    # max(256, min(2048, n_docs // (4·cpus))) so small corpora fan out past
    # a handful of tasks while big ones keep the kernel's ~30×-text-bytes
    # working set bounded (output is batch-size invariant either way).
    suffix_batch_size: int = 0

    # --- connected components ---
    max_cc_iters: int = 25
    # Size-gated driver endgame: when the block-contracted directed edge
    # list has at most this many rows AND at most cc_driver_finish_bytes
    # of Arrow data, finish union-find on the driver (one bounded Arrow
    # collect + vectorized min-label relaxation + one broadcast map)
    # instead of paying per-round shuffle fixed costs for O(log diameter)
    # propagation rounds.  0 disables (always distributed).  After
    # two-level contraction the collected rows are STAR edges (≤ 2 per
    # non-root node), so the gate is ∝ duplicated nodes, not raw pairs:
    # measured 1.7 s for a 1.5M-edge endgame, vs ~100 s of near-serial
    # propagation rounds when a 4.6M-edge graph missed the old 4M gate
    # (36M-turn run, BASELINE.md).
    cc_driver_finish_edges: int = 12_000_000
    # Per-partition lineage for the propagation rounds (disk mode, above
    # the driver gate): each CC round runs as a resumable disk exchange —
    # parallel per-kpart tasks with atomic part manifests — so a crash
    # mid-round recomputes only the unfinished parts and completed rounds
    # resume from their stored checksum (stages/components.py,
    # _staged_propagation).  Labels are identical to the in-memory path.
    cc_round_checkpoints: bool = True
    # Rows per propagation partition: star-edge rows are tiny, so rounds
    # partition by DATA size, not cluster size (see the cc_parts note in
    # stages/components.py) — ~500k rows ≈ 30 MB keeps blocks worker-sized
    # without starving parallelism just above the driver gate.
    cc_rows_per_part: int = 500_000
    # Companion byte gate: the endgame collects the edge list as Arrow
    # string arrays (never per-row Python objects), but its peak driver
    # transient is ~3-4× the collected Arrow bytes (the two-column concat
    # fed to dictionary_encode plus int64 code/label arrays).  At the
    # defaults (12M rows × 2 × ~20 B ids ≈ 0.5 GiB Arrow) peak driver
    # RSS is ~2 GiB — the gate exists so unusually long node ids can't
    # silently multiply that.  Sized for a driver with >= 8 GiB free.
    cc_driver_finish_bytes: int = 768 * 2**20

    # --- execution sizing ---
    sig_batch_size: int = 1024      # docs per signature-actor batch
    sig_concurrency: tuple = (2, 8) # signature actor pool (min, max)
    num_partitions: int = 32        # hash-shuffle partitions for every wide op
                                    # (size to ~cluster cores at real scale)

    # per-partition checkpoint lineage for the signature stage: the docs
    # checkpoint's files split into this many independently-persisted,
    # independently-resumable parts (1 disables partitioning)
    checkpoint_parts: int = 4

    # Per-partition lineage for the minhash-verify pair stage (disk mode):
    # candidate-pair rows are mutually independent, so the candidates
    # checkpoint's files split into this many independently-verified,
    # independently-persisted parts — a crash mid-verification resumes
    # from the completed part-i/ dirs.  Each part re-reads the signature
    # checkpoint (its shuffle volume stays bounded by the part's own
    # endpoints via the semi-filter), so >1 trades ~K× signature-read I/O
    # for K× finer resume — the right trade on long multi-node runs,
    # overhead on small single-node ones.  1 (default) keeps the stage a
    # single execution.
    pair_checkpoint_parts: int = 1

    # "disk" (default): every stage persists resumable Parquet checkpoints.
    # "memory": ephemeral one-shot mode — stage boundaries materialize in
    # the object store instead (no parquet round-trip, no resume); the
    # right choice for runs whose outputs are consumed immediately.
    checkpoint_mode: str = "disk"

    # parquet codec for checkpoint files: zstd halves the text-heavy
    # stages' bytes vs the snappy default for negligible encode cost,
    # directly cutting the shared-disk I/O that dominates the
    # worst-scaling stages (BASELINE.md stage decomposition)
    checkpoint_compression: str = "zstd"

    # In memory mode, the three edge stages (minhash/suffix/simhash) fuse
    # into the pair-dedup execution when the corpus has at most this many
    # docs: small runs save three executor/aggregator spin-ups.  Above it
    # they materialize one at a time — fusing makes their shuffles run
    # CONCURRENTLY, and at 12M-turn scale the ~3× peak object-store
    # footprint spills and costs ~25% wall (measured, BASELINE.md).
    fuse_edges_max_docs: int = 100_000

    # The per-status cluster counts (metrics surface) are a k-row answer
    # over the clusters table; below this many rows the fold runs as one
    # driver-side single-column parquet scan of the clusters checkpoint
    # (sub-second, no executor spin-up) instead of a distributed
    # map + fold execution.  Above it — real 100-TB runs — the
    # distributed fold runs unchanged.  Same size-gated-driver-endgame
    # posture as cc_driver_finish_edges.
    status_fold_driver_max_rows: int = 20_000_000

    # In disk mode, the same three independent edge stages CAN execute
    # concurrently (driver threads, one write_parquet each) when the
    # corpus has at most this many docs.  Default 0 = disabled: the
    # measured A/B at sf0.1 (20k docs, 32 cpus, idle host) is 58.8 s
    # parallel vs 42.6 s serial — three concurrent streaming executions
    # on one Ray cluster contend (each edge stage 21-24 s concurrent vs
    # 3-6 s serial), costing far more than the overlapped fixed costs
    # save.  The mechanism stays for multi-node clusters where sibling
    # executions land on disjoint resources.
    parallel_edges_max_docs: int = 0

    # optional CSV report sinks (S6/S7/S10 full surface parity: the
    # reference emits duplicates/unique CSV reports,
    # duplicate_face.py:114-134): pairs and clusters additionally export
    # as CSV under <out>/csv/ — a convenience export, not a checkpoint
    # (never read back for resume; parquet remains the engine format)
    emit_csv_reports: bool = False

    # optional artifact sink (S11 analog: the reference saves every
    # detected face crop, face_recognition_custom.py:95-100): per-doc
    # extracted-feature debug table written under <out>/artifacts
    emit_artifacts: bool = False
    artifact_top_k: int = 8         # smallest shingle hashes kept per doc

    # Map-side combine + zstd compression for the reassembly shuffle
    # (shuffle 1, the engine's only raw-text shuffle): per-conv partial
    # rows with compressed payloads replace raw per-turn rows — identical
    # docs output (parity-pinned), 1.64× fewer shuffle bytes and 8.5×
    # fewer shuffle rows (measured, 12M turns).  DISABLED by default
    # after a clean 36M-turn A/B measured it a loss on this single-node
    # proxy: docs stage 67.7 s plain vs 166.6 s combined — the extra
    # map-side sort + per-group codec calls cost more than the
    # shared-memory object-store exchange saves (BASELINE.md round-4
    # notes).  Enable on genuinely network-bound multi-node shuffles,
    # where bytes-on-the-wire dominate and the combine's CPU is idle
    # map-side headroom.
    combine_reassembly: bool = False

    # --- quality gates (analog of the blur gate face_recognition_custom.py:73-77) ---
    min_doc_chars: int = 1          # normalized docs shorter than this -> status 'no_content'

    def __post_init__(self):
        if self.bands * self.rows != self.num_perm:
            raise ValueError(
                f"bands*rows must equal num_perm: {self.bands}*{self.rows} != {self.num_perm}"
            )
        if self.verify_mode not in ("exact", "estimate"):
            raise ValueError(f"bad verify_mode {self.verify_mode!r}")
        if self.checkpoint_mode not in ("disk", "memory"):
            raise ValueError(f"bad checkpoint_mode {self.checkpoint_mode!r}")
        if self.store_shingles is None:
            object.__setattr__(self, "store_shingles", self.verify_mode == "exact")
        if self.verify_mode == "exact" and not self.store_shingles:
            raise ValueError("verify_mode='exact' requires store_shingles=True")

    def config_hash(self) -> str:
        """Stable hash of the config; part of every checkpoint manifest."""
        d = asdict(self)
        d["sig_concurrency"] = list(d["sig_concurrency"])
        blob = json.dumps(d, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]
