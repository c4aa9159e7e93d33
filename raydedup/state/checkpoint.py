"""Stage-boundary checkpoints with lineage manifests.

The reference re-writes cumulative results after every batch but cannot
resume — on crash all in-memory state is lost and the run restarts from
zero (``duplicate_face.py:195-196``, state at ``:147-155``).  Here every
stage writes partitioned Parquet atomically (write to ``<name>.tmp-*`` →
rename) with a ``_MANIFEST.json`` recording the config hash, the input
fingerprint (upstream lineage chain) and row counters; a rerun with the
same lineage reads the checkpoint instead of recomputing — this is what
lets the pipeline resume mid-shuffle without recomputing signatures
(north rule).
"""

from __future__ import annotations

from raydedup.ray_utils import read_parquet_clean

import hashlib
import json
import os
import shutil
import time
import uuid


class CheckpointStore:
    def __init__(self, out_dir: str, config_hash: str, input_fingerprint: str,
                 mode: str = "disk", compression: str = "zstd"):
        self.out_dir = out_dir
        self.config_hash = config_hash
        self.lineage = input_fingerprint  # grows as a hash chain, stage by stage
        self.events: list[dict] = []      # (stage, action, rows) for metrics/tests
        # "memory": ephemeral one-shot mode — stage boundaries are
        # object-store materializations (multiple consumers read the same
        # blocks, nothing recomputes), no parquet round-trip, no resume
        self.mode = mode
        # zstd halves checkpoint bytes vs parquet's snappy default on the
        # text-heavy stages (docs/signatures: 4.8 -> 2.3 MB per sample
        # block, measured) for negligible encode cost — checkpoint I/O is
        # the engine's worst-scaling resource on shared disk
        self.compression = compression
        self._mem: dict = {}
        self._rows: dict = {}  # stage -> manifest row count (disk mode)
        os.makedirs(out_dir, exist_ok=True)

    def _manifest_path(self, name):
        return os.path.join(self.out_dir, name, "_MANIFEST.json")

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def read(self, name: str, columns: list | None = None):
        """Column-pruned read of a completed stage checkpoint.

        Ray Data does not push ``select_columns`` down into
        ``read_parquet`` here, so consumers that need a narrow slice of a
        wide checkpoint (e.g. signatures without the shingle sets) must
        prune at the read."""
        import ray.data as rd

        if self.mode == "memory":
            ds = self._mem[name]
            return ds.select_columns(columns) if columns else ds
        if self._rows.get(name) == 0 and not _parquet_files(self.path(name)):
            # a 0-row shuffle output has no schema, so its checkpoint holds
            # no parquet file: it reads back as a zero-block Dataset
            return rd.from_items([])
        return read_parquet_clean(self.path(name), columns=columns)

    def _valid(self, name: str, lineage: str) -> dict | None:
        """The stage manifest if it is valid at ``lineage`` (row count
        remembered for ``read``), else None."""
        m = _valid_manifest(self._manifest_path(name), self.config_hash, lineage)
        if m is not None:
            self._rows[name] = m["rows"]
        return m

    def _manifest(self, name: str, lineage: str, rows: int, **fields) -> dict:
        return {"stage": name, **fields, "config_hash": self.config_hash,
                "lineage": lineage, "rows": rows, "created_at": time.time()}

    def _advance(self, name: str) -> None:
        """Extend the lineage hash chain past stage ``name``.  Every entry
        point calls this exactly once per stage, whether the stage was
        computed, resumed or fused, so a checkpoint's manifest lineage is
        its position in the chain and never depends on how its upstream
        stages ran."""
        self.lineage = hashlib.sha256(
            f"{self.lineage}|{name}|{self.config_hash}".encode()
        ).hexdigest()[:16]

    def _persist(self, name: str, ds, lineage: str,
                 partition_cols: list | None = None) -> int:
        """Write ``ds`` to the stage checkpoint atomically (tmp → rename)
        with its manifest; returns the row count.  Thread-safe across
        distinct stage names (independent dirs, no shared state)."""
        target = self.path(name)
        tmp = f"{target}.tmp-{uuid.uuid4().hex[:8]}"
        ds.write_parquet(tmp, compression=self.compression,
                         partition_cols=partition_cols)
        _ensure_nonempty_parquet(tmp, ds)
        rows = self._rows[name] = _parquet_rows(tmp)
        _write_manifest(os.path.join(tmp, "_MANIFEST.json"),
                        self._manifest(name, lineage, rows))
        if os.path.exists(target):
            shutil.rmtree(target)
        os.rename(tmp, target)
        return rows

    def stage(self, name: str, compute_fn, ray_module=None,
              partition_cols: list | None = None):
        """Return a Dataset for ``name``: resumed from a valid checkpoint, or
        computed via ``compute_fn()`` and persisted atomically.

        ``partition_cols`` hive-partitions the written checkpoint (disk mode
        only) — used by the resumable pair stages so a downstream
        ``partitioned_map_stage(..., group_by_dir=True)`` gets key-closed
        ``kpart=i/`` part directories.

        Advances the lineage chain either way, so downstream validity
        depends on every upstream stage's identity.
        """
        t0 = time.time()
        if self.mode == "memory":
            ds = compute_fn().materialize()
            rows = ds.count()
            self._mem[name] = ds
            self.events.append(
                {"stage": name, "action": "computed", "rows": rows,
                 "sec": round(time.time() - t0, 2)}
            )
            self._advance(name)
            return ds
        m = self._valid(name, self.lineage)
        if m is not None:
            self.events.append(
                {"stage": name, "action": "resumed", "rows": m["rows"], "sec": 0.0}
            )
        else:
            rows = self._persist(name, compute_fn(), self.lineage,
                                 partition_cols=partition_cols)
            self.events.append(
                {
                    "stage": name,
                    "action": "computed",
                    "rows": rows,
                    "sec": round(time.time() - t0, 2),
                }
            )
        self._advance(name)
        return self.read(name)


    def lazy_stage(self, name: str, compute_fn):
        """``fused_stage`` in memory mode, ``stage`` in disk mode: for
        stages consumed exactly once downstream, where a memory-mode
        stage-boundary materialization is pure overhead but a disk
        checkpoint still buys finer-grained resume.  Never use for a stage
        with multiple consumers or one whose consumer calls
        ``count``/``take_all`` on it more than once.  In memory mode the
        stage is NOT registered in the in-memory store, so
        ``store.read(name)`` raises KeyError — consumers must use the
        returned handle."""
        if self.mode != "memory":
            return self.stage(name, compute_fn)
        return self.fused_stage(name, compute_fn)

    def fused_stage(self, name: str, compute_fn):
        """Fuse this stage into its consumer's execution in EVERY mode:
        no checkpoint, no materialization — the returned Dataset is the
        lazy operator graph, and the consumer's execution pipelines it
        (one executor + one set of shuffle-aggregator spin-ups instead of
        two, and no parquet round-trip).  For cheap-to-recompute
        intermediates with exactly one consumer, where the resume
        boundary costs more than it saves: a crash in the consumer stage
        recomputes this stage from its own upstream checkpoint.  Lineage
        advances exactly as ``stage`` would, so the fused/persisted
        choice never invalidates downstream checkpoints.  Fused events
        carry no row count or timing (``rows=-1``); metrics consumers
        skip them."""
        ds = compute_fn()
        self.events.append({"stage": name, "action": "fused", "rows": -1})
        self._advance(name)
        return ds

    def parallel_stages(self, specs: list) -> dict:
        """Execute independent sibling stages concurrently (disk mode):
        ``specs`` is a list of (name, compute_fn) with no data dependency
        between them.  Returns {name: Dataset}.

        Resume identity is unchanged: each stage's manifest lineage is its
        position in the SEQUENTIAL chain (captured before anything runs),
        so checkpoints written here validate against a later sequential
        run and vice versa.  Dataset graphs are constructed on the
        caller's thread (lazy and cheap — and Dataset construction from
        concurrent driver threads races a lazy fsspec import inside Ray's
        path resolution); only the executions (``write_parquet``) run in
        threads.  Memory mode falls back to sequential ``stage`` calls.
        """
        from concurrent.futures import ThreadPoolExecutor

        if self.mode == "memory" or len(specs) <= 1:
            return {name: self.stage(name, fn) for name, fn in specs}
        _harden_ray_http_fs_check()
        entry_lineage = {}
        for name, _fn in specs:
            entry_lineage[name] = self.lineage
            self._advance(name)
        out, jobs = {}, []
        for name, fn in specs:
            m = self._valid(name, entry_lineage[name])
            if m is not None:
                self.events.append(
                    {"stage": name, "action": "resumed", "rows": m["rows"], "sec": 0.0}
                )
                out[name] = self.read(name)
            else:
                jobs.append((name, fn()))  # lazy graph built on this thread

        def run(job):
            name, ds = job
            t0 = time.time()
            rows = self._persist(name, ds, entry_lineage[name])
            return name, rows, time.time() - t0

        if jobs:
            with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
                for name, rows, sec in ex.map(run, jobs):
                    self.events.append(
                        {"stage": name, "action": "computed", "rows": rows,
                         "sec": round(sec, 2)}
                    )
                    out[name] = self.read(name)
        return {name: out[name] for name, _fn in specs}

    def partitioned_map_stage(self, name: str, input_name: str, make_ds_fn,
                              n_parts: int, group_by_dir: bool = False):
        """Per-partition resumable stage over the files of an upstream
        checkpoint.  Sound for any transform where input ROWS are mutually
        independent — narrow maps (signatures) but also sub-DAGs with
        internal shuffles (the minhash pair verification, whose candidate
        rows don't interact) — because the parts' union then equals the
        single-execution output.  NOT sound for transforms that group
        upstream rows across the whole input (e.g. LSH bucketing), UNLESS
        the upstream checkpoint was hive-partitioned by a pure function of
        the grouping key (``stage(..., partition_cols=["kpart"])``): then
        ``group_by_dir=True`` makes each part one ``kpart=i/`` directory,
        key groups never span parts, and a per-part re-shuffle + group is
        exact (the resumable suffix/simhash pair stages).

        The upstream checkpoint's parquet files are split into up to
        ``n_parts`` deterministic groups; each part computes and persists
        independently (``part-i/`` containing its own ``_PART_MANIFEST.json``
        with the part's input-file fingerprint), so a crash mid-stage loses
        only the unfinished parts — the north rule's per-partition lineage:
        a resumed run recomputes exactly the missing parts, never completed
        signatures.  Parts run as sequential executions: each part's map
        tasks already fan out across the whole cluster, so inter-part
        concurrency would only hide the ~1s per-execution fixed cost (and
        concurrent Dataset construction from driver threads races a lazy
        fsspec import inside Ray's path resolution).

        ``make_ds_fn(files) -> Dataset`` builds the per-part transform from
        a list of input parquet paths.
        """
        import glob

        if self.mode == "memory":
            raise ValueError(
                "partitioned_map_stage requires disk checkpoints; callers gate "
                "on checkpoint_mode"
            )
        target = self.path(name)
        t0 = time.time()
        if self._valid(name, self.lineage) is not None:
            self.events.append(
                {"stage": name, "action": "resumed",
                 "rows": self._rows[name], "sec": 0.0}
            )
        else:
            files = sorted(
                glob.glob(os.path.join(self.path(input_name), "**", "*.parquet"),
                          recursive=True)
            )
            if group_by_dir:
                # one part per hive partition directory of the upstream
                # checkpoint (key-closed by construction); files directly at
                # the checkpoint root (e.g. the empty-dataset placeholder)
                # form one extra part
                root = self.path(input_name)
                by_dir: dict = {}
                for f in files:
                    by_dir.setdefault(os.path.relpath(os.path.dirname(f), root), []).append(f)
                groups = [by_dir[d] for d in sorted(by_dir)] or [[]]
                n_parts = len(groups)
            else:
                n_parts = max(1, min(n_parts, len(files)))
                groups = [files[i::n_parts] for i in range(n_parts)]
            os.makedirs(target, exist_ok=True)
            # clear foreign part dirs (e.g. from a run with different n_parts)
            valid_names = {f"part-{i}" for i in range(n_parts)}
            for entry in os.listdir(target):
                p = os.path.join(target, entry)
                if entry not in valid_names and os.path.isdir(p):
                    shutil.rmtree(p)

            def run_part(i: int) -> int:
                part_dir = os.path.join(target, f"part-{i}")
                pm_path = os.path.join(part_dir, "_PART_MANIFEST.json")
                fp = _files_fingerprint(groups[i])
                if _valid_manifest(pm_path, self.config_hash, self.lineage, fp):
                    return 0  # completed before the crash — skip
                if os.path.exists(part_dir):
                    shutil.rmtree(part_dir)
                ds_i = make_ds_fn(groups[i])
                tmp = f"{part_dir}.tmp-{uuid.uuid4().hex[:8]}"
                ds_i.write_parquet(tmp, compression=self.compression)
                _ensure_nonempty_parquet(tmp, ds_i)
                _write_manifest(
                    os.path.join(tmp, "_PART_MANIFEST.json"),
                    self._manifest(name, self.lineage, _parquet_rows(tmp),
                                   part=i, n_parts=n_parts, input_fp=fp),
                )
                os.rename(tmp, part_dir)
                return 1

            computed = sum(run_part(i) for i in range(n_parts))
            rows = self._rows[name] = _parquet_rows(target)
            _write_manifest(self._manifest_path(name),
                            self._manifest(name, self.lineage, rows, n_parts=n_parts))
            self.events.append(
                {
                    "stage": name,
                    "action": "computed",
                    "rows": rows,
                    "sec": round(time.time() - t0, 2),
                    "parts_computed": computed,
                    "parts_resumed": n_parts - computed,
                }
            )
        self._advance(name)
        return self.read(name)


def _harden_ray_http_fs_check() -> None:
    """Make Ray's per-write ``_is_http_filesystem`` probe thread-safe.

    Ray resolves every read/write path through ``_is_http_filesystem``,
    which attempts ``from fsspec.implementations.http import
    HTTPFileSystem`` and catches only ``ModuleNotFoundError``.  Without
    aiohttp that import fails every time (never cached), and when two
    driver threads attempt it concurrently one can observe the other's
    partially-initialized module — raising a plain ``ImportError``
    ("cannot import name 'HTTPFileSystem'") that Ray does not catch,
    crashing an otherwise-healthy ``write_parquet``.  Any ImportError
    there means no HTTPFileSystem can exist, so the correct answer is
    False; wrap the probe accordingly (idempotent)."""
    from ray.data.datasource import path_util

    orig = getattr(path_util._is_http_filesystem, "__wrapped__", None)
    if orig is not None:
        return  # already hardened
    orig = path_util._is_http_filesystem

    def _safe_is_http_filesystem(fs):
        try:
            return orig(fs)
        except ImportError:
            return False

    _safe_is_http_filesystem.__wrapped__ = orig
    path_util._is_http_filesystem = _safe_is_http_filesystem


def _valid_manifest(path: str, config_hash: str, lineage: str,
                    input_fp: str | None = None) -> dict | None:
    """The checkpoint manifest rule: the JSON manifest at ``path`` if it
    parses and records this config hash and lineage (and, for a part, this
    input-file fingerprint), else None."""
    try:
        with open(path) as f:
            m = json.load(f)
    except (OSError, ValueError):
        return None
    want = {"config_hash": config_hash, "lineage": lineage}
    if input_fp is not None:
        want["input_fp"] = input_fp
    return m if all(m.get(k) == v for k, v in want.items()) else None


def _write_manifest(path: str, manifest: dict) -> None:
    """Write a manifest atomically (tmp file → rename); the ``_`` prefix
    keeps a crash's leftover tmp file out of every parquet read."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, path)


def _ensure_nonempty_parquet(path: str, ds) -> None:
    """A 0-row ``write_parquet`` produces no directory and no files, which
    would make the checkpoint unreadable on resume — materialize the
    schema as one empty parquet file instead.  A 0-row hash-shuffle output
    has no schema; its checkpoint stays an empty directory, which
    ``CheckpointStore.read`` serves as a zero-block Dataset."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    if _parquet_files(path):
        return
    schema = ds.schema()
    if schema is not None:
        pq.write_table(schema.base_schema.empty_table(),
                       os.path.join(path, "empty-0.parquet"))


def _files_fingerprint(files: list) -> str:
    """Identity of a specific input-file group: names + sizes + ns-mtimes."""
    entries = []
    for fp in files:
        st = os.stat(fp)
        entries.append(f"{os.path.basename(fp)}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.sha256("|".join(entries).encode()).hexdigest()[:16]


def _parquet_files(path: str) -> list:
    return [os.path.join(root, f) for root, _dirs, files in os.walk(path)
            for f in files if f.endswith(".parquet")]


def _parquet_rows(path: str) -> int:
    """Row count from parquet footers (no Ray execution)."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in _parquet_files(path))


def input_fingerprint(path: str) -> str:
    """Cheap content identity for an input file/dir: names + sizes +
    nanosecond mtimes.  The walk order is made deterministic (sorted dirs
    and files) so identical inputs never fingerprint differently across
    filesystems, and ``st_mtime_ns`` granularity means an in-place rewrite
    within the same second cannot falsely validate a stale checkpoint."""
    entries = []
    if os.path.isdir(path):
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for f in sorted(files):
                fp = os.path.join(root, f)
                st = os.stat(fp)
                entries.append(f"{os.path.relpath(fp, path)}:{st.st_size}:{st.st_mtime_ns}")
    else:
        st = os.stat(path)
        entries.append(f"{os.path.basename(path)}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.sha256("|".join(entries).encode()).hexdigest()[:16]
