//! The epoch-based ingest engine: queue → WAL → snapshot swap, split
//! into user-id-range shards.
//!
//! [`IngestEngine`] splits the live path into `N` shards, each owning a
//! bounded queue slice, its own WAL directory (`<wal dir>/shard-<k>/`),
//! and an independent dirty-user set. Records route to shards by a
//! **stable** hash of the user id ([`shard_of`]); the hash is an
//! on-disk compatibility contract — it must not change across
//! releases, or restart recovery would reroute entries away from the
//! checkpoints that cover them.
//!
//! Determinism is preserved by keeping ordering decisions global while
//! distributing only the work:
//!
//! - sequence numbers are assigned from one global counter at submit,
//!   so the union of all shard queues always reconstructs the exact
//!   submit order (venue interning in `merge_records` is
//!   order-sensitive);
//! - epochs drain every shard and merge/re-prepare over the seq-sorted
//!   union, then fan the expensive re-mining out **per shard** on
//!   [`parallel_map_with_index`], splicing results back in prepared
//!   user order — byte-identical to a cold rebuild for any shard count
//!   and any [`Parallelism`] policy.
//!
//! Crash recovery opens every `shard-*` directory (plus any
//! pre-sharding log in the WAL root), unions the surviving entries by
//! sequence number, cold-builds epoch 0, and rewrites one checkpoint
//! per shard whose header is that shard's **watermark** (the highest
//! sequence applied from it). A torn tail in one shard truncates only
//! that shard's un-checkpointed suffix; the other shards' records —
//! including ones with higher sequence numbers — survive replay.

use crate::shard::{
    effective_shards, legacy_log_files, shard_of, shard_wal_config, stale_shard_dirs,
};
use crate::{
    CrowdHistory, EpochInfo, EpochMode, EpochReport, IngestError, IngestStats, PlatformSnapshot,
    ShardStats, SubmitReceipt, Wal, WalConfig, WalEntry,
};
use crowdweb_crowd::{CrowdBuilder, CrowdDelta, CrowdModel, PipelineDriver, TimeWindows};
use crowdweb_dataset::{Dataset, MergeRecord, UserId};
use crowdweb_exec::{parallel_map_with_index, EpochCell, Parallelism};
use crowdweb_geo::BoundingBox;
use crowdweb_mobility::{PatternMiner, UserPatterns};
use crowdweb_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, EPOCH_LATENCY_BUCKETS, SHARD_FANOUT_SECONDS,
};
use crowdweb_prep::{PrepUpdate, Prepared, Preprocessor, UserView};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Everything the engine needs to build and rebuild snapshots.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Preprocessing configuration (window, filter, slotting, labels).
    pub preprocessor: Preprocessor,
    /// Relative mining support threshold.
    pub min_support: f64,
    /// Display windows of the crowd model.
    pub windows: TimeWindows,
    /// Display grid bounds.
    pub bounds: BoundingBox,
    /// Display grid rows.
    pub grid_rows: u32,
    /// Display grid columns.
    pub grid_cols: u32,
    /// Execution policy threaded through every parallel stage.
    pub parallelism: Parallelism,
    /// Bounded queue capacity, split evenly across the shards: each
    /// shard queues at most `queue_capacity.div_ceil(shards)` records.
    /// The rounding means the engine-wide `queue_capacity` reported by
    /// [`IngestEngine::stats`] (`/ingest/stats`) can exceed this value,
    /// and a batch skewed onto one shard is rejected whole with
    /// [`IngestError::Backpressure`] at that shard's bound even when
    /// the engine-wide total would fit.
    pub queue_capacity: usize,
    /// When set, accepted records are logged durably and replayed on
    /// [`IngestEngine::open`].
    pub wal: Option<WalConfig>,
    /// When set, the engine records ingest metrics (queue depth, WAL
    /// bytes, epoch latency) and threads the registry through the
    /// pipeline stages. Never affects snapshot contents.
    pub metrics: Option<MetricsRegistry>,
    /// Shard count: `0` (the default) resolves to the machine's
    /// available parallelism, capped at
    /// [`MAX_SHARDS`](crate::shard::MAX_SHARDS).
    pub shards: usize,
    /// How many published epochs the engine's
    /// [`CrowdHistory`](crate::CrowdHistory) retains for the server's
    /// `?epoch=N` time travel. Clamped to ≥ 1 (the latest epoch is
    /// always retained).
    pub history_depth: usize,
    /// Force a full checkpoint (instead of a delta splice) into the
    /// epoch history every this-many epochs, bounding reconstruction
    /// chains. Clamped to ≥ 1.
    pub checkpoint_every: u64,
}

impl Default for IngestConfig {
    /// Mirrors the server defaults: paper preprocessor, 0.15 support,
    /// hourly windows, 20 × 20 NYC grid, auto parallelism, a 65 536
    /// record queue, no WAL, one shard per available core, 16 retained
    /// history epochs with a checkpoint every 8.
    fn default() -> IngestConfig {
        IngestConfig {
            preprocessor: Preprocessor::new(),
            min_support: 0.15,
            windows: TimeWindows::hourly(),
            bounds: BoundingBox::NYC,
            grid_rows: 20,
            grid_cols: 20,
            parallelism: Parallelism::Auto,
            queue_capacity: 65_536,
            wal: None,
            metrics: None,
            shards: 0,
            history_depth: 16,
            checkpoint_every: 8,
        }
    }
}

impl IngestConfig {
    fn driver(&self) -> Result<PipelineDriver, IngestError> {
        Ok(PipelineDriver::new(self.min_support)?
            .preprocessor(self.preprocessor)
            .windows(self.windows.clone())
            .grid(self.bounds, self.grid_rows, self.grid_cols)
            .parallelism(self.parallelism)
            .metrics(self.metrics.clone()))
    }

    fn miner(&self) -> Result<PatternMiner, IngestError> {
        Ok(PatternMiner::new(self.min_support)
            .map_err(crowdweb_crowd::PipelineError::Mobility)?
            .parallelism(self.parallelism)
            .metrics(self.metrics.clone()))
    }
}

/// Pre-registered handles for the engine's hot-path metrics, so submits
/// and epochs never touch the registry's family table. The per-shard
/// vectors are indexed by shard (a bounded `shard` label).
#[derive(Debug)]
struct IngestMetrics {
    registry: MetricsRegistry,
    accepted: Counter,
    wal_bytes: Counter,
    wal_records: Counter,
    queue_depth: Gauge,
    epoch_seconds: Histogram,
    dirty_users: Gauge,
    shard_queue_depth: Vec<Gauge>,
    shard_dirty_users: Vec<Gauge>,
    shard_fanout_seconds: Vec<Histogram>,
}

impl IngestMetrics {
    fn new(registry: MetricsRegistry, shards: usize) -> IngestMetrics {
        let mut shard_queue_depth = Vec::with_capacity(shards);
        let mut shard_dirty_users = Vec::with_capacity(shards);
        let mut shard_fanout_seconds = Vec::with_capacity(shards);
        for k in 0..shards {
            let label = k.to_string();
            shard_queue_depth.push(registry.gauge(
                "crowdweb_ingest_shard_queue_depth",
                "Records queued on this shard for the next epoch.",
                &[("shard", &label)],
            ));
            shard_dirty_users.push(registry.gauge(
                "crowdweb_ingest_shard_dirty_users",
                "Users this shard re-mined in the most recent epoch.",
                &[("shard", &label)],
            ));
            shard_fanout_seconds.push(registry.histogram(
                SHARD_FANOUT_SECONDS,
                "Wall-clock seconds of this shard's re-mine slice per epoch.",
                &[("shard", &label)],
                &EPOCH_LATENCY_BUCKETS,
            ));
        }
        IngestMetrics {
            accepted: registry.counter(
                "crowdweb_ingest_accepted_total",
                "Records accepted into the ingest queue.",
                &[],
            ),
            wal_bytes: registry.counter(
                "crowdweb_ingest_wal_appended_bytes_total",
                "Bytes appended to active WAL segments.",
                &[],
            ),
            wal_records: registry.counter(
                "crowdweb_ingest_wal_appended_records_total",
                "Records appended to active WAL segments.",
                &[],
            ),
            queue_depth: registry.gauge(
                "crowdweb_ingest_queue_depth",
                "Records currently queued for the next epoch.",
                &[],
            ),
            epoch_seconds: registry.histogram(
                "crowdweb_ingest_epoch_seconds",
                "Wall-clock seconds from epoch start to snapshot publication.",
                &[],
                &EPOCH_LATENCY_BUCKETS,
            ),
            dirty_users: registry.gauge(
                "crowdweb_ingest_epoch_dirty_users",
                "Users recomputed by the most recent epoch.",
                &[],
            ),
            shard_queue_depth,
            shard_dirty_users,
            shard_fanout_seconds,
            registry,
        }
    }

    fn count_epoch(&self, mode: EpochMode) {
        let label = match mode {
            EpochMode::Incremental => "incremental",
            EpochMode::FullRebuild => "full_rebuild",
        };
        self.registry
            .counter(
                "crowdweb_ingest_epochs_total",
                "Published epochs, by rebuild mode.",
                &[("mode", label)],
            )
            .inc();
    }
}

/// One shard's mutable state. Ordering still lives globally (a single
/// sequence counter under the engine-wide lock); the shard owns the
/// durability and the dirty set for its user range.
#[derive(Debug)]
struct ShardState {
    queue: VecDeque<WalEntry>,
    wal: Option<Wal>,
    /// Entries applied to the published snapshot from this shard,
    /// ascending by seq; rewritten into the shard's checkpoint.
    applied: Vec<WalEntry>,
    /// Highest sequence number applied from this shard (0 if none) —
    /// persisted as the shard checkpoint's header.
    watermark: u64,
    accepted: u64,
    applied_total: u64,
}

/// Mutable engine internals. One mutex covers every shard's queue and
/// WAL plus the global sequence counter, so each shard's WAL append
/// order always equals its queue order — that ordering is what makes
/// crash replay deterministic.
#[derive(Debug)]
struct Inner {
    shards: Vec<ShardState>,
    next_seq: u64,
    total_accepted: u64,
    total_applied: u64,
    epochs_run: u64,
    full_rebuilds: u64,
    last_epoch: Option<EpochReport>,
}

impl Inner {
    fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }
}

/// The live-ingestion engine (see the [module docs](self)).
///
/// Readers call [`Self::snapshot`] and never block behind ingestion;
/// writers submit batches that are framed into the shard WALs and
/// queued, and epochs fold the queues into a fresh [`PlatformSnapshot`]
/// swapped in atomically — byte-identical to a cold rebuild for any
/// shard count.
#[derive(Debug)]
pub struct IngestEngine {
    config: IngestConfig,
    shard_count: usize,
    per_shard_capacity: usize,
    cell: EpochCell<PlatformSnapshot>,
    inner: Mutex<Inner>,
    /// Serializes epochs without blocking submitters or readers.
    epoch_guard: Mutex<()>,
    history: CrowdHistory,
    metrics: Option<IngestMetrics>,
}

impl IngestEngine {
    /// Opens the engine over a base dataset with
    /// [`IngestConfig::shards`] shards: replays every shard WAL (and
    /// any pre-sharding log in the WAL root), unions the surviving
    /// entries by sequence number, cold-builds the epoch-0 snapshot,
    /// and rewrites one checkpoint per shard at its watermark. Shard
    /// directories beyond the current count (left by a larger previous
    /// configuration) are folded into the current shards and removed.
    ///
    /// # Errors
    ///
    /// WAL I/O or corruption errors, merge failures, and pipeline
    /// failures from the cold build.
    pub fn open(base: Dataset, config: IngestConfig) -> Result<IngestEngine, IngestError> {
        let shard_count = effective_shards(config.shards);
        let per_shard_capacity = config.queue_capacity.div_ceil(shard_count).max(1);

        let mut wals: Vec<Option<Wal>> = Vec::with_capacity(shard_count);
        let mut entries: Vec<WalEntry> = Vec::new();
        let mut last_seq = 0u64;
        let mut stale_dirs: Vec<PathBuf> = Vec::new();
        let mut legacy_files: Vec<PathBuf> = Vec::new();
        if let Some(wal_config) = &config.wal {
            for k in 0..shard_count {
                let (wal, recovery) = Wal::open(&shard_wal_config(wal_config, k))?;
                last_seq = last_seq.max(recovery.last_seq);
                entries.extend(recovery.entries);
                wals.push(Some(wal));
            }
            // Shard directories beyond the current count, and any log
            // left in the root by the pre-sharding layout, are
            // recovered and folded into the current shards'
            // checkpoints below, then deleted.
            for dir in stale_shard_dirs(&wal_config.dir, shard_count)? {
                let (_, recovery) = Wal::open(&WalConfig {
                    dir: dir.clone(),
                    segment_bytes: wal_config.segment_bytes,
                })?;
                last_seq = last_seq.max(recovery.last_seq);
                entries.extend(recovery.entries);
                stale_dirs.push(dir);
            }
            let (_, recovery) = Wal::open(wal_config)?;
            last_seq = last_seq.max(recovery.last_seq);
            entries.extend(recovery.entries);
            legacy_files = legacy_log_files(&wal_config.dir)?;
        } else {
            for _ in 0..shard_count {
                wals.push(None);
            }
        }
        entries.sort_by_key(|e| e.seq);
        entries.dedup_by_key(|e| e.seq);

        let records: Vec<MergeRecord> = entries.iter().map(|e| e.record.clone()).collect();
        let merged = base.merge_records(&records)?;
        let out = config.driver()?.run(&merged)?;
        let snapshot = PlatformSnapshot::new(
            0,
            merged,
            out.prepared,
            out.patterns,
            out.grid,
            out.crowd,
            config.min_support,
        );

        // Route every surviving entry to its shard under the *current*
        // count and persist one checkpoint per shard, so recovery state
        // is rebalanced before the stale sources are deleted.
        let mut shards: Vec<ShardState> = wals
            .into_iter()
            .map(|wal| ShardState {
                queue: VecDeque::new(),
                wal,
                applied: Vec::new(),
                watermark: 0,
                accepted: 0,
                applied_total: 0,
            })
            .collect();
        for entry in entries {
            let shard = &mut shards[shard_of(entry.record.user, shard_count)];
            shard.watermark = shard.watermark.max(entry.seq);
            shard.applied.push(entry);
        }
        for shard in &mut shards {
            if let Some(wal) = shard.wal.as_mut() {
                wal.checkpoint(shard.watermark, &shard.applied)?;
            }
        }
        for dir in stale_dirs {
            fs::remove_dir_all(&dir)?;
        }
        for file in legacy_files {
            fs::remove_file(&file)?;
        }

        let metrics = config
            .metrics
            .clone()
            .map(|registry| IngestMetrics::new(registry, shard_count));
        let history = CrowdHistory::new(
            snapshot.crowd_arc(),
            config.history_depth,
            config.checkpoint_every,
            config.metrics.as_ref(),
        );
        Ok(IngestEngine {
            metrics,
            history,
            config,
            shard_count,
            per_shard_capacity,
            cell: EpochCell::new(Arc::new(snapshot)),
            inner: Mutex::new(Inner {
                shards,
                next_seq: last_seq + 1,
                total_accepted: 0,
                total_applied: 0,
                epochs_run: 0,
                full_rebuilds: 0,
                last_epoch: None,
            }),
            epoch_guard: Mutex::new(()),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// The resolved shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The currently published snapshot (wait-free for practical
    /// purposes; see [`EpochCell`]).
    pub fn snapshot(&self) -> Arc<PlatformSnapshot> {
        self.cell.load()
    }

    /// The published epoch number.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Records currently queued across every shard.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue_depth()
    }

    /// Accepts a batch: splits it by [`shard_of`] (preserving the
    /// batch's order within each shard and assigning sequence numbers
    /// from one global counter, so the seq-sorted union of the shard
    /// queues reconstructs the submit order exactly), appends each
    /// slice to its shard's WAL (durably, when configured), and
    /// enqueues — all under one lock. If **any** target shard's queue
    /// slice would overflow, the whole batch is rejected and nothing is
    /// appended anywhere.
    ///
    /// # Errors
    ///
    /// [`IngestError::Backpressure`] (reporting the saturated shard's
    /// queue) and WAL I/O errors both reject the batch atomically
    /// (nothing queued or left in any shard's log, the sequence numbers
    /// released) — the client may retry.
    pub fn submit(&self, records: Vec<MergeRecord>) -> Result<SubmitReceipt, IngestError> {
        let n = self.shard_count;
        let mut inner = self.inner.lock();
        let mut incoming = vec![0usize; n];
        for record in &records {
            incoming[shard_of(record.user, n)] += 1;
        }
        for (k, count) in incoming.iter().enumerate() {
            if inner.shards[k].queue.len() + count > self.per_shard_capacity {
                return Err(IngestError::Backpressure {
                    queued: inner.shards[k].queue.len(),
                    capacity: self.per_shard_capacity,
                    rejected: records.len(),
                });
            }
        }
        if records.is_empty() {
            return Ok(SubmitReceipt {
                accepted: 0,
                first_seq: 0,
                last_seq: 0,
                queue_depth: inner.queue_depth(),
            });
        }
        let first_seq = inner.next_seq;
        let total = records.len();
        let mut per_shard: Vec<Vec<WalEntry>> = vec![Vec::new(); n];
        for (i, record) in records.into_iter().enumerate() {
            let k = shard_of(record.user, n);
            per_shard[k].push(WalEntry {
                seq: first_seq + i as u64,
                record,
            });
        }
        let last_seq = first_seq + total as u64 - 1;
        inner.next_seq = last_seq + 1;

        if self.config.wal.is_some() {
            let mut appended: Vec<(usize, crate::wal::WalMark)> = Vec::new();
            let mut appended_bytes = 0u64;
            for (k, slice) in per_shard.iter().enumerate() {
                if slice.is_empty() {
                    continue;
                }
                let wal = inner.shards[k].wal.as_mut().expect("durable engine");
                let before = wal.segment_bytes();
                let mark = wal.mark();
                if let Err(e) = wal.append(slice) {
                    // Reject the whole batch atomically: undo this
                    // shard's partial frame and every sibling append
                    // that already landed, then release the sequence
                    // numbers. If any rollback fails the numbers stay
                    // consumed — replay may then resurrect the batch,
                    // so the client must not re-submit (at-least-once
                    // under a double fault; see DESIGN.md §9).
                    let mut clean = wal.rollback_to(mark).is_ok();
                    for (j, sibling) in appended.drain(..) {
                        let wal = inner.shards[j].wal.as_mut().expect("durable engine");
                        clean &= wal.rollback_to(sibling).is_ok();
                    }
                    if clean {
                        inner.next_seq = first_seq;
                    }
                    return Err(e);
                }
                appended_bytes += wal.segment_bytes().saturating_sub(before);
                appended.push((k, mark));
            }
            if let Some(metrics) = &self.metrics {
                metrics.wal_bytes.add(appended_bytes);
                metrics.wal_records.add(total as u64);
            }
        }

        inner.total_accepted += total as u64;
        if let Some(metrics) = &self.metrics {
            metrics.accepted.add(total as u64);
        }
        for (k, slice) in per_shard.into_iter().enumerate() {
            let shard = &mut inner.shards[k];
            shard.accepted += slice.len() as u64;
            shard.queue.extend(slice);
            if let Some(metrics) = &self.metrics {
                metrics.shard_queue_depth[k].set(shard.queue.len() as i64);
            }
        }
        let depth = inner.queue_depth();
        if let Some(metrics) = &self.metrics {
            metrics.queue_depth.set(depth as i64);
        }
        Ok(SubmitReceipt {
            accepted: total,
            first_seq,
            last_seq,
            queue_depth: depth,
        })
    }

    /// Drains every shard and publishes a new snapshot; returns `None`
    /// when all queues were empty. The merge and re-prepare run over
    /// the seq-sorted union (ordering is global), the re-mine fans out
    /// per shard on the `crowdweb-exec` engine, and each shard's delta
    /// is spliced back in prepared user order. If the batch moved the
    /// study window the full pipeline runs instead. Readers keep
    /// serving the previous snapshot throughout; the swap is atomic.
    /// Afterwards each shard checkpoints at its own watermark.
    ///
    /// # Errors
    ///
    /// Merge and pipeline errors re-queue each shard's slice at the
    /// front of that shard's queue, so no accepted record is lost. A
    /// checkpoint failure after the swap is reported but leaves the
    /// published snapshot in place (replay deduplicates the stale
    /// segments).
    pub fn run_epoch(&self) -> Result<Option<EpochReport>, IngestError> {
        let _epoch = self.epoch_guard.lock();
        let start = Instant::now();
        let per_shard_batch: Vec<Vec<WalEntry>> = {
            let mut inner = self.inner.lock();
            let drained: Vec<Vec<WalEntry>> = inner
                .shards
                .iter_mut()
                .map(|s| s.queue.drain(..).collect())
                .collect();
            if let Some(metrics) = &self.metrics {
                for gauge in &metrics.shard_queue_depth {
                    gauge.set(0);
                }
                metrics.queue_depth.set(0);
            }
            drained
        };
        let total: usize = per_shard_batch.iter().map(Vec::len).sum();
        if total == 0 {
            return Ok(None);
        }
        let mut batch: Vec<WalEntry> = per_shard_batch.iter().flatten().cloned().collect();
        batch.sort_by_key(|e| e.seq);

        let previous = self.cell.load();
        let (snapshot, mode, delta) = match self.build_next(&previous, &batch) {
            Ok(next) => next,
            Err(e) => {
                // Put each slice back at the front of its own shard,
                // oldest first, ahead of anything submitted meanwhile.
                let mut inner = self.inner.lock();
                for (k, drained) in per_shard_batch.into_iter().enumerate() {
                    let shard = &mut inner.shards[k];
                    for entry in drained.into_iter().rev() {
                        shard.queue.push_front(entry);
                    }
                    if let Some(metrics) = &self.metrics {
                        metrics.shard_queue_depth[k].set(shard.queue.len() as i64);
                    }
                }
                if let Some(metrics) = &self.metrics {
                    metrics.queue_depth.set(inner.queue_depth() as i64);
                }
                return Err(e);
            }
        };
        let report = EpochReport {
            epoch: snapshot.epoch(),
            applied: total,
            users_remined: delta.users_recomputed,
            mode,
            duration_micros: u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
            delta,
        };
        let next = Arc::new(snapshot);
        // Record into the history before publishing, so any epoch a
        // reader can observe as latest is already materializable.
        self.history.record(
            next.epoch(),
            previous.crowd(),
            next.crowd_arc(),
            mode,
            total,
        );
        self.cell.store(next);
        if let Some(metrics) = &self.metrics {
            metrics.epoch_seconds.observe(start.elapsed().as_secs_f64());
            metrics.dirty_users.set(delta.users_recomputed as i64);
            metrics.count_epoch(mode);
            for (k, drained) in per_shard_batch.iter().enumerate() {
                let dirty: BTreeSet<UserId> = drained.iter().map(|e| e.record.user).collect();
                metrics.shard_dirty_users[k].set(dirty.len() as i64);
            }
        }
        let mut inner = self.inner.lock();
        inner.total_applied += total as u64;
        inner.epochs_run += 1;
        if mode == EpochMode::FullRebuild {
            inner.full_rebuilds += 1;
        }
        inner.last_epoch = Some(report);
        // Checkpoint every shard even if one fails, so a single bad
        // disk doesn't stop the others from compacting; the first
        // error is reported after all shards were attempted.
        let mut checkpoint_result: Result<(), IngestError> = Ok(());
        for (k, drained) in per_shard_batch.into_iter().enumerate() {
            let shard = &mut inner.shards[k];
            shard.applied_total += drained.len() as u64;
            if let Some(last) = drained.last() {
                shard.watermark = shard.watermark.max(last.seq);
            }
            shard.applied.extend(drained);
            if let Some(wal) = shard.wal.as_mut() {
                let applied = std::mem::take(&mut shard.applied);
                let result = wal.checkpoint(shard.watermark, &applied);
                shard.applied = applied;
                if checkpoint_result.is_ok() {
                    checkpoint_result = result;
                }
            }
        }
        checkpoint_result?;
        Ok(Some(report))
    }

    /// Builds the epoch-`previous.epoch() + 1` snapshot from `previous`
    /// plus a drained, seq-sorted batch.
    fn build_next(
        &self,
        previous: &PlatformSnapshot,
        batch: &[WalEntry],
    ) -> Result<(PlatformSnapshot, EpochMode, CrowdDelta), IngestError> {
        let config = &self.config;
        let records: Vec<MergeRecord> = batch.iter().map(|e| e.record.clone()).collect();
        let dirty: BTreeSet<UserId> = records.iter().map(|r| r.user).collect();
        let merged = previous.dataset().merge_records(&records)?;
        let epoch = previous.epoch() + 1;
        match config
            .preprocessor
            .update(previous.prepared(), &merged, &dirty)
            .map_err(crowdweb_crowd::PipelineError::Prep)?
        {
            PrepUpdate::Incremental(prepared) => {
                let patterns = self.mine(&prepared, previous.patterns(), &dirty)?;
                let (crowd, delta) = CrowdBuilder::new(&merged, &prepared)
                    .windows(config.windows.clone())
                    .parallelism(config.parallelism)
                    .update(previous.crowd(), &patterns, &dirty)
                    .map_err(crowdweb_crowd::PipelineError::Crowd)?;
                let snapshot = PlatformSnapshot::new(
                    epoch,
                    merged,
                    *prepared,
                    patterns,
                    previous.grid().clone(),
                    crowd,
                    config.min_support,
                );
                Ok((snapshot, EpochMode::Incremental, delta))
            }
            PrepUpdate::FullRebuild => {
                let out = config.driver()?.run(&merged)?;
                let mut cells: BTreeSet<(usize, _)> = BTreeSet::new();
                for p in previous.crowd().placements() {
                    cells.insert((p.window, p.cell));
                }
                for p in out.crowd.placements() {
                    cells.insert((p.window, p.cell));
                }
                let delta = CrowdDelta {
                    users_recomputed: out.prepared.user_count(),
                    placements_removed: previous.crowd().placement_count(),
                    placements_added: out.crowd.placement_count(),
                    cells_touched: cells.len(),
                };
                let snapshot = PlatformSnapshot::new(
                    epoch,
                    merged,
                    out.prepared,
                    out.patterns,
                    out.grid,
                    out.crowd,
                    config.min_support,
                );
                Ok((snapshot, EpochMode::FullRebuild, delta))
            }
        }
    }

    /// The sharded re-mine: partitions the to-mine set (dirty users
    /// plus users absent from the previous patterns) by [`shard_of`],
    /// mines each partition as one parallel task, and splices results
    /// back in `prepared.seqdb().user_ids()` order. Produces exactly
    /// what [`PatternMiner::detect_updated`] produces, byte for byte —
    /// the per-user miner is deterministic and the splice order is
    /// global — while giving the executor shard-grained units of work.
    fn mine(
        &self,
        prepared: &Prepared,
        previous: &[UserPatterns],
        dirty: &BTreeSet<UserId>,
    ) -> Result<Vec<UserPatterns>, IngestError> {
        let miner = self.config.miner()?;
        let prev: HashMap<UserId, &UserPatterns> = previous.iter().map(|p| (p.user, p)).collect();
        let mut buckets: Vec<Vec<UserView<'_>>> = vec![Vec::new(); self.shard_count];
        for view in prepared.seqdb().views() {
            if dirty.contains(&view.user()) || !prev.contains_key(&view.user()) {
                buckets[shard_of(view.user(), self.shard_count)].push(view);
            }
        }
        let metrics = self.metrics.as_ref();
        let mined = parallel_map_with_index(self.config.parallelism, &buckets, |k, views| {
            let started = Instant::now();
            let out: Result<Vec<UserPatterns>, _> =
                views.iter().map(|view| miner.detect_view(*view)).collect();
            if let Some(metrics) = metrics {
                metrics.shard_fanout_seconds[k].observe(started.elapsed().as_secs_f64());
            }
            out
        });
        let mut mined_by_user: HashMap<UserId, UserPatterns> = HashMap::new();
        for shard in mined {
            for patterns in shard.map_err(crowdweb_crowd::PipelineError::Mobility)? {
                mined_by_user.insert(patterns.user, patterns);
            }
        }
        Ok(prepared
            .seqdb()
            .user_ids()
            .iter()
            .map(|user| match mined_by_user.remove(user) {
                Some(fresh) => fresh,
                // Only reachable for users present in `previous` (the
                // bucket filter mined everyone else).
                None => (*prev.get(user).expect("filtered above")).clone(),
            })
            .collect())
    }

    /// Point-in-time statistics, including one [`ShardStats`] row per
    /// shard (`GET /api/v1/ingest/stats`).
    pub fn stats(&self) -> IngestStats {
        let inner = self.inner.lock();
        let shards: Vec<ShardStats> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(k, shard)| ShardStats {
                shard: k,
                queue_depth: shard.queue.len(),
                queue_capacity: self.per_shard_capacity,
                watermark: shard.watermark,
                total_accepted: shard.accepted,
                total_applied: shard.applied_total,
                wal_segment_bytes: shard.wal.as_ref().map_or(0, Wal::segment_bytes),
                wal_checkpoint_bytes: shard.wal.as_ref().map_or(0, Wal::checkpoint_bytes),
            })
            .collect();
        IngestStats {
            epoch: self.cell.epoch(),
            history_depth: self.history.depth(),
            history_capacity: self.history.capacity(),
            shard_count: self.shard_count,
            queue_depth: shards.iter().map(|s| s.queue_depth).sum(),
            queue_capacity: self.per_shard_capacity * self.shard_count,
            total_accepted: inner.total_accepted,
            total_applied: inner.total_applied,
            durable: self.config.wal.is_some(),
            wal_segment_bytes: shards.iter().map(|s| s.wal_segment_bytes).sum(),
            wal_checkpoint_bytes: shards.iter().map(|s| s.wal_checkpoint_bytes).sum(),
            epochs_run: inner.epochs_run,
            full_rebuilds: inner.full_rebuilds,
            last_epoch: inner.last_epoch,
            shards,
        }
    }

    /// The engine's bounded epoch history.
    pub fn history(&self) -> &CrowdHistory {
        &self.history
    }

    /// Materializes the crowd model as published at `epoch`, or `None`
    /// when the epoch has been evicted from (or never reached) the
    /// history ring.
    pub fn crowd_at(&self, epoch: u64) -> Option<Arc<CrowdModel>> {
        self.history.materialize(epoch)
    }

    /// One row per retained history epoch, oldest first.
    pub fn epochs(&self) -> Vec<EpochInfo> {
        self.history.epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_dataset::Timestamp;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("crowdweb-engine-{tag}-{}-{n}", std::process::id()))
    }

    fn config(shards: usize) -> IngestConfig {
        let mut c = IngestConfig::default();
        c.preprocessor = c.preprocessor.min_active_days(20);
        c.shards = shards;
        c
    }

    fn base() -> Dataset {
        crowdweb_synth::SynthConfig::small(51).generate().unwrap()
    }

    /// Clones `n` existing check-ins shifted by `shift_secs` as records.
    fn shifted_records(d: &Dataset, shift_secs: i64, n: usize) -> Vec<MergeRecord> {
        d.checkins()
            .iter()
            .step_by(97) // spread across users
            .take(n)
            .map(|c| {
                let v = d.venue(c.venue()).unwrap();
                MergeRecord {
                    user: c.user(),
                    venue_key: v.name().to_owned(),
                    category: d.taxonomy().name_of(v.category()).unwrap().to_owned(),
                    location: v.location(),
                    tz_offset_minutes: c.tz_offset_minutes(),
                    time: Timestamp::from_unix_seconds(c.time().unix_seconds() + shift_secs),
                }
            })
            .collect()
    }

    /// The live `.wal` segments in one shard's directory.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
            .unwrap_or_default();
        segs.retain(|p| p.is_file() && p.extension().is_some_and(|x| x == "wal"));
        segs.sort();
        segs
    }

    fn crowd_json(engine: &IngestEngine) -> String {
        serde_json::to_string(engine.snapshot().crowd()).unwrap()
    }

    #[test]
    fn backpressure_rejects_whole_batch() {
        let mut cfg = config(1);
        cfg.queue_capacity = 3;
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 2);
        engine.submit(records.clone()).unwrap();
        let err = engine.submit(records).unwrap_err();
        assert!(matches!(
            err,
            IngestError::Backpressure {
                queued: 2,
                capacity: 3,
                rejected: 2
            }
        ));
        assert_eq!(engine.queue_depth(), 2, "rejected batch must not enqueue");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn backpressure_reports_the_saturated_shard() {
        let mut cfg = config(4);
        cfg.queue_capacity = 4; // one slot per shard
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let records = shifted_records(engine.snapshot().dataset(), 3600, 8);
        let err = engine.submit(records).unwrap_err();
        match err {
            IngestError::Backpressure {
                capacity, rejected, ..
            } => {
                assert_eq!(capacity, 1, "per-shard capacity");
                assert_eq!(rejected, 8);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(engine.queue_depth(), 0, "rejected batch must not enqueue");
    }

    #[test]
    fn empty_submit_and_empty_epoch_are_noops() {
        for shards in [1usize, 4] {
            let engine = IngestEngine::open(base(), config(shards)).unwrap();
            let receipt = engine.submit(Vec::new()).unwrap();
            assert_eq!(
                (receipt.accepted, receipt.first_seq, receipt.queue_depth),
                (0, 0, 0)
            );
            assert!(engine.run_epoch().unwrap().is_none());
            assert_eq!(engine.epoch(), 0);
            assert_eq!(engine.stats().epochs_run, 0);
        }
    }

    #[test]
    fn epoch_applies_batch_and_updates_stats() {
        // One shard without a WAL and four with one: the same totals,
        // and the per-shard rows always sum to them.
        for (shards, durable) in [(1usize, false), (4, true)] {
            let dir = temp_dir("stats");
            let mut cfg = config(shards);
            if durable {
                cfg.wal = Some(WalConfig::new(&dir));
            }
            let engine = IngestEngine::open(base(), cfg).unwrap();
            let before = engine.snapshot();
            let records = shifted_records(before.dataset(), 3600, 16);
            let receipt = engine.submit(records).unwrap();
            assert_eq!(
                (
                    receipt.accepted,
                    receipt.first_seq,
                    receipt.last_seq,
                    receipt.queue_depth
                ),
                (16, 1, 16, 16)
            );
            let stats = engine.stats();
            assert_eq!(stats.shard_count, shards);
            assert_eq!(stats.shards.len(), shards);
            assert_eq!(stats.queue_depth, 16);
            assert_eq!(
                stats.shards.iter().map(|s| s.queue_depth).sum::<usize>(),
                16
            );
            assert_eq!(stats.durable, durable);

            let report = engine.run_epoch().unwrap().expect("non-empty queue");
            assert_eq!(report.epoch, 1);
            assert_eq!(report.applied, 16);
            assert_eq!(report.mode, EpochMode::Incremental);
            let after = engine.snapshot();
            assert_eq!(after.epoch(), 1);
            assert_eq!(after.dataset().len(), before.dataset().len() + 16);
            // The pinned pre-epoch snapshot is untouched.
            assert_eq!(before.epoch(), 0);

            let stats = engine.stats();
            assert_eq!(stats.total_accepted, 16);
            assert_eq!(stats.total_applied, 16);
            assert_eq!(stats.epochs_run, 1);
            assert_eq!(stats.queue_depth, 0);
            let applied: u64 = stats.shards.iter().map(|s| s.total_applied).sum();
            assert_eq!(applied, 16);
            // Watermarks cover every applied sequence number.
            let max_watermark = stats.shards.iter().map(|s| s.watermark).max().unwrap();
            assert_eq!(max_watermark, 16);
            assert!(serde_json::to_string(&stats).is_ok());
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn wal_append_failure_rejects_batch_atomically() {
        // A failed append on one shard must roll back every sibling
        // shard that already appended, release the sequence numbers,
        // and leave nothing that a reopen could replay twice.
        for shards in [1usize, 4] {
            let dir = temp_dir("walfail");
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
            let first = shifted_records(engine.snapshot().dataset(), 3600, 12);
            let second = shifted_records(engine.snapshot().dataset(), 7200, 12);
            engine.submit(first.clone()).unwrap();
            engine.run_epoch().unwrap().unwrap();

            // The victim is the highest shard the second batch touches,
            // so every lower touched shard appends before it fails.
            let first_seq = first.len() as u64 + 1;
            let touched: BTreeSet<usize> =
                second.iter().map(|r| shard_of(r.user, shards)).collect();
            let victim = *touched.last().unwrap();
            assert!(
                shards == 1 || touched.len() > 1,
                "siblings must append first"
            );
            let victim_seq = first_seq
                + second
                    .iter()
                    .position(|r| shard_of(r.user, shards) == victim)
                    .unwrap() as u64;
            // A directory where the victim's next segment file goes
            // makes its append fail without touching its checkpoint.
            let blocker = dir
                .join(format!("shard-{victim}"))
                .join(format!("seg-{victim_seq:020}.wal"));
            fs::create_dir_all(&blocker).unwrap();

            let err = engine.submit(second.clone()).unwrap_err();
            assert!(matches!(err, IngestError::Wal(_)), "{err:?}");
            assert_eq!(engine.queue_depth(), 0, "failed batch must not enqueue");
            for k in (0..victim).filter(|k| touched.contains(k)) {
                let segs = segments(&dir.join(format!("shard-{k}")));
                assert!(segs.is_empty(), "shard {k} kept {segs:?}");
            }

            // The sequence numbers were released: a retry reuses the
            // range safely because nothing of the failed batch survived.
            fs::remove_dir(&blocker).unwrap();
            let receipt = engine.submit(second.clone()).unwrap();
            assert_eq!(receipt.first_seq, first_seq);
            drop(engine);

            // A reopen replays every record exactly once.
            let engine = IngestEngine::open(base(), cfg).unwrap();
            let mut all = first;
            all.extend(second);
            assert_eq!(
                engine.snapshot().dataset().len(),
                base().merge_records(&all).unwrap().len(),
                "{shards} shards"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn metrics_track_submits_epochs_and_wal() {
        for shards in [1usize, 4] {
            let dir = temp_dir("metrics");
            let registry = MetricsRegistry::new();
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            cfg.metrics = Some(registry.clone());
            let engine = IngestEngine::open(base(), cfg).unwrap();
            let records = shifted_records(engine.snapshot().dataset(), 3600, 12);
            engine.submit(records).unwrap();
            assert_eq!(
                registry.counter_value("crowdweb_ingest_accepted_total", &[]),
                Some(12)
            );
            assert_eq!(
                registry.counter_value("crowdweb_ingest_wal_appended_records_total", &[]),
                Some(12)
            );
            let wal_bytes = registry
                .counter_value("crowdweb_ingest_wal_appended_bytes_total", &[])
                .unwrap();
            assert!(wal_bytes > 0, "WAL append must record bytes");
            assert_eq!(
                registry.gauge_value("crowdweb_ingest_queue_depth", &[]),
                Some(12)
            );
            let queued: i64 = (0..shards)
                .map(|k| {
                    registry
                        .gauge_value(
                            "crowdweb_ingest_shard_queue_depth",
                            &[("shard", &k.to_string())],
                        )
                        .unwrap()
                })
                .sum();
            assert_eq!(queued, 12);

            engine.run_epoch().unwrap().unwrap();
            assert_eq!(
                registry.gauge_value("crowdweb_ingest_queue_depth", &[]),
                Some(0)
            );
            assert_eq!(
                registry.counter_value("crowdweb_ingest_epochs_total", &[("mode", "incremental")]),
                Some(1)
            );
            let (count, sum) = registry
                .histogram_stats("crowdweb_ingest_epoch_seconds", &[])
                .unwrap();
            assert_eq!(count, 1);
            assert!(sum >= 0.0);
            let dirty = registry
                .gauge_value("crowdweb_ingest_epoch_dirty_users", &[])
                .unwrap();
            assert!(dirty > 0, "epoch must recompute the touched users");
            for k in 0..shards {
                let label = k.to_string();
                let (count, _) = registry
                    .histogram_stats(SHARD_FANOUT_SECONDS, &[("shard", &label)])
                    .expect("per-shard fan-out histogram registered");
                assert_eq!(count, 1, "shard {k} must record exactly one fan-out");
                assert_eq!(
                    registry.gauge_value("crowdweb_ingest_shard_queue_depth", &[("shard", &label)]),
                    Some(0)
                );
            }
            // The pipeline stages recorded through the same registry.
            assert!(registry
                .histogram_stats(
                    crowdweb_obs::STAGE_SECONDS,
                    &[("stage", "prepare"), ("policy", "auto")]
                )
                .is_some());
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn wal_replay_reaches_same_snapshot() {
        for shards in [1usize, 4] {
            let dir = temp_dir("replay");
            let mut cfg = config(shards);
            cfg.wal = Some(WalConfig::new(&dir));
            let records;
            let before_crash;
            {
                let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
                records = shifted_records(engine.snapshot().dataset(), 3600, 12);
                engine.submit(records.clone()).unwrap();
                engine.run_epoch().unwrap().unwrap();
                before_crash = crowd_json(&engine);
                assert!(engine.stats().durable);
            } // crash
            let engine = IngestEngine::open(base(), cfg).unwrap();
            // Everything replayed into the epoch-0 cold build.
            assert_eq!(engine.epoch(), 0);
            assert_eq!(
                crowd_json(&engine),
                before_crash,
                "replayed snapshot diverged from pre-crash snapshot at {shards} shards"
            );
            // The global sequence continues after the replayed tail.
            let receipt = engine.submit(records).unwrap();
            assert_eq!(receipt.first_seq, 13);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reopening_with_fewer_shards_folds_stale_directories() {
        let dir = temp_dir("fold");
        let mut cfg = config(4);
        cfg.wal = Some(WalConfig::new(&dir));
        let records;
        let before_crash;
        {
            let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
            records = shifted_records(engine.snapshot().dataset(), 3600, 12);
            engine.submit(records.clone()).unwrap();
            before_crash = crowd_json(&engine);
        } // crash before any epoch
        cfg.shards = 2;
        let engine = IngestEngine::open(base(), cfg.clone()).unwrap();
        let merged = crowd_json(&engine);
        assert_ne!(
            merged, before_crash,
            "replayed records must be part of the rebuilt snapshot"
        );
        assert!(!dir.join("shard-2").exists(), "stale shard dir must fold");
        assert!(!dir.join("shard-3").exists(), "stale shard dir must fold");
        // Records survived the fold: a fresh 2-shard open still has them.
        drop(engine);
        let engine = IngestEngine::open(base(), cfg).unwrap();
        assert_eq!(crowd_json(&engine), merged);
        assert_eq!(engine.submit(records).unwrap().first_seq, 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_unsharded_wal_is_migrated() {
        // The pre-sharding layout: one log in the WAL root, with a
        // checkpoint covering an applied prefix and a live segment
        // holding the queued rest.
        let dir = temp_dir("migrate");
        let records = shifted_records(&base(), 3600, 12);
        let entries: Vec<WalEntry> = records
            .iter()
            .enumerate()
            .map(|(i, record)| WalEntry {
                seq: i as u64 + 1,
                record: record.clone(),
            })
            .collect();
        {
            let (mut wal, _) = Wal::open(&WalConfig::new(&dir)).unwrap();
            wal.append(&entries[..8]).unwrap();
            wal.checkpoint(8, &entries[..8]).unwrap();
            wal.append(&entries[8..]).unwrap();
        }
        assert!(dir.join("checkpoint.jsonl").exists());
        assert_eq!(segments(&dir).len(), 1);

        let mut cfg = config(2);
        cfg.wal = Some(WalConfig::new(&dir));
        let engine = IngestEngine::open(base(), cfg).unwrap();
        let cold = IngestEngine::open(base().merge_records(&records).unwrap(), config(2)).unwrap();
        assert_eq!(
            crowd_json(&engine),
            crowd_json(&cold),
            "migration from the root layout lost records"
        );
        assert!(
            !dir.join("checkpoint.jsonl").exists(),
            "legacy root checkpoint must be folded away"
        );
        assert!(segments(&dir).is_empty(), "legacy root segments must go");
        assert!(dir.join("shard-0").is_dir() && dir.join("shard-1").is_dir());
        assert_eq!(engine.submit(records).unwrap().first_seq, 13);
        fs::remove_dir_all(&dir).unwrap();
    }
}
