//! Shard routing and the per-shard WAL directory layout.
//!
//! The [`IngestEngine`](crate::IngestEngine) partitions its queue, WAL
//! and dirty set across `N` shards. Records route to shards by a
//! **stable** hash of the user id ([`shard_of`]); the hash is an on-disk
//! compatibility contract — it must not change across releases, or
//! restart recovery would reroute entries away from the checkpoints
//! that cover them. Each shard logs to `<wal dir>/shard-<k>/`.

use crate::{IngestError, WalConfig};
use crowdweb_dataset::UserId;
use std::fs;
use std::path::{Path, PathBuf};

/// Hard cap on the shard count, so the per-shard metric label stays
/// bounded no matter what a builder passes in.
pub const MAX_SHARDS: usize = 64;

/// Routes a user to a shard: FNV-1a over the raw id, modulo `shards`.
///
/// Stability matters more than quality here: the same user must land on
/// the same shard across every release and restart, because each
/// shard's WAL checkpoint only covers the entries routed to it. The
/// hash is part of the on-disk format; never change it.
pub fn shard_of(user: UserId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in user.raw().to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Resolves a configured shard count: `0` means "available
/// parallelism", and everything is clamped to `1..=`[`MAX_SHARDS`].
pub fn effective_shards(configured: usize) -> usize {
    let n = if configured == 0 {
        crowdweb_exec::Parallelism::Auto.worker_count()
    } else {
        configured
    };
    n.clamp(1, MAX_SHARDS)
}

/// The WAL configuration of shard `shard`: `<root>/shard-<shard>/`.
pub(crate) fn shard_wal_config(base: &WalConfig, shard: usize) -> WalConfig {
    WalConfig {
        dir: base.dir.join(format!("shard-{shard}")),
        segment_bytes: base.segment_bytes,
    }
}

/// `shard-<k>` subdirectories with `k` at or beyond the current count.
pub(crate) fn stale_shard_dirs(
    dir: &Path,
    shard_count: usize,
) -> Result<Vec<PathBuf>, IngestError> {
    let mut stale = Vec::new();
    if !dir.exists() {
        return Ok(stale);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(index) = name
            .strip_prefix("shard-")
            .and_then(|k| k.parse::<usize>().ok())
        {
            if path.is_dir() && index >= shard_count {
                stale.push(path);
            }
        }
    }
    stale.sort();
    Ok(stale)
}

/// Segment and checkpoint files the pre-sharding layout left in the WAL
/// root; deleted once their entries are folded into shard checkpoints.
pub(crate) fn legacy_log_files(dir: &Path) -> Result<Vec<PathBuf>, IngestError> {
    let mut files = Vec::new();
    if !dir.exists() {
        return Ok(files);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_file()
            && (name == "checkpoint.jsonl" || (name.starts_with("seg-") && name.ends_with(".wal")))
        {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        for raw in [0u32, 1, 7, 97, 12_345, u32::MAX] {
            let user = UserId::new(raw);
            for shards in [1usize, 2, 4, 7, 64] {
                let k = shard_of(user, shards);
                assert!(k < shards);
                assert_eq!(k, shard_of(user, shards), "routing must be deterministic");
            }
            assert_eq!(shard_of(user, 1), 0);
        }
    }

    #[test]
    fn effective_shards_clamps() {
        assert!(effective_shards(0) >= 1);
        assert_eq!(effective_shards(3), 3);
        assert_eq!(effective_shards(1_000), MAX_SHARDS);
    }
}
