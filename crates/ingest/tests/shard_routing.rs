//! Shard routing stability: the `hash(user) % N` placement is a pure
//! function of the user id, so it must survive engine restarts — each
//! shard's WAL checkpoint only covers the entries routed to it, and a
//! reroute after a restart would orphan them.

use crowdweb_dataset::{Dataset, MergeRecord, Timestamp, UserId};
use crowdweb_ingest::{shard_of, IngestConfig, IngestEngine, Wal, WalConfig, MAX_SHARDS};
use proptest::prelude::*;

proptest! {
    /// The route is deterministic, in range, and independent of any
    /// engine or process state: two `UserId`s constructed separately
    /// from the same raw id always land on the same shard.
    #[test]
    fn prop_routing_is_pure_and_in_range(
        raw in proptest::collection::vec(0u32..u32::MAX, 1..64),
        shards in 1usize..=MAX_SHARDS,
    ) {
        for &id in &raw {
            let first = shard_of(UserId::new(id), shards);
            let again = shard_of(UserId::new(id), shards);
            prop_assert!(first < shards);
            prop_assert_eq!(first, again);
        }
    }

    /// Splitting a batch by shard and re-merging by sequence number
    /// reconstructs the original submit order exactly — the invariant
    /// the sharded engine's determinism rests on.
    #[test]
    fn prop_shard_split_reconstructs_submit_order(
        users in proptest::collection::vec(0u32..512, 1..128),
        shards in 1usize..=8,
    ) {
        let mut buckets: Vec<Vec<(u64, u32)>> = vec![Vec::new(); shards];
        for (i, &user) in users.iter().enumerate() {
            buckets[shard_of(UserId::new(user), shards)].push((i as u64 + 1, user));
        }
        // Within each shard the batch order (== seq order) survives.
        for bucket in &buckets {
            prop_assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0));
        }
        let mut merged: Vec<(u64, u32)> = buckets.into_iter().flatten().collect();
        merged.sort_by_key(|&(seq, _)| seq);
        let reconstructed: Vec<u32> = merged.into_iter().map(|(_, user)| user).collect();
        prop_assert_eq!(reconstructed, users);
    }
}

fn base() -> Dataset {
    crowdweb_synth::SynthConfig::small(51).generate().unwrap()
}

fn shifted_records(d: &Dataset, n: usize) -> Vec<MergeRecord> {
    d.checkins()
        .iter()
        .step_by(97)
        .take(n)
        .map(|c| {
            let v = d.venue(c.venue()).unwrap();
            MergeRecord {
                user: c.user(),
                venue_key: v.name().to_owned(),
                category: d.taxonomy().name_of(v.category()).unwrap().to_owned(),
                location: v.location(),
                tz_offset_minutes: c.tz_offset_minutes(),
                time: Timestamp::from_unix_seconds(c.time().unix_seconds() + 3600),
            }
        })
        .collect()
}

/// After a crash and reopen, every persisted entry sits in the WAL
/// directory of exactly the shard `shard_of` names today — on-disk
/// placement and the routing function never drift apart.
#[test]
fn restart_preserves_on_disk_routing() {
    let dir = std::env::temp_dir().join(format!("crowdweb-routing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = IngestConfig::default();
    config.preprocessor = config.preprocessor.min_active_days(20);
    config.shards = 4;
    config.wal = Some(WalConfig::new(&dir));
    let records;
    {
        let engine = IngestEngine::open(base(), config.clone()).unwrap();
        records = shifted_records(engine.snapshot().dataset(), 16);
        engine.submit(records.clone()).unwrap();
        engine.run_epoch().unwrap().unwrap();
    } // crash
    let engine = IngestEngine::open(base(), config).unwrap();
    for k in 0..engine.shard_count() {
        let shard_config = WalConfig::new(dir.join(format!("shard-{k}")));
        let (_, recovery) = Wal::open(&shard_config).unwrap();
        for entry in &recovery.entries {
            assert_eq!(
                shard_of(entry.record.user, engine.shard_count()),
                k,
                "entry seq {} persisted on the wrong shard",
                entry.seq
            );
        }
    }
    // And the engine still has every record: the next batch's sequence
    // numbers continue after the replayed tail.
    let receipt = engine.submit(records).unwrap();
    assert_eq!(receipt.first_seq, 17);
    std::fs::remove_dir_all(&dir).unwrap();
}
