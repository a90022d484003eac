//! Deterministic disk fault injection for the checkpoint subsystem.
//!
//! A [`DiskFaultPlan`] is schedule-addressable in the same style as the
//! collectives' `FaultPlan` and the transport's `TransportFaultPlan`: a
//! fault fires on the *n*-th shard save (or *n*-th manifest commit)
//! performed through one [`CheckpointDir`](super::CheckpointDir) handle,
//! counted by the handle's own program order — never by timing — so every
//! corruption scenario in the test matrix reproduces exactly.
//!
//! Faults model the real failure modes of the durable protocol:
//!
//! * [`DiskFault::TruncateAt`] — a torn write: the shard file's bytes end
//!   mid-structure (power loss after a partial page flush on a filesystem
//!   that reordered the rename).
//! * [`DiskFault::BitFlipAt`] — media corruption: one bit of the stored
//!   payload flips at rest.
//! * [`DiskFault::CrashBeforeRename`] — the process dies after writing and
//!   fsyncing the temp file but before the atomic rename publishes it; the
//!   step's shard simply never appears.
//! * [`DiskFault::StaleManifest`] — the manifest commits a checksum that
//!   does not match the shard bytes on disk (lost write / misdirected
//!   write under the manifest's feet).
//!
//! Every injected corruption must surface on *load* as a typed
//! [`CheckpointError`](super::CheckpointError) — the acceptance tests
//! assert corruption-is-error-never-wrong-data, and that newest-valid
//! selection falls back to the previous intact step with the cause
//! recorded.

/// One injected disk fault, addressed by the call counters of a
/// [`CheckpointDir`](super::CheckpointDir) handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskFault {
    /// Truncate the shard file to `offset` bytes (torn write). An offset
    /// beyond the file length leaves the file intact.
    TruncateAt(usize),
    /// XOR one bit at byte `offset` of the shard file (media corruption).
    /// Wraps modulo the file length, so any offset corrupts *something*.
    BitFlipAt(usize),
    /// Write and fsync the temp file but skip the rename: the save call
    /// "succeeds" yet the shard never becomes visible.
    CrashBeforeRename,
    /// Corrupt the committed manifest's checksum line for rank 0's shard,
    /// so the manifest and the shard bytes disagree.
    StaleManifest,
}

/// A deterministic disk-failure script for one checkpoint directory
/// handle. Shard faults address the handle's *n*-th `save_shard` call
/// (0-based); [`DiskFault::StaleManifest`] addresses the *n*-th `commit`.
#[derive(Clone, Debug, Default)]
pub struct DiskFaultPlan {
    saves: Vec<(usize, DiskFault)>,
    stale_commits: Vec<usize>,
}

impl DiskFaultPlan {
    /// The empty plan (no injected corruption).
    pub fn none() -> Self {
        DiskFaultPlan::default()
    }

    /// Inject `fault` on the handle's `n`-th shard save.
    /// ([`DiskFault::StaleManifest`] passed here is routed to the `n`-th
    /// commit instead, since it is a manifest-side fault.)
    pub fn on_save(n: usize, fault: DiskFault) -> Self {
        DiskFaultPlan::none().and_on_save(n, fault)
    }

    /// Add another scheduled fault.
    pub fn and_on_save(mut self, n: usize, fault: DiskFault) -> Self {
        if fault == DiskFault::StaleManifest {
            self.stale_commits.push(n);
        } else {
            self.saves.push((n, fault));
        }
        self
    }

    /// Fault scheduled for the `n`-th shard save, if any.
    pub fn for_save(&self, n: usize) -> Option<DiskFault> {
        self.saves.iter().find(|(k, _)| *k == n).map(|(_, f)| *f)
    }

    /// Whether the `n`-th manifest commit should write a stale checksum.
    pub fn stale_commit(&self, n: usize) -> bool {
        self.stale_commits.contains(&n)
    }

    /// True when no fault is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.saves.is_empty() && self.stale_commits.is_empty()
    }

    /// Deterministic single-fault plan derived from a seed: a seed-chosen
    /// fault kind at a seed-chosen save/commit count below `max_n`, with a
    /// seed-chosen byte offset. Same seed → same plan, so property tests
    /// over random corruption scenarios reproduce exactly.
    pub fn seeded(seed: u64, max_n: usize, max_offset: usize) -> Self {
        assert!(max_n > 0 && max_offset > 0);
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = (next() % max_n as u64) as usize;
        let offset = (next() % max_offset as u64) as usize;
        let fault = match next() % 4 {
            0 => DiskFault::TruncateAt(offset),
            1 => DiskFault::BitFlipAt(offset),
            2 => DiskFault::CrashBeforeRename,
            _ => DiskFault::StaleManifest,
        };
        DiskFaultPlan::on_save(n, fault)
    }

    /// Apply a scheduled byte-level corruption to an in-memory file image.
    /// Returns `true` when the buffer was modified. (`CrashBeforeRename`
    /// and `StaleManifest` are protocol-level, not byte-level, and return
    /// `false`.)
    pub(crate) fn corrupt_bytes(fault: DiskFault, bytes: &mut Vec<u8>) -> bool {
        match fault {
            DiskFault::TruncateAt(at) if at < bytes.len() => {
                bytes.truncate(at);
                true
            }
            DiskFault::BitFlipAt(at) if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (at % 8);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_disk_plan_addresses_counts() {
        let plan = DiskFaultPlan::on_save(2, DiskFault::TruncateAt(100))
            .and_on_save(0, DiskFault::CrashBeforeRename)
            .and_on_save(1, DiskFault::StaleManifest);
        assert_eq!(plan.for_save(2), Some(DiskFault::TruncateAt(100)));
        assert_eq!(plan.for_save(0), Some(DiskFault::CrashBeforeRename));
        assert_eq!(plan.for_save(1), None, "StaleManifest routes to commits");
        assert!(plan.stale_commit(1));
        assert!(!plan.stale_commit(0));
        assert!(DiskFaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn checkpoint_disk_seeded_plans_deterministic_and_varied() {
        for seed in 0..64u64 {
            let a = DiskFaultPlan::seeded(seed, 3, 1000);
            let b = DiskFaultPlan::seeded(seed, 3, 1000);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
        let distinct: std::collections::BTreeSet<String> = (0..64)
            .map(|s| format!("{:?}", DiskFaultPlan::seeded(s, 3, 1000)))
            .collect();
        assert!(
            distinct.len() > 8,
            "seeded plans must vary: {}",
            distinct.len()
        );
    }

    #[test]
    fn checkpoint_corrupt_bytes_behaviour() {
        let mut buf: Vec<u8> = (0..=255).collect();
        assert!(DiskFaultPlan::corrupt_bytes(
            DiskFault::TruncateAt(10),
            &mut buf
        ));
        assert_eq!(buf.len(), 10);
        let before = buf.clone();
        assert!(DiskFaultPlan::corrupt_bytes(
            DiskFault::BitFlipAt(1234),
            &mut buf
        ));
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.iter().zip(&before).filter(|(a, b)| a != b).count(), 1);
        // Protocol-level faults leave bytes alone.
        assert!(!DiskFaultPlan::corrupt_bytes(
            DiskFault::CrashBeforeRename,
            &mut buf
        ));
        assert!(!DiskFaultPlan::corrupt_bytes(
            DiskFault::StaleManifest,
            &mut buf
        ));
        // Truncation beyond length is a no-op.
        assert!(!DiskFaultPlan::corrupt_bytes(
            DiskFault::TruncateAt(99),
            &mut buf
        ));
    }
}
