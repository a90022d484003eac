//! The on-disk crash-consistent checkpoint protocol.
//!
//! One shared directory holds every rank's shard files plus one manifest
//! per committed step:
//!
//! ```text
//! step-00000004.rank0.ckpt      (format-v2 snapshot bytes, rank 0's shard)
//! step-00000004.rank1.ckpt
//! step-00000004.manifest        (commit record: world, grid, per-shard CRCs)
//! ```
//!
//! **Manifest v2.** The manifest is a short text file:
//!
//! ```text
//! DCHAG-MANIFEST v2
//! step 4
//! world 2
//! grid 2 1
//! shard 0 <content digest hex> <byte length>
//! shard 1 <content digest hex> <byte length>
//! crc <CRC32 of every line above>
//! ```
//!
//! Each `shard` line binds that rank's file by its length and its content
//! digest: the CRC32 of the shard's own entry, section and footer CRCs
//! (`content_digest` in the parent module). Two valid shards of equal
//! length (two ranks' files swapped, or a file from another run)
//! therefore fail the manifest check. No CRC over the file bytes could do
//! this: each block of a shard is followed by its own CRC, which makes any
//! enclosing CRC-32 blind to the block's contents, so the footer is the
//! same for every shard of one layout and the whole-file CRC is the
//! constant residue `0x2144DF1C`. Version 1 recorded that residue, so it
//! checked only the length; it is refused with
//! [`CheckpointError::BadManifest`]. Computing the digest walks the
//! framing and reads no payload, so committing costs no checksum pass.
//!
//! **Atomicity.** Every file — shard or manifest — is published by
//! write-to-temp → `fsync` → `rename` → directory-`fsync`. A crash at any
//! point leaves either the old state or the new state, never a torn file
//! under the final name; the rename is the commit point and the directory
//! fsync makes it durable.
//!
//! **Commit.** Ranks save their shards independently (no communicator in
//! the checkpoint path — it must work while the collectives layer is
//! degraded). Rank 0 *commits* a step by polling the directory until all
//! `world` shard files exist (rename-atomicity means existence implies
//! completeness), recording each one's length and content digest, and
//! atomically publishing the manifest. A step without a manifest was never
//! committed and is ignored by recovery.
//!
//! **Selection.** [`CheckpointDir::latest_valid`] walks manifests
//! newest-first and *fully validates* each candidate — manifest self-CRC,
//! the shard's own format-v2 checksums (footer, section and entry CRCs),
//! and each shard's length and content digest against the manifest —
//! falling back past corrupt or incomplete steps and recording a typed
//! [`CheckpointError`] cause for every step it skips.
//!
//! **Retention.** After a successful commit, all but the newest
//! `retain` committed steps are garbage-collected (manifest deleted first,
//! so a crash mid-GC leaves harmless orphan shards, never a manifest
//! pointing at deleted shards).

use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use super::faults::{DiskFault, DiskFaultPlan};
use super::{content_digest, crc32, io_err, CheckpointError, Snapshot};

/// What a manifest records: `(world, grid, per-shard (content digest, byte
/// length))`.
type ManifestInfo = (usize, Vec<usize>, Vec<(u32, usize)>);

/// The newest fully-validated checkpoint in a directory, plus the typed
/// causes for every newer step that failed validation and was skipped.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidCheckpoint {
    pub step: u64,
    /// World size that saved the checkpoint (number of shard files).
    pub world: usize,
    /// Process-grid axes recorded at commit (empty when unspecified).
    pub grid: Vec<usize>,
    /// Newer steps rejected during selection: `(step, cause)`.
    pub skipped: Vec<(u64, CheckpointError)>,
}

/// Handle to a durable checkpoint directory for one rank.
pub struct CheckpointDir {
    root: PathBuf,
    rank: usize,
    world: usize,
    grid: Vec<usize>,
    retain: usize,
    faults: DiskFaultPlan,
    saves: AtomicUsize,
    commits: AtomicUsize,
}

fn shard_name(step: u64, rank: usize) -> String {
    format!("step-{step:08}.rank{rank}.ckpt")
}

/// Header line of the manifest format this build writes and reads.
const MANIFEST_HEADER: &str = "DCHAG-MANIFEST v2";

fn manifest_name(step: u64) -> String {
    format!("step-{step:08}.manifest")
}

/// Parse `step-{step:08}.manifest` → step.
fn manifest_step(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("step-")?.strip_suffix(".manifest")?;
    rest.parse().ok()
}

/// Parse `step-{step:08}.rank{r}.ckpt` → (step, rank).
fn shard_step_rank(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("step-")?.strip_suffix(".ckpt")?;
    let (step, rank) = rest.split_once(".rank")?;
    Some((step.parse().ok()?, rank.parse().ok()?))
}

impl CheckpointDir {
    /// Open (creating if needed) the shared checkpoint directory as `rank`
    /// of a `world`-rank run. Defaults: retain the 2 newest committed
    /// steps, empty grid, no injected faults.
    pub fn open(
        root: impl Into<PathBuf>,
        rank: usize,
        world: usize,
    ) -> Result<CheckpointDir, CheckpointError> {
        assert!(world > 0 && rank < world, "rank {rank} of world {world}");
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create checkpoint dir", e))?;
        Ok(CheckpointDir {
            root,
            rank,
            world,
            grid: Vec::new(),
            retain: 2,
            faults: DiskFaultPlan::none(),
            saves: AtomicUsize::new(0),
            commits: AtomicUsize::new(0),
        })
    }

    /// Record the process-grid axes in every manifest this handle commits.
    pub fn with_grid(mut self, grid: Vec<usize>) -> Self {
        self.grid = grid;
        self
    }

    /// Keep the newest `retain` committed steps after each commit.
    pub fn with_retain(mut self, retain: usize) -> Self {
        self.retain = retain.max(1);
        self
    }

    /// Arm a deterministic disk fault plan on this handle.
    pub fn with_faults(mut self, faults: DiskFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world(&self) -> usize {
        self.world
    }

    fn dir_fsync(&self) -> Result<(), CheckpointError> {
        let d = File::open(&self.root).map_err(|e| io_err("open dir for fsync", e))?;
        d.sync_all().map_err(|e| io_err("fsync dir", e))
    }

    /// Atomically publish `bytes` as `name` in the directory:
    /// temp → write → fsync → rename → dir-fsync.
    fn publish(&self, name: &str, bytes: &[u8], rename: bool) -> Result<(), CheckpointError> {
        let tmp = self
            .root
            .join(format!(".{name}.{}.tmp", std::process::id()));
        let mut f = File::create(&tmp).map_err(|e| io_err("create temp file", e))?;
        f.write_all(bytes)
            .map_err(|e| io_err("write temp file", e))?;
        f.sync_all().map_err(|e| io_err("fsync temp file", e))?;
        drop(f);
        if !rename {
            // Injected CrashBeforeRename: the write "succeeded" but the
            // file never becomes visible under its final name.
            return Ok(());
        }
        fs::rename(&tmp, self.root.join(name)).map_err(|e| io_err("rename into place", e))?;
        self.dir_fsync()
    }

    /// Atomically save this rank's shard of `snapshot` for its step.
    /// Applies any armed [`DiskFaultPlan`] fault addressed at this
    /// handle's save count.
    pub fn save_shard(&self, snapshot: &Snapshot) -> Result<(), CheckpointError> {
        let n = self.saves.fetch_add(1, Ordering::Relaxed);
        let mut bytes = snapshot.to_bytes();
        let mut rename = true;
        if let Some(fault) = self.faults.for_save(n) {
            if fault == DiskFault::CrashBeforeRename {
                rename = false;
            } else {
                DiskFaultPlan::corrupt_bytes(fault, &mut bytes);
            }
        }
        self.publish(&shard_name(snapshot.step, self.rank), &bytes, rename)
    }

    /// Commit `step`: wait (bounded by `deadline`) until all `world` shard
    /// files exist, record each one's length and content digest, atomically
    /// publish the manifest, then garbage-collect old steps. Rank 0 calls
    /// this; other ranks only save.
    pub fn commit(&self, step: u64, deadline: Duration) -> Result<(), CheckpointError> {
        let n = self.commits.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        loop {
            let missing = (0..self.world).find(|&r| !self.root.join(shard_name(step, r)).exists());
            match missing {
                None => break,
                Some(rank) => {
                    if start.elapsed() >= deadline {
                        return Err(CheckpointError::MissingShard { step, rank });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        body.push_str(&format!("step {step}\n"));
        body.push_str(&format!("world {}\n", self.world));
        body.push_str("grid");
        for g in &self.grid {
            body.push_str(&format!(" {g}"));
        }
        body.push('\n');
        for r in 0..self.world {
            let bytes = fs::read(self.root.join(shard_name(step, r)))
                .map_err(|e| io_err("read shard for commit", e))?;
            // A shard whose framing does not parse is recorded as 0:
            // selection rejects it by its parse error before comparing.
            let mut digest = content_digest(&bytes).unwrap_or(0);
            if r == 0 && self.faults.stale_commit(n) {
                // Injected lost-write: the manifest records a checksum the
                // shard bytes do not have.
                digest ^= 0xFFFF_FFFF;
            }
            body.push_str(&format!("shard {r} {digest:08x} {}\n", bytes.len()));
        }
        body.push_str(&format!("crc {:08x}\n", crc32(body.as_bytes())));
        self.publish(&manifest_name(step), body.as_bytes(), true)?;
        self.gc()
    }

    /// Committed steps present in the directory, ascending.
    pub fn committed_steps(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut steps = Vec::new();
        let rd = fs::read_dir(&self.root).map_err(|e| io_err("read checkpoint dir", e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_err("read checkpoint dir entry", e))?;
            if let Some(step) = entry.file_name().to_str().and_then(manifest_step) {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Delete all but the newest `retain` committed steps (and any orphan
    /// shards older than the oldest kept step). Manifests go first so a
    /// crash mid-GC can only leave orphan shards, never a manifest whose
    /// shards are gone.
    fn gc(&self) -> Result<(), CheckpointError> {
        let steps = self.committed_steps()?;
        if steps.len() <= self.retain {
            return Ok(());
        }
        let keep_from = steps[steps.len() - self.retain];
        for &step in steps.iter().filter(|&&s| s < keep_from) {
            let _ = fs::remove_file(self.root.join(manifest_name(step)));
        }
        let rd = fs::read_dir(&self.root).map_err(|e| io_err("read checkpoint dir", e))?;
        for entry in rd.flatten() {
            if let Some((step, _)) = entry.file_name().to_str().and_then(shard_step_rank) {
                if step < keep_from {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        self.dir_fsync()
    }

    fn parse_manifest(&self, step: u64) -> Result<ManifestInfo, CheckpointError> {
        let bad = |what: &str| CheckpointError::BadManifest {
            step,
            what: what.to_string(),
        };
        let text = fs::read_to_string(self.root.join(manifest_name(step)))
            .map_err(|e| io_err("read manifest", e))?;
        let Some((head, crc_line)) = text.trim_end_matches('\n').rsplit_once('\n') else {
            return Err(bad("single-line manifest"));
        };
        let body = &text[..head.len() + 1]; // everything the crc line covers
        let want = crc_line
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("missing crc line"))?;
        if crc32(body.as_bytes()) != want {
            return Err(bad("manifest self-checksum mismatch"));
        }
        let mut lines = head.lines();
        match lines.next() {
            Some(MANIFEST_HEADER) => {}
            // v1 recorded whole-file CRCs: a constant for every valid shard.
            Some("DCHAG-MANIFEST v1") => return Err(bad("unsupported manifest version 1")),
            _ => return Err(bad("bad header")),
        }
        let step_line = lines.next().ok_or_else(|| bad("missing step line"))?;
        let recorded: u64 = step_line
            .strip_prefix("step ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad step line"))?;
        if recorded != step {
            return Err(bad("step disagrees with filename"));
        }
        let world: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("world "))
            .and_then(|s| s.parse().ok())
            .filter(|&w| w > 0)
            .ok_or_else(|| bad("bad world line"))?;
        let grid: Vec<usize> = lines
            .next()
            .and_then(|l| l.strip_prefix("grid"))
            .ok_or_else(|| bad("bad grid line"))?
            .split_whitespace()
            .map(|s| s.parse().map_err(|_| bad("bad grid axis")))
            .collect::<Result<_, _>>()?;
        let mut shards = Vec::with_capacity(world);
        for r in 0..world {
            let line = lines.next().ok_or_else(|| bad("missing shard line"))?;
            let rest = line
                .strip_prefix(&format!("shard {r} "))
                .ok_or_else(|| bad("bad shard line"))?;
            let (digest_hex, len) = rest.split_once(' ').ok_or_else(|| bad("bad shard line"))?;
            let digest =
                u32::from_str_radix(digest_hex, 16).map_err(|_| bad("bad shard digest"))?;
            let len: usize = len.parse().map_err(|_| bad("bad shard length"))?;
            shards.push((digest, len));
        }
        Ok((world, grid, shards))
    }

    /// Fully validate the committed `step`: manifest self-CRC, every shard
    /// file's length against the manifest, each shard's internal format
    /// checksums, then its content digest against the manifest. The
    /// format checks come first, so a shard torn before the commit reports
    /// its own cause (`FileCrc`, `Truncated`, ...) while an intact shard
    /// the manifest does not describe reports `ShardCrc`.
    fn validate_step(&self, step: u64) -> Result<(usize, Vec<usize>), CheckpointError> {
        let (world, grid, shards) = self.parse_manifest(step)?;
        for (rank, &(digest, len)) in shards.iter().enumerate() {
            let path = self.root.join(shard_name(step, rank));
            if !path.exists() {
                return Err(CheckpointError::MissingShard { step, rank });
            }
            let bytes = fs::read(&path).map_err(|e| io_err("read shard", e))?;
            if bytes.len() != len {
                return Err(CheckpointError::ShardCrc { step, rank });
            }
            Snapshot::from_bytes(&bytes)?;
            if content_digest(&bytes)? != digest {
                return Err(CheckpointError::ShardCrc { step, rank });
            }
        }
        Ok((world, grid))
    }

    /// Select the newest committed step that survives full validation,
    /// recording a typed cause for every newer step skipped. Errors with
    /// [`CheckpointError::NoValidCheckpoint`] when nothing survives.
    pub fn latest_valid(&self) -> Result<ValidCheckpoint, CheckpointError> {
        let mut steps = self.committed_steps()?;
        steps.reverse();
        let mut skipped = Vec::new();
        for step in steps {
            match self.validate_step(step) {
                Ok((world, grid)) => {
                    return Ok(ValidCheckpoint {
                        step,
                        world,
                        grid,
                        skipped,
                    })
                }
                Err(cause) => skipped.push((step, cause)),
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    /// Load one rank's shard snapshot of a committed step.
    pub fn load_shard(&self, step: u64, rank: usize) -> Result<Snapshot, CheckpointError> {
        let path = self.root.join(shard_name(step, rank));
        if !path.exists() {
            return Err(CheckpointError::MissingShard { step, rank });
        }
        let bytes = fs::read(&path).map_err(|e| io_err("read shard", e))?;
        Snapshot::from_bytes(&bytes)
    }

    /// Load the complete shard set of a committed step, in rank order —
    /// the input [`super::merge_shards`] expects for reshard-on-load.
    pub fn load_all_shards(&self, step: u64) -> Result<Vec<Snapshot>, CheckpointError> {
        let (world, _, _) = self.parse_manifest(step)?;
        (0..world).map(|r| self.load_shard(step, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    fn tmp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dchag_ckptdir_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn snap(seed: u64, step: u64) -> Snapshot {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        store.add("w", Tensor::randn([8, 4], 1.0, &mut rng));
        store.add("b", Tensor::randn([4], 1.0, &mut rng));
        Snapshot::of_store(&store, step)
    }

    fn quick() -> Duration {
        Duration::from_millis(200)
    }

    #[test]
    fn checkpoint_dir_commit_select_and_retention() {
        let root = tmp_root("roundtrip");
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_retain(2)
            .with_grid(vec![1]);
        for step in [0u64, 2, 4, 6] {
            dir.save_shard(&snap(step + 1, step)).unwrap();
            dir.commit(step, quick()).unwrap();
        }
        // retain=2: only steps 4 and 6 survive GC.
        assert_eq!(dir.committed_steps().unwrap(), vec![4, 6]);
        assert!(
            !root.join("step-00000000.rank0.ckpt").exists(),
            "old shards GCed"
        );
        let v = dir.latest_valid().unwrap();
        assert_eq!((v.step, v.world, v.grid.as_slice()), (6, 1, &[1][..]));
        assert!(v.skipped.is_empty());
        let loaded = dir.load_shard(6, 0).unwrap();
        assert_eq!(loaded.step, 6);
        let want = snap(7, 6);
        assert_eq!(
            loaded.entries[0].value.to_vec(),
            want.entries[0].value.to_vec()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_falls_back_past_torn_newest_with_typed_cause() {
        let root = tmp_root("torn");
        // Save #1 (the step-2 shard) is torn at byte 40.
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_faults(DiskFaultPlan::on_save(1, DiskFault::TruncateAt(40)));
        dir.save_shard(&snap(1, 0)).unwrap();
        dir.commit(0, quick()).unwrap();
        dir.save_shard(&snap(2, 2)).unwrap();
        dir.commit(2, quick()).unwrap();
        let v = dir.latest_valid().unwrap();
        assert_eq!(v.step, 0, "fell back to the intact step");
        assert_eq!(v.skipped.len(), 1);
        assert_eq!(v.skipped[0].0, 2);
        assert!(
            matches!(
                v.skipped[0].1,
                CheckpointError::Truncated { .. } | CheckpointError::FileCrc
            ),
            "typed cause: {:?}",
            v.skipped[0].1
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_bit_flip_detected_on_selection() {
        let root = tmp_root("flip");
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_faults(DiskFaultPlan::on_save(1, DiskFault::BitFlipAt(97)));
        dir.save_shard(&snap(1, 0)).unwrap();
        dir.commit(0, quick()).unwrap();
        dir.save_shard(&snap(2, 2)).unwrap();
        dir.commit(2, quick()).unwrap();
        let v = dir.latest_valid().unwrap();
        assert_eq!(v.step, 0);
        assert!(v.skipped.iter().any(|(s, _)| *s == 2));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_stale_manifest_detected() {
        let root = tmp_root("stale");
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_faults(DiskFaultPlan::on_save(1, DiskFault::StaleManifest));
        dir.save_shard(&snap(1, 0)).unwrap();
        dir.commit(0, quick()).unwrap();
        dir.save_shard(&snap(2, 2)).unwrap();
        dir.commit(2, quick()).unwrap(); // commit #1 writes a stale crc
        let v = dir.latest_valid().unwrap();
        assert_eq!(v.step, 0);
        assert_eq!(
            v.skipped[0],
            (2, CheckpointError::ShardCrc { step: 2, rank: 0 })
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_crash_before_rename_never_publishes() {
        let root = tmp_root("crash");
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_faults(DiskFaultPlan::on_save(1, DiskFault::CrashBeforeRename));
        dir.save_shard(&snap(1, 0)).unwrap();
        dir.commit(0, quick()).unwrap();
        dir.save_shard(&snap(2, 2)).unwrap(); // "succeeds" but never appears
        assert!(!root.join("step-00000002.rank0.ckpt").exists());
        assert_eq!(
            dir.commit(2, Duration::from_millis(30)),
            Err(CheckpointError::MissingShard { step: 2, rank: 0 })
        );
        // The aborted step is invisible to recovery; step 0 still wins.
        assert_eq!(dir.latest_valid().unwrap().step, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_multi_rank_commit_waits_for_all_shards() {
        let root = tmp_root("world");
        let d0 = CheckpointDir::open(&root, 0, 2)
            .unwrap()
            .with_grid(vec![2, 1]);
        let d1 = CheckpointDir::open(&root, 1, 2).unwrap();
        // Rank 1 saves late, from another thread; rank 0's commit polls.
        let r1 = {
            let root = root.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let d1b = CheckpointDir::open(&root, 1, 2).unwrap();
                d1b.save_shard(&snap(11, 4)).unwrap();
            })
        };
        d0.save_shard(&snap(10, 4)).unwrap();
        d0.commit(4, Duration::from_secs(5)).unwrap();
        r1.join().unwrap();
        let v = d0.latest_valid().unwrap();
        assert_eq!((v.step, v.world, v.grid.as_slice()), (4, 2, &[2, 1][..]));
        let shards = d1.load_all_shards(4).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0].entries[0].value.to_vec(),
            snap(10, 4).entries[0].value.to_vec()
        );
        assert_eq!(
            shards[1].entries[0].value.to_vec(),
            snap(11, 4).entries[0].value.to_vec()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_swapped_shards_fail_the_manifest() {
        let root = tmp_root("swap");
        let d0 = CheckpointDir::open(&root, 0, 2).unwrap();
        let d1 = CheckpointDir::open(&root, 1, 2).unwrap();
        for step in [0u64, 2] {
            d0.save_shard(&snap(10 + step, step)).unwrap();
            d1.save_shard(&snap(20 + step, step)).unwrap();
            d0.commit(step, quick()).unwrap();
        }
        let (p0, p1) = (root.join(shard_name(2, 0)), root.join(shard_name(2, 1)));
        let (b0, b1) = (fs::read(&p0).unwrap(), fs::read(&p1).unwrap());
        // Both shards are well formed and of equal length, and no CRC
        // over their bytes tells them apart: the footers agree, and the
        // whole-file CRC is the same residue for both.
        assert_ne!(b0, b1);
        assert_eq!(b0.len(), b1.len());
        assert_eq!(b0[b0.len() - 4..], b1[b1.len() - 4..]);
        assert_eq!((crc32(&b0), crc32(&b1)), (0x2144_DF1C, 0x2144_DF1C));
        fs::write(&p0, &b1).unwrap();
        fs::write(&p1, &b0).unwrap();
        let v = d0.latest_valid().unwrap();
        assert_eq!(v.step, 0, "the swapped step is skipped");
        assert_eq!(
            v.skipped,
            vec![(2, CheckpointError::ShardCrc { step: 2, rank: 0 })]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_refuses_v1_manifest() {
        let root = tmp_root("v1");
        let dir = CheckpointDir::open(&root, 0, 1).unwrap();
        dir.save_shard(&snap(1, 0)).unwrap();
        dir.commit(0, quick()).unwrap();
        assert_eq!(dir.latest_valid().unwrap().step, 0);
        // The same manifest under the version-1 header, self-CRC redone.
        let path = root.join(manifest_name(0));
        let text = fs::read_to_string(&path).unwrap();
        let head =
            text[..text.rfind("crc ").unwrap()].replace(MANIFEST_HEADER, "DCHAG-MANIFEST v1");
        fs::write(&path, format!("{head}crc {:08x}\n", crc32(head.as_bytes()))).unwrap();
        let v1 = dir.validate_step(0).unwrap_err();
        assert!(
            matches!(&v1, CheckpointError::BadManifest { step: 0, what } if what.contains("version 1")),
            "{v1:?}"
        );
        assert_eq!(dir.latest_valid(), Err(CheckpointError::NoValidCheckpoint));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_dir_empty_directory_is_typed() {
        let root = tmp_root("empty");
        let dir = CheckpointDir::open(&root, 0, 1).unwrap();
        assert_eq!(dir.latest_valid(), Err(CheckpointError::NoValidCheckpoint));
        let _ = fs::remove_dir_all(&root);
    }
}
