//! Background snapshot writer: training never blocks on checkpoint I/O.
//!
//! The training loop hands a [`Snapshot`] — whose tensors are `Arc`-shared
//! clones of the live parameters, O(1) to take — to a dedicated writer
//! thread and immediately continues stepping. Because tensors are
//! immutable, the snapshot is a consistent point-in-time view even while
//! the optimizer replaces the live values underneath it.
//!
//! The writer drains jobs in order: save this rank's shard via the
//! [`CheckpointDir`] atomic protocol, and (on rank 0) commit the step's
//! manifest once every rank's shard has appeared. I/O errors never unwind
//! into the training thread — they are parked in a shared ledger the loop
//! inspects via [`SnapshotWriter::take_errors`]; durable checkpointing
//! degrades, training continues.

use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::dir::CheckpointDir;
use super::{CheckpointError, Snapshot};

enum Job {
    Snap(Snapshot),
    Flush(Sender<()>),
}

/// Handle to the background writer thread for one rank's checkpoints.
pub struct SnapshotWriter {
    tx: Option<Sender<Job>>,
    handle: Option<JoinHandle<()>>,
    errors: Arc<Mutex<Vec<(u64, CheckpointError)>>>,
}

impl SnapshotWriter {
    /// Spawn the writer over `dir`. The rank-0 writer additionally commits
    /// each step's manifest, waiting up to `commit_deadline` for the other
    /// ranks' shard files to appear.
    pub fn spawn(dir: CheckpointDir, commit_deadline: Duration) -> SnapshotWriter {
        let errors: Arc<Mutex<Vec<(u64, CheckpointError)>>> = Arc::default();
        let ledger = Arc::clone(&errors);
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = std::thread::Builder::new()
            .name(format!("ckpt-writer-r{}", dir.rank()))
            .spawn(move || {
                for job in rx {
                    match job {
                        Job::Snap(snap) => {
                            let step = snap.step;
                            let result = dir.save_shard(&snap).and_then(|()| {
                                if dir.rank() == 0 {
                                    dir.commit(step, commit_deadline)
                                } else {
                                    Ok(())
                                }
                            });
                            if let Err(e) = result {
                                ledger.lock().unwrap().push((step, e));
                            }
                        }
                        Job::Flush(reply) => {
                            let _ = reply.send(());
                        }
                    }
                }
            })
            .expect("spawn checkpoint writer thread");
        SnapshotWriter {
            tx: Some(tx),
            handle: Some(handle),
            errors,
        }
    }

    /// Enqueue a snapshot for durable writing. Returns the enqueue cost —
    /// the *only* time the training thread spends on this checkpoint.
    pub fn snapshot(&self, snap: Snapshot) -> Result<Duration, CheckpointError> {
        let start = Instant::now();
        self.tx
            .as_ref()
            .expect("writer running")
            .send(Job::Snap(snap))
            .map_err(|_| CheckpointError::WriterDead)?;
        Ok(start.elapsed())
    }

    /// Block until every snapshot enqueued so far has been written (and,
    /// on rank 0, committed).
    pub fn flush(&self) -> Result<(), CheckpointError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .as_ref()
            .expect("writer running")
            .send(Job::Flush(reply_tx))
            .map_err(|_| CheckpointError::WriterDead)?;
        reply_rx.recv().map_err(|_| CheckpointError::WriterDead)
    }

    /// Drain the writer's error ledger: `(step, cause)` for every snapshot
    /// that failed to persist.
    pub fn take_errors(&self) -> Vec<(u64, CheckpointError)> {
        std::mem::take(&mut *self.errors.lock().unwrap())
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::faults::{DiskFault, DiskFaultPlan};
    use super::*;
    use crate::param::ParamStore;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("dchag_ckptwr_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn snap(seed: u64, step: u64) -> Snapshot {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        store.add("w", Tensor::randn([32, 8], 1.0, &mut rng));
        Snapshot::of_store(&store, step)
    }

    #[test]
    fn checkpoint_writer_persists_in_background() {
        let root = tmp_root("bg");
        let dir = CheckpointDir::open(&root, 0, 1).unwrap().with_retain(2);
        let w = SnapshotWriter::spawn(dir, Duration::from_secs(2));
        for step in [0u64, 2, 4] {
            let enqueue = w.snapshot(snap(step + 1, step)).unwrap();
            // Enqueue is an O(1) clone+send, far below any real I/O time.
            assert!(
                enqueue < Duration::from_millis(100),
                "enqueue took {enqueue:?}"
            );
        }
        w.flush().unwrap();
        assert!(w.take_errors().is_empty());
        let check = CheckpointDir::open(&root, 0, 1).unwrap();
        let v = check.latest_valid().unwrap();
        assert_eq!(v.step, 4);
        let loaded = check.load_shard(4, 0).unwrap();
        assert_eq!(
            loaded.entries[0].value.to_vec(),
            snap(5, 4).entries[0].value.to_vec()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_writer_parks_errors_instead_of_unwinding() {
        let root = tmp_root("err");
        let dir = CheckpointDir::open(&root, 0, 1)
            .unwrap()
            .with_faults(DiskFaultPlan::on_save(0, DiskFault::CrashBeforeRename));
        let w = SnapshotWriter::spawn(dir, Duration::from_millis(30));
        w.snapshot(snap(1, 0)).unwrap();
        w.flush().unwrap();
        let errs = w.take_errors();
        assert_eq!(
            errs,
            vec![(0, CheckpointError::MissingShard { step: 0, rank: 0 })]
        );
        // Later snapshots still go through.
        w.snapshot(snap(2, 2)).unwrap();
        w.flush().unwrap();
        assert!(w.take_errors().is_empty());
        let check = CheckpointDir::open(&root, 0, 1).unwrap();
        assert_eq!(check.latest_valid().unwrap().step, 2);
        let _ = std::fs::remove_dir_all(&root);
    }
}
