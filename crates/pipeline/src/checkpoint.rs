//! Checkpoints: atomic (epoch, offsets, state) snapshots.
//!
//! The streaming engine commits a checkpoint after each micro-batch:
//! the batch epoch, the consumer offsets *after* the batch, and the
//! state snapshot. Recovery loads the latest checkpoint and replays
//! from there — with an idempotent sink this yields exactly-once output
//! (§V-B: "advanced failure and recovery mechanisms that can be
//! difficult to re-engineer from scratch" — re-engineered here).

use crate::error::PipelineError;
use oda_faults::{FaultKind, FaultPoint, FaultSite};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One committed checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Micro-batch epoch (0-based, dense).
    pub epoch: u64,
    /// partition -> next offset to read.
    pub offsets: BTreeMap<u32, u64>,
    /// Serialized [`crate::state::StateStore`].
    pub state: Vec<u8>,
}

/// What the store retains: the newest checkpoint and how many were
/// ever committed (which is also the next epoch it will accept).
#[derive(Debug, Default)]
struct Log {
    latest: Option<Checkpoint>,
    committed: u64,
}

/// Durable checkpoint store (in-memory stand-in for a checkpoint
/// directory). Recovery only ever reads the newest checkpoint, so that
/// is all it keeps: memory stays bounded by one snapshot however long
/// the query runs.
#[derive(Debug, Default, Clone)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Log>>,
    faults: Arc<Mutex<Option<Arc<dyn FaultPoint>>>>,
}

impl CheckpointStore {
    /// Empty store.
    pub fn new() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// Arm a fault plan: `try_commit` consults it before persisting.
    /// Shared across clones, like the checkpoint log itself.
    pub fn arm_faults(&self, faults: Arc<dyn FaultPoint>) {
        *self.faults.lock() = Some(faults);
    }

    /// Commit a checkpoint. Epochs must be dense and increasing; a
    /// violation (or an injected fault) panics. Fault-tolerant callers
    /// use [`CheckpointStore::try_commit`] instead.
    pub fn commit(&self, cp: Checkpoint) {
        if let Err(e) = self.try_commit(cp) {
            panic!("{e}");
        }
    }

    /// Commit a checkpoint, surfacing density violations and injected
    /// `CheckpointLost` faults as errors instead of panicking. A lost
    /// commit leaves the store untouched — the failure is *visible* to
    /// the caller (a crashed commit, never a silently-missing epoch), so
    /// the dense-epoch invariant always holds for what is stored.
    pub fn try_commit(&self, cp: Checkpoint) -> Result<(), PipelineError> {
        let armed = self.faults.lock().clone();
        if let Some(f) = armed {
            if f.check(FaultSite::CheckpointCommit, cp.epoch).is_some() {
                return Err(PipelineError::Injected(FaultKind::CheckpointLost));
            }
        }
        let mut inner = self.inner.lock();
        if cp.epoch != inner.committed {
            return Err(PipelineError::CheckpointGap {
                expected: inner.committed,
                got: cp.epoch,
            });
        }
        inner.latest = Some(cp);
        inner.committed += 1;
        Ok(())
    }

    /// Latest committed checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.inner.lock().latest.clone()
    }

    /// Number of checkpoints ever committed.
    pub fn len(&self) -> usize {
        self.inner.lock().committed as usize
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().committed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_and_latest() {
        let store = CheckpointStore::new();
        assert!(store.latest().is_none());
        store.commit(Checkpoint {
            epoch: 0,
            offsets: BTreeMap::new(),
            state: vec![1],
        });
        store.commit(Checkpoint {
            epoch: 1,
            offsets: [(0u32, 10u64)].into_iter().collect(),
            state: vec![2],
        });
        let latest = store.latest().unwrap();
        assert_eq!(latest.epoch, 1);
        assert_eq!(latest.offsets[&0], 10);
        assert_eq!(store.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_epochs_rejected() {
        let store = CheckpointStore::new();
        store.commit(Checkpoint {
            epoch: 5,
            offsets: BTreeMap::new(),
            state: vec![],
        });
    }

    #[test]
    fn try_commit_reports_gap_without_panicking() {
        let store = CheckpointStore::new();
        let err = store
            .try_commit(Checkpoint {
                epoch: 5,
                offsets: BTreeMap::new(),
                state: vec![],
            })
            .unwrap_err();
        assert!(err.to_string().contains("dense"));
        assert!(store.is_empty(), "failed commit must not persist");
        store
            .try_commit(Checkpoint {
                epoch: 0,
                offsets: BTreeMap::new(),
                state: vec![],
            })
            .unwrap();
        assert_eq!(store.latest().unwrap().epoch, 0);
    }

    #[test]
    fn injected_checkpoint_loss_is_a_visible_failure() {
        use oda_faults::{FaultPlan, FaultSpec};
        use std::sync::Arc;
        let store = CheckpointStore::new();
        store.arm_faults(Arc::new(FaultPlan::new(
            1,
            FaultSpec {
                checkpoint_lost: 1.0,
                ..FaultSpec::default()
            },
        )));
        let err = store
            .try_commit(Checkpoint {
                epoch: 0,
                offsets: BTreeMap::new(),
                state: vec![],
            })
            .unwrap_err();
        assert!(err.to_string().contains("checkpoint lost"));
        assert!(
            store.is_empty(),
            "a lost commit must be all-or-nothing, never a silent hole"
        );
    }

    #[test]
    fn concurrent_committers_keep_epochs_dense_and_latest_monotone() {
        // Many threads race to commit the next epoch; only one wins each
        // round. Density and latest-monotonicity must hold throughout.
        let store = CheckpointStore::new();
        let target = 50u64;
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let mut observed = Vec::new();
                    loop {
                        let next = store.latest().map_or(0, |cp| cp.epoch + 1);
                        if next >= target {
                            break;
                        }
                        // Losing the race yields CheckpointGap; that is
                        // the expected contention signal, not corruption.
                        let _ = store.try_commit(Checkpoint {
                            epoch: next,
                            offsets: BTreeMap::new(),
                            state: vec![],
                        });
                        observed.push(store.latest().expect("nonempty").epoch);
                    }
                    observed
                })
            })
            .collect();
        for t in threads {
            let observed = t.join().unwrap();
            assert!(
                observed.windows(2).all(|w| w[0] <= w[1]),
                "latest() must be monotone per observer"
            );
        }
        assert_eq!(store.len() as u64, target, "exactly one winner per epoch");
        assert_eq!(store.latest().unwrap().epoch, target - 1);
    }

    #[test]
    fn clones_share_storage() {
        let a = CheckpointStore::new();
        let b = a.clone();
        a.commit(Checkpoint {
            epoch: 0,
            offsets: BTreeMap::new(),
            state: vec![],
        });
        assert_eq!(b.len(), 1);
    }
}
