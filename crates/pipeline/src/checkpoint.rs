//! Checkpoints: atomic (epoch, offsets, state) commits.
//!
//! The streaming engine commits a checkpoint after each micro-batch:
//! the batch epoch, the consumer offsets *after* the batch, and the
//! state bytes — a base snapshot or a delta onto the checkpoint before
//! (see [`crate::state`]). Recovery loads the newest base and the deltas
//! after it and replays from there — with an idempotent sink this yields
//! exactly-once output (§V-B: "advanced failure and recovery mechanisms
//! that can be difficult to re-engineer from scratch" — re-engineered
//! here).

use crate::error::PipelineError;
use crate::state::is_delta;
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
    /// The [`crate::state::StateStore`] bytes committed at this epoch:
    /// a base snapshot, or a delta onto the previous checkpoint.
    pub state: Vec<u8>,
}

/// What the store retains: the newest base, the deltas committed since,
/// and how many checkpoints were ever committed (which is also the next
/// epoch it will accept).
#[derive(Debug, Default)]
struct Log {
    /// The newest base first, then every delta after it.
    chain: Vec<Checkpoint>,
    /// The [`weight`] of the deltas in `chain`.
    delta_weight: usize,
    committed: u64,
}

/// What holding a checkpoint costs the store: its state bytes, its
/// offsets (a `u32` partition and a `u64` offset each) and the record
/// itself. Every link weighs at least the record, so even a run of
/// near-empty deltas is ended by a base after a bounded number of links.
fn weight(cp: &Checkpoint) -> usize {
    std::mem::size_of::<Checkpoint>() + cp.state.len() + cp.offsets.len() * 12
}

/// Durable checkpoint store (in-memory stand-in for a checkpoint
/// directory). Recovery reads the newest base and the deltas after it,
/// so that is all it keeps. A new base is due once those deltas weigh
/// as much as the base (`CheckpointStore::wants_base`), so what it
/// holds, and what recovery reads, stays under two bases' weight plus
/// the newest delta however long the query runs.
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
        // A delta extends the chain; anything else starts a new one (and
        // bytes that are no snapshot at all fail recovery).
        if is_delta(&cp.state) && !inner.chain.is_empty() {
            inner.delta_weight += weight(&cp);
        } else {
            inner.chain.clear();
            inner.delta_weight = 0;
        }
        inner.chain.push(cp);
        inner.committed += 1;
        Ok(())
    }

    /// Latest committed checkpoint, if any.
    pub fn latest(&self) -> Option<Checkpoint> {
        self.inner.lock().chain.last().cloned()
    }

    /// What recovery reads: the newest base, then the deltas after it.
    pub(crate) fn chain(&self) -> Vec<Checkpoint> {
        self.inner.lock().chain.clone()
    }

    /// Whether the next checkpoint should be a base: none is stored yet,
    /// or the deltas since the last one weigh as much as it.
    pub(crate) fn wants_base(&self) -> bool {
        let inner = self.inner.lock();
        inner
            .chain
            .first()
            .is_none_or(|base| inner.delta_weight >= weight(base))
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

    /// Bytes the store takes for a delta: a version-3 delta header,
    /// padded to `len`.
    fn delta(len: usize) -> Vec<u8> {
        let mut bytes = b"ODAS".to_vec();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.push(1);
        bytes.resize(len, 0);
        bytes
    }

    #[test]
    fn a_base_is_due_once_the_deltas_since_it_grow_as_large_as_it() {
        let store = CheckpointStore::new();
        let cp = |epoch, state| Checkpoint {
            epoch,
            offsets: BTreeMap::new(),
            state,
        };
        let epochs = || store.chain().iter().map(|c| c.epoch).collect::<Vec<_>>();
        assert!(store.wants_base(), "nothing to build a delta on");
        store.commit(cp(0, vec![0; 100]));
        assert!(!store.wants_base());
        store.commit(cp(1, delta(60)));
        assert!(!store.wants_base(), "60 bytes of deltas onto 100");
        store.commit(cp(2, delta(40)));
        assert!(store.wants_base(), "100 bytes of deltas onto 100");
        assert_eq!(epochs(), [0, 1, 2]);
        assert_eq!(store.latest().unwrap().state, delta(40));
        // A new base drops the chain it ends.
        store.commit(cp(3, vec![0; 120]));
        assert_eq!(epochs(), [3]);
        assert!(!store.wants_base());
        assert_eq!((store.len(), store.latest().unwrap().epoch), (4, 3));
        // Offsets weigh too: a 10-byte delta carrying 16 partitions'
        // offsets (192 bytes) outweighs a 120-byte base without any.
        store.commit(Checkpoint {
            epoch: 4,
            offsets: (0..16).map(|p| (p, 0)).collect(),
            state: delta(10),
        });
        assert!(store.wants_base());
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
