//! One thread-registration helper shared by every per-thread
//! observability registry in this crate: the span and flight rings
//! ([`crate::span`]) and the profiler's stage cells ([`crate::profile`]).
//!
//! Each feature used to carry its own copy of the same pattern — a
//! `Mutex<Vec<Arc<T>>>` plus a dense-tid counter, with dead threads
//! detected by `Arc::strong_count == 1` (the owning thread's
//! thread-local handle dropped, so the registry holds the only
//! reference) and pruned on the next sweep. Centralizing it here gives
//! dead-thread parking/pruning a single tested code path.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A process-global registry of per-thread slots of type `T`.
pub(crate) struct ThreadRegistry<T> {
    slots: Mutex<Vec<Arc<T>>>,
    next_tid: AtomicU32,
}

impl<T> ThreadRegistry<T> {
    /// An empty registry, usable in `static` position.
    pub(crate) const fn new() -> Self {
        ThreadRegistry {
            slots: Mutex::new(Vec::new()),
            next_tid: AtomicU32::new(0),
        }
    }

    /// Allocates the next dense thread id. Call before [`Self::insert`]
    /// so the slot can carry its id prior to becoming visible to sweeps.
    pub(crate) fn alloc_tid(&self) -> u32 {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<T>>> {
        // `Vec::push` and `Vec::retain` leave the list valid even when a
        // visitor panics mid-sweep, so a poisoned guard is safe to reuse.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes a thread's slot to the registry.
    pub(crate) fn insert(&self, slot: Arc<T>) {
        self.lock().push(slot);
    }

    /// Visits every registered slot (live and dead alike) under the
    /// registry lock.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Arc<T>)) {
        for slot in self.lock().iter() {
            f(slot);
        }
    }

    /// Visits every slot and prunes the dead ones in a single pass.
    /// `visit(slot, live)` runs once per slot: `live` is false when the
    /// owning thread exited — the registry holds the only remaining
    /// reference — in which case the slot is seen for the last time
    /// (retired) and then dropped, so short-lived threads never grow the
    /// registry forever.
    pub(crate) fn sweep(&self, mut visit: impl FnMut(&Arc<T>, bool)) {
        self.lock().retain(|slot| {
            let live = Arc::strong_count(slot) > 1;
            visit(slot, live);
            live
        });
    }

    /// Registered slots not yet pruned (dead-but-unswept included).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

impl<T> std::fmt::Debug for ThreadRegistry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRegistry")
            .field("next_tid", &self.next_tid.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_are_dense_and_unique() {
        let reg: ThreadRegistry<u32> = ThreadRegistry::new();
        let a = reg.alloc_tid();
        let b = reg.alloc_tid();
        let c = reg.alloc_tid();
        assert_eq!((b - a, c - b), (1, 1), "dense ids");
    }

    #[test]
    fn sweep_retires_dead_slots_exactly_once() {
        let reg: ThreadRegistry<u32> = ThreadRegistry::new();
        let live_slot = Arc::new(7u32); // caller keeps a handle: live
        reg.insert(Arc::clone(&live_slot));
        reg.insert(Arc::new(99u32)); // registry-only reference: dead
        assert_eq!(reg.len(), 2);

        let (mut lives, mut retired) = (Vec::new(), Vec::new());
        reg.sweep(|s, live| {
            if live {
                lives.push(**s);
            } else {
                retired.push(**s);
            }
        });
        assert_eq!(lives, vec![7]);
        assert_eq!(retired, vec![99]);
        assert_eq!(reg.len(), 1, "dead slot pruned");

        // A second sweep must not retire the same slot again.
        retired.clear();
        reg.sweep(|s, live| {
            if !live {
                retired.push(**s);
            }
        });
        assert!(retired.is_empty(), "retire callback is once-ever");
    }

    #[test]
    fn a_visitor_panic_does_not_wedge_the_registry() {
        let reg: ThreadRegistry<u32> = ThreadRegistry::new();
        let live_slot = Arc::new(1u32);
        reg.insert(Arc::clone(&live_slot));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.sweep(|_, _| panic!("visitor fails"));
        }));
        assert!(panicked.is_err(), "the visitor's panic propagates");
        // The lock is poisoned now; insert and sweep must still work.
        reg.insert(Arc::new(2u32));
        let mut seen = Vec::new();
        reg.sweep(|s, live| seen.push((**s, live)));
        assert_eq!(seen, vec![(1, true), (2, false)]);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn churn_with_concurrent_sweeps_loses_no_live_slot() {
        // Threads register and exit while a sweeper prunes concurrently —
        // the register/retire race from the satellite checklist. Every
        // slot must be retired exactly once and none double-counted.
        use std::sync::atomic::AtomicU64;
        static REG: ThreadRegistry<u64> = ThreadRegistry::new();
        static RETIRED_SUM: AtomicU64 = AtomicU64::new(0);

        let workers: Vec<_> = (1..=32u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let tid = REG.alloc_tid();
                    REG.insert(Arc::new(i));
                    // The slot dies when this thread's Arc drops here.
                    tid
                })
            })
            .collect();
        let sweeper = std::thread::spawn(|| {
            for _ in 0..200 {
                REG.sweep(|s, live| {
                    if !live {
                        RETIRED_SUM.fetch_add(**s, Ordering::Relaxed);
                    }
                });
                std::thread::yield_now();
            }
        });
        let tids: std::collections::HashSet<u32> =
            workers.into_iter().map(|t| t.join().unwrap()).collect();
        sweeper.join().unwrap();
        assert_eq!(tids.len(), 32, "every registrant got a distinct tid");
        // Final sweep collects whatever the racing sweeps missed.
        REG.sweep(|s, live| {
            if !live {
                RETIRED_SUM.fetch_add(**s, Ordering::Relaxed);
            }
        });
        assert_eq!(
            RETIRED_SUM.load(Ordering::Relaxed),
            (1..=32u64).sum::<u64>(),
            "each dead slot retired exactly once"
        );
        assert_eq!(REG.len(), 0);
    }
}
