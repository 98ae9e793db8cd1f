//! Fault injection for crash-recovery and media-failure tests.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{DevError, DevResult};

/// Bytes of its block that a torn write stores: the first half of 8 KB.
pub const TORN_BYTES: usize = 4096;

#[derive(Debug, Default)]
struct Inner {
    offline: bool,
    fail_after_writes: Option<u64>,
    /// The armed write fault tears the write that trips it.
    tear: bool,
    /// A write has torn: every later sync fails.
    torn: bool,
    writes_seen: u64,
    fail_after_reads: Option<u64>,
    reads_seen: u64,
    write_trips: u64,
    read_trips: u64,
    corrupt_blocks: HashSet<u64>,
}

/// A shared, cloneable fault-injection plan attached to a device model.
///
/// The plan is consulted on every device operation; tests use it to take a
/// device offline mid-transaction, to kill power after a fixed number of
/// writes, or to corrupt individual blocks (exercising the paper's
/// "self-identifying blocks" discussion).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// Creates a plan with no faults armed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Takes the device offline (all subsequent operations fail) or back online.
    pub fn set_offline(&self, offline: bool) {
        self.inner.lock().offline = offline;
    }

    /// Arms a fault that fails every write after `n` more writes succeed.
    pub fn fail_after_writes(&self, n: u64) {
        let mut g = self.inner.lock();
        g.fail_after_writes = Some(n);
        g.writes_seen = 0;
        g.tear = false;
    }

    /// Arms a power cut in the middle of a write: after `n` more writes
    /// succeed, the next stores only the first [`TORN_BYTES`] of its block
    /// over the old bytes ([`DevError::TornWrite`]), and every later write
    /// and sync fails. A device that cannot tear fails that write whole.
    pub fn tear_after_writes(&self, n: u64) {
        self.fail_after_writes(n);
        self.inner.lock().tear = true;
    }

    /// Disarms the write-failure fault.
    pub fn clear_write_fault(&self) {
        let mut g = self.inner.lock();
        g.fail_after_writes = None;
        g.torn = false;
    }

    /// Arms a fault that fails every read after `n` more reads succeed.
    pub fn fail_after_reads(&self, n: u64) {
        let mut g = self.inner.lock();
        g.fail_after_reads = Some(n);
        g.reads_seen = 0;
    }

    /// Disarms the read-failure fault.
    pub fn clear_read_fault(&self) {
        self.inner.lock().fail_after_reads = None;
    }

    /// How many writes the armed write fault has failed so far.
    pub fn write_trips(&self) -> u64 {
        self.inner.lock().write_trips
    }

    /// How many reads the armed read fault has failed so far.
    pub fn read_trips(&self) -> u64 {
        self.inner.lock().read_trips
    }

    /// Marks `blkno` as corrupted: reads of it yield garbage (see device impls).
    pub fn corrupt_block(&self, blkno: u64) {
        self.inner.lock().corrupt_blocks.insert(blkno);
    }

    /// Whether `blkno` is marked corrupted.
    pub fn is_corrupt(&self, blkno: u64) -> bool {
        self.inner.lock().corrupt_blocks.contains(&blkno)
    }

    /// Gate for device read paths; counts reads against an armed fault.
    pub fn check_read(&self) -> DevResult<()> {
        let mut g = self.inner.lock();
        if g.offline {
            return Err(DevError::Offline);
        }
        if let Some(n) = g.fail_after_reads {
            if g.reads_seen >= n {
                g.read_trips += 1;
                return Err(DevError::InjectedFault {
                    what: format!("read failure armed after {n} reads"),
                });
            }
            g.reads_seen += 1;
        }
        Ok(())
    }

    /// Gate for device write paths; counts writes against an armed fault.
    pub fn check_write(&self) -> DevResult<()> {
        let mut g = self.inner.lock();
        if g.offline {
            return Err(DevError::Offline);
        }
        if let Some(n) = g.fail_after_writes {
            if g.writes_seen >= n {
                g.write_trips += 1;
                if std::mem::take(&mut g.tear) {
                    g.torn = true;
                    return Err(DevError::TornWrite);
                }
                return Err(DevError::InjectedFault {
                    what: format!("write failure armed after {n} writes"),
                });
            }
            g.writes_seen += 1;
        }
        Ok(())
    }

    /// Gate for device syncs: after a torn write, every sync fails.
    pub fn check_sync(&self) -> DevResult<()> {
        match self.inner.lock().torn {
            true => Err(DevError::TornWrite),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_transparent() {
        let p = FaultPlan::none();
        assert!(p.check_read().is_ok());
        for _ in 0..100 {
            assert!(p.check_write().is_ok());
        }
    }

    #[test]
    fn offline_fails_everything() {
        let p = FaultPlan::none();
        p.set_offline(true);
        assert_eq!(p.check_read(), Err(DevError::Offline));
        assert_eq!(p.check_write(), Err(DevError::Offline));
        p.set_offline(false);
        assert!(p.check_read().is_ok());
    }

    #[test]
    fn fail_after_n_writes() {
        let p = FaultPlan::none();
        p.fail_after_writes(3);
        assert!(p.check_write().is_ok());
        assert!(p.check_write().is_ok());
        assert!(p.check_write().is_ok());
        assert!(matches!(
            p.check_write(),
            Err(DevError::InjectedFault { .. })
        ));
        p.clear_write_fault();
        assert!(p.check_write().is_ok());
    }

    #[test]
    fn fail_after_n_reads_and_trip_counters() {
        let p = FaultPlan::none();
        p.fail_after_reads(2);
        assert!(p.check_read().is_ok());
        assert!(p.check_read().is_ok());
        assert!(matches!(p.check_read(), Err(DevError::InjectedFault { .. })));
        assert!(matches!(p.check_read(), Err(DevError::InjectedFault { .. })));
        assert_eq!(p.read_trips(), 2);
        assert_eq!(p.write_trips(), 0);
        p.clear_read_fault();
        assert!(p.check_read().is_ok());
        // Trip counters persist past disarming — they record history.
        assert_eq!(p.read_trips(), 2);

        p.fail_after_writes(0);
        assert!(p.check_write().is_err());
        assert_eq!(p.write_trips(), 1);
    }

    #[test]
    fn a_tear_trips_once_then_fails_writes_and_syncs() {
        let p = FaultPlan::none();
        p.tear_after_writes(1);
        assert!(p.check_write().is_ok() && p.check_sync().is_ok());
        assert_eq!(p.check_write(), Err(DevError::TornWrite));
        assert!(matches!(p.check_write(), Err(DevError::InjectedFault { .. })));
        assert!(p.check_sync().is_err());
        p.clear_write_fault();
        assert!(p.check_write().is_ok() && p.check_sync().is_ok());
    }

    #[test]
    fn corrupt_blocks_tracked() {
        let p = FaultPlan::none();
        assert!(!p.is_corrupt(7));
        p.corrupt_block(7);
        assert!(p.is_corrupt(7));
    }

    #[test]
    fn clones_share_state() {
        let p = FaultPlan::none();
        let q = p.clone();
        q.set_offline(true);
        assert!(p.check_read().is_err());
    }
}
