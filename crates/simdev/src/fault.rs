//! Fault injection for crash-recovery and media-failure tests: one
//! [`Faulty`] wrapper around any [`BlockDevice`], steered by the
//! [`FaultPlan`] it hands out.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::BlockDevice;
use crate::error::{DevError, DevResult};

/// Bytes of its block that a torn write stores: the first half of 8 KB.
pub const TORN_BYTES: usize = 4096;

#[derive(Debug, Default)]
struct Inner {
    offline: bool,
    fail_after_writes: Option<u64>,
    /// The armed write fault tears the write that trips it: these bytes
    /// of the new block land over the old ones.
    tear: Option<Range<usize>>,
    /// A write has torn: every later sync fails.
    torn: bool,
    writes_seen: u64,
    fail_after_reads: Option<u64>,
    reads_seen: u64,
    write_trips: u64,
    read_trips: u64,
    corrupt_blocks: HashSet<u64>,
}

/// A shared, cloneable fault-injection plan for one [`Faulty`] device.
///
/// Tests use it to take a device offline mid-transaction, to kill power
/// after a fixed number of writes (whole or torn), or to corrupt individual
/// blocks (exercising the paper's "self-identifying blocks" discussion).
/// Only the [`Faulty`] wrapper consults it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// Takes the device offline (all subsequent operations fail) or back online.
    pub fn set_offline(&self, offline: bool) {
        self.inner.lock().offline = offline;
    }

    /// Arms a fault that fails every write after `n` more writes succeed.
    pub fn fail_after_writes(&self, n: u64) {
        let mut g = self.inner.lock();
        g.fail_after_writes = Some(n);
        g.writes_seen = 0;
        g.tear = None;
    }

    /// Arms a power cut in the middle of a write: after `n` more writes
    /// succeed, the next stores only the bytes `lands` of its block over
    /// the old ones ([`DevError::TornWrite`]), and every later write and
    /// sync fails. `lands` must lie within the block.
    pub fn tear_after_writes(&self, n: u64, lands: Range<usize>) {
        self.fail_after_writes(n);
        self.inner.lock().tear = Some(lands);
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

    /// Marks `blkno` as corrupted: reads of it yield garbage.
    pub fn corrupt_block(&self, blkno: u64) {
        self.inner.lock().corrupt_blocks.insert(blkno);
    }

    fn is_corrupt(&self, blkno: u64) -> bool {
        self.inner.lock().corrupt_blocks.contains(&blkno)
    }

    /// Gate for reads; counts reads against an armed fault.
    fn check_read(&self) -> DevResult<()> {
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

    /// Gate for writes; counts writes against an armed fault. `Ok(Some)`
    /// names the bytes of a write that tears.
    fn check_write(&self) -> DevResult<Option<Range<usize>>> {
        let mut g = self.inner.lock();
        if g.offline {
            return Err(DevError::Offline);
        }
        if let Some(n) = g.fail_after_writes {
            if g.writes_seen >= n {
                g.write_trips += 1;
                if let Some(lands) = g.tear.take() {
                    g.torn = true;
                    return Ok(Some(lands));
                }
                return Err(DevError::InjectedFault {
                    what: format!("write failure armed after {n} writes"),
                });
            }
            g.writes_seen += 1;
        }
        Ok(None)
    }

    /// Gate for syncs: after a torn write, every sync fails.
    fn check_sync(&self) -> DevResult<()> {
        match self.inner.lock().torn {
            true => Err(DevError::TornWrite),
            false => Ok(()),
        }
    }
}

/// Any device, failing as its [`FaultPlan`] says. A refused operation never
/// reaches the inner device, so it moves no data and charges no time; a
/// torn write reads the old block and writes the mixed one through it.
pub struct Faulty<D> {
    inner: D,
    plan: FaultPlan,
}

impl<D: BlockDevice> Faulty<D> {
    /// Wraps `inner`, returning the device and the plan that steers it.
    pub fn new(inner: D) -> (Self, FaultPlan) {
        let plan = FaultPlan::default();
        (Faulty { inner, plan: plan.clone() }, plan)
    }
}

impl<D: BlockDevice> BlockDevice for Faulty<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn nblocks(&self) -> u64 {
        self.inner.nblocks()
    }

    fn read_block(&mut self, blkno: u64, buf: &mut [u8]) -> DevResult<()> {
        self.plan.check_read()?;
        self.inner.read_block(blkno, buf)?;
        if self.plan.is_corrupt(blkno) {
            // Media corruption: hand back garbage rather than stored data.
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(251).wrapping_add(13);
            }
        }
        Ok(())
    }

    fn write_block(&mut self, blkno: u64, buf: &[u8]) -> DevResult<()> {
        let Some(lands) = self.plan.check_write()? else {
            return self.inner.write_block(blkno, buf);
        };
        let mut torn = vec![0u8; buf.len()];
        self.inner.read_block(blkno, &mut torn)?;
        torn[lands.clone()].copy_from_slice(&buf[lands]);
        self.inner.write_block(blkno, &torn)?;
        Err(DevError::TornWrite)
    }

    fn sync(&mut self) -> DevResult<()> {
        self.plan.check_sync()?;
        self.inner.sync()
    }

    fn is_stable(&self) -> bool {
        self.inner.is_stable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskProfile, MagneticDisk, Nvram, SimClock};

    const BS: usize = crate::BLOCK_SIZE;

    fn disk() -> (SimClock, Faulty<MagneticDisk>, FaultPlan) {
        let clock = SimClock::new();
        let (d, plan) = Faulty::new(MagneticDisk::new("t", clock.clone(), DiskProfile::rz58()));
        (clock, d, plan)
    }

    fn write(d: &mut impl BlockDevice, blkno: u64) -> DevResult<()> {
        d.write_block(blkno, &[blkno as u8; BS])
    }

    fn read(d: &mut impl BlockDevice, blkno: u64) -> DevResult<Vec<u8>> {
        let mut buf = vec![0u8; BS];
        d.read_block(blkno, &mut buf).map(|()| buf)
    }

    #[test]
    fn an_unarmed_plan_is_transparent() {
        let (_c, mut d, _plan) = disk();
        for b in 0..100 {
            write(&mut d, b).unwrap();
        }
        assert_eq!(read(&mut d, 7).unwrap(), [7u8; BS]);
        d.sync().unwrap();
    }

    #[test]
    fn offline_fails_reads_and_writes() {
        let (_c, mut d, plan) = disk();
        plan.set_offline(true);
        assert_eq!(read(&mut d, 0), Err(DevError::Offline));
        assert_eq!(write(&mut d, 0), Err(DevError::Offline));
        plan.set_offline(false);
        assert!(read(&mut d, 0).is_ok());
    }

    #[test]
    fn fail_after_n_writes() {
        let (_c, mut d, plan) = disk();
        plan.fail_after_writes(3);
        for b in 0..3 {
            write(&mut d, b).unwrap();
        }
        assert!(matches!(write(&mut d, 3), Err(DevError::InjectedFault { .. })));
        assert_eq!(read(&mut d, 3).unwrap(), [0u8; BS], "the refused write stored nothing");
        plan.clear_write_fault();
        write(&mut d, 3).unwrap();
    }

    #[test]
    fn fail_after_n_reads_and_trip_counters() {
        let (_c, mut d, plan) = disk();
        plan.fail_after_reads(2);
        assert!(read(&mut d, 0).is_ok() && read(&mut d, 1).is_ok());
        assert!(matches!(read(&mut d, 2), Err(DevError::InjectedFault { .. })));
        assert!(matches!(read(&mut d, 2), Err(DevError::InjectedFault { .. })));
        assert_eq!((plan.read_trips(), plan.write_trips()), (2, 0));
        plan.clear_read_fault();
        assert!(read(&mut d, 2).is_ok());
        // Trip counters persist past disarming — they record history.
        assert_eq!(plan.read_trips(), 2);

        plan.fail_after_writes(0);
        assert!(write(&mut d, 0).is_err());
        assert_eq!(plan.write_trips(), 1);
    }

    #[test]
    fn a_tear_trips_once_then_fails_writes_and_syncs() {
        let (_c, mut d, plan) = disk();
        plan.tear_after_writes(1, 0..TORN_BYTES);
        assert!(write(&mut d, 0).is_ok() && d.sync().is_ok());
        assert_eq!(write(&mut d, 1), Err(DevError::TornWrite));
        assert!(matches!(write(&mut d, 2), Err(DevError::InjectedFault { .. })));
        assert_eq!(d.sync(), Err(DevError::TornWrite));
        plan.clear_write_fault();
        assert!(write(&mut d, 2).is_ok() && d.sync().is_ok());
    }

    /// A tear is the wrapper's, so any device tears, either half.
    #[test]
    fn a_tear_on_nvram_lands_the_half_it_names() {
        let (mut nv, plan) = Faulty::new(Nvram::new("nv", SimClock::new(), 8));
        for (blkno, lands) in [(0, 0..TORN_BYTES), (1, TORN_BYTES..BS)] {
            nv.write_block(blkno, &[1u8; BS]).unwrap();
            plan.tear_after_writes(0, lands.clone());
            assert_eq!(nv.write_block(blkno, &[2u8; BS]), Err(DevError::TornWrite));
            plan.clear_write_fault();
            let mut want = vec![1u8; BS];
            want[lands].fill(2);
            assert_eq!(read(&mut nv, blkno).unwrap(), want);
        }
    }

    #[test]
    fn a_refused_read_write_or_sync_advances_no_time() {
        let (clock, mut d, plan) = disk();
        let t0 = clock.now();
        plan.fail_after_reads(0);
        plan.fail_after_writes(0);
        assert!(read(&mut d, 5000).is_err() && write(&mut d, 9000).is_err());
        plan.set_offline(true);
        assert!(read(&mut d, 1).is_err() && write(&mut d, 1).is_err());
        assert_eq!(clock.now(), t0);

        plan.set_offline(false);
        plan.tear_after_writes(0, 0..TORN_BYTES);
        assert_eq!(write(&mut d, 1), Err(DevError::TornWrite));
        let torn = clock.now();
        assert_eq!(d.sync(), Err(DevError::TornWrite));
        assert_eq!(clock.now(), torn);
    }

    #[test]
    fn a_corrupt_block_reads_garbage() {
        let (_c, mut d, plan) = disk();
        write(&mut d, 5).unwrap();
        plan.corrupt_block(5);
        assert_ne!(read(&mut d, 5).unwrap(), [5u8; BS]);
        assert_eq!(read(&mut d, 6).unwrap(), [0u8; BS], "other blocks read true");
    }

    #[test]
    fn clones_share_state() {
        let (_c, mut d, plan) = disk();
        plan.clone().set_offline(true);
        assert!(read(&mut d, 0).is_err());
    }
}
