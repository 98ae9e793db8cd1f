//! Device error types.

use std::fmt;

/// Errors surfaced by simulated devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DevError {
    /// A block number beyond the device capacity was addressed.
    OutOfRange {
        /// The offending block number.
        blkno: u64,
        /// Device capacity in blocks.
        nblocks: u64,
    },
    /// A write targeted an already-written block on write-once media.
    WriteOnceViolation {
        /// The offending block number.
        blkno: u64,
    },
    /// The buffer length did not match the device block size.
    BadBufferLen {
        /// Caller-supplied length.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// The device is full.
    NoSpace,
    /// An injected fault fired (see [`crate::fault::FaultPlan`]).
    InjectedFault {
        /// Human-readable description of the injected fault.
        what: String,
    },
    /// Power failed in the middle of a write: only the first
    /// [`crate::fault::TORN_BYTES`] of the block reached the medium.
    TornWrite,
    /// The device was administratively taken offline.
    Offline,
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DevError::OutOfRange { blkno, nblocks } => {
                write!(
                    f,
                    "block {blkno} out of range (device has {nblocks} blocks)"
                )
            }
            DevError::WriteOnceViolation { blkno } => {
                write!(f, "block {blkno} already written on write-once medium")
            }
            DevError::BadBufferLen { got, want } => {
                write!(f, "buffer length {got} does not match block size {want}")
            }
            DevError::NoSpace => write!(f, "device full"),
            DevError::InjectedFault { what } => write!(f, "injected fault: {what}"),
            DevError::TornWrite => write!(f, "torn write: power failed mid-block"),
            DevError::Offline => write!(f, "device offline"),
        }
    }
}

impl std::error::Error for DevError {}

/// Convenience alias for device operation results.
pub type DevResult<T> = Result<T, DevError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DevError::OutOfRange {
            blkno: 9,
            nblocks: 4,
        };
        assert!(e.to_string().contains("block 9"));
        assert!(e.to_string().contains("4 blocks"));
        let e = DevError::WriteOnceViolation { blkno: 3 };
        assert!(e.to_string().contains("write-once"));
        let e = DevError::BadBufferLen { got: 1, want: 8192 };
        assert!(e.to_string().contains("8192"));
    }
}
