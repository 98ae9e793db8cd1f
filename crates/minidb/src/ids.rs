//! Identifier newtypes shared across the engine.

use std::fmt;

/// An object identifier, as POSTGRES `oid`. Identifies relations, types,
/// functions, and — in Inversion — files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u32);

impl Oid {
    /// The invalid oid.
    pub const INVALID: Oid = Oid(0);

    /// Whether this oid is valid.
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A relation identifier (a kind of [`Oid`]).
pub type RelId = Oid;

/// A transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct XactId(pub u32);

impl XactId {
    /// The invalid transaction id (used as "no xmax").
    pub const INVALID: XactId = XactId(0);
    /// The bootstrap transaction: always committed, at the epoch.
    pub const FROZEN: XactId = XactId(1);

    /// Whether this id refers to a real transaction.
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for XactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A device identifier in the device manager switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u8);

impl DeviceId {
    /// The default device (where unplaced tables live).
    pub const DEFAULT: DeviceId = DeviceId(0);
    /// The device the system relations (`pg_class`, `pg_type`, `pg_proc`,
    /// `pg_rule`) live on. Reserved: [`crate::Db::open`] registers the
    /// catalog device it is handed under this id.
    pub const CATALOG: DeviceId = DeviceId(u8::MAX);
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// A tuple identifier: page number within the relation plus slot on the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid {
    /// Logical page number within the relation.
    pub blkno: u32,
    /// Slot number on that page.
    pub slot: u16,
}

impl Tid {
    /// Sorts after every tuple id a heap can hand out.
    pub const MAX: Tid = Tid {
        blkno: u32::MAX,
        slot: u16::MAX,
    };

    /// Creates a tuple id.
    pub fn new(blkno: u32, slot: u16) -> Self {
        Tid { blkno, slot }
    }

    /// Packs into 6 bytes for index payloads.
    pub fn encode(self) -> [u8; 6] {
        let mut out = [0u8; 6];
        out[..4].copy_from_slice(&self.blkno.to_le_bytes());
        out[4..].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Unpacks from [`Tid::encode`] output.
    pub fn decode(buf: &[u8]) -> Option<Tid> {
        if buf.len() < 6 {
            return None;
        }
        Some(Tid {
            blkno: u32::from_le_bytes(buf[..4].try_into().ok()?),
            slot: u16::from_le_bytes(buf[4..6].try_into().ok()?),
        })
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.blkno, self.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_roundtrips() {
        let t = Tid::new(123456, 789);
        assert_eq!(Tid::decode(&t.encode()), Some(t));
        assert_eq!(Tid::decode(&[0u8; 3]), None);
    }

    #[test]
    fn validity() {
        assert!(!Oid::INVALID.is_valid());
        assert!(Oid(5).is_valid());
        assert!(!XactId::INVALID.is_valid());
        assert!(XactId::FROZEN.is_valid());
    }

    #[test]
    fn displays() {
        assert_eq!(Oid(7).to_string(), "7");
        assert_eq!(XactId(9).to_string(), "x9");
        assert_eq!(DeviceId(2).to_string(), "dev2");
        assert_eq!(Tid::new(1, 2).to_string(), "(1, 2)");
    }
}
