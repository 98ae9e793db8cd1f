//! The 8 KB slotted data page.
//!
//! Every relation — heaps and B-tree indices alike — is an array of these
//! pages. Layout (all offsets little-endian `u16`):
//!
//! ```text
//! +--------+-----------------+ ..free.. +------------------+---------+
//! | header | slot array ...->|          |<-... tuple space | special |
//! +--------+-----------------+          +------------------+---------+
//! 0        20                lower      upper              special_off
//! ```
//!
//! Item bytes are never moved, and a heap only appends slots (tuple
//! identifiers embed the slot number); a B-tree node keeps its slot array
//! in key order with [`insert_at`], which shifts slot entries and nothing
//! else. Deleting marks the slot dead, and the vacuum cleaner reclaims
//! space by rewriting relations wholesale, as POSTGRES's did.

use crate::error::{DbError, DbResult};

/// Page size in bytes, equal to the device block size.
pub const PAGE_SIZE: usize = simdev::BLOCK_SIZE;

const MAGIC: u16 = 0x5047; // "PG"
const HEADER_SIZE: usize = 20;
const SLOT_SIZE: usize = 4;
const DEAD_BIT: u16 = 0x8000;
const LEN_MASK: u16 = 0x7FFF;

const OFF_MAGIC: usize = 0;
const OFF_NSLOTS: usize = 2;
const OFF_LOWER: usize = 4;
const OFF_UPPER: usize = 6;
const OFF_SPECIAL: usize = 8;
// Bytes 10..12 reserved for flags.
const OFF_LSN: usize = 12; // u64: LSN of the last WAL record applied.

/// The largest item that fits on an empty page with no special area.
pub const MAX_ITEM: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Initializes `buf` as an empty page reserving `special_size` bytes at the end.
///
/// # Panics
///
/// Panics if `buf` is not exactly [`PAGE_SIZE`] bytes or the special area
/// does not fit.
pub fn init(buf: &mut [u8], special_size: usize) {
    assert_eq!(buf.len(), PAGE_SIZE, "page buffer must be PAGE_SIZE");
    assert!(special_size <= PAGE_SIZE - HEADER_SIZE);
    buf.fill(0);
    let special_off = (PAGE_SIZE - special_size) as u16;
    put_u16(buf, OFF_MAGIC, MAGIC);
    put_u16(buf, OFF_NSLOTS, 0);
    put_u16(buf, OFF_LOWER, HEADER_SIZE as u16);
    put_u16(buf, OFF_UPPER, special_off);
    put_u16(buf, OFF_SPECIAL, special_off);
}

/// Whether `buf` has been initialized as a page.
pub fn is_initialized(buf: &[u8]) -> bool {
    buf.len() == PAGE_SIZE && get_u16(buf, OFF_MAGIC) == MAGIC
}

/// The free gap `[lower, upper)` between the slot array and the tuple space
/// as `(start, len)`, when `buf` is an initialized page and every byte of
/// the gap is zero; else an empty hole. A page image in the log leaves it
/// out, so putting it back as zeros restores the page byte for byte.
pub fn zero_hole(buf: &[u8]) -> (usize, usize) {
    if is_initialized(buf) {
        let (lower, upper) = (get_u16(buf, OFF_LOWER) as usize, get_u16(buf, OFF_UPPER) as usize);
        if lower <= upper && upper <= PAGE_SIZE && buf[lower..upper].iter().all(|&b| b == 0) {
            return (lower, upper - lower);
        }
    }
    (0, 0)
}

/// The LSN of the last WAL record applied to this page (0 = never logged).
///
/// Stored in the header so the buffer manager can enforce the
/// LSN-before-write rule and recovery can skip records already reflected.
pub fn lsn(buf: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[OFF_LSN..OFF_LSN + 8]);
    u64::from_le_bytes(b)
}

/// Stamps the page LSN. `page::init` zeroes it; WAL-logged writers stamp the
/// end-LSN of each record they emit for the page.
pub fn set_lsn(buf: &mut [u8], lsn: u64) {
    buf[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
}

/// Number of slots on the page (live or dead).
pub fn nslots(buf: &[u8]) -> u16 {
    get_u16(buf, OFF_NSLOTS)
}

/// Free bytes available for one more item (including its slot entry).
pub fn free_space(buf: &[u8]) -> usize {
    let lower = get_u16(buf, OFF_LOWER) as usize;
    let upper = get_u16(buf, OFF_UPPER) as usize;
    // `saturating_sub` twice: a corrupt header with lower > upper reads as
    // a full page, not an underflow panic.
    upper.saturating_sub(lower).saturating_sub(SLOT_SIZE)
}

/// Whether an item of `len` bytes fits.
pub fn fits(buf: &[u8], len: usize) -> bool {
    free_space(buf) >= len
}

/// Appends `item` after the last slot, returning its slot number.
pub fn insert(buf: &mut [u8], item: &[u8]) -> DbResult<u16> {
    let n = nslots(buf);
    insert_at(buf, n, item)?;
    Ok(n)
}

/// Inserts `item` as slot `slot`, moving the slot entries from `slot` on one
/// place right; `slot == nslots` appends. Item bytes never move: the new
/// item goes below `upper` like any other, only the slot array shifts — so
/// this is for pages whose slot numbers nobody outside the page remembers
/// (B-tree nodes), or for appends (heaps, whose tids embed the slot).
pub fn insert_at(buf: &mut [u8], slot: u16, item: &[u8]) -> DbResult<()> {
    if item.len() > LEN_MASK as usize {
        return Err(DbError::TupleTooBig {
            size: item.len(),
            max: MAX_ITEM,
        });
    }
    if !fits(buf, item.len()) {
        return Err(DbError::TupleTooBig {
            size: item.len(),
            max: free_space(buf),
        });
    }
    let n = nslots(buf);
    if slot > n {
        return Err(DbError::Corrupt(format!(
            "insert at slot {slot} of a page with {n} slots"
        )));
    }
    let lower = get_u16(buf, OFF_LOWER) as usize;
    let upper = get_u16(buf, OFF_UPPER) as usize - item.len();
    buf[upper..upper + item.len()].copy_from_slice(item);
    let at = HEADER_SIZE + slot as usize * SLOT_SIZE;
    buf.copy_within(at..lower, at + SLOT_SIZE);
    put_u16(buf, at, upper as u16);
    put_u16(buf, at + 2, item.len() as u16);
    put_u16(buf, OFF_LOWER, (lower + SLOT_SIZE) as u16);
    put_u16(buf, OFF_UPPER, upper as u16);
    put_u16(buf, OFF_NSLOTS, n + 1);
    Ok(())
}

fn slot_entry(buf: &[u8], slot: u16) -> Option<(usize, usize, bool)> {
    if slot >= nslots(buf) {
        return None;
    }
    let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
    // A scribbled slot count can point past the page; treat such slots as
    // absent rather than indexing out of bounds.
    if base + SLOT_SIZE > buf.len() {
        return None;
    }
    let off = get_u16(buf, base) as usize;
    let lf = get_u16(buf, base + 2);
    Some((off, (lf & LEN_MASK) as usize, lf & DEAD_BIT != 0))
}

/// Returns the item in `slot`, or `None` if the slot is out of range, dead,
/// or points outside the page (corruption).
pub fn item(buf: &[u8], slot: u16) -> Option<&[u8]> {
    let (off, len, dead) = slot_entry(buf, slot)?;
    if dead {
        None
    } else {
        buf.get(off..off.checked_add(len)?)
    }
}

/// Returns the item in `slot` even if marked dead (vacuum reads these).
pub fn item_even_dead(buf: &[u8], slot: u16) -> Option<&[u8]> {
    let (off, len, _) = slot_entry(buf, slot)?;
    buf.get(off..off.checked_add(len)?)
}

/// Mutable access to the item in `slot` (live or dead); used to stamp
/// transaction ids into tuple headers in place.
pub fn item_mut(buf: &mut [u8], slot: u16) -> Option<&mut [u8]> {
    let (off, len, _) = slot_entry(buf, slot)?;
    buf.get_mut(off..off.checked_add(len)?)
}

/// Marks `slot` dead. The space is reclaimed by vacuum, not here.
pub fn set_dead(buf: &mut [u8], slot: u16) -> DbResult<()> {
    if slot >= nslots(buf) {
        return Err(DbError::Corrupt(format!("no slot {slot} on page")));
    }
    let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
    let lf = get_u16(buf, base + 2);
    put_u16(buf, base + 2, lf | DEAD_BIT);
    Ok(())
}

/// Whether `slot` is marked dead.
pub fn is_dead(buf: &[u8], slot: u16) -> bool {
    matches!(slot_entry(buf, slot), Some((_, _, true)))
}

/// The page's special area (B-tree metadata lives here). A corrupt special
/// offset yields an empty slice, never a panic.
pub fn special(buf: &[u8]) -> &[u8] {
    let off = (get_u16(buf, OFF_SPECIAL) as usize).min(buf.len());
    &buf[off..]
}

/// Mutable access to the special area.
pub fn special_mut(buf: &mut [u8]) -> &mut [u8] {
    let off = (get_u16(buf, OFF_SPECIAL) as usize).min(buf.len());
    &mut buf[off..]
}

/// Iterates over live items as `(slot, item)` pairs.
pub fn iter(buf: &[u8]) -> impl Iterator<Item = (u16, &[u8])> {
    (0..nslots(buf)).filter_map(move |s| item(buf, s).map(|i| (s, i)))
}

/// Structurally verifies one page, returning a human-readable description of
/// every violated invariant (empty = clean). Checked invariants:
///
/// * the header magic and `HEADER <= lower <= upper <= special <= PAGE_SIZE`
///   bounds,
/// * `lower` agrees with the slot count,
/// * every slot's item lies inside `[upper, special)`,
/// * no two items overlap,
/// * free-space accounting: item bytes exactly tile `[upper, special)`
///   (items are allocated downward and never moved, so the tuple space has
///   no holes — dead items keep their space until vacuum copies the
///   relation's live versions onto fresh storage).
pub fn verify(buf: &[u8]) -> Vec<String> {
    let mut findings = Vec::new();
    if buf.len() != PAGE_SIZE {
        findings.push(format!("page buffer is {} bytes, not {PAGE_SIZE}", buf.len()));
        return findings;
    }
    if get_u16(buf, OFF_MAGIC) != MAGIC {
        findings.push(format!(
            "bad page magic {:#06x} (expected {MAGIC:#06x})",
            get_u16(buf, OFF_MAGIC)
        ));
        return findings;
    }
    let n = nslots(buf) as usize;
    let lower = get_u16(buf, OFF_LOWER) as usize;
    let upper = get_u16(buf, OFF_UPPER) as usize;
    let special = get_u16(buf, OFF_SPECIAL) as usize;
    if !(HEADER_SIZE <= lower && lower <= upper && upper <= special && special <= PAGE_SIZE) {
        findings.push(format!(
            "header bounds violated: {HEADER_SIZE} <= lower {lower} <= upper {upper}              <= special {special} <= {PAGE_SIZE}"
        ));
        return findings;
    }
    if lower != HEADER_SIZE + n * SLOT_SIZE {
        findings.push(format!(
            "lower {lower} disagrees with slot count {n} (expected {})",
            HEADER_SIZE + n * SLOT_SIZE
        ));
        return findings;
    }
    // Per-slot bounds, then overlap / accounting over all slots.
    let mut extents: Vec<(usize, usize, u16)> = Vec::with_capacity(n);
    for slot in 0..n as u16 {
        let Some((off, len, _dead)) = slot_entry(buf, slot) else {
            findings.push(format!("slot {slot} entry unreadable"));
            continue;
        };
        if off < upper || off + len > special {
            findings.push(format!(
                "slot {slot} item [{off}, {}) outside tuple space [{upper}, {special})",
                off + len
            ));
            continue;
        }
        extents.push((off, len, slot));
    }
    extents.sort_unstable();
    for w in extents.windows(2) {
        let ((a_off, a_len, a_slot), (b_off, _, b_slot)) = (w[0], w[1]);
        if a_off + a_len > b_off {
            findings.push(format!(
                "slot {a_slot} item [{a_off}, {}) overlaps slot {b_slot} item at {b_off}",
                a_off + a_len
            ));
        }
    }
    if findings.is_empty() {
        let used: usize = extents.iter().map(|&(_, len, _)| len).sum();
        if used != special - upper {
            findings.push(format!(
                "free-space accounting: {used} item bytes in a {} byte tuple space",
                special - upper
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_page() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        init(&mut buf, 0);
        buf
    }

    #[test]
    fn empty_page_properties() {
        let buf = new_page();
        assert!(is_initialized(&buf));
        assert_eq!(nslots(&buf), 0);
        assert_eq!(free_space(&buf), MAX_ITEM);
        assert!(item(&buf, 0).is_none());
    }

    #[test]
    fn insert_and_fetch() {
        let mut buf = new_page();
        let s0 = insert(&mut buf, b"hello").unwrap();
        let s1 = insert(&mut buf, b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(item(&buf, 0).unwrap(), b"hello");
        assert_eq!(item(&buf, 1).unwrap(), b"world!");
        assert_eq!(nslots(&buf), 2);
    }

    #[test]
    fn insert_at_keeps_items_in_place_and_shifts_only_slots() {
        let mut buf = new_page();
        insert(&mut buf, b"bb").unwrap();
        insert(&mut buf, b"dddd").unwrap();
        let d_off = slot_entry(&buf, 1).unwrap().0;
        insert_at(&mut buf, 1, b"ccc").unwrap();
        insert_at(&mut buf, 0, b"a").unwrap();
        insert_at(&mut buf, 4, b"eeeee").unwrap(); // slot == nslots appends
        let items: Vec<&[u8]> = iter(&buf).map(|(_, it)| it).collect();
        assert_eq!(items, [&b"a"[..], b"bb", b"ccc", b"dddd", b"eeeee"]);
        assert_eq!(slot_entry(&buf, 3).unwrap().0, d_off, "item bytes moved");
        assert!(verify(&buf).is_empty(), "{:?}", verify(&buf));
        // Past the end is a hole in the slot array, not an append.
        assert!(matches!(insert_at(&mut buf, 6, b"x"), Err(DbError::Corrupt(_))));
        assert_eq!(nslots(&buf), 5);
    }

    #[test]
    fn insert_at_carries_dead_slots_along_and_respects_free_space() {
        let mut buf = new_page();
        insert(&mut buf, b"keep").unwrap();
        insert(&mut buf, b"kill").unwrap();
        set_dead(&mut buf, 1).unwrap();
        insert_at(&mut buf, 0, b"first").unwrap();
        assert!(is_dead(&buf, 2) && !is_dead(&buf, 1));
        assert_eq!(item_even_dead(&buf, 2).unwrap(), b"kill");
        let room = free_space(&buf);
        assert!(insert_at(&mut buf, 1, &vec![0u8; room + 1]).is_err());
        insert_at(&mut buf, 1, &vec![9u8; room]).unwrap();
        assert_eq!(free_space(&buf), 0);
        assert_eq!(item(&buf, 2).unwrap(), b"keep");
        assert!(verify(&buf).is_empty());
    }

    #[test]
    fn max_item_exactly_fits() {
        let mut buf = new_page();
        let big = vec![7u8; MAX_ITEM];
        insert(&mut buf, &big).unwrap();
        assert_eq!(item(&buf, 0).unwrap().len(), MAX_ITEM);
        assert_eq!(free_space(&buf), 0);
        assert!(insert(&mut buf, b"x").is_err());
    }

    #[test]
    fn oversized_item_rejected() {
        let mut buf = new_page();
        let big = vec![7u8; MAX_ITEM + 1];
        assert!(matches!(
            insert(&mut buf, &big),
            Err(DbError::TupleTooBig { .. })
        ));
    }

    #[test]
    fn fill_page_with_small_items() {
        let mut buf = new_page();
        let mut count = 0;
        while fits(&buf, 100) {
            insert(&mut buf, &[count as u8; 100]).unwrap();
            count += 1;
        }
        assert!(count > 70, "should fit many 100-byte items, got {count}");
        for s in 0..count {
            assert_eq!(item(&buf, s as u16).unwrap(), &[s as u8; 100][..]);
        }
    }

    #[test]
    fn dead_slots_hidden_but_recoverable() {
        let mut buf = new_page();
        insert(&mut buf, b"keep").unwrap();
        insert(&mut buf, b"kill").unwrap();
        set_dead(&mut buf, 1).unwrap();
        assert!(item(&buf, 1).is_none());
        assert!(is_dead(&buf, 1));
        assert_eq!(item_even_dead(&buf, 1).unwrap(), b"kill");
        let live: Vec<_> = iter(&buf).collect();
        assert_eq!(live, vec![(0, &b"keep"[..])]);
    }

    #[test]
    fn set_dead_on_missing_slot_is_error() {
        let mut buf = new_page();
        assert!(set_dead(&mut buf, 3).is_err());
    }

    #[test]
    fn item_mut_edits_in_place() {
        let mut buf = new_page();
        insert(&mut buf, b"abcd").unwrap();
        item_mut(&mut buf, 0).unwrap()[0] = b'z';
        assert_eq!(item(&buf, 0).unwrap(), b"zbcd");
    }

    #[test]
    fn special_area_reserved_and_writable() {
        let mut buf = vec![0u8; PAGE_SIZE];
        init(&mut buf, 16);
        assert_eq!(special(&buf).len(), 16);
        special_mut(&mut buf).copy_from_slice(&[9u8; 16]);
        // Fill the page; the special area must survive untouched.
        while fits(&buf, 64) {
            insert(&mut buf, &[1u8; 64]).unwrap();
        }
        assert_eq!(special(&buf), &[9u8; 16]);
        // And items must not have been corrupted by special writes.
        assert_eq!(item(&buf, 0).unwrap(), &[1u8; 64][..]);
    }

    #[test]
    fn zeroed_buffer_is_not_initialized() {
        let buf = vec![0u8; PAGE_SIZE];
        assert!(!is_initialized(&buf));
    }

    #[test]
    fn verify_accepts_clean_pages() {
        let mut buf = new_page();
        assert!(verify(&buf).is_empty());
        insert(&mut buf, b"hello").unwrap();
        insert(&mut buf, b"world").unwrap();
        set_dead(&mut buf, 0).unwrap();
        assert!(verify(&buf).is_empty(), "dead slots keep their space");
    }

    #[test]
    fn verify_reports_bad_magic_and_bounds() {
        let mut buf = new_page();
        buf[OFF_MAGIC] ^= 0xFF;
        assert!(verify(&buf)[0].contains("magic"));
        let mut buf = new_page();
        put_u16(&mut buf, OFF_LOWER, PAGE_SIZE as u16);
        put_u16(&mut buf, OFF_UPPER, HEADER_SIZE as u16);
        assert!(verify(&buf)[0].contains("bounds"));
    }

    #[test]
    fn verify_reports_overlap_and_out_of_range_items() {
        let mut buf = new_page();
        insert(&mut buf, &[1u8; 32]).unwrap();
        insert(&mut buf, &[2u8; 32]).unwrap();
        // Point slot 1 at slot 0's bytes: overlap.
        let s0_off = get_u16(&buf, HEADER_SIZE);
        put_u16(&mut buf, HEADER_SIZE + SLOT_SIZE, s0_off);
        assert!(verify(&buf).iter().any(|f| f.contains("overlap")));
        // Point slot 1 past the end of the page: out of tuple space, and the
        // safe accessors refuse it.
        put_u16(&mut buf, HEADER_SIZE + SLOT_SIZE, (PAGE_SIZE - 4) as u16);
        assert!(verify(&buf).iter().any(|f| f.contains("outside")));
        assert!(item(&buf, 1).is_none());
        assert!(item_even_dead(&buf, 1).is_none());
    }

    #[test]
    fn corrupt_headers_do_not_panic_accessors() {
        let mut buf = new_page();
        insert(&mut buf, b"x").unwrap();
        put_u16(&mut buf, OFF_NSLOTS, u16::MAX);
        assert!(item(&buf, 4000).is_none());
        put_u16(&mut buf, OFF_LOWER, u16::MAX);
        let _ = free_space(&buf);
        put_u16(&mut buf, OFF_SPECIAL, u16::MAX);
        assert!(special(&buf).is_empty());
    }
}
