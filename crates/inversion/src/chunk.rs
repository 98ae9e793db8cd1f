//! File-to-chunk decomposition and write coalescing.
//!
//! "Files, generally viewed by users as byte streams, are stored ... as a
//! series of data blocks. The Inversion file system similarly 'chunks' user
//! data. File data are collected into chunks slightly smaller than 8 KBytes.
//! The size of the chunk is calculated so that a single record will fit
//! exactly on a POSTGRES data manager page." And: "Multiple small sequential
//! writes during a single transaction are coalesced to maximize the size of
//! the chunk stored in each database record."

/// Bytes of user data per chunk.
///
/// A chunk record is `(chunkno int4, data bytes)` plus the tuple header; on
/// an 8192-byte page with our encodings the record could hold up to 8156
/// data bytes. The paper reserves room in the file tables for
/// self-identifying blocks ("space has been reserved in the tables storing
/// file data for this purpose"), so we hold back a little: 8128 bytes per
/// chunk, one record per page. With 31-bit chunk numbers this bounds files
/// at 2^31 x 8128 bytes ≈ 17.5 TB — the paper's "17.6 TBytes".
pub const CHUNK_SIZE: usize = 8128;

// An archived full chunk, `(amin, amax, chunkno, data)`, fits a heap tuple.
const _: () = assert!(2 + 2 * 9 + 5 + (5 + CHUNK_SIZE) <= minidb::heap::MAX_ROW);

/// The chunk containing byte `offset`.
pub fn chunk_of(offset: u64) -> u32 {
    (offset / CHUNK_SIZE as u64) as u32
}

/// Byte offset within its chunk.
pub fn offset_in_chunk(offset: u64) -> usize {
    (offset % CHUNK_SIZE as u64) as usize
}

/// The first byte offset of chunk `chunkno`.
pub fn chunk_start(chunkno: u32) -> u64 {
    chunkno as u64 * CHUNK_SIZE as u64
}

/// Splits the byte range `[offset, offset + len)` into per-chunk
/// `(chunkno, start_within_chunk, len_within_chunk)` pieces, in order.
pub fn split_range(offset: u64, len: usize) -> Vec<(u32, usize, usize)> {
    let mut out = Vec::new();
    let mut pos = offset;
    let end = offset + len as u64;
    while pos < end {
        let c = chunk_of(pos);
        let in_chunk = offset_in_chunk(pos);
        let take = ((CHUNK_SIZE - in_chunk) as u64).min(end - pos) as usize;
        out.push((c, in_chunk, take));
        pos += take as u64;
    }
    out
}

/// A per-file-descriptor buffer that coalesces sequential writes within a
/// transaction into whole chunks before they hit the database.
#[derive(Debug, Default)]
pub struct Coalescer {
    /// Chunk currently being accumulated.
    chunkno: u32,
    /// Start offset of valid data within the chunk.
    start: usize,
    /// Buffered bytes (positioned at `start` within the chunk).
    buf: Vec<u8>,
    /// Whether the buffer holds anything.
    active: bool,
}

impl Coalescer {
    /// Creates an empty coalescer.
    pub fn new() -> Coalescer {
        Coalescer::default()
    }

    /// Whether data is buffered.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The buffered region as `(chunkno, start, bytes)`, if any.
    pub fn pending(&self) -> Option<(u32, usize, &[u8])> {
        if self.active {
            Some((self.chunkno, self.start, &self.buf))
        } else {
            None
        }
    }

    /// Offers a write at absolute file `offset`. Returns the number of bytes
    /// absorbed into the buffer (0 if the write is not sequential with the
    /// buffered data or belongs to a different chunk — the caller must flush
    /// and retry).
    pub fn absorb(&mut self, offset: u64, data: &[u8]) -> usize {
        if data.is_empty() {
            return 0;
        }
        let c = chunk_of(offset);
        let in_chunk = offset_in_chunk(offset);
        if !self.active {
            self.chunkno = c;
            self.start = in_chunk;
            self.buf.clear();
            let take = (CHUNK_SIZE - in_chunk).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            self.active = true;
            return take;
        }
        // Sequential continuation within the same chunk?
        if c == self.chunkno && in_chunk == self.start + self.buf.len() {
            let take = (CHUNK_SIZE - in_chunk).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            return take;
        }
        0
    }

    /// Whether a read/seek at `offset` overlaps the buffered region (the
    /// caller must flush first so the reader sees its own writes).
    pub fn overlaps(&self, offset: u64, len: usize) -> bool {
        if !self.active {
            return false;
        }
        let buf_start = chunk_start(self.chunkno) + self.start as u64;
        let buf_end = buf_start + self.buf.len() as u64;
        let end = offset + len as u64;
        offset < buf_end && buf_start < end
    }

    /// Takes the buffered region, leaving the coalescer empty.
    pub fn take(&mut self) -> Option<(u32, usize, Vec<u8>)> {
        if !self.active {
            return None;
        }
        self.active = false;
        Some((self.chunkno, self.start, std::mem::take(&mut self.buf)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_math() {
        assert_eq!(chunk_of(0), 0);
        assert_eq!(chunk_of(CHUNK_SIZE as u64 - 1), 0);
        assert_eq!(chunk_of(CHUNK_SIZE as u64), 1);
        assert_eq!(offset_in_chunk(CHUNK_SIZE as u64 + 5), 5);
        assert_eq!(chunk_start(3), 3 * CHUNK_SIZE as u64);
    }

    #[test]
    fn seventeen_terabyte_limit() {
        let max_bytes = (i32::MAX as u64 + 1) * CHUNK_SIZE as u64;
        let tb = max_bytes as f64 / 1e12;
        assert!((17.0..18.0).contains(&tb), "file size limit {tb} TB");
    }

    #[test]
    fn split_range_within_one_chunk() {
        assert_eq!(split_range(10, 20), vec![(0, 10, 20)]);
        assert_eq!(split_range(0, CHUNK_SIZE), vec![(0, 0, CHUNK_SIZE)]);
    }

    #[test]
    fn split_range_spanning_chunks() {
        let cs = CHUNK_SIZE as u64;
        let parts = split_range(cs - 10, 30);
        assert_eq!(parts, vec![(0, CHUNK_SIZE - 10, 10), (1, 0, 20)]);
        let parts = split_range(cs, 2 * CHUNK_SIZE + 7);
        assert_eq!(
            parts,
            vec![(1, 0, CHUNK_SIZE), (2, 0, CHUNK_SIZE), (3, 0, 7)]
        );
        // Total length is preserved.
        assert_eq!(parts.iter().map(|p| p.2).sum::<usize>(), 2 * CHUNK_SIZE + 7);
    }

    #[test]
    fn split_range_empty() {
        assert!(split_range(100, 0).is_empty());
    }

    #[test]
    fn coalescer_absorbs_sequential_writes() {
        let mut c = Coalescer::new();
        assert_eq!(c.absorb(0, b"hello"), 5);
        assert_eq!(c.absorb(5, b" world"), 6);
        let (chunk, start, buf) = c.take().unwrap();
        assert_eq!((chunk, start), (0, 0));
        assert_eq!(buf, b"hello world");
        assert!(!c.is_active());
        assert!(c.take().is_none());
    }

    #[test]
    fn coalescer_rejects_non_sequential() {
        let mut c = Coalescer::new();
        c.absorb(0, b"aaa");
        assert_eq!(c.absorb(10, b"bbb"), 0, "gap");
        assert_eq!(c.absorb(1, b"bbb"), 0, "overlap");
        // Still holds the original.
        assert_eq!(c.pending().unwrap().2, b"aaa");
    }

    #[test]
    fn coalescer_stops_at_chunk_boundary() {
        let mut c = Coalescer::new();
        let big = vec![7u8; CHUNK_SIZE + 100];
        let absorbed = c.absorb(0, &big);
        assert_eq!(absorbed, CHUNK_SIZE);
        let (_, _, buf) = c.take().unwrap();
        assert_eq!(buf.len(), CHUNK_SIZE);
        // The tail starts a new chunk.
        let absorbed = c.absorb(CHUNK_SIZE as u64, &big[CHUNK_SIZE..]);
        assert_eq!(absorbed, 100);
        assert_eq!(c.pending().unwrap().0, 1);
    }

    #[test]
    fn coalescer_mid_chunk_start() {
        let mut c = Coalescer::new();
        let off = CHUNK_SIZE as u64 * 2 + 100;
        assert_eq!(c.absorb(off, b"xyz"), 3);
        let (chunk, start, buf) = c.take().unwrap();
        assert_eq!((chunk, start), (2, 100));
        assert_eq!(buf, b"xyz");
    }

    #[test]
    fn overlap_detection() {
        let mut c = Coalescer::new();
        c.absorb(100, b"0123456789");
        assert!(c.overlaps(100, 1));
        assert!(c.overlaps(109, 5));
        assert!(c.overlaps(95, 6));
        assert!(!c.overlaps(95, 5));
        assert!(!c.overlaps(110, 10));
        assert!(!Coalescer::new().overlaps(0, usize::MAX));
    }
}
