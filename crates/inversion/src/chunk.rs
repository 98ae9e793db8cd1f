//! File-to-chunk decomposition and write coalescing.
//!
//! "Files, generally viewed by users as byte streams, are stored ... as a
//! series of data blocks. The Inversion file system similarly 'chunks' user
//! data. File data are collected into chunks slightly smaller than 8 KBytes.
//! The size of the chunk is calculated so that a single record will fit
//! exactly on a POSTGRES data manager page." And: "Multiple small sequential
//! writes during a single transaction are coalesced to maximize the size of
//! the chunk stored in each database record."

/// Bytes of user data per chunk of a plain file.
///
/// A chunk record is `(chunkno int4, data bytes)` plus the tuple header; on
/// an 8192-byte page with our encodings the record could hold up to 8156
/// data bytes. The paper reserves room in the file tables for
/// self-identifying blocks ("space has been reserved in the tables storing
/// file data for this purpose"), so we hold back a little: 8128 bytes per
/// chunk, one record per page. With 31-bit chunk numbers this bounds files
/// at 2^31 x 8128 bytes ≈ 17.5 TB — the paper's "17.6 TBytes".
pub const CHUNK_SIZE: usize = 8128;

/// Encoded bytes of an archived chunk row, `(amin, amax, chunkno, data)`,
/// besides the stored data.
const ARCHIVED_ROW: usize = 2 + 2 * 9 + 5 + 5;

/// Data bytes per chunk of a file with this layout: as many as archive into
/// one heap tuple after the codec's worst case and the self-identifying
/// tag. Plain files keep [`CHUNK_SIZE`]; the others hold 8 114
/// (self-identifying), 8 062 (compressed) or 8 046 (both).
/// [`crate::InvClient::p_slice`] shares rows only within one layout.
pub const fn chunk_size(compressed: bool, self_identifying: bool) -> usize {
    let tag = if self_identifying { crate::api::SELF_ID_LEN } else { 0 };
    let room = minidb::heap::MAX_ROW - ARCHIVED_ROW - tag;
    match compressed {
        // The codec's 4-byte length, then 2 bytes per 255 it cannot shrink.
        true => room - 4 - 2 * (room - 4).div_ceil(257),
        false if self_identifying => room,
        false => CHUNK_SIZE,
    }
}

// Every layout's full chunk, stored at its largest, archives into one tuple.
const _: () = {
    let mut layout = 0;
    while layout < 4 {
        let (compressed, tagged) = (layout & 1 == 1, layout & 2 == 2);
        let n = chunk_size(compressed, tagged);
        let stored = if compressed { crate::compress::bound(n) } else { n };
        let tag = if tagged { crate::api::SELF_ID_LEN } else { 0 };
        assert!(ARCHIVED_ROW + stored + tag <= minidb::heap::MAX_ROW);
        layout += 1;
    }
};

/// Splits the byte range `[offset, offset + len)` into per-chunk
/// `(chunkno, start_within_chunk, len_within_chunk)` pieces, in order, for
/// chunks of `size` bytes.
pub fn split_range(size: usize, offset: u64, len: usize) -> Vec<(u32, usize, usize)> {
    let size = size as u64;
    let mut out = Vec::new();
    let mut pos = offset;
    let end = offset + len as u64;
    while pos < end {
        let in_chunk = pos % size;
        let take = (size - in_chunk).min(end - pos);
        out.push(((pos / size) as u32, in_chunk as usize, take as usize));
        pos += take;
    }
    out
}

/// A per-file-descriptor buffer that coalesces sequential writes within a
/// transaction into whole chunks before they hit the database.
#[derive(Debug)]
pub struct Coalescer {
    /// Data bytes per chunk of the file.
    size: usize,
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
    /// Creates an empty coalescer for chunks of `size` bytes.
    pub fn new(size: usize) -> Coalescer {
        Coalescer { size, chunkno: 0, start: 0, buf: Vec::new(), active: false }
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
        let c = (offset / self.size as u64) as u32;
        let in_chunk = (offset % self.size as u64) as usize;
        if !self.active {
            self.chunkno = c;
            self.start = in_chunk;
            self.buf.clear();
            let take = (self.size - in_chunk).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            self.active = true;
            return take;
        }
        // Sequential continuation within the same chunk?
        if c == self.chunkno && in_chunk == self.start + self.buf.len() {
            let take = (self.size - in_chunk).min(data.len());
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
        let buf_start = self.chunkno as u64 * self.size as u64 + self.start as u64;
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
    fn seventeen_terabyte_limit() {
        let max_bytes = (i32::MAX as u64 + 1) * CHUNK_SIZE as u64;
        let tb = max_bytes as f64 / 1e12;
        assert!((17.0..18.0).contains(&tb), "file size limit {tb} TB");
    }

    #[test]
    fn split_range_within_one_chunk() {
        assert_eq!(split_range(CHUNK_SIZE, 10, 20), vec![(0, 10, 20)]);
        assert_eq!(split_range(CHUNK_SIZE, 0, CHUNK_SIZE), vec![(0, 0, CHUNK_SIZE)]);
    }

    #[test]
    fn split_range_spanning_chunks() {
        let cs = CHUNK_SIZE as u64;
        let parts = split_range(CHUNK_SIZE, cs - 10, 30);
        assert_eq!(parts, vec![(0, CHUNK_SIZE - 10, 10), (1, 0, 20)]);
        let parts = split_range(CHUNK_SIZE, cs, 2 * CHUNK_SIZE + 7);
        assert_eq!(
            parts,
            vec![(1, 0, CHUNK_SIZE), (2, 0, CHUNK_SIZE), (3, 0, 7)]
        );
        // Total length is preserved.
        assert_eq!(parts.iter().map(|p| p.2).sum::<usize>(), 2 * CHUNK_SIZE + 7);
    }

    #[test]
    fn split_range_empty() {
        assert!(split_range(CHUNK_SIZE, 100, 0).is_empty());
    }

    #[test]
    fn coalescer_absorbs_sequential_writes() {
        let mut c = Coalescer::new(CHUNK_SIZE);
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
        let mut c = Coalescer::new(CHUNK_SIZE);
        c.absorb(0, b"aaa");
        assert_eq!(c.absorb(10, b"bbb"), 0, "gap");
        assert_eq!(c.absorb(1, b"bbb"), 0, "overlap");
        // Still holds the original.
        assert_eq!(c.pending().unwrap().2, b"aaa");
    }

    #[test]
    fn coalescer_stops_at_chunk_boundary() {
        let mut c = Coalescer::new(CHUNK_SIZE);
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
        let mut c = Coalescer::new(CHUNK_SIZE);
        let off = CHUNK_SIZE as u64 * 2 + 100;
        assert_eq!(c.absorb(off, b"xyz"), 3);
        let (chunk, start, buf) = c.take().unwrap();
        assert_eq!((chunk, start), (2, 100));
        assert_eq!(buf, b"xyz");
    }

    #[test]
    fn overlap_detection() {
        let mut c = Coalescer::new(CHUNK_SIZE);
        c.absorb(100, b"0123456789");
        assert!(c.overlaps(100, 1));
        assert!(c.overlaps(109, 5));
        assert!(c.overlaps(95, 6));
        assert!(!c.overlaps(95, 5));
        assert!(!c.overlaps(110, 10));
        assert!(!Coalescer::new(CHUNK_SIZE).overlaps(0, usize::MAX));
    }
}
