//! Chunk-level compression with random access.
//!
//! "Inversion supports compression and uncompression of 'chunks' of user
//! files. ... Random access on the uncompressed version is straightforward.
//! Inversion determines which compressed chunk contains the bytes of
//! interest, uncompresses it, and returns the user only the desired data."
//!
//! Because chunk boundaries are fixed in *uncompressed* byte space
//! ([`crate::CHUNK_SIZE`]), locating the chunk for a byte offset needs no
//! extra index; each stored record carries the uncompressed length so short
//! tails and sparse chunks round-trip exactly.
//!
//! The codec is a self-contained LZ77 variant (64 KB window is overkill for
//! 8 KB chunks; we use 4 KB) chosen for honesty over ratio: it actually
//! models the CPU/storage trade the paper investigates, with no external
//! dependencies.

/// The most bytes [`compress`] turns `n` bytes into: all of them as
/// literals, 2 bytes of op header per 255, after the 4-byte length.
pub const fn bound(n: usize) -> usize {
    4 + n + 2 * n.div_ceil(255)
}

/// Compresses `data`, into at most [`bound`] bytes. Output format: `[ulen u32 le][stream]` where stream
/// is a sequence of ops: `0x00 <len u8> <literal bytes>` or
/// `0x01 <dist u16 le> <len u8>` (match of `len+4` bytes at `dist` back).
pub fn compress(data: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255 + MIN_MATCH;
    const WINDOW: usize = 4096;

    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    // Hash chains over 4-byte prefixes.
    let mut head = vec![usize::MAX; 1 << 13];
    let hash = |b: &[u8]| -> usize {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        (v.wrapping_mul(2654435761) >> 19) as usize & 0x1FFF
    };

    let mut lit_start = 0usize;
    let mut i = 0usize;
    let flush_lits = |out: &mut Vec<u8>, lits: &[u8]| {
        for chunk in lits.chunks(255) {
            out.push(0x00);
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash(&data[i..]);
        let cand = head[h];
        head[h] = i;
        let mut best = 0usize;
        if cand != usize::MAX && i - cand <= WINDOW {
            let max = (data.len() - i).min(MAX_MATCH);
            let mut l = 0;
            while l < max && data[cand + l] == data[i + l] {
                l += 1;
            }
            best = l;
        }
        if best >= MIN_MATCH {
            flush_lits(&mut out, &data[lit_start..i]);
            let dist = (i - cand) as u16;
            out.push(0x01);
            out.extend_from_slice(&dist.to_le_bytes());
            out.push((best - MIN_MATCH) as u8);
            i += best;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_lits(&mut out, &data[lit_start..]);
    if out.len() > bound(data.len()) {
        // Short matches between single literals cost more than they save.
        out.truncate(4);
        flush_lits(&mut out, data);
    }
    out
}

/// Decompresses the output of [`compress`]. Returns `None` on malformed
/// input (treat as corruption, not a panic).
pub fn decompress(stream: &[u8]) -> Option<Vec<u8>> {
    if stream.len() < 4 {
        return None;
    }
    let ulen = u32::from_le_bytes(stream[..4].try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(ulen);
    let mut i = 4usize;
    while i < stream.len() {
        match stream[i] {
            0x00 => {
                let len = *stream.get(i + 1)? as usize;
                let lits = stream.get(i + 2..i + 2 + len)?;
                out.extend_from_slice(lits);
                i += 2 + len;
            }
            0x01 => {
                let dist = u16::from_le_bytes([*stream.get(i + 1)?, *stream.get(i + 2)?]) as usize;
                let len = *stream.get(i + 3)? as usize + 4;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            _ => return None,
        }
        if out.len() > ulen {
            return None;
        }
    }
    if out.len() != ulen {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    /// One literal byte between five-byte matches costs 7 bytes per 6
    /// as LZ ops; the codec stores such a chunk as literals instead.
    #[test]
    fn output_never_exceeds_the_bound() {
        let data: Vec<u8> = (0..8062u32)
            .map(|i| [(i / 6) as u8, ((i / 6) >> 8) as u8, 0xAA, 0xBB, 0xCC, 0xDD][i as usize % 6])
            .collect();
        assert_eq!(compress(&data).len(), bound(data.len()));
        roundtrip(&data);
    }

    #[test]
    fn highly_redundant_data_shrinks() {
        let data = vec![7u8; 8128];
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "got {} bytes", c.len());
        roundtrip(&data);
    }

    #[test]
    fn text_like_data() {
        let text = "the quick brown fox jumps over the lazy dog. "
            .repeat(180)
            .into_bytes();
        let c = compress(&text);
        assert!(c.len() < text.len() / 2);
        roundtrip(&text);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: no matches, modest expansion allowed.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..8128)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 16 + 16);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_copy() {
        // "aaaaaa..." exercises dist < len copies.
        let data = vec![b'a'; 1000];
        roundtrip(&data);
        let mut data2 = b"ab".repeat(500);
        data2.push(b'!');
        roundtrip(&data2);
    }

    #[test]
    fn satellite_like_band_data() {
        // Smooth gradients as in synthetic images.
        let data: Vec<u8> = (0..8128u32).map(|i| ((i / 13) % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_rejected_without_panic() {
        assert!(decompress(&[]).is_none());
        assert!(decompress(&[1, 2, 3]).is_none());
        let good = compress(b"hello world hello world hello world");
        for cut in 0..good.len() {
            let _ = decompress(&good[..cut]);
        }
        // Flip bytes.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = decompress(&bad); // Must not panic.
        }
    }
}
