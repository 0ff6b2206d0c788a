//! The IEEE CRC-32 that guards every wire frame and every durable record.
//!
//! Reflected polynomial `0xEDB88320`, initial value and final XOR `!0` —
//! the zlib/Ethernet CRC-32, so check value `crc32(b"123456789") ==
//! 0xCBF43926`. Computed by slicing-by-16: sixteen 256-entry tables (built
//! at compile time by a `const fn`) let the loop fold sixteen input bytes
//! per step with independent table lookups instead of walking the input
//! one bit at a time.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop (one table per byte).
const LANES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; LANES] = build_tables();

const fn build_tables() -> [[u32; 256]; LANES] {
    let mut t = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < LANES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances a raw (pre-inverted) CRC register over `data`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(LANES);
    for c in &mut chunks {
        let c: &[u8; LANES] = c.try_into().expect("exact chunk");
        let a = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// The IEEE CRC-32 of `parts` concatenated — the multi-part form records
/// use to cover a header and a payload that live in separate buffers.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |crc, part| update(crc, part))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_parts(&[]), 0);
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn tables_hold_the_published_zlib_entries() {
        // Two entries of the published zlib table: byte 0x80 reduces to
        // the polynomial itself after eight shifts.
        assert_eq!(TABLES[0][128], POLY);
        assert_eq!(TABLES[0][1], 0x7707_3096);
    }
}
