//! Unsigned LEB128 varints with exactly one accepted spelling per value.

/// Append `v` to `buf` as an unsigned LEB128 varint.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a varint from `buf` starting at `*pos`, advancing `*pos`.
///
/// Returns `None` on truncated input, on encodings carrying bits past the
/// 64th (including anything longer than 10 bytes), and on *padded*
/// encodings whose final byte is a zero that a shorter encoding would have
/// omitted (`0x80 0x00` is not a valid spelling of `0`): every value has
/// exactly one accepted encoding — the one [`write_varint`] produces.
///
/// Values below 128 — nearly every doc delta, `tf` and position delta in
/// a postings list — take the one-byte fast path: a lone byte without the
/// continuation bit is always canonical, so it needs none of the checks.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Some(u64::from(byte))
        }
        _ => read_varint_slow(buf, pos),
    }
}

/// The general decoder behind [`read_varint`]: any length, with the
/// overflow and canonical-spelling checks, and no one-byte fast path.
#[inline]
pub fn read_varint_slow(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return None;
        }
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return None;
            }
            return Some(v | u64::from(byte) << shift);
        }
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
}
