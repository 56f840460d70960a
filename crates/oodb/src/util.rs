//! Length-prefixed byte and string helpers shared by the WAL and
//! snapshot formats, built on the canonical [`storage`] varints.

pub use storage::{read_varint, write_varint};

/// Append a length-prefixed byte string.
pub fn write_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Read a length-prefixed byte string.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).filter(|&e| e <= buf.len())?;
    let out = &buf[*pos..end];
    *pos = end;
    Some(out)
}

/// Append a length-prefixed UTF-8 string.
pub fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_bytes(buf, s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn read_str(buf: &[u8], pos: &mut usize) -> Option<String> {
    let bytes = read_bytes(buf, pos)?;
    String::from_utf8(bytes.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The checksum framing every WAL record and snapshot file is the
        // standard CRC-32 (IEEE).
        assert_eq!(storage::crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(storage::crc32(b""), 0);
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut buf = Vec::new();
        write_str(&mut buf, "hello");
        write_bytes(&mut buf, &[1, 2, 3]);
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos).as_deref(), Some("hello"));
        assert_eq!(read_bytes(&buf, &mut pos), Some(&[1u8, 2, 3][..]));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut buf = Vec::new();
        write_str(&mut buf, "hello");
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos), None);
    }

    #[test]
    fn invalid_utf8_string_fails() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut pos = 0;
        assert_eq!(read_str(&buf, &mut pos), None);
    }
}
