//! Crash-safe whole-file writes.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::crc::crc32;

/// Atomically replace the file at `path` with the concatenation of
/// `parts`: they go to `<path>.tmp`, which is `sync_all`ed and renamed
/// over `path`, and the containing directory is then synced
/// (best-effort). A crash at any point leaves either the old file or the
/// complete new one.
pub(crate) fn replace_file(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path {} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Persist the rename itself. Best-effort: opening a directory
            // read-only for fsync is not supported on every platform.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Crash-safe file write: `payload` plus a 4-byte little-endian CRC-32
/// trailer, through [`replace_file`].
pub fn atomic_write(path: &Path, payload: &[u8]) -> io::Result<()> {
    replace_file(path, &[payload, &crc32(payload).to_le_bytes()])
}

/// Read a file written by [`atomic_write`], verify its CRC-32 trailer,
/// and return the payload without the trailer. A short file or a
/// mismatching trailer is [`io::ErrorKind::InvalidData`].
pub fn read_verified(path: &Path) -> io::Result<Vec<u8>> {
    read_verified_with_crc(path).map(|(payload, _)| payload)
}

/// [`read_verified`], also returning the verified CRC-32 — a cheap
/// identity of the file's bytes.
pub fn read_verified_with_crc(path: &Path) -> io::Result<(Vec<u8>, u32)> {
    let mut buf = std::fs::read(path)?;
    if buf.len() < 4 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "file shorter than its CRC trailer",
        ));
    }
    let crc_pos = buf.len() - 4;
    let mut trailer = [0u8; 4];
    trailer.copy_from_slice(&buf[crc_pos..]);
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&buf[..crc_pos]);
    if actual != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("crc mismatch: stored {expected:#010x}, computed {actual:#010x}"),
        ));
    }
    buf.truncate(crc_pos);
    Ok((buf, actual))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_read_verified_round_trip() {
        let dir = std::env::temp_dir().join("storage-file-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        atomic_write(&path, b"snapshot payload").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"snapshot payload");
        assert!(!path.with_file_name("atomic.bin.tmp").exists());
        // In-place corruption that preserves length is caught by the CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, b"abc").unwrap();
        let err = read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
