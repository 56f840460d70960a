//! Crash-safe file writes: whole files replaced atomically, and the
//! generation rule of multi-file snapshots. A saver writes each new
//! version of its files under a fresh generation ([`next_generation`]),
//! commits it by rewriting one manifest last with [`atomic_write`], and
//! only then removes the other generations
//! ([`cleanup_stale_generations`]), so a crash leaves the manifest naming
//! a complete set. `generation_of` maps an entry name of the snapshot
//! directory to its generation, `None` for entries outside the rule.

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
/// trailer, through [`replace_file`]. Returns that CRC-32, the identity
/// [`read_verified_with_crc`] reads back.
pub fn atomic_write(path: &Path, payload: &[u8]) -> io::Result<u32> {
    let crc = crc32(payload);
    replace_file(path, &[payload, &crc.to_le_bytes()])?;
    Ok(crc)
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

/// Next free generation in `dir`: one past the highest that
/// `generation_of` finds among its entry names. A crashed save may have
/// left a higher generation than the manifest records, so the names, not
/// the manifest, are the authority.
pub fn next_generation(dir: &Path, generation_of: impl Fn(&str) -> Option<u64>) -> io::Result<u64> {
    let mut max = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        max = max.max(name.to_str().and_then(&generation_of).unwrap_or(0));
    }
    Ok(max + 1)
}

/// Best-effort removal of the entries of `dir` from generations other
/// than `current`, and of stray `<entry>.tmp` files of any generation
/// (atomic writes a crash interrupted). A directory goes with its
/// contents. Failures are ignored: stale entries are garbage, not state.
pub fn cleanup_stale_generations(
    dir: &Path,
    current: u64,
    generation_of: impl Fn(&str) -> Option<u64>,
) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let tmp = name.strip_suffix(".tmp");
        if generation_of(tmp.unwrap_or(&name)).is_some_and(|gen| tmp.is_some() || gen != current) {
            let path = entry.path();
            let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_read_verified_round_trip() {
        let dir = std::env::temp_dir().join("storage-file-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        let crc = atomic_write(&path, b"snapshot payload").unwrap();
        assert_eq!(
            read_verified_with_crc(&path).unwrap(),
            (b"snapshot payload".to_vec(), crc)
        );
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

    fn gen_of(name: &str) -> Option<u64> {
        name.strip_prefix("gen-")?.parse().ok()
    }

    #[test]
    fn generations_count_up_and_only_the_current_one_survives_cleanup() {
        let dir = std::env::temp_dir().join("storage-generation-tests");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_generation(&dir, gen_of).unwrap(), 1);
        std::fs::create_dir_all(dir.join("gen-1").join("db")).unwrap();
        std::fs::write(dir.join("gen-1").join("db").join("wal"), b"x").unwrap();
        std::fs::create_dir(dir.join("gen-3")).unwrap();
        std::fs::write(dir.join("gen-3.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("manifest"), b"kept").unwrap();
        // A generation a crashed save left behind still counts.
        assert_eq!(next_generation(&dir, gen_of).unwrap(), 4);

        cleanup_stale_generations(&dir, 3, gen_of);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["gen-3", "manifest"]);
    }
}
