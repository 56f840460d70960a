//! Error type shared by all IRS operations.

use std::fmt;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, IrsError>;

/// Errors raised by the IRS.
#[derive(Debug)]
pub enum IrsError {
    /// A query string could not be parsed; carries a human-readable reason
    /// and the byte offset at which parsing failed.
    QueryParse {
        /// Human-readable reason.
        reason: String,
        /// Byte offset in the query text.
        offset: usize,
    },
    /// An external document key was not found in the collection.
    UnknownDocument(String),
    /// A document key was added twice without an intervening delete.
    DuplicateDocument(String),
    /// The on-disk index file is corrupt or from an incompatible version.
    CorruptIndex(String),
    /// Underlying I/O failure during persistence.
    Io(std::io::Error),
    /// The IRS is temporarily unreachable (outage, injected fault, or an
    /// open circuit breaker). Transient: callers may retry or degrade to
    /// stale results.
    Unavailable(String),
    /// The collection serves a frozen snapshot (a read replica) and
    /// refuses mutation. Permanent: writes must go to the primary.
    ReadOnly(String),
}

impl IrsError {
    /// True for errors that a retry (or a stale-read fallback) can be
    /// expected to resolve; false for permanent errors such as parse
    /// failures or corrupt on-disk state.
    pub fn is_transient(&self) -> bool {
        matches!(self, IrsError::Unavailable(_))
    }
}

impl fmt::Display for IrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrsError::QueryParse { reason, offset } => {
                write!(f, "query parse error at byte {offset}: {reason}")
            }
            IrsError::UnknownDocument(key) => write!(f, "unknown document key {key:?}"),
            IrsError::DuplicateDocument(key) => write!(f, "duplicate document key {key:?}"),
            IrsError::CorruptIndex(why) => write!(f, "corrupt index: {why}"),
            IrsError::Io(e) => write!(f, "i/o error: {e}"),
            IrsError::Unavailable(why) => write!(f, "irs unavailable: {why}"),
            IrsError::ReadOnly(what) => write!(f, "collection is read-only: {what}"),
        }
    }
}

impl std::error::Error for IrsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IrsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Detected corruption ([`std::io::ErrorKind::InvalidData`], e.g. a CRC
/// mismatch from [`storage::read_verified`]) is a corrupt index; every
/// other I/O failure stays [`IrsError::Io`].
impl From<std::io::Error> for IrsError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::InvalidData {
            IrsError::CorruptIndex(e.to_string())
        } else {
            IrsError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_reason() {
        let e = IrsError::QueryParse {
            reason: "unbalanced parenthesis".into(),
            offset: 7,
        };
        let s = e.to_string();
        assert!(s.contains("byte 7"));
        assert!(s.contains("unbalanced parenthesis"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = IrsError::from(io);
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn only_unavailable_is_transient() {
        assert!(IrsError::Unavailable("injected".into()).is_transient());
        assert!(!IrsError::UnknownDocument("k".into()).is_transient());
        assert!(!IrsError::CorruptIndex("bad".into()).is_transient());
        assert!(!IrsError::from(std::io::Error::other("disk")).is_transient());
        assert!(!IrsError::ReadOnly("replica".into()).is_transient());
    }

    #[test]
    fn unknown_and_duplicate_display_key() {
        assert!(IrsError::UnknownDocument("k1".into())
            .to_string()
            .contains("k1"));
        assert!(IrsError::DuplicateDocument("k2".into())
            .to_string()
            .contains("k2"));
    }
}
