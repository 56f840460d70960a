//! Error type for all OODBMS operations.

use std::fmt;

use crate::oid::Oid;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DbError>;

/// Errors raised by the OODBMS.
#[derive(Debug)]
pub enum DbError {
    /// A class name was defined twice.
    DuplicateClass(String),
    /// A class name is unknown.
    UnknownClass(String),
    /// An OID does not refer to a live object.
    UnknownObject(Oid),
    /// A method name is not registered (for the class or globally).
    UnknownMethod(String),
    /// A method was invoked with wrong arguments.
    BadMethodArgs {
        /// The method that was invoked.
        method: String,
        /// Why the arguments were rejected.
        reason: String,
    },
    /// Query text failed to parse.
    QueryParse {
        /// Human-readable reason.
        reason: String,
        /// Byte offset in the query text.
        offset: usize,
    },
    /// A query referenced an unbound variable or mistyped expression.
    QueryEval(String),
    /// A transaction handle was used after commit/abort.
    InactiveTxn,
    /// An attribute value nests `List`s deeper than
    /// [`MAX_LIST_DEPTH`](crate::value::MAX_LIST_DEPTH), so it could not
    /// be read back from the WAL or a snapshot.
    ValueTooDeep {
        /// The attribute the value was meant for.
        attr: String,
    },
    /// The WAL or snapshot file is corrupt.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateClass(n) => write!(f, "class {n:?} already defined"),
            DbError::UnknownClass(n) => write!(f, "unknown class {n:?}"),
            DbError::UnknownObject(oid) => write!(f, "unknown object {oid}"),
            DbError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            DbError::BadMethodArgs { method, reason } => {
                write!(f, "bad arguments for {method}: {reason}")
            }
            DbError::QueryParse { reason, offset } => {
                write!(f, "query parse error at byte {offset}: {reason}")
            }
            DbError::QueryEval(why) => write!(f, "query evaluation error: {why}"),
            DbError::InactiveTxn => write!(f, "transaction is no longer active"),
            DbError::ValueTooDeep { attr } => write!(
                f,
                "value of attribute {attr:?} nests lists deeper than {}",
                crate::value::MAX_LIST_DEPTH
            ),
            DbError::Corrupt(why) => write!(f, "corrupt database file: {why}"),
            DbError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Detected corruption ([`std::io::ErrorKind::InvalidData`], e.g. a CRC
/// mismatch from [`storage::read_verified`]) is [`DbError::Corrupt`];
/// every other I/O failure stays [`DbError::Io`].
impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::InvalidData {
            DbError::Corrupt(e.to_string())
        } else {
            DbError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(DbError::UnknownClass("PARA".into())
            .to_string()
            .contains("PARA"));
        assert!(DbError::QueryParse {
            reason: "x".into(),
            offset: 3
        }
        .to_string()
        .contains("byte 3"));
        assert!(DbError::UnknownObject(Oid(7)).to_string().contains('7'));
    }

    #[test]
    fn io_source_preserved() {
        let e = DbError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
