//! Storage errors.

use std::fmt;

/// Errors raised while encoding or decoding provenance data.
#[derive(Debug)]
pub enum StorageError {
    /// I/O failure.
    Io(std::io::Error),
    /// Bad magic bytes — not a Lipstick provenance file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Truncated or malformed input.
    Corrupt(String),
    /// Graphs with active ZoomOuts cannot be persisted (zoom is a view,
    /// not data; ZoomIn first).
    ZoomedGraph(Vec<String>),
    /// A prepared write no longer matches the log it was prepared
    /// against (something was committed or compacted in between), so
    /// applying it would mix two states. Nothing was changed.
    Stale(String),
    /// A change (named here) on a log opened as a read-only snapshot
    /// (`AppendLog::open_snapshot`). Nothing was read or written.
    Snapshot(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::BadMagic => write!(f, "not a Lipstick provenance file (bad magic)"),
            StorageError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Corrupt(m) => write!(f, "corrupt provenance file: {m}"),
            StorageError::ZoomedGraph(mods) => write!(
                f,
                "cannot persist a graph with zoomed-out modules: {}",
                mods.join(", ")
            ),
            StorageError::Stale(m) => write!(f, "stale prepared write: {m}"),
            StorageError::Snapshot(what) => {
                write!(f, "{what} refused: the log is open as a read-only snapshot")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for this crate.
pub type Result<T, E = StorageError> = std::result::Result<T, E>;
