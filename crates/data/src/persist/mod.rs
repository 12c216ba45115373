//! Crash-safe persistence primitives: snapshots, a write-ahead log,
//! and the I/O seam that makes both fault-injectable.
//!
//! This module is deliberately engine-agnostic: it knows how to frame
//! checksummed records ([`wal`]), how to publish and verify a
//! tile-aligned dataset image ([`snapshot`]), and how to talk to a
//! disk that may lie ([`io`]). What the record payloads *mean* —
//! mutations, registrations, replay idempotence — lives in
//! `skyline_engine::recovery`, which drives everything here through
//! the [`WalIo`] trait so the same code path runs against the real
//! filesystem, an in-memory store, and a deterministic fault
//! injector.
//!
//! On-disk layout under a durable engine's root directory:
//!
//! ```text
//! root/
//! └── datasets/
//!     └── <escaped-name>/
//!         ├── snapshot.sky          # see `snapshot` for the format
//!         └── wal.log               # see `wal` for the framing
//! ```

mod crc;
pub mod io;
pub mod snapshot;
pub mod wal;

pub use crc::crc32;
pub use io::{FaultInjector, FaultPlan, MemIo, ReadFlip, StdIo, WalIo};
pub use snapshot::{read_snapshot, write_snapshot, Snapshot, SnapshotError};
pub use wal::{append_record, encode_record, scan_wal, WalScan};

/// Escapes a dataset name into a filesystem-safe directory component:
/// ASCII alphanumerics, `-`, and `_` pass through, every other byte
/// becomes `%XX`. Injective, so distinct names never collide on disk.
pub fn escape_dataset_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Inverts [`escape_dataset_name`]. Returns `None` for byte sequences
/// the escaper never produces (dangling `%`, bad hex, invalid UTF-8).
pub fn unescape_dataset_name(escaped: &str) -> Option<String> {
    let bytes = escaped.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_escaping_roundtrips_and_is_safe() {
        for name in ["plain", "has space", "a/b\\c", "ünïcode ☃", "%already%", ""] {
            let esc = escape_dataset_name(name);
            assert!(
                esc.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "{esc}"
            );
            assert!(!esc.contains('/'));
            assert_eq!(unescape_dataset_name(&esc).as_deref(), Some(name));
        }
    }

    #[test]
    fn distinct_names_stay_distinct() {
        let a = escape_dataset_name("a b");
        let b = escape_dataset_name("a%20b");
        assert_ne!(a, b);
    }
}
