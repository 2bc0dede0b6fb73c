//! The container format: header, section table, trailer.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"BDMCKPT\0"
//! 8       4     format version (u32 LE, currently 7)
//! 12      4     section count (u32 LE)
//!         ...   sections, each:
//!                 4   tag (ASCII fourcc: PARM FORC CNTR AGNT DIFF SCHD SHRD)
//!                 8   payload length (u64 LE)
//!                 8   payload checksum: fnv1a64(payload)
//!                 n   payload
//! end-8   8     whole-file checksum: fnv1a64 of every preceding byte
//! ```
//!
//! Section payload layouts live in [`crate::sections`]. Every multi-byte
//! integer is little-endian; every float travels as its IEEE-754 bit
//! pattern, making write→read round-trips bitwise exact.

use bdm_util::{fnv1a64, ByteReader, ByteWriter};

use crate::error::{truncated, CheckpointError};

/// File magic.
pub const MAGIC: [u8; 8] = *b"BDMCKPT\0";
/// Current format version. v2 extended the PARAM section with the health
/// sentinel policy; v3 appended the shard count to PARAM and added the
/// SHARDS section (the partition manifest of sharded runs); v4 appended
/// static detection's duty-cycle byte to COUNTERS; v5 dropped four fields
/// from PARAM (static threshold, sort curve, pool growth rate, box-batched
/// flag); v6 dropped delta checkpoints: the header lost its kind byte and
/// base file id, COUNTERS its change counters (agent generation, grid
/// versions) and DIFF its per-grid version; v7 dropped the neighbor-access
/// byte from PARAM. Older files are rejected rather than silently misread.
pub const FORMAT_VERSION: u32 = 7;

/// Section tags, in canonical file order.
pub mod tag {
    /// Engine parameters ([`bdm_core::Param`]).
    pub const PARAM: [u8; 4] = *b"PARM";
    /// Interaction force coefficients.
    pub const FORCE: [u8; 4] = *b"FORC";
    /// Iteration / uid / topology counters and the duty-cycle bit.
    pub const COUNTERS: [u8; 4] = *b"CNTR";
    /// Agent arrays (all domains).
    pub const AGENTS: [u8; 4] = *b"AGNT";
    /// Diffusion grids.
    pub const DIFFUSION: [u8; 4] = *b"DIFF";
    /// Scheduler op list state.
    pub const SCHEDULER: [u8; 4] = *b"SCHD";
    /// Shard-partition manifest of sharded runs (validation-only on
    /// restore: the partition is recomputed from state).
    pub const SHARDS: [u8; 4] = *b"SHRD";
}

/// Human-readable section name for error messages.
pub fn tag_name(t: [u8; 4]) -> &'static str {
    match &t {
        b"PARM" => "PARAM",
        b"FORC" => "FORCE",
        b"CNTR" => "COUNTERS",
        b"AGNT" => "AGENTS",
        b"DIFF" => "DIFFUSION",
        b"SCHD" => "SCHEDULER",
        b"SHRD" => "SHARDS",
        _ => "unknown",
    }
}

/// A parsed checkpoint: the verified sections.
pub struct Parsed<'a> {
    /// `(tag, payload)` in file order; checksums already verified.
    pub sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> Parsed<'a> {
    /// The payload of section `t`, or the typed missing-section error.
    pub fn require(&self, t: [u8; 4]) -> Result<&'a [u8], CheckpointError> {
        self.sections
            .iter()
            .find(|(st, _)| *st == t)
            .map(|(_, p)| *p)
            .ok_or(CheckpointError::MissingSection {
                section: tag_name(t),
            })
    }
}

/// Assembles a checkpoint file from its sections (already encoded payloads).
pub fn assemble(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(sections.len() as u32);
    for (t, payload) in sections {
        w.put_bytes(t);
        w.put_u64(payload.len() as u64);
        w.put_u64(fnv1a64(payload));
        w.put_bytes(payload);
    }
    let file_sum = fnv1a64(w.as_slice());
    w.put_u64(file_sum);
    w.into_bytes()
}

/// Parses and fully verifies a checkpoint file: magic, format version,
/// whole-file checksum, then every section checksum. Never panics on
/// malformed input.
pub fn parse(bytes: &[u8]) -> Result<Parsed<'_>, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take_bytes(MAGIC.len()).map_err(truncated("header"))?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.take_u32().map_err(truncated("header"))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch { found: version });
    }
    let count = r.take_u32().map_err(truncated("header"))? as usize;

    // Verify the trailer before trusting any section metadata: a trailing
    // whole-file checksum catches corruption anywhere, including in the
    // section table itself.
    if bytes.len() < 8 {
        return Err(CheckpointError::ChecksumMismatch { section: "file" });
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a64(body) != stored {
        return Err(CheckpointError::ChecksumMismatch { section: "file" });
    }

    // `count` is not an allocation size: a table that is shorter than it
    // claims fails at its end.
    let mut sections = Vec::new();
    for _ in 0..count {
        let t: [u8; 4] = r
            .take_bytes(4)
            .map_err(truncated("section table"))?
            .try_into()
            .unwrap();
        let name = tag_name(t);
        let len = r.take_u64().map_err(truncated(name))? as usize;
        let sum = r.take_u64().map_err(truncated(name))?;
        let payload = r.take_bytes(len).map_err(truncated(name))?;
        if fnv1a64(payload) != sum {
            return Err(CheckpointError::ChecksumMismatch { section: name });
        }
        sections.push((t, payload));
    }
    // Exactly the trailer must remain.
    if r.remaining() != 8 {
        return Err(CheckpointError::Malformed {
            section: "trailer",
            detail: format!("{} bytes after the last section, expected 8", r.remaining()),
        });
    }
    Ok(Parsed { sections })
}
