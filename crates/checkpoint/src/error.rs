//! Typed checkpoint errors.
//!
//! The failure-injection contract: restoring from a truncated, bit-flipped,
//! or version-mismatched checkpoint must return one of these variants —
//! naming the failing section — and must never panic or leave a
//! half-restored simulation behind (restore builds a fresh simulation and
//! only hands it out on success).

use bdm_util::ReadError;

/// Why a checkpoint could not be written or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The buffer ended mid-value.
    Truncated {
        /// Section (or `"header"` / `"trailer"`) being read.
        section: &'static str,
        /// The underlying bounds-checked read failure.
        cause: ReadError,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Section whose payload is corrupt (`"file"` for the whole-file
        /// trailer checksum).
        section: &'static str,
    },
    /// The checkpoint is missing a required section.
    MissingSection {
        /// The absent section.
        section: &'static str,
    },
    /// A section decoded structurally but contains an invalid value
    /// (unknown enum code, impossible count, trailing bytes, …).
    Malformed {
        /// Section containing the bad value.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// An agent or behavior in the live simulation does not implement the
    /// checkpoint hooks (its `checkpoint_tag` is empty) — the simulation
    /// cannot be serialized.
    Unsupported {
        /// `"agent"` or `"behavior"`.
        kind: &'static str,
        /// The type's diagnostic name.
        name: String,
    },
    /// The checkpoint references an agent type tag missing from the
    /// [`Registry`](crate::Registry).
    UnknownAgentTag {
        /// The unresolvable tag.
        tag: String,
    },
    /// The checkpoint references a behavior type tag missing from the
    /// [`Registry`](crate::Registry).
    UnknownBehaviorTag {
        /// The unresolvable tag.
        tag: String,
    },
    /// The scheduler section names an operation the restored simulation's
    /// pipeline does not have (custom operations must be re-registered by
    /// the caller before state is applied — see `restore_with`).
    UnknownOp {
        /// The missing operation name.
        name: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::VersionMismatch { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            CheckpointError::Truncated { section, cause } => {
                write!(f, "checkpoint truncated in section {section}: {cause}")
            }
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "checkpoint is missing section {section}")
            }
            CheckpointError::Malformed { section, detail } => {
                write!(f, "malformed section {section}: {detail}")
            }
            CheckpointError::Unsupported { kind, name } => {
                write!(f, "{kind} type {name:?} does not implement checkpointing")
            }
            CheckpointError::UnknownAgentTag { tag } => {
                write!(f, "agent type tag {tag:?} is not registered")
            }
            CheckpointError::UnknownBehaviorTag { tag } => {
                write!(f, "behavior type tag {tag:?} is not registered")
            }
            CheckpointError::UnknownOp { name } => {
                write!(
                    f,
                    "scheduler operation {name:?} not present in the restored pipeline"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Maps a raw reader truncation into the section-naming variant.
pub(crate) fn truncated(section: &'static str) -> impl FnOnce(ReadError) -> CheckpointError {
    move |cause| CheckpointError::Truncated { section, cause }
}
