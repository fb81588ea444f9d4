//! Error types surfaced to data-structure code.

use std::fmt;

use pmem::POff;

/// The paper's `OldSeeNewException`: an operation running in epoch *e*
/// touched a payload created in some epoch *e′ > e*.
///
/// Montage raises this to help structures keep their linearization order
/// consistent with epoch order (paper Sec. 3.2, property 3). Lock-based
/// structures never see it; nonblocking operations respond by rolling back
/// and restarting in the newer epoch, which preserves lock freedom (the
/// epoch must have advanced for the exception to arise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OldSeeNewException {
    /// The epoch the running operation registered in.
    pub op_epoch: u64,
    /// The (newer) epoch found on the payload.
    pub payload_epoch: u64,
}

impl fmt::Display for OldSeeNewException {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "old-see-new: operation in epoch {} read payload from epoch {}",
            self.op_epoch, self.payload_epoch
        )
    }
}

impl std::error::Error for OldSeeNewException {}

/// Returned by `CAS_verify` when the global epoch clock
/// no longer matches the operation's registered epoch; the operation must
/// restart to linearize within a single epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochChanged {
    pub op_epoch: u64,
    pub current_epoch: u64,
}

impl fmt::Display for EpochChanged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch changed: operation registered in {}, clock now at {}",
            self.op_epoch, self.current_epoch
        )
    }
}

impl std::error::Error for EpochChanged {}

/// What [`crate::recovery::try_recover`] found wrong with a crashed pool.
///
/// The first two variants are *fatal*: without a formatted pool or a sane
/// epoch clock there is no frontier to recover to, so `try_recover` returns
/// them as errors. The last two describe a single damaged block; recovery
/// degrades gracefully by *quarantining* that block (recorded in the
/// [`crate::recovery::RecoveryReport`] with one of these as the reason)
/// and carries on — one corrupt payload no longer loses the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The pool carries no Montage magic (never formatted, or the crash hit
    /// before `format`'s single fence made the root area durable).
    UnformattedPool,
    /// The durable epoch clock is below the first valid epoch.
    CorruptClock {
        /// The clock value found in the root area.
        found: u64,
    },
    /// A live-magic block whose header fails validation (checksum mismatch,
    /// invalid kind, or an epoch outside the pool's durable history) —
    /// typically a torn header line.
    CorruptHeader { blk: POff },
    /// A live-magic block whose recorded size does not fit in its allocator
    /// block, so its data bytes cannot all be real.
    TruncatedPayload {
        blk: POff,
        /// The size the header claims.
        size: u32,
        /// The bytes actually available in the block (header included).
        usable: u32,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::UnformattedPool => write!(f, "pool is not a Montage pool"),
            RecoveryError::CorruptClock { found } => {
                write!(f, "corrupt epoch clock: found {found}")
            }
            RecoveryError::CorruptHeader { blk } => {
                write!(f, "corrupt payload header at {blk:?}")
            }
            RecoveryError::TruncatedPayload { blk, size, usable } => write!(
                f,
                "truncated payload at {blk:?}: claims {size} B, block holds {usable} B"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = OldSeeNewException {
            op_epoch: 5,
            payload_epoch: 7,
        };
        assert!(e.to_string().contains("epoch 5"));
        assert!(e.to_string().contains("epoch 7"));
        let c = EpochChanged {
            op_epoch: 5,
            current_epoch: 6,
        };
        assert!(c.to_string().contains('6'));
    }
}
