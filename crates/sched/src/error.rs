//! Typed scheduler errors.
//!
//! [`SchedError`] replaces the old `Result<_, String>` surface of
//! [`crate::Scheduler::run`] / [`crate::Scheduler::run_faulted`]. The
//! `Display` text of every variant is byte-identical to the strings the
//! old API produced, so logs, test expectations and downstream formatting
//! don't churn — callers that only ever printed the error see no
//! difference, while the fabric manager can now branch on the variant
//! (e.g. reject a bad spec at submit time instead of failing an epoch).

use pf_simnet::RecoveryError;

/// Why a scheduler run (or one fabric epoch) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The spec slice was empty.
    NoJobs,
    /// `max_concurrent` was 0.
    ZeroConcurrency,
    /// The plan has no trees to allocate.
    NoTrees,
    /// Two specs shared a job id.
    DuplicateJobId(u32),
    /// A job submitted a zero-length vector.
    EmptyVector(u32),
    /// A job's participant set was present but empty.
    EmptyParticipants(u32),
    /// A participant id exceeded the fabric size.
    ParticipantOutOfRange {
        /// The offending job.
        job: u32,
        /// The out-of-range participant id.
        participant: u32,
        /// The fabric's node count.
        nodes: u32,
    },
    /// A wave ran out of `max_cycles` without completing or detecting a
    /// fault.
    WaveStalled {
        /// The stalled wave's index.
        wave: u32,
    },
    /// Fault detection aborted a wave, but no admitted tenant's trees use
    /// the detected element — the injection schedule targets trees the
    /// wave never embedded.
    PhantomFault {
        /// The aborted wave's index.
        wave: u32,
    },
    /// An event arrived earlier in virtual time than one already fed to
    /// the fabric manager, whose events must come in nondecreasing time.
    OutOfOrder {
        /// The refused event's virtual time.
        at: u64,
        /// The latest virtual time fed so far.
        last: u64,
    },
    /// A tenant's solo recovery run failed.
    Recovery {
        /// The job whose recovery failed.
        job: u32,
        /// The underlying recovery failure.
        source: RecoveryError,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoJobs => write!(f, "no jobs submitted"),
            SchedError::ZeroConcurrency => write!(f, "max_concurrent must be at least 1"),
            SchedError::NoTrees => write!(f, "the plan has no trees"),
            SchedError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            SchedError::EmptyVector(id) => write!(f, "job {id} has an empty vector"),
            SchedError::EmptyParticipants(id) => {
                write!(f, "job {id} has an empty participant set")
            }
            SchedError::ParticipantOutOfRange { job, participant, nodes } => {
                write!(
                    f,
                    "job {job}: participant {participant} out of range (fabric has {nodes} nodes)"
                )
            }
            SchedError::WaveStalled { wave } => {
                write!(f, "wave {wave} exhausted max_cycles without completing")
            }
            SchedError::PhantomFault { wave } => {
                write!(f, "wave {wave} aborted on a fault no tenant's trees use")
            }
            SchedError::OutOfOrder { at, last } => {
                write!(f, "event at cycle {at} arrived after one at cycle {last}")
            }
            SchedError::Recovery { job, source } => {
                write!(f, "recovery of job {job} failed: {source}")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Recovery { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The old string API's exact text, pinned.
    #[test]
    fn display_text_is_stable() {
        let cases: Vec<(SchedError, &str)> = vec![
            (SchedError::NoJobs, "no jobs submitted"),
            (SchedError::ZeroConcurrency, "max_concurrent must be at least 1"),
            (SchedError::NoTrees, "the plan has no trees"),
            (SchedError::DuplicateJobId(3), "duplicate job id 3"),
            (SchedError::EmptyVector(4), "job 4 has an empty vector"),
            (SchedError::EmptyParticipants(5), "job 5 has an empty participant set"),
            (
                SchedError::ParticipantOutOfRange { job: 6, participant: 99, nodes: 13 },
                "job 6: participant 99 out of range (fabric has 13 nodes)",
            ),
            (
                SchedError::WaveStalled { wave: 2 },
                "wave 2 exhausted max_cycles without completing",
            ),
            (
                SchedError::PhantomFault { wave: 1 },
                "wave 1 aborted on a fault no tenant's trees use",
            ),
            (
                SchedError::OutOfOrder { at: 99, last: 100 },
                "event at cycle 99 arrived after one at cycle 100",
            ),
            (
                SchedError::Recovery { job: 8, source: RecoveryError::Undetected },
                "recovery of job 8 failed: run aborted without detecting a fault \
                 (max_cycles exhausted?)",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }
}
