//! Compiled programs, shared and issued once.
//!
//! The machine is fully static: a program's issue cycles, stalls,
//! counters and hazard verdict follow from its encoding, the machine
//! configuration, the hazard policy and how many stream words it can
//! read — never from the values it computes. A [`Program`] is an
//! immutable, reference-counted slot list that memoises that **issue
//! outcome** for the first key it runs under, so every later run of the
//! same program on the same machine pays only the value stage, and
//! cloning a program (a compiled schedule, a cache hit) is a reference
//! count.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::instruction::NetInstruction;
use crate::machine::HazardPolicy;
use crate::stats::ExecStats;
use crate::{timing, MibConfig, Result};

/// An immutable program: one [`NetInstruction`] per issue slot, shared by
/// every clone. It reads as a slice (`Deref<Target = [NetInstruction]>`)
/// and compares by its instructions.
#[derive(Clone)]
pub struct Program(Arc<Shared>);

struct Shared {
    slots: Vec<NetInstruction>,
    /// The issue outcome of the first run, with the key it holds for.
    issue: OnceLock<(IssueKey, IssueOutcome)>,
}

/// What an issue outcome depends on besides the program.
#[derive(Clone, Copy, PartialEq)]
struct IssueKey {
    config: MibConfig,
    policy: HazardPolicy,
    /// Stream words left when the run starts.
    hbm_words: usize,
}

/// What the issue engine decides about one run, before any value is
/// computed.
#[derive(Clone)]
pub(crate) struct IssueOutcome {
    /// The slots the value stage evaluates: all of them when the run
    /// succeeds; on an error, those before the slot that stops the run,
    /// plus that slot for an address or stream fault, which the value
    /// stage meets part-way through it.
    pub(crate) evaluated: usize,
    /// The run's statistics, or the error that stops it.
    pub(crate) result: Result<ExecStats>,
}

impl Program {
    /// The issue outcome of running on a machine with `config` under
    /// `policy`, fed by a stream with `hbm_words` words left: the memoised
    /// one when the key matches the first run's, else computed (and, on
    /// the first run, stored).
    pub(crate) fn issue(
        &self,
        config: &MibConfig,
        policy: HazardPolicy,
        hbm_words: usize,
    ) -> IssueOutcome {
        let key = IssueKey {
            config: *config,
            policy,
            hbm_words,
        };
        let compute = || timing::replay(self, hbm_words, config, policy, |_, _, _| {});
        let (memo_key, memo) = self.0.issue.get_or_init(|| (key, compute()));
        if *memo_key == key {
            memo.clone()
        } else {
            compute()
        }
    }
}

impl From<Vec<NetInstruction>> for Program {
    fn from(slots: Vec<NetInstruction>) -> Self {
        Program(Arc::new(Shared {
            slots,
            issue: OnceLock::new(),
        }))
    }
}

impl Deref for Program {
    type Target = [NetInstruction];

    fn deref(&self) -> &[NetInstruction] {
        &self.0.slots
    }
}

impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.0.slots == other.0.slots
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
