//! The generators as `hcm generate <mode>` and `POST /generate?mode=` offer
//! them: one table of modes, the parameters each reads, their defaults and
//! the allowed sets, read through [`Params`] so both front ends read the
//! same values the same way and differ only in where a parameter comes from
//! and how an error reads.

use hc_core::ecs::Etc;

use crate::params::Params;
use crate::{cvb, range_based, targeted, CvbParams, RangeParams, TargetSpec};

/// A generator mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// [`targeted()`]: hits a prescribed (MPH, TDH, TMA).
    Targeted,
    /// [`range_based()`]: Ali et al.'s range-based method.
    Range,
    /// [`cvb()`]: Ali et al.'s coefficient-of-variation-based method.
    Cvb,
}

impl Mode {
    /// Every mode, in the order messages list them.
    pub const ALL: [Mode; 3] = [Mode::Targeted, Mode::Range, Mode::Cvb];

    /// The mode named `name`.
    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|mode| mode.name() == name)
    }

    /// The mode's name on both front ends.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Targeted => "targeted",
            Mode::Range => "range",
            Mode::Cvb => "cvb",
        }
    }

    /// The names of every mode, for messages: `targeted | range | cvb`.
    pub fn choices() -> String {
        Mode::ALL.map(Mode::name).join(" | ")
    }

    /// The parameters the mode reads; a front end refuses any other.
    pub fn params(self) -> &'static [&'static str] {
        match self {
            Mode::Targeted => &["tasks", "machines", "mph", "tdh", "tma", "seed", "jitter"],
            Mode::Range => &["tasks", "machines", "rtask", "rmach", "seed"],
            Mode::Cvb => &["tasks", "machines", "vtask", "vmach", "seed"],
        }
    }

    /// Reads the mode's parameters from `p`, in a fixed order (so the first
    /// bad one is the one reported), and generates. The allowed set is the
    /// caller's to check first: a front end may take more names than
    /// [`Mode::params`].
    pub fn generate<P: Params>(self, p: &P) -> Result<Etc, String> {
        let etc = match self {
            Mode::Targeted => {
                let spec = TargetSpec {
                    tasks: p.require("tasks")?,
                    machines: p.require("machines")?,
                    mph: p.require("mph")?,
                    tdh: p.require("tdh")?,
                    tma: p.require("tma")?,
                    jitter: p.get_or("jitter", 0.5)?,
                };
                targeted(&spec, p.get_or("seed", 0)?).map(|ecs| ecs.to_etc())
            }
            Mode::Range => {
                let params = RangeParams {
                    tasks: p.require("tasks")?,
                    machines: p.require("machines")?,
                    r_task: p.get_or("rtask", 100.0)?,
                    r_mach: p.get_or("rmach", 100.0)?,
                };
                range_based(&params, p.get_or("seed", 0)?)
            }
            Mode::Cvb => {
                let params = CvbParams::new(
                    p.require("tasks")?,
                    p.require("machines")?,
                    p.get_or("vtask", 0.3)?,
                    p.get_or("vmach", 0.3)?,
                );
                cvb(&params, p.get_or("seed", 0)?)
            }
        };
        etc.map_err(|e| e.to_string())
    }
}

/// `tasks × machines` when both parse, whatever the mode: a cell guard checks
/// it before any generator runs.
pub fn cells<P: Params>(p: &P) -> Option<usize> {
    let count = |name: &str| -> Option<usize> { p.raw(name)?.parse().ok() };
    Some(count("tasks")?.saturating_mul(count("machines")?))
}
