//! # dvfs — frequency governors for the simulated cluster
//!
//! The paper studies three distributed DVS strategies; each maps onto a
//! governor here, instantiated once per node:
//!
//! 1. **cpuspeed** ([`CpuspeedGovernor`]) — a faithful re-implementation of
//!    the Fedora `cpuspeed` daemon: poll `/proc/stat` on an interval, jump
//!    to the maximum frequency when utilization is high, step down one
//!    level when idle time appears. Its blindness to busy-wait slack is the
//!    paper's first negative result.
//! 2. **static control** ([`StaticGovernor`]) — pin one frequency for the
//!    whole run, synchronized across nodes.
//! 3. **dynamic control** ([`AppDirectedGovernor`]) — honor application
//!    requests inserted around slack-heavy regions (the PowerPack
//!    `set_speed` library calls around `fft()` / transpose steps 2–3).
//!
//! [`OnDemandGovernor`] and [`ConservativeGovernor`] are beyond-the-paper
//! extensions (the kernel governors that later replaced cpuspeed), used
//! in the governor-comparison ablations.
//!
//! Above all of them sits the [`ClusterController`] layer (the `cluster`
//! module): a runtime strategy interface that observes *cross-node*
//! state through engine callbacks. Every governor runs under it via
//! [`PerNodeGovernors`]; [`PowerCapController`] uses it to enforce a
//! global cluster watt budget with optional runtime redistribution.

pub(crate) mod app_directed;
pub(crate) mod cluster;
pub(crate) mod conservative;
pub(crate) mod cpuspeed;
pub(crate) mod governor;
pub(crate) mod ondemand;

pub use app_directed::AppDirectedGovernor;
pub use cluster::{CapPolicy, ClusterController, Decision, PerNodeGovernors, PowerCapController};
pub use conservative::ConservativeGovernor;
pub use cpuspeed::CpuspeedGovernor;
pub use governor::{AppSpeedRequest, Governor, StaticGovernor};
pub use ondemand::OnDemandGovernor;
