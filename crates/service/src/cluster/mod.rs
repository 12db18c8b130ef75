//! Multi-node scale-out: a coordinator tier that routes jobs across a
//! fleet of ordinary `pgl serve` workers.
//!
//! The pieces, smallest to largest:
//!
//! * [`ring`] — rendezvous hashing from a graph's content hash to the
//!   worker that owns it (deterministic, minimally disruptive).
//! * [`client`] — the system's one HTTP client: the coordinator talks to
//!   workers with it, workers heartbeat with it, and the CLI's
//!   `pgl submit` / `pgl watch` use it.
//! * [`fault`] — deterministic, seeded fault injection for every
//!   outbound cluster request, armed only via `PGL_FAULT_PLAN`.
//! * [`journal`] — the coordinator's write-ahead job journal and graph
//!   vault spill: crash recovery for accepted work.
//! * [`worker`] — worker-side membership: [`ClusterRole`] for
//!   `/v1/healthz` and the [`spawn_heartbeat`] join/heartbeat loop behind
//!   `pgl serve --join`.
//! * [`coordinator`] — the coordinator process itself: its `/v1` route
//!   table (served by [`crate::http`]'s server), the graph vault, fair
//!   scheduling across clients and graphs, forwarding, failure
//!   detection, drain-and-requeue, and journal replay at boot.

pub mod client;
pub mod coordinator;
pub mod fault;
pub mod journal;
pub mod ring;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
pub use fault::FaultPlan;
pub use journal::Journal;
pub use ring::HashRing;
pub use worker::{spawn_heartbeat, ClusterRole};
