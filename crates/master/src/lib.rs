//! The master service: tablets, objects, and secondary indexes.
//!
//! A RAMCloud server's *master* component (Figure 1) owns tablets —
//! key-hash ranges of tables — and stores their objects in a
//! log-structured memory ([`rocksteady_logstore`]) indexed by a hash
//! table ([`rocksteady_hashtable`]). This crate implements the master's
//! *state and operations* with no scheduling or networking attached; the
//! simulated server actor (`rocksteady-server`) drives it and charges
//! virtual time for the [`Work`] receipts every operation returns, and
//! the migration protocols (`rocksteady` core crate) manipulate it
//! directly.
//!
//! Contents:
//! - [`service::MasterService`]: object read/write/delete, multi-ops,
//!   version management, tablet ownership checks (including the
//!   migration states of §3), replay for recovery and migration.
//! - [`index`]: secondary indexes as range-partitioned indexlets
//!   (Figure 2): B-tree maps from secondary key to primary-key hashes.
//! - [`bulk::LoadBatch`]: the record batch of the bulk loader
//!   ([`MasterService::load_batch`]).
//! - [`work::Work`]: the real-work receipt (probes, bytes copied,
//!   checksummed, appended) the cost model consumes.

pub mod bulk;
pub mod error;
pub mod index;
pub mod service;
pub mod tablet;
pub mod work;

pub use bulk::LoadBatch;
pub use error::OpError;
pub use index::Indexlet;
pub use service::{MasterConfig, MasterService, ReplayDest};
pub use tablet::{LocalTablet, TabletRole};
pub use work::Work;
