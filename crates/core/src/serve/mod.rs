//! The sharded fleet service behind the `ssdserve` binary.
//!
//! Layered bottom-up (DESIGN.md has the full architecture chapter):
//!
//! - [`protocol`] — length-prefixed JSON frames, request decoding, typed
//!   [`protocol::ProtocolError`]s.
//! - [`shard`] — per-shard views folded at load ([`shard::ShardState`])
//!   and the union [`shard::PassPlan`] a request batch compiles into,
//!   with exact (not approximate) cross-shard merge semantics.
//! - [`service`] — [`service::FleetService`]: two streaming load passes
//!   (train, fold), then request batches answered by lookup into every
//!   shard's views and one merge.
//! - [`server`] — the per-connection frame loop and the Unix-socket
//!   server: one thread per connection, a connection cap, and a
//!   per-connection deadline.
//!
//! The whole stack inherits the workspace determinism contract: response
//! bytes are identical for any shard count and client interleaving
//! (`tests/serve.rs`).

pub mod protocol;
pub mod server;
pub mod service;
pub mod shard;

pub use protocol::{read_frame, write_frame, ProtocolError, Request};
pub use server::serve_connection;
pub use service::{FleetService, ScorerSpec, ServeConfig, ServeError};
