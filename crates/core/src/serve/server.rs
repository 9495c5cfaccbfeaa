//! Transport loops: one client over any byte stream, many over a Unix
//! socket.
//!
//! [`serve_connection`] is the per-client loop: read one frame, answer
//! one frame, until clean EOF. Malformed input gets a best-effort typed
//! error frame and then a [`ProtocolError`] return, so transports can
//! exit nonzero — garbage never panics and never hangs the peer.
//!
//! [`serve_unix`] runs that loop for each socket connection in its own
//! thread, straight against the shared [`FleetService`]. Answers are
//! lookups into views folded at load, so there is no request queue and
//! no cross-client batching: a client's bytes are the same whether it is
//! alone or one of many (`tests/serve.rs` pins this). The server caps the
//! number of live connections, and each connection has a
//! [`CONNECTION_DEADLINE`] on reads and writes, so a stalled client frees
//! its slot instead of holding it forever.

use super::protocol::{error_body, read_frame, write_frame, ProtocolError, MAX_REQUEST_FRAME};
use super::service::FleetService;
use std::io::{Read, Write};
use std::time::Duration;

/// How long a socket connection may wait on its peer — for the next
/// frame, inside a half-sent frame, or for a response to drain — before
/// the server drops it. Well-behaved clients leave gaps of milliseconds
/// (30 requests/s over two connections is one every ~67 ms on each), so
/// only a stalled client reaches it.
pub const CONNECTION_DEADLINE: Duration = Duration::from_secs(10);

/// Serves one client: frames in, frames out, until clean EOF. Returns the
/// number of frames answered. On a protocol error a typed error frame is
/// written best-effort before the error is returned.
pub fn serve_connection(
    service: &FleetService,
    reader: &mut impl Read,
    writer: &mut impl Write,
) -> Result<u64, ProtocolError> {
    let mut served = 0u64;
    loop {
        let body = match read_frame(reader, MAX_REQUEST_FRAME) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(served),
            Err(e) => {
                send_error_frame(writer, &e);
                return Err(e);
            }
        };
        match service.respond(&body) {
            Ok(response) => {
                write_frame(writer, &response).map_err(ProtocolError::Io)?;
                writer.flush().map_err(ProtocolError::Io)?;
                served += 1;
            }
            Err(e) => {
                send_error_frame(writer, &e);
                return Err(e);
            }
        }
    }
}

/// Best-effort: frame up the typed error for the peer. Failures to write
/// are ignored — the connection is being torn down anyway.
fn send_error_frame(writer: &mut impl Write, e: &ProtocolError) {
    let body = error_body(e.kind(), &e.to_string());
    let _ = write_frame(writer, &body);
    let _ = writer.flush();
}

/// Serves clients over a Unix domain socket, one thread per connection,
/// at most `max_connections` (clamped to at least 1) at a time: when every
/// slot is taken, `accept` waits until a connection ends. Runs until
/// `accept` fails.
#[cfg(unix)]
pub fn serve_unix(
    listener: &std::os::unix::net::UnixListener,
    service: std::sync::Arc<FleetService>,
    max_connections: usize,
) -> std::io::Result<()> {
    use std::sync::Arc;
    let slots = Arc::new(slots::Slots::new(max_connections));
    loop {
        let slot = slots::Slots::acquire(&slots);
        let (stream, _) = listener.accept()?;
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name("ssdserve-conn".into())
            .spawn(move || {
                let _slot = slot;
                let reader = stream
                    .set_read_timeout(Some(CONNECTION_DEADLINE))
                    .and_then(|()| stream.set_write_timeout(Some(CONNECTION_DEADLINE)))
                    .and_then(|()| stream.try_clone());
                let Ok(mut reader) = reader else { return };
                let mut writer = stream;
                // Per-connection protocol errors already answered the
                // peer with a typed error frame; the connection just ends.
                let _ = serve_connection(&service, &mut reader, &mut writer);
            })?;
    }
}

/// The live-connection count behind [`serve_unix`]'s cap.
#[cfg(unix)]
mod slots {
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    pub(super) struct Slots {
        live: Mutex<usize>,
        freed: Condvar,
        cap: usize,
    }

    /// One taken slot; dropping it frees the slot.
    pub(super) struct Slot(Arc<Slots>);

    impl Slots {
        pub(super) fn new(cap: usize) -> Slots {
            Slots {
                live: Mutex::new(0),
                freed: Condvar::new(),
                cap: cap.max(1),
            }
        }

        /// The count behind the lock. Every update is one `+= 1` or
        /// `-= 1`, so a poisoned lock still holds a valid count.
        fn live(&self) -> MutexGuard<'_, usize> {
            self.live.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Blocks until a slot is free, then takes it.
        pub(super) fn acquire(this: &Arc<Slots>) -> Slot {
            let mut live = this.live();
            while *live >= this.cap {
                live = this
                    .freed
                    .wait(live)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            *live += 1;
            Slot(Arc::clone(this))
        }
    }

    impl Drop for Slot {
        fn drop(&mut self) {
            *self.0.live() -= 1;
            self.0.freed.notify_one();
        }
    }
}
