//! The one TCP listener loop of the workspace: a blocking `accept`, a
//! thread per connection, and a shutdown that wakes every thread it
//! started instead of waiting for one to poll a flag.
//!
//! * The **acceptor** blocks in `accept`. [`Listener::shutdown`] raises
//!   the stop flag and then connects to the listener's own address, so
//!   the acceptor returns from `accept`, sees the flag and exits.
//! * Each connection's **handler** runs on its own thread and may block
//!   in `read` for as long as its peer stays silent. The registry keeps a
//!   clone of the socket beside the handler's `JoinHandle`; shutdown
//!   closes the *read* half through that clone, which ends a blocked
//!   `read` with end-of-stream. The write half stays open so the handler
//!   can still flush what it owes the peer before it closes the socket.
//! * Finished handlers are joined and forgotten whenever a new
//!   connection is accepted, so the registry holds the live connections
//!   and not one entry per connection ever made.

use std::io;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A connection handler's thread and the socket clone that wakes it.
type Connection = (TcpStream, JoinHandle<()>);

struct Shared {
    stop: AtomicBool,
    connections: Mutex<Vec<Connection>>,
}

/// A bound TCP listener serving every connection on a thread of its
/// own. Dropping it shuts it down.
pub struct Listener {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (port 0 lets the OS pick) and starts accepting.
    /// Every connection runs `handler(stream, stop)` on a new thread;
    /// threads are named `<name>-accept` and `<name>-conn`.
    ///
    /// `stop` is raised by [`shutdown`](Listener::shutdown) before the
    /// handler's blocked `read` is ended, so a handler that reads
    /// end-of-stream tells "the server is closing" from "the peer left"
    /// by loading it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind<A, H>(addr: A, name: &str, handler: H) -> io::Result<Listener>
    where
        A: ToSocketAddrs,
        H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_name = format!("{name}-conn");
            let handler = Arc::new(handler);
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &shared, &conn_name, &handler))?
        };
        Ok(Listener {
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Handlers the registry holds: those still running when the last
    /// connection was accepted, and that connection's own.
    #[cfg(test)]
    pub(crate) fn tracked_connections(&self) -> usize {
        self.shared
            .connections
            .lock()
            .expect("connection registry lock")
            .len()
    }

    /// Stops accepting, ends every handler's blocked `read`, and joins
    /// all threads. Handlers finish what they owe their peer first.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is blocked in `accept`: give it a connection.
            // Should that fail it stays blocked, and joining it would
            // hang; it then exits at the next connection instead.
            if TcpStream::connect(wake_addr(self.local_addr)).is_ok() {
                let _ = acceptor.join();
            }
        }
        let connections = std::mem::take(
            &mut *self
                .shared
                .connections
                .lock()
                .expect("connection registry lock"),
        );
        for (stream, _) in &connections {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handler) in connections {
            let _ = handler.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bounds the next `read` on `stream` by what is left until `deadline`:
/// how a handler gives a peer a fixed time to deliver something (a
/// Hello, a request head) however slowly it dribbles the bytes. `false`
/// once the deadline has passed (a zero timeout is not a valid one) or
/// if the socket refuses the timeout.
pub fn set_read_deadline(stream: &TcpStream, deadline: Instant) -> bool {
    let left = deadline.saturating_duration_since(Instant::now());
    !left.is_zero() && stream.set_read_timeout(Some(left)).is_ok()
}

/// Where to connect to reach a listener bound to `bound`: a listener on
/// the unspecified address accepts on loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        ip if !ip.is_unspecified() => ip,
        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop<H>(listener: &TcpListener, shared: &Arc<Shared>, conn_name: &str, handler: &Arc<H>)
where
    H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    while !shared.stop.load(Ordering::SeqCst) {
        match accept_one(listener, shared, conn_name, handler) {
            Ok(Some(connection)) => {
                let mut connections = shared.connections.lock().expect("connection registry lock");
                for (_, finished) in connections.extract_if(.., |(_, h)| h.is_finished()) {
                    let _ = finished.join();
                }
                connections.push(connection);
            }
            Ok(None) => {}
            // Out of descriptors or threads: back off instead of
            // spinning on the same error.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Blocks for the next connection and starts its handler. `None` when
/// the connection was the shutdown wake (or a peer that lost the race
/// with it).
fn accept_one<H>(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conn_name: &str,
    handler: &Arc<H>,
) -> io::Result<Option<Connection>>
where
    H: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let (stream, _) = listener.accept()?;
    if shared.stop.load(Ordering::SeqCst) {
        return Ok(None);
    }
    // Without a clone shutdown could not wake the handler, so a
    // connection that cannot be cloned is not served.
    let waker = stream.try_clone()?;
    let (shared, handler) = (Arc::clone(shared), Arc::clone(handler));
    let thread = thread::Builder::new()
        .name(conn_name.into())
        .spawn(move || handler(stream, &shared.stop))?;
    Ok(Some((waker, thread)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:7".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:7".parse().unwrap());
        let v6: SocketAddr = "[::]:7".parse().unwrap();
        assert_eq!(wake_addr(v6), "[::1]:7".parse().unwrap());
        let bound: SocketAddr = "127.0.0.2:7".parse().unwrap();
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn shutdown_wakes_the_acceptor_and_a_handler_blocked_in_read() {
        let (report, reports) = std::sync::mpsc::channel();
        let mut listener = Listener::bind("0.0.0.0:0", "test", move |mut stream, stop| {
            report.send(None).expect("the test is waiting");
            // Blocks until shutdown closes the read half.
            let read = stream.read(&mut [0u8; 16]).ok();
            let _ = report.send(Some((read, stop.load(Ordering::SeqCst))));
        })
        .unwrap();
        let _peer = TcpStream::connect(wake_addr(listener.local_addr())).unwrap();
        assert_eq!(reports.recv().unwrap(), None, "the handler started");
        let started = Instant::now();
        listener.shutdown();
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(
            reports.recv().unwrap(),
            Some((Some(0), true)),
            "the blocked read ends with end-of-stream, after stop was raised"
        );
        assert_eq!(listener.tracked_connections(), 0);
        listener.shutdown();
    }
}
