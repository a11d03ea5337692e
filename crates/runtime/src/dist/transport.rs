//! Unix-domain-socket transport for the distributed backend.
//!
//! The coordinator binds a listener under the temp directory; workers
//! connect to its printed [`Endpoint`]. Both sides see a blocking duplex
//! byte stream ([`DistStream`]) and read it with one `spawn_reader`
//! thread that turns frames into channel events.

use std::fmt;
use std::io::{self, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::Sender;

use super::frame::read_frame;
use super::msg::Msg;

/// A bound rendezvous address, printable and re-parseable so it can be
/// handed to worker processes on the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Path of a Unix domain socket.
    Unix(PathBuf),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Endpoint::Unix(p) = self;
        write!(f, "unix:{}", p.display())
    }
}

impl Endpoint {
    /// Parse the `unix:<path>` syntax printed by `Display`.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        match s.strip_prefix("unix:") {
            Some("") => Err("empty unix socket path".into()),
            Some(path) => Ok(Endpoint::Unix(PathBuf::from(path))),
            None => Err(format!("endpoint {s:?} must start with \"unix:\"")),
        }
    }

    /// Connect to this endpoint as a worker.
    pub fn connect(&self) -> io::Result<DistStream> {
        let Endpoint::Unix(p) = self;
        UnixStream::connect(p)
    }
}

/// A connected duplex byte stream; `try_clone` it to read on one handle
/// while writing on another.
pub type DistStream = UnixStream;

/// A bound listener. Its socket path is removed on drop.
#[derive(Debug)]
pub enum DistListener {
    /// Bound Unix listener plus its socket path.
    Unix(UnixListener, PathBuf),
}

impl DistListener {
    /// Bind a fresh rendezvous point: a Unix socket in the temp directory
    /// under a pid-and-counter unique name.
    pub fn bind() -> io::Result<DistListener> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("smp-dist-{}-{n}.sock", std::process::id()));
        // A stale path from a crashed prior run would fail the bind.
        let _ = std::fs::remove_file(&path);
        Ok(DistListener::Unix(UnixListener::bind(&path)?, path))
    }

    /// The address workers should connect to.
    pub fn endpoint(&self) -> Endpoint {
        let DistListener::Unix(_, path) = self;
        Endpoint::Unix(path.clone())
    }

    /// Block until the next worker connects.
    pub fn accept(&self) -> io::Result<DistStream> {
        let DistListener::Unix(l, _) = self;
        Ok(l.accept()?.0)
    }
}

impl Drop for DistListener {
    fn drop(&mut self) {
        let DistListener::Unix(_, path) = self;
        let _ = std::fs::remove_file(path);
    }
}

/// Read `stream` on a thread of its own, sending each decoded frame to
/// `tx` as `wrap(Some(msg))`. End of stream, a bad frame or an undecodable
/// message (a protocol-version mismatch) is sent once as `wrap(None)`;
/// the thread then exits, as it does when the receiver hangs up.
pub(crate) fn spawn_reader<E: Send + 'static>(
    stream: DistStream,
    tx: Sender<E>,
    wrap: impl Fn(Option<Msg>) -> E + Send + 'static,
) {
    let mut reader = BufReader::new(stream);
    std::thread::spawn(move || loop {
        let msg = read_frame(&mut reader)
            .ok()
            .and_then(|payload| Msg::decode(&payload).ok());
        let ended = msg.is_none();
        if tx.send(wrap(msg)).is_err() || ended {
            break;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display_parse_roundtrip() {
        let e = Endpoint::Unix(PathBuf::from("/tmp/x.sock"));
        assert_eq!(Endpoint::parse(&e.to_string()).unwrap(), e);
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:127.0.0.1:4520").is_err());
        assert!(Endpoint::parse("pigeon:coop").is_err());
    }

    #[test]
    fn unix_bind_connect_frame_roundtrip() {
        use crate::dist::frame::write_frame;
        let l = DistListener::bind().unwrap();
        let ep = l.endpoint();
        let h = std::thread::spawn(move || {
            let mut s = ep.connect().unwrap();
            write_frame(&mut s, b"ping").unwrap();
        });
        let mut conn = l.accept().unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), b"ping");
        h.join().unwrap();
    }
}
