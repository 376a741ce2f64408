//! The daemon: accept loop, per-connection handlers, lifecycle.
//!
//! One [`Server`] owns one [`SweepStore`] (behind a mutex — record I/O
//! is cheap next to engine runs), one [`MissExecutor`], and one
//! [`ServiceMetrics`]. Each accepted connection gets a handler thread
//! that serves requests until the peer hangs up; concurrent handlers
//! share the store and executor, which is exactly the situation the
//! execute step's claim protocol exists for. A compaction pass runs at
//! startup and after each sweep submission that wrote records, under the
//! store lock: only a write can grow the store past its byte budget, so
//! a warm re-sweep never pays for reading the whole store.
//!
//! Shutdown is cooperative: a [`Request::Shutdown`] frame flips the stop
//! flag, is acknowledged with [`Response::ShuttingDown`], and the
//! handler then dials the server's own listen address once so the
//! blocking `accept` wakes up, observes the flag, and returns. The
//! accept loop then closes the **read** half of every open connection —
//! handlers idling in a blocked read see EOF and return, while a
//! handler mid-answer keeps its write half and still delivers its
//! response. Handler threads are joined before [`Server::serve`]
//! returns, so a clean shutdown means every in-flight sweep has been
//! answered and persisted.

use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::store::SweepStore;

use super::aggregate::aggregate;
use super::compaction::{compact, CompactionPolicy};
use super::executor::{MissExecutor, ServiceMetrics};
use super::protocol::{ProtocolError, QueryReply, Request, Response, StatusReply, SweepDone};
use super::wire::{read_request, write_response};
use super::ServiceError;

/// Daemon knobs.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Worker override for miss execution (`None` defers to
    /// `PWRPERF_THREADS`, then available parallelism).
    pub workers: Option<usize>,
    /// Store GC policy (startup pass, and a pass after each sweep that
    /// wrote records).
    pub compaction: CompactionPolicy,
}

/// Where the daemon listens.
enum Listener {
    #[cfg(unix)]
    Unix {
        listener: UnixListener,
        path: PathBuf,
    },
    Tcp {
        listener: TcpListener,
        addr: SocketAddr,
    },
}

/// State shared by the accept loop and every handler thread.
struct Shared {
    store: Mutex<SweepStore>,
    executor: MissExecutor,
    metrics: Arc<ServiceMetrics>,
    compaction: CompactionPolicy,
    stop: AtomicBool,
}

impl Shared {
    fn new(store: SweepStore, config: ServerConfig) -> Self {
        let metrics = Arc::new(ServiceMetrics::new());
        Shared {
            store: Mutex::new(store),
            executor: MissExecutor::new(Arc::clone(&metrics), config.workers),
            metrics,
            compaction: config.compaction,
            stop: AtomicBool::new(false),
        }
    }

    /// Run one GC pass and fold its report into the counters.
    fn compact_store(&self) {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        if let Ok(report) = compact(&mut store, self.compaction) {
            self.metrics.compactions.fetch_add(1, Ordering::SeqCst);
            self.metrics
                .compacted_bytes
                .fetch_add(report.reclaimed_bytes, Ordering::SeqCst);
            self.metrics
                .evicted_records
                .fetch_add(report.evicted, Ordering::SeqCst);
        }
    }

    /// Answer one request (the pure part of the handler loop).
    fn answer(&self, request: &Request) -> Response {
        self.metrics.requests.fetch_add(1, Ordering::SeqCst);
        match request {
            Request::SubmitSweep(spec) => {
                let sweep = match spec.resolve() {
                    Ok(sweep) => sweep,
                    Err(msg) => return Response::Error(format!("bad sweep spec: {msg}")),
                };
                match self.executor.run_sweep(&self.store, &sweep) {
                    Ok(outcome) => {
                        if outcome.report.bytes_written > 0 {
                            self.compact_store();
                        }
                        Response::SweepDone(SweepDone {
                            report: outcome.report,
                            results: outcome.results,
                        })
                    }
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Query(spec) => {
                self.metrics.queries.fetch_add(1, Ordering::SeqCst);
                let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
                match aggregate(&mut store, spec) {
                    Ok(table) => Response::QueryDone(QueryReply {
                        table: table.render_text(),
                        rows: table.rows.len() as u64,
                        missing: table.missing,
                    }),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Status => Response::Status(StatusReply {
                counters: self.metrics.counters(),
            }),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
        }
    }
}

/// A bound, not-yet-serving daemon.
pub struct Server {
    shared: Arc<Shared>,
    listener: Listener,
}

impl Server {
    fn new(store: SweepStore, config: ServerConfig, listener: Listener) -> Self {
        Server {
            shared: Arc::new(Shared::new(store, config)),
            listener,
        }
    }

    /// Bind a Unix-domain socket at `path` (removing any stale socket
    /// file first — the daemon owns its rendezvous path).
    #[cfg(unix)]
    pub fn bind_unix(
        store: SweepStore,
        config: ServerConfig,
        path: impl Into<PathBuf>,
    ) -> Result<Self, ServiceError> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| ServiceError::Protocol(e.into()))?;
        }
        let listener = UnixListener::bind(&path).map_err(|e| ServiceError::Protocol(e.into()))?;
        Ok(Server::new(
            store,
            config,
            Listener::Unix { listener, path },
        ))
    }

    /// Bind a TCP socket (use port 0 to let the OS pick).
    pub fn bind_tcp(
        store: SweepStore,
        config: ServerConfig,
        addr: &str,
    ) -> Result<Self, ServiceError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServiceError::Protocol(e.into()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServiceError::Protocol(e.into()))?;
        Ok(Server::new(store, config, Listener::Tcp { listener, addr }))
    }

    /// The bound TCP address (`None` on a Unix socket).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp { addr, .. } => Some(*addr),
            #[cfg(unix)]
            Listener::Unix { .. } => None,
        }
    }

    /// Serve until a [`Request::Shutdown`] frame arrives. Runs the
    /// startup compaction pass, then accepts connections, one handler
    /// thread each; joins every handler before returning.
    pub fn serve(self) -> Result<(), ServiceError> {
        self.shared.compact_store();
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // One read-side closer per accepted stream, so shutdown can
        // unblock handlers parked in a read without cutting off a
        // response still being written.
        let mut closers: Vec<Box<dyn Fn() + Send>> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match &self.listener {
                #[cfg(unix)]
                Listener::Unix { listener, path } => match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(reader) = stream.try_clone() {
                            closers.push(Box::new(move || {
                                let _ = reader.shutdown(std::net::Shutdown::Read);
                            }));
                        }
                        let shared = Arc::clone(&self.shared);
                        let wake = path.clone();
                        handlers.push(std::thread::spawn(move || {
                            handle_connection(&shared, stream, &Wake::Unix(wake));
                        }));
                    }
                    Err(_) => break,
                },
                Listener::Tcp { listener, addr } => match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(reader) = stream.try_clone() {
                            closers.push(Box::new(move || {
                                let _ = reader.shutdown(std::net::Shutdown::Read);
                            }));
                        }
                        let shared = Arc::clone(&self.shared);
                        let wake = *addr;
                        handlers.push(std::thread::spawn(move || {
                            handle_connection(&shared, stream, &Wake::Tcp(wake));
                        }));
                    }
                    Err(_) => break,
                },
            }
        }
        for closer in &closers {
            closer();
        }
        for handler in handlers {
            let _ = handler.join();
        }
        #[cfg(unix)]
        if let Listener::Unix { path, .. } = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// How a handler pokes the accept loop awake after a shutdown request.
enum Wake {
    #[cfg(unix)]
    Unix(PathBuf),
    Tcp(SocketAddr),
}

impl Wake {
    fn poke(&self) {
        match self {
            #[cfg(unix)]
            Wake::Unix(path) => drop(UnixStream::connect(path)),
            Wake::Tcp(addr) => drop(TcpStream::connect(addr)),
        }
    }
}

/// Serve one connection until EOF, a protocol error, or shutdown.
fn handle_connection<S: std::io::Read + std::io::Write>(
    shared: &Shared,
    mut stream: S,
    wake: &Wake,
) {
    loop {
        let request = match read_request(&mut stream) {
            Ok(request) => request,
            Err(ProtocolError::Io(_)) => return, // peer hung up
            Err(e) => {
                // A malformed frame gets a typed error back; the
                // connection is then unusable (framing is lost).
                let _ = write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        let stopping = matches!(request, Request::Shutdown);
        let response = shared.answer(&request);
        let wrote = write_response(&mut stream, &response).is_ok();
        if stopping {
            // Poke even when the ack failed to send: the stop flag is
            // already set and the accept loop must wake either way.
            wake.poke();
            return;
        }
        if !wrote {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SweepSpec;

    fn shared(tag: &str, max_store_bytes: Option<u64>) -> (Shared, PathBuf) {
        let dir = std::env::temp_dir().join(format!("pwrperf-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            workers: Some(1),
            compaction: CompactionPolicy { max_store_bytes },
        };
        (Shared::new(SweepStore::open(&dir).unwrap(), config), dir)
    }

    #[test]
    fn only_sweeps_that_wrote_are_followed_by_compaction() {
        let request = Request::SubmitSweep(SweepSpec {
            workloads: vec!["ft-test4".to_string()],
            strategies: vec!["static-600".to_string(), "static-800".to_string()],
            ..SweepSpec::default()
        });
        let compactions = |s: &Shared| s.metrics.compactions.load(Ordering::SeqCst);

        let (daemon, dir) = shared("warm", None);
        assert!(matches!(daemon.answer(&request), Response::SweepDone(_)));
        assert_eq!(compactions(&daemon), 1);
        assert!(matches!(daemon.answer(&request), Response::SweepDone(_)));
        assert_eq!(
            compactions(&daemon),
            1,
            "a warm re-sweep writes nothing, so it does not compact"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Under a one-byte budget the cold sweep's pass evicts both records.
        let (bounded, dir) = shared("bounded", Some(1));
        assert!(matches!(bounded.answer(&request), Response::SweepDone(_)));
        assert_eq!(bounded.metrics.evicted_records.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
