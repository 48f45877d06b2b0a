//! A loopback fleet of in-process workers: the serving stack behind
//! `naas-search worker` (a `BatchEvalService` behind a `ServiceServer`
//! on a TCP listener), started fresh for every search and torn down
//! afterwards so that no worker cache, listener or thread outlives it.

use naas::{BatchEvalService, ServiceConfig, ServiceServer, WireService};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A wire service a fleet worker can serve: the plain
/// `BatchEvalService`, or a wrapper around one.
pub trait Served: WireService + Sized {
    fn base(&self) -> &BatchEvalService;
}

impl Served for BatchEvalService {
    fn base(&self) -> &BatchEvalService {
        self
    }
}

struct Worker<S: Served> {
    addr: String,
    server: Arc<ServiceServer<S>>,
    accept: JoinHandle<std::io::Result<bool>>,
}

pub struct Fleet<S: Served> {
    workers: Vec<Worker<S>>,
}

impl<S: Served> Default for Fleet<S> {
    fn default() -> Self {
        Fleet {
            workers: Vec::new(),
        }
    }
}

/// One worker's service, as `naas-search worker --threads 1` builds it.
pub fn worker_service() -> BatchEvalService {
    BatchEvalService::new(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
    .expect("no cache file to load")
}

impl<S: Served> Fleet<S> {
    /// Starts `n` workers on ephemeral loopback ports.
    pub fn start(n: usize, wrap: fn(BatchEvalService) -> S) -> Fleet<S> {
        let mut fleet = Fleet {
            workers: Vec::with_capacity(n),
        };
        for _ in 0..n {
            fleet.add(wrap);
        }
        fleet
    }

    /// Starts one more worker on an ephemeral loopback port.
    pub fn add(&mut self, wrap: fn(BatchEvalService) -> S) {
        let server = Arc::new(ServiceServer::start(Arc::new(wrap(worker_service()))));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound socket").to_string();
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve_listener(listener))
        };
        self.workers.push(Worker {
            addr,
            server,
            accept,
        });
    }

    pub fn addrs(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr.clone()).collect()
    }

    pub fn services(&self) -> impl Iterator<Item = &S> {
        self.workers.iter().map(|w| w.server.service())
    }

    /// (hits, misses) summed over every worker's memo cache.
    pub fn cache_totals(&self) -> (u64, u64) {
        self.services().fold((0, 0), |(h, m), s| {
            let stats = s.base().engine().cache_stats();
            (h + stats.hits, m + stats.misses)
        })
    }

    /// Shuts every worker down over the wire and waits until its accept
    /// loop, connection threads and scheduler have all ended. Call after
    /// every client connection is closed.
    ///
    /// # Errors
    ///
    /// A worker whose connection threads still hold it five seconds after
    /// shutdown (a leaked connection).
    pub fn stop(self) -> Result<(), String> {
        for worker in self.workers {
            let mut stream = TcpStream::connect(&worker.addr)
                .map_err(|e| format!("worker {} not listening: {e}", worker.addr))?;
            stream
                .write_all(b"{\"id\":0,\"cmd\":\"shutdown\"}\n")
                .map_err(|e| format!("shutdown not sent: {e}"))?;
            let mut reply = String::new();
            BufReader::new(&stream)
                .read_line(&mut reply)
                .map_err(|e| format!("shutdown not acknowledged: {e}"))?;
            drop(stream);
            worker
                .accept
                .join()
                .expect("accept loop does not panic")
                .map_err(|e| format!("listener failed: {e}"))?;
            // Connection threads hold the server until their streams
            // close; the last reference joins the scheduler.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut server = worker.server;
            loop {
                match Arc::try_unwrap(server) {
                    Ok(server) => {
                        server.stop().map_err(|e| format!("worker stop: {e}"))?;
                        break;
                    }
                    Err(_) if Instant::now() > deadline => {
                        return Err(format!("worker {} still connected", worker.addr));
                    }
                    Err(shared) => {
                        server = shared;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
        }
        Ok(())
    }
}
