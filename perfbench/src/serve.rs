//! `serve-mix`: the HTTP projection service under a warm request mix.
//!
//! An in-process server (`Server::bind(..).start()`, one worker) is driven
//! over one keep-alive client connection with a fixed, seeded request
//! list: warm `/v1/project` (workload × machine), `/v1/explain`,
//! `/v1/sweep` (16 and 256 points), `GET /healthz`, and a `GET /metrics`
//! closing every cycle. The warm-up cycle fills the store, so the timed phase
//! only reads it. Protocol, middleware, store hits and JSON do the work;
//! profile, bet and sim do none.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use crate::trace::{Summary, Trace};
use crate::Workload;
use xflow::serve::RunningServer;
use xflow::{explain, xflow_workloads, CacheStats, ServeConfig, Server, Session, StoreConfig};

/// Machines `/v1/project` is asked about (server registry names).
const MACHINES: [&str; 4] = ["bgq", "xeon", "knl", "generic"];
/// `/v1/sweep` axes: a 16-point and a 256-point grid.
const SWEEPS: [&str; 2] = [
    r#"[{"name":"dram_bw_gbs","values":[10,20,30,40,50,60,70,80,90,100,110,120,130,140,150,160]}]"#,
    r#"[{"name":"dram_bw_gbs","values":[16,20,32,45,64,90,128,180,256,360,512,720,1024,1440,2048,2880]},{"name":"mlp","values":[1,2,3,4,6,8,12,16,24,32,48,64,96,128,192,256]}]"#,
];
/// `GET /healthz` requests per cycle. With 20 project, 10 explain, 10
/// sweep and one metrics request this makes 45 ops, so p50 and p90 fall
/// inside one request's samples rather than on the edge between two.
const HEALTH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    Project,
    Explain,
    Sweep,
    Health,
    Metrics,
}

impl Route {
    fn method(self) -> &'static str {
        match self {
            Route::Project | Route::Explain | Route::Sweep => "POST",
            Route::Health | Route::Metrics => "GET",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Route::Project => "/v1/project",
            Route::Explain => "/v1/explain",
            Route::Sweep => "/v1/sweep",
            Route::Health => "/healthz",
            Route::Metrics => "/metrics",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Route::Project => "serve.route_project",
            Route::Explain => "serve.route_explain",
            Route::Sweep => "serve.route_sweep",
            Route::Health => "serve.route_health",
            Route::Metrics => "serve.route_metrics",
        }
    }
}

enum Expect {
    /// Body digest of the warm-up cycle's response (recorded by it).
    Digest(Option<u64>),
    /// The exact bytes in-process `explain` prints as JSON.
    Bytes(Vec<u8>),
    /// A Prometheus exposition carrying the request histogram.
    Metrics,
}

struct Request {
    route: Route,
    body: String,
    expect: Expect,
}

/// One keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Self { reader: BufReader::new(writer.try_clone()?), writer })
    }

    /// Send one request and read the response: `(status, body)`.
    fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        let head = format!("{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n", body.len());
        let io = |e: std::io::Error| e.to_string();
        self.writer.write_all(format!("{head}{body}").as_bytes()).map_err(io)?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(io)?;
        let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or("bad status line")?;
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(io)?;
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().map_err(|_| "bad content-length")?;
            }
        }
        let mut out = vec![0u8; len];
        self.reader.read_exact(&mut out).map_err(io)?;
        Ok((status, out))
    }
}

pub struct ServeMix {
    requests: Vec<Request>,
    client: Option<Client>,
    server: Option<RunningServer>,
    /// Body bytes and non-2xx responses seen by traced ops.
    resp_bytes: u64,
    non2xx: u64,
    traced: u64,
    /// Server histogram `(sum s, count)` and store counters when the
    /// traced phase began.
    start: Option<((f64, u64), CacheStats)>,
}

fn request_seconds(server: &RunningServer) -> (f64, u64) {
    server
        .store()
        .registry()
        .histograms()
        .into_iter()
        .find(|(name, _)| name == "serve.request_seconds")
        .map(|(_, h)| (h.sum, h.count))
        .unwrap_or((0.0, 0))
}

fn body(workload: &str, machine: &str, axes: Option<&str>) -> String {
    match axes {
        Some(a) => format!(r#"{{"workload":"{workload}","machine":"{machine}","top":5,"axes":{a}}}"#),
        None => format!(r#"{{"workload":"{workload}","machine":"{machine}","top":5}}"#),
    }
}

impl ServeMix {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            store: StoreConfig::default(),
            // builtin machines only, whatever the working directory holds
            machines_dir: Some("perfbench/.no-machines".to_string()),
            recorder: None,
        };
        let server = Server::bind(config)?.start()?;
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;

        let session = Session::new();
        let workloads = xflow_workloads::all();
        let mut requests = Vec::new();
        let req = |route, body, expect| Request { route, body, expect };
        for (wi, w) in workloads.iter().enumerate() {
            let name = w.name.to_lowercase();
            for m in MACHINES {
                requests.push(req(Route::Project, body(&name, m, None), Expect::Digest(None)));
            }
            let app = session.model_workload(w, xflow::Scale::Test).map_err(|e| e.to_string())?;
            for (m, machine) in [("bgq", xflow::bgq()), ("xeon", xflow::xeon())] {
                let mut json = explain(&app, &machine).to_json();
                json.push('\n');
                requests.push(req(Route::Explain, body(&name, m, None), Expect::Bytes(json.into_bytes())));
            }
            for (k, axes) in SWEEPS.into_iter().enumerate() {
                let m = MACHINES[(wi + k) % MACHINES.len()];
                requests.push(req(Route::Sweep, body(&name, m, Some(axes)), Expect::Digest(None)));
            }
        }
        for _ in 0..HEALTH {
            requests.push(req(Route::Health, String::new(), Expect::Digest(None)));
        }
        crate::shuffle(&mut requests, &mut crate::rng(seed, 4));
        requests.push(req(Route::Metrics, String::new(), Expect::Metrics));
        Ok(Self {
            requests,
            client: Some(client),
            server: Some(server),
            resp_bytes: 0,
            non2xx: 0,
            traced: 0,
            start: None,
        })
    }

    fn server(&self) -> &RunningServer {
        self.server.as_ref().expect("server runs until drop")
    }

    /// Send request `i` and check its response; returns the body length
    /// and status.
    fn call(&mut self, i: usize) -> (Result<(), String>, usize, u16) {
        let req = &mut self.requests[i];
        let (method, path) = (req.route.method(), req.route.path());
        let client = self.client.as_mut().expect("client lives until drop");
        let (status, body) = match client.call(method, path, &req.body) {
            Ok(r) => r,
            Err(e) => return (Err(format!("{method} {path}: {e}")), 0, 0),
        };
        let check = if status != 200 {
            Err(format!("{method} {path} returned {status}"))
        } else {
            match &mut req.expect {
                Expect::Digest(slot @ None) => {
                    *slot = Some(crate::digest(&body));
                    Ok(())
                }
                Expect::Digest(Some(d)) if *d == crate::digest(&body) => Ok(()),
                Expect::Bytes(b) if *b == body => Ok(()),
                Expect::Metrics if String::from_utf8_lossy(&body).contains("serve_request_seconds_count") => Ok(()),
                _ => Err(format!("{method} {path}: body differs from the expected one")),
            }
        };
        (check, body.len(), status)
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // close the connection first so the worker leaves it, then stop
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

impl Workload for ServeMix {
    fn cycle_len(&self) -> usize {
        self.requests.len()
    }

    fn cycles_per_second(&self) -> f64 {
        70.0
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        self.call(i).0
    }

    fn traced_op(&mut self, i: usize, tr: &Trace) -> Result<(), String> {
        if self.start.is_none() {
            self.start = Some((request_seconds(self.server()), self.server().store().stats()));
        }
        let (r, bytes, status) = tr.time(self.requests[i].route.span(), || self.call(i));
        self.resp_bytes += bytes as u64;
        self.traced += 1;
        if !(200..300).contains(&status) {
            self.non2xx += 1;
        }
        r
    }

    fn layers(&self, s: &Summary) -> Vec<(&'static str, f64)> {
        let ((sum0, n0), stats0) = self.start.unwrap_or(((0.0, 0), CacheStats::default()));
        let (sum1, n1) = request_seconds(self.server());
        let stats1 = self.server().store().stats();
        let server_ms = (sum1 - sum0) / (n1 - n0).max(1) as f64 * 1e3;
        let hits = stats1.hits() - stats0.hits();
        let lookups = hits + stats1.misses() - stats0.misses();
        vec![
            ("serve.server_ms", server_ms),
            ("serve.transport_ms", s.op_ms() - server_ms),
            ("serve.route_project_ms", s.median_ms(Route::Project.span())),
            ("serve.route_explain_ms", s.median_ms(Route::Explain.span())),
            ("serve.route_sweep_ms", s.median_ms(Route::Sweep.span())),
            ("serve.route_metrics_ms", s.median_ms(Route::Metrics.span())),
            ("serve.resp_bytes", self.resp_bytes as f64 / self.traced.max(1) as f64),
            ("serve.non2xx", self.non2xx as f64),
            ("store.hit_ratio", hits as f64 / lookups.max(1) as f64),
        ]
    }

    fn corrupt(&mut self) {
        if let Some(req) = self.requests.iter_mut().find(|r| matches!(r.expect, Expect::Digest(Some(_)))) {
            if let Expect::Digest(Some(d)) = &mut req.expect {
                *d ^= 1;
            }
        }
    }
}
