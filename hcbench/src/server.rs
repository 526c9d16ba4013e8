//! Starting and stopping `hcm serve` the way users start it: default flags
//! on an ephemeral port.

use crate::http;
use crate::json::{self, Json};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long start-up may take before the run fails.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `hcm serve` child process.
pub struct Server {
    child: Child,
    pub addr: String,
    pub pid: u32,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its first `200` from `/healthz`.
    pub fn start(hcm: &Path) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(hcm)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", hcm.display()))?;
        let pid = child.id();
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            if lines.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("hcm serve exited before printing its address".into());
            }
            addr = line
                .split("listening on http://")
                .nth(1)
                .map(|a| a.trim().to_string());
        }
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = String::new();
            while lines.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        let mut server = Server {
            child,
            addr: addr.expect("loop exits with an address"),
            pid,
            stderr: Some(stderr),
        };
        let probe = http::request("GET", "/healthz", &[], b"");
        loop {
            match http::once(&server.addr, &probe) {
                Ok(r) if r.status == 200 => break,
                _ if t0.elapsed() > START_TIMEOUT => {
                    server.kill();
                    return Err("hcm serve never answered /healthz with 200".into());
                }
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        Ok(server)
    }

    /// The parsed `/metrics` JSON document.
    pub fn metrics(&self) -> Result<Json, String> {
        let r = http::once(&self.addr, &http::request("GET", "/metrics", &[], b""))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET /metrics answered {}", r.status));
        }
        json::parse(r.body_text())
    }

    /// Drains the server through `/quitquitquit` and waits for it to exit.
    pub fn stop(mut self) {
        let _ = http::once(&self.addr, &http::request("GET", "/quitquitquit", &[], b""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A `u64` counter at `path` in a `/metrics` document (0 when absent, as
/// the library omits counters that never fired).
pub fn counter(doc: &Json, path: &[&str]) -> u64 {
    doc.path(path).and_then(Json::as_u64).unwrap_or(0)
}

/// The library's solver iteration counters: Sinkhorn iterations, and SVD
/// iterations (Jacobi sweeps plus Golub–Reinsch QR steps).
pub fn solver_iterations(doc: &Json) -> (u64, u64) {
    let c = |name: &str| counter(doc, &["library", "counters", name]);
    (
        c("sinkhorn_balance_iterations_total"),
        c("linalg_svd_jacobi_sweeps_total") + c("linalg_svd_gr_iterations_total"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed `/metrics` document captured from `hcm serve`.
    const CAPTURED: &str = r#"{"uptime_seconds":0,"requests_total":1,"cache":{"entries":1,"capacity":256,"hits":3,"misses":1,"evictions":0},"sessions":{"active":0,"patches_total":0,"warm_fallbacks_total":0,"warm_cutovers_total":0,"recomputes_total":0,"recomputes_warm_total":0},"library":{"counters":{"core_characterize_total":1,"linalg_svd_jacobi_sweeps_total":6,"linalg_svd_jacobi_total":1,"sinkhorn_balance_iterations_total":5},"gauges":{"tsdb_bytes":404586}}}"#;

    #[test]
    fn reads_counters_from_captured_metrics() {
        let doc = json::parse(CAPTURED).unwrap();
        assert_eq!(counter(&doc, &["cache", "hits"]), 3);
        assert_eq!(counter(&doc, &["cache", "misses"]), 1);
        assert_eq!(counter(&doc, &["sessions", "warm_cutovers_total"]), 0);
        assert_eq!(counter(&doc, &["library", "counters", "absent_total"]), 0);
        assert_eq!(solver_iterations(&doc), (5, 6));
    }
}
