//! Argument parsing for `hcm serve`, kept separate from `commands` because
//! serving is the one subcommand that is not a pure `(args, input) → report`
//! function: it binds a socket and blocks. Parsing and validation stay pure
//! (and unit-tested here); `main.rs` owns the blocking run.

use std::net::ToSocketAddrs;

use crate::args::Args;
use hc_gen::params::Params;
use hc_serve::Config;

/// Parses `hcm serve` arguments into a server [`Config`].
///
/// Returns the config plus whether `--dry-run` was given (print the resolved
/// configuration and exit instead of binding — this is what makes the flag
/// surface end-to-end testable without occupying a port).
pub fn parse_config(args: &Args) -> Result<(Config, bool), String> {
    if args.positional(0) != Some("serve") {
        return Err("serve::parse_config expects the serve subcommand".to_string());
    }
    if args.positional_count() > 1 {
        return Err(format!(
            "serve takes no positional arguments, got {:?}",
            args.positional(1).unwrap_or_default()
        ));
    }
    args.check_allowed(&[
        "addr",
        "workers",
        "queue-depth",
        "cache-entries",
        "slow-ms",
        "request-timeout-ms",
        "max-cells",
        "record-requests",
        "record-survivors",
        "max-sessions",
        "session-ttl-s",
        "profile-hz",
        "slo-availability",
        "slo-latency-ms",
        "slo-window-s",
        "max-requests-per-conn",
        "idle-conn-timeout-ms",
        "target-queue-delay-ms",
        "workers-min",
        "workers-max",
        "tsdb-retention-s",
        "tsdb-off",
        "dry-run",
    ])?;

    let mut cfg = Config::default();
    if let Some(addr) = args.get("addr") {
        // Resolve eagerly so a typo fails at the flag, not at bind time.
        let resolves = addr
            .to_socket_addrs()
            .map(|mut it| it.next().is_some())
            .unwrap_or(false);
        if !resolves {
            return Err(format!(
                "--addr {addr:?} is not a valid <host>:<port> address"
            ));
        }
        cfg.addr = addr.to_string();
    }
    cfg.workers = args.get_or("workers", cfg.workers)?;
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    cfg.queue_depth = args.get_or("queue-depth", cfg.queue_depth)?;
    if cfg.queue_depth == 0 {
        return Err("--queue-depth must be at least 1".to_string());
    }
    cfg.cache_entries = args.get_or("cache-entries", cfg.cache_entries)?;
    cfg.slow_ms = args.get_or("slow-ms", cfg.slow_ms)?;
    cfg.request_timeout_ms = args.get_or("request-timeout-ms", cfg.request_timeout_ms)?;
    cfg.max_cells = args.get_or("max-cells", cfg.max_cells)?;
    if cfg.max_cells == 0 {
        return Err("--max-cells must be at least 1".to_string());
    }
    cfg.record_requests = args.get_or("record-requests", cfg.record_requests)?;
    cfg.record_survivors = args.get_or("record-survivors", cfg.record_survivors)?;
    cfg.max_sessions = args.get_or("max-sessions", cfg.max_sessions)?;
    if cfg.max_sessions == 0 {
        return Err("--max-sessions must be at least 1".to_string());
    }
    cfg.session_ttl_s = args.get_or("session-ttl-s", cfg.session_ttl_s)?;
    if cfg.session_ttl_s == 0 {
        return Err("--session-ttl-s must be at least 1".to_string());
    }
    // 0 is valid: it disables profiling (and GET /debug/profile).
    cfg.profile_hz = args.get_or("profile-hz", cfg.profile_hz)?;
    cfg.slo_availability = args.get_or("slo-availability", cfg.slo_availability)?;
    if !(cfg.slo_availability > 0.0 && cfg.slo_availability < 1.0) {
        return Err(format!(
            "--slo-availability must be strictly between 0 and 1, got {}",
            cfg.slo_availability
        ));
    }
    // 0 is valid: it disables the latency objective.
    cfg.slo_latency_ms = args.get_or("slo-latency-ms", cfg.slo_latency_ms)?;
    cfg.slo_window_s = args.get_or("slo-window-s", cfg.slo_window_s)?;
    if cfg.slo_window_s == 0 {
        return Err("--slo-window-s must be at least 1".to_string());
    }
    // 0 is valid for both: unlimited requests per connection / never reap
    // idle keep-alive connections.
    cfg.max_requests_per_conn = args.get_or("max-requests-per-conn", cfg.max_requests_per_conn)?;
    cfg.idle_conn_timeout_ms = args.get_or("idle-conn-timeout-ms", cfg.idle_conn_timeout_ms)?;
    // 0 is valid: it disables adaptive admission, leaving the fixed
    // --queue-depth cutoff as the only shed (the legacy comparison mode).
    cfg.target_queue_delay_ms = args.get_or("target-queue-delay-ms", cfg.target_queue_delay_ms)?;
    // A max above the min turns autoscaling on.
    cfg.workers_min = args.get_or("workers-min", cfg.workers_min)?;
    cfg.workers_max = args.get_or("workers-max", cfg.workers_max)?;
    let (lo, hi) = cfg.worker_bounds();
    if hi < lo {
        return Err(format!(
            "--workers-max {hi} is below the effective --workers-min {lo}"
        ));
    }
    cfg.tsdb_retention_s = args.get_or("tsdb-retention-s", cfg.tsdb_retention_s)?;
    if cfg.tsdb_retention_s == 0 {
        return Err(
            "--tsdb-retention-s must be at least 1 (use --tsdb-off to disable the store)"
                .to_string(),
        );
    }
    cfg.tsdb_off = args.has("tsdb-off");
    Ok((cfg, args.has("dry-run")))
}

/// Human-readable resolved configuration (the `--dry-run` output).
pub fn describe(cfg: &Config) -> String {
    format!(
        "serve configuration:\n\
        \x20 addr           {}\n\
        \x20 workers        {}\n\
        \x20 queue-depth    {}\n\
        \x20 cache-entries  {}\n\
        \x20 max-body-bytes {}\n\
        \x20 max-cells      {}\n\
        \x20 slow-ms        {}\n\
        \x20 request-timeout-ms {}\n\
        \x20 record-requests {}\n\
        \x20 record-survivors {}\n\
        \x20 max-sessions   {}\n\
        \x20 session-ttl-s  {}\n\
        \x20 profile-hz     {}\n\
        \x20 slo-availability {}\n\
        \x20 slo-latency-ms {}\n\
        \x20 slo-window-s   {}\n\
        \x20 max-requests-per-conn {}\n\
        \x20 idle-conn-timeout-ms {}\n\
        \x20 target-queue-delay-ms {}\n\
        \x20 workers-min    {}\n\
        \x20 workers-max    {}\n\
        \x20 tsdb-retention-s {}\n",
        cfg.addr,
        cfg.workers,
        cfg.queue_depth,
        cfg.cache_entries,
        cfg.max_body_bytes,
        cfg.max_cells,
        if cfg.slow_ms == 0 {
            "off".to_string()
        } else {
            cfg.slow_ms.to_string()
        },
        if cfg.request_timeout_ms == 0 {
            "off".to_string()
        } else {
            cfg.request_timeout_ms.to_string()
        },
        if cfg.record_requests == 0 {
            "off".to_string()
        } else {
            cfg.record_requests.to_string()
        },
        cfg.record_survivors,
        cfg.max_sessions,
        cfg.session_ttl_s,
        if cfg.profile_hz == 0 {
            "off".to_string()
        } else {
            cfg.profile_hz.to_string()
        },
        cfg.slo_availability,
        if cfg.slo_latency_ms == 0 {
            "off".to_string()
        } else {
            cfg.slo_latency_ms.to_string()
        },
        cfg.slo_window_s,
        if cfg.max_requests_per_conn == 0 {
            "unlimited".to_string()
        } else {
            cfg.max_requests_per_conn.to_string()
        },
        if cfg.idle_conn_timeout_ms == 0 {
            "off".to_string()
        } else {
            cfg.idle_conn_timeout_ms.to_string()
        },
        if cfg.target_queue_delay_ms == 0 {
            "off (fixed queue-depth only)".to_string()
        } else {
            cfg.target_queue_delay_ms.to_string()
        },
        cfg.worker_bounds().0,
        cfg.worker_bounds().1,
        if cfg.tsdb_off {
            "off".to_string()
        } else {
            cfg.tsdb_retention_s.to_string()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn cfg_of(argv: &[&str]) -> Result<(Config, bool), String> {
        let raw: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_config(&parse(&raw))
    }

    #[test]
    fn defaults_and_overrides() {
        let (cfg, dry) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7878");
        assert!(cfg.workers >= 1);
        assert!(!dry);

        let (cfg, dry) = cfg_of(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-depth",
            "5",
            "--cache-entries",
            "9",
            "--dry-run",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_depth, 5);
        assert_eq!(cfg.cache_entries, 9);
        assert!(dry);
    }

    #[test]
    fn slow_ms_flag() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.slow_ms, 0);
        let (cfg, _) = cfg_of(&["serve", "--slow-ms", "250"]).unwrap();
        assert_eq!(cfg.slow_ms, 250);
        assert!(cfg_of(&["serve", "--slow-ms", "soon"]).is_err());
    }

    #[test]
    fn fault_containment_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.request_timeout_ms, 0);
        assert_eq!(cfg.max_cells, 4_000_000);
        let (cfg, _) = cfg_of(&[
            "serve",
            "--request-timeout-ms",
            "2500",
            "--max-cells",
            "1000000",
        ])
        .unwrap();
        assert_eq!(cfg.request_timeout_ms, 2500);
        assert_eq!(cfg.max_cells, 1_000_000);
        assert!(cfg_of(&["serve", "--max-cells", "0"]).is_err());
        assert!(cfg_of(&["serve", "--request-timeout-ms", "soon"]).is_err());
    }

    #[test]
    fn flight_recorder_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.record_requests, 256);
        assert_eq!(cfg.record_survivors, 64);
        let (cfg, _) = cfg_of(&[
            "serve",
            "--record-requests",
            "32",
            "--record-survivors",
            "8",
        ])
        .unwrap();
        assert_eq!(cfg.record_requests, 32);
        assert_eq!(cfg.record_survivors, 8);
        // 0 disables recording entirely — a valid operating point.
        let (cfg, _) = cfg_of(&["serve", "--record-requests", "0"]).unwrap();
        assert_eq!(cfg.record_requests, 0);
        assert!(cfg_of(&["serve", "--record-requests", "many"]).is_err());
    }

    #[test]
    fn session_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.max_sessions, 64);
        assert_eq!(cfg.session_ttl_s, 900);
        let (cfg, _) = cfg_of(&["serve", "--max-sessions", "8", "--session-ttl-s", "60"]).unwrap();
        assert_eq!(cfg.max_sessions, 8);
        assert_eq!(cfg.session_ttl_s, 60);
        assert!(cfg_of(&["serve", "--max-sessions", "0"]).is_err());
        assert!(cfg_of(&["serve", "--session-ttl-s", "0"]).is_err());
        assert!(cfg_of(&["serve", "--session-ttl-s", "forever"]).is_err());
    }

    #[test]
    fn profiler_and_slo_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.profile_hz, 99);
        assert_eq!(cfg.slo_availability, 0.999);
        assert_eq!(cfg.slo_latency_ms, 0);
        assert_eq!(cfg.slo_window_s, 60);
        let (cfg, _) = cfg_of(&[
            "serve",
            "--profile-hz",
            "199",
            "--slo-availability",
            "0.99",
            "--slo-latency-ms",
            "250",
            "--slo-window-s",
            "5",
        ])
        .unwrap();
        assert_eq!(cfg.profile_hz, 199);
        assert_eq!(cfg.slo_availability, 0.99);
        assert_eq!(cfg.slo_latency_ms, 250);
        assert_eq!(cfg.slo_window_s, 5);
        // 0 disables profiling (and /debug/profile) — a valid operating point.
        let (cfg, _) = cfg_of(&["serve", "--profile-hz", "0"]).unwrap();
        assert_eq!(cfg.profile_hz, 0);
        assert!(cfg_of(&["serve", "--slo-availability", "0"]).is_err());
        assert!(cfg_of(&["serve", "--slo-availability", "1"]).is_err());
        assert!(cfg_of(&["serve", "--slo-availability", "nine-nines"]).is_err());
        assert!(cfg_of(&["serve", "--slo-window-s", "0"]).is_err());
        assert!(cfg_of(&["serve", "--profile-hz", "fast"]).is_err());
    }

    #[test]
    fn connection_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.max_requests_per_conn, 1024);
        assert_eq!(cfg.idle_conn_timeout_ms, 30_000);
        let (cfg, _) = cfg_of(&[
            "serve",
            "--max-requests-per-conn",
            "16",
            "--idle-conn-timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(cfg.max_requests_per_conn, 16);
        assert_eq!(cfg.idle_conn_timeout_ms, 500);
        // 0 is valid for both: unlimited reuse / never reap idle connections.
        let (cfg, _) = cfg_of(&[
            "serve",
            "--max-requests-per-conn",
            "0",
            "--idle-conn-timeout-ms",
            "0",
        ])
        .unwrap();
        assert_eq!(cfg.max_requests_per_conn, 0);
        assert_eq!(cfg.idle_conn_timeout_ms, 0);
        assert!(cfg_of(&["serve", "--max-requests-per-conn", "lots"]).is_err());
        assert!(cfg_of(&["serve", "--idle-conn-timeout-ms", "soon"]).is_err());
    }

    #[test]
    fn overload_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.target_queue_delay_ms, 100);
        assert_eq!(cfg.workers_min, 0);
        assert_eq!(cfg.workers_max, 0);
        // Defaults: bounds collapse to --workers, autoscaling off.
        assert_eq!(cfg.worker_bounds(), (cfg.workers, cfg.workers));

        let (cfg, _) = cfg_of(&[
            "serve",
            "--workers",
            "2",
            "--target-queue-delay-ms",
            "25",
            "--workers-min",
            "1",
            "--workers-max",
            "8",
        ])
        .unwrap();
        assert_eq!(cfg.target_queue_delay_ms, 25);
        assert_eq!(cfg.worker_bounds(), (1, 8));
        // 0 disables adaptive admission (legacy fixed-depth comparison mode).
        let (cfg, _) = cfg_of(&["serve", "--target-queue-delay-ms", "0"]).unwrap();
        assert_eq!(cfg.target_queue_delay_ms, 0);
        // A max-only bound scales up from --workers.
        let (cfg, _) = cfg_of(&["serve", "--workers", "2", "--workers-max", "6"]).unwrap();
        assert_eq!(cfg.worker_bounds(), (2, 6));
        // Inverted bounds are a flag error, not a runtime surprise.
        assert!(cfg_of(&["serve", "--workers", "4", "--workers-max", "2"]).is_err());
        assert!(cfg_of(&["serve", "--workers-min", "8", "--workers-max", "2"]).is_err());
        assert!(cfg_of(&["serve", "--target-queue-delay-ms", "soon"]).is_err());
        assert!(cfg_of(&["serve", "--workers-max", "lots"]).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(cfg_of(&["serve", "--workers", "0"]).is_err());
        assert!(cfg_of(&["serve", "--queue-depth", "0"]).is_err());
        assert!(cfg_of(&["serve", "--workers", "abc"]).is_err());
        assert!(cfg_of(&["serve", "--addr", "not-an-address"]).is_err());
        assert!(cfg_of(&["serve", "--frobnicate"]).is_err());
        assert!(cfg_of(&["serve", "extra.csv"]).is_err());
    }

    #[test]
    fn describe_lists_every_knob() {
        let (cfg, _) = cfg_of(&["serve", "--workers", "3"]).unwrap();
        let d = describe(&cfg);
        assert!(d.contains("workers        3"), "{d}");
        assert!(d.contains("addr"));
        assert!(d.contains("queue-depth"));
        assert!(d.contains("cache-entries"));
        assert!(d.contains("slow-ms        off"), "{d}");
        assert!(d.contains("request-timeout-ms off"), "{d}");
        assert!(d.contains("max-cells      4000000"), "{d}");
        assert!(d.contains("record-requests 256"), "{d}");
        assert!(d.contains("record-survivors 64"), "{d}");
        assert!(d.contains("max-sessions   64"), "{d}");
        assert!(d.contains("session-ttl-s  900"), "{d}");
        assert!(d.contains("profile-hz     99"), "{d}");
        assert!(d.contains("slo-availability 0.999"), "{d}");
        assert!(d.contains("slo-latency-ms off"), "{d}");
        assert!(d.contains("slo-window-s   60"), "{d}");
        assert!(d.contains("max-requests-per-conn 1024"), "{d}");
        assert!(d.contains("idle-conn-timeout-ms 30000"), "{d}");
        assert!(d.contains("target-queue-delay-ms 100"), "{d}");
        assert!(d.contains("workers-min    3"), "{d}");
        assert!(d.contains("workers-max    3"), "{d}");
        assert!(d.contains("tsdb-retention-s 86400"), "{d}");
    }

    #[test]
    fn tsdb_flags() {
        let (cfg, _) = cfg_of(&["serve"]).unwrap();
        assert_eq!(cfg.tsdb_retention_s, 86_400);
        assert!(!cfg.tsdb_off);

        let (cfg, _) = cfg_of(&["serve", "--tsdb-retention-s", "600"]).unwrap();
        assert_eq!(cfg.tsdb_retention_s, 600);
        assert!(describe(&cfg).contains("tsdb-retention-s 600"));

        let (cfg, _) = cfg_of(&["serve", "--tsdb-off"]).unwrap();
        assert!(cfg.tsdb_off);
        assert!(describe(&cfg).contains("tsdb-retention-s off"));

        // 0 retention is a flag error, not a silent clamp.
        assert!(cfg_of(&["serve", "--tsdb-retention-s", "0"]).is_err());
        assert!(cfg_of(&["serve", "--tsdb-retention-s", "forever"]).is_err());
    }
}
