//! Readings from `/proc`: per-thread CPU (`schedstat`), process CPU and peak
//! memory, and host steal time. Every layer measured this way is measured
//! from outside the program.

use std::collections::BTreeMap;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Nanoseconds on CPU: the first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// One thread's name (`comm`, at most 15 bytes) and CPU time.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    pub comm: String,
    pub cpu_ns: u64,
}

/// CPU time of every live thread of `pid`, keyed by thread id.
pub fn threads(pid: u32) -> BTreeMap<u32, ThreadCpu> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let base = entry.path();
        let comm = std::fs::read_to_string(base.join("comm")).unwrap_or_default();
        let sched = std::fs::read_to_string(base.join("schedstat")).unwrap_or_default();
        if let Some(cpu_ns) = parse_schedstat(&sched) {
            out.insert(
                tid,
                ThreadCpu {
                    comm: comm.trim().to_string(),
                    cpu_ns,
                },
            );
        }
    }
    out
}

/// CPU nanoseconds that threads whose name starts with `prefix` spent between
/// two snapshots. Threads born in between count from zero; threads that
/// exited in between are not seen.
pub fn cpu_delta_ns(
    before: &BTreeMap<u32, ThreadCpu>,
    after: &BTreeMap<u32, ThreadCpu>,
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(_, t)| t.comm.starts_with(prefix))
        .map(|(tid, t)| {
            t.cpu_ns
                .saturating_sub(before.get(tid).map_or(0, |b| b.cpu_ns))
        })
        .sum()
}

/// User + system CPU seconds from the text of `/proc/<pid>/stat` (fields 14
/// and 15, counted after the parenthesised command name).
pub fn parse_pid_stat_cpu_s(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// User + system CPU seconds of a whole process, exited threads included.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    parse_pid_stat_cpu_s(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of a process in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Host-wide CPU tick counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostCpu {
    pub total: u64,
    pub steal: u64,
}

pub fn parse_proc_stat(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; guest
    // time is already counted in user, so the total stops at steal.
    Some(HostCpu {
        total: ticks.iter().take(8).sum(),
        steal: *ticks.get(7)?,
    })
}

pub fn host_cpu() -> HostCpu {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .unwrap_or_default()
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: HostCpu, after: HostCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        0.0
    } else {
        after.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_captured_proc_files() {
        assert_eq!(parse_schedstat("2103252 1385548 2\n"), Some(2_103_252));
        assert_eq!(parse_schedstat(""), None);

        let stat = "4242 (hcm serve) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    345 67 0 0 20 0 6 0 123456 1000000 900 18446744073709551615";
        assert_eq!(parse_pid_stat_cpu_s(stat), Some(4.12));

        let status = "Name:\thcm\nVmPeak:\t  300000 kB\nVmHWM:\t    9216 kB\nVmRSS:\t    8000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(9.0));

        let proc_stat =
            "cpu  149478 0 9490 455280 376 0 2016 46942 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let h = parse_proc_stat(proc_stat).unwrap();
        assert_eq!(h.steal, 46_942);
        assert_eq!(h.total, 149_478 + 9_490 + 455_280 + 376 + 2_016 + 46_942);
        let later = HostCpu {
            total: h.total + 1000,
            steal: h.steal + 250,
        };
        assert_eq!(steal_share(h, later), 0.25);
    }

    #[test]
    fn thread_deltas_match_by_tid_and_name_prefix() {
        let t = |comm: &str, cpu_ns| ThreadCpu {
            comm: comm.into(),
            cpu_ns,
        };
        let before = BTreeMap::from([
            (1, t("hc-serve-worker", 100)),
            (2, t("hc-serve-accept", 50)),
        ]);
        let after = BTreeMap::from([
            (1, t("hc-serve-worker", 400)),
            (2, t("hc-serve-accept", 80)),
            (3, t("hc-serve-worker", 25)),
        ]);
        assert_eq!(cpu_delta_ns(&before, &after, "hc-serve-worker"), 325);
        assert_eq!(cpu_delta_ns(&before, &after, "hc-serve-accept"), 30);
        assert_eq!(cpu_delta_ns(&before, &after, "hc-serve-tsdb"), 0);
        let own = threads(std::process::id());
        assert!(!own.is_empty(), "this process has at least one thread");
    }
}
