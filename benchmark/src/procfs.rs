//! `/proc/self` readers for the two resource metrics: process CPU time
//! (all threads) and peak resident set size.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has reported `USER_HZ` = 100 to user space on every architecture
/// since 2.6; reading it properly needs `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so the
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields
    // 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// `VmHWM` (peak resident set) in megabytes from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// CPU milliseconds this process (all threads) has consumed so far.
pub fn cpu_ms() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ms(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process in megabytes.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mb(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // comm = "a) b (c" — spaces and both parentheses inside it.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn status_hwm_is_read_in_kb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(200.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readers_return_positive_numbers() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
