//! Process counters read from `/proc/self`. Linux only; a field that cannot
//! be read is reported as zero rather than failing the run.

use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` (USER_HZ, 100 on
/// every Linux this benchmark targets; `sysconf` is out of reach without
/// libc).
const CLK_TCK: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU seconds of the whole process, exited threads included.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_cpu_ticks(&s)).unwrap_or(0.0)
        / CLK_TCK
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks the hypervisor has kept this guest's CPUs from running
/// (`steal`, the 8th value of the first line of `/proc/stat`), summed over
/// CPUs. Stays zero where the host does not report it.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat").ok().and_then(|s| parse_steal(&s)).unwrap_or(0)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().nth(7)?.parse().ok()
}

/// Bytes the process has passed to `write`-family system calls (`wchar`).
pub fn written_bytes() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("wchar:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "1234 (e2e (x) y) S 1 1234 1234 0 -1 4194304 500 0 0 0 321 45 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(line), Some(366.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  5974724 18827 622041 8651986 82517 0 85624 77690 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(77690));
        assert_eq!(parse_steal("cpu0 1 2 3"), None);
    }

    #[test]
    fn live_counters_are_readable_here() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
