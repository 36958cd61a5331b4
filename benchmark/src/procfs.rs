//! The three `/proc` files the harness reads: process CPU time, peak
//! resident memory, and machine-wide CPU steal.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// `(utime, stime)` of a `/proc/<pid>/stat` line, in clock ticks.
///
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `(all ticks, steal ticks)` of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *ticks.get(7)?;
    Some((ticks.iter().take(8).sum(), steal))
}

fn cpu_seconds(stat_path: &str) -> (f64, f64) {
    fs::read_to_string(stat_path)
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or((0.0, 0.0), |(user, system)| {
            (
                user as f64 / TICKS_PER_SECOND,
                system as f64 / TICKS_PER_SECOND,
            )
        })
}

/// CPU seconds `(user, system)` this process has used so far.
pub fn process_cpu_seconds() -> (f64, f64) {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_seconds() -> f64 {
    let (user, system) = cpu_seconds("/proc/thread-self/stat");
    user + system
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Machine-wide `(all ticks, steal ticks)` right now.
pub fn steal_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_proc_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// Share of the machine's CPU time stolen by the hypervisor between two
/// [`steal_ticks`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let all = after.0.saturating_sub(before.0);
    if all == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / all as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured on the sandbox this benchmark was sized on.
    const SELF_STAT: &str =
        "11273 (cat) R 11269 11273 11269 0 -1 4194304 81 0 0 0 3 5 0 0 20 0 1 0 \
        433569 2703360 314 18446744073709551615 94766562963456 94766562983337 140732786776832 \
        0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 94766562999344 94766563000960 94767590498304 \
        140732786783714 140732786783734 140732786783734 140732786786283 0";
    const SELF_STATUS: &str =
        "Name:\tcat\nUmask:\t0022\nState:\tR (running)\nVmPeak:\t    3348 kB\n\
        VmSize:\t    3348 kB\nVmHWM:\t    1804 kB\nVmRSS:\t    1804 kB\nThreads:\t1\n";
    const PROC_STAT: &str = "cpu  234314 0 27515 584894 3400 0 4741 8278 0 0\n\
        cpu0 90729 0 15217 315569 2848 0 2362 4417 0 0\n\
        cpu1 143584 0 12297 269324 552 0 2379 3861 0 0\nintr 1 2 3\n";

    #[test]
    fn stat_cpu_ticks() {
        assert_eq!(parse_stat_cpu_ticks(SELF_STAT), Some((3, 5)));
    }

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = SELF_STAT.replace("(cat)", "(a b) c) d)");
        assert_eq!(parse_stat_cpu_ticks(&stat), Some((3, 5)));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_vm_hwm() {
        assert_eq!(parse_status_vm_hwm_kb(SELF_STATUS), Some(1804));
        assert_eq!(parse_status_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
    }

    #[test]
    fn proc_stat_steal() {
        let all = 234_314 + 27_515 + 584_894 + 3400 + 4741 + 8278;
        assert_eq!(parse_proc_stat_steal(PROC_STAT), Some((all, 8278)));
        assert_eq!(parse_proc_stat_steal("cpu0 1 2 3\n"), None);
        assert_eq!(parse_proc_stat_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn steal_share() {
        assert_eq!(steal_pct((1000, 10), (1200, 14)), 2.0);
        assert_eq!(steal_pct((1000, 10), (1000, 10)), 0.0);
    }

    #[test]
    fn live_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(steal_ticks().0 > 0);
        assert!(process_cpu_seconds().0 >= 0.0);
        assert!(thread_cpu_seconds() >= 0.0);
    }
}
