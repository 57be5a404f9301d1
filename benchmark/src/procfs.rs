//! Process-level readings from `/proc/self` (Linux).

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Resident set size now, MiB.
pub fn rss_mib() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Resident set high-water mark, MiB.
pub fn rss_peak_mib() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// `(command name, user + system time in µs)` of one `stat` file.
/// `/proc` counts in clock ticks; Linux fixes `USER_HZ` at 100.
fn stat_cpu_us(path: &std::path::Path) -> Option<(String, f64)> {
    let stat = std::fs::read_to_string(path).ok()?;
    let (head, rest) = stat.rsplit_once(')')?;
    let name = head.split_once('(')?.1.to_string();
    // After the command name: state is field 3, utime and stime 14 and 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some((name, ticks * 10_000.0))
}

/// CPU time this process has used, µs: every thread, user + system,
/// except the keep-awake spinners (which only take otherwise idle time).
pub fn cpu_us() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    tasks
        .filter_map(|t| stat_cpu_us(&t.ok()?.path().join("stat")))
        .filter(|(name, _)| name != crate::keepawake::THREAD_NAME)
        .map(|(_, us)| us)
        .sum()
}

/// Logical CPUs available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
