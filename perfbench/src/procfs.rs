//! Process and per-thread CPU time and peak memory from `/proc/self`.
//!
//! Times are in clock ticks (`USER_HZ`, 100 per second on Linux). The CPU
//! split attributes every thread of the process to one role: the driving
//! threads (by tid, recorded from inside each driving thread), the fabric
//! dispatcher (threads named `taurus-fabric-*`) and everything else.

use std::collections::BTreeMap;

/// Clock ticks per second of the tick counts in `/proc/*/stat`.
pub const TICKS_PER_SEC: u64 = 100;

/// One thread's accumulated CPU time.
#[derive(Clone, Debug)]
pub struct ThreadTicks {
    pub name: String,
    pub ticks: u64,
}

/// CPU time of the whole process and of each live thread at one instant.
#[derive(Clone, Debug, Default)]
pub struct CpuSample {
    pub process_ticks: u64,
    pub threads: BTreeMap<u64, ThreadTicks>,
}

/// Parses `(comm, utime + stime)` out of one `stat` line. The command name
/// sits in parentheses and may itself contain spaces or parentheses, so
/// the fixed fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // Field 3 (state) is index 0 here; utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// Reads the process total and every live thread's CPU ticks.
pub fn cpu_sample() -> CpuSample {
    let mut sample = CpuSample::default();
    let mut threads = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let path = entry.path().join("stat");
            if let Some((name, ticks)) = std::fs::read_to_string(path)
                .ok()
                .and_then(|s| parse_stat(&s))
            {
                threads.insert(tid, ThreadTicks { name, ticks });
            }
        }
    }
    // Read the process total after the threads, so a tick that lands in
    // between shows up as residual rather than as negative time.
    sample.process_ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0, |(_, t)| t);
    sample.threads = threads;
    sample
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u64> {
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU ticks spent between two samples, split by thread role.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    pub process: u64,
    pub client: u64,
    pub fabric: u64,
    pub background: u64,
    /// Threads seen in either sample: the tolerance of the split check is
    /// one tick per thread.
    pub threads: u64,
}

impl CpuSplit {
    pub fn between(start: &CpuSample, end: &CpuSample, client_tids: &[u64]) -> CpuSplit {
        let mut split = CpuSplit {
            process: end.process_ticks.saturating_sub(start.process_ticks),
            ..CpuSplit::default()
        };
        for (tid, t) in &end.threads {
            let before = start.threads.get(tid).map_or(0, |s| s.ticks);
            let spent = t.ticks.saturating_sub(before);
            if client_tids.contains(tid) {
                split.client += spent;
            } else if t.name.starts_with("taurus-fabric-") {
                split.fabric += spent;
            } else {
                split.background += spent;
            }
        }
        let exited = start
            .threads
            .keys()
            .filter(|tid| !end.threads.contains_key(tid))
            .count();
        split.threads = (end.threads.len() + exited) as u64;
        split
    }

    pub fn add(&mut self, other: CpuSplit) {
        self.process += other.process;
        self.client += other.client;
        self.fabric += other.fabric;
        self.background += other.background;
        self.threads += other.threads;
    }

    /// Process ticks not attributed to any live thread (threads that
    /// exited in between, or ticks that landed between the reads).
    pub fn residual(&self) -> i64 {
        self.process as i64 - (self.client + self.fabric + self.background) as i64
    }

    /// Whether the three roles add up to the process total within one
    /// tick per thread.
    pub fn adds_up(&self) -> bool {
        self.residual().unsigned_abs() <= self.threads
    }
}

/// Converts ticks to microseconds.
pub fn ticks_to_us(ticks: u64) -> f64 {
    ticks as f64 * 1e6 / TICKS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "12 (taurus fab) ) S 1 2 3 4 5 6 7 8 9 10 30 12 0 0";
        assert_eq!(parse_stat(line), Some(("taurus fab) ".to_string(), 42)));
    }

    #[test]
    fn own_thread_is_listed() {
        let tid = current_tid().expect("thread-self");
        assert!(cpu_sample().threads.contains_key(&tid));
    }
}
