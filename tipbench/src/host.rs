//! Facts about the machine a result was measured on, read from `/proc`
//! and the checkout (no processes are started).

use crate::json::Json;
use std::path::Path;

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average and the number of runnable scheduling
/// entities (this process included), from `/proc/loadavg`. The average
/// lags by a minute, so back-to-back runs of this benchmark raise it
/// themselves; the runnable count does not, but it is an instant's
/// sample, so the fewest of three samples is taken.
pub fn load() -> Option<(f64, u64)> {
    let sample = || -> Option<(f64, u64)> {
        let text = std::fs::read_to_string("/proc/loadavg").ok()?;
        let mut fields = text.split_whitespace();
        let average = fields.next()?.parse().ok()?;
        let runnable = fields.nth(2)?.split('/').next()?.parse().ok()?;
        Some((average, runnable))
    };
    let mut least = sample()?;
    for _ in 0..2 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        least.1 = least.1.min(sample()?.1);
    }
    Some(least)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checked-out commit, from `.git` in or above the working
/// directory; `"unknown"` in an exported tree.
pub fn commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r))
                    .map_or_else(|_| head.to_owned(), |s| s.trim().to_owned()),
                None => head.to_owned(),
            };
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

pub fn facts(scratch: &Path, load: Option<(f64, u64)>) -> Json {
    Json::obj(vec![
        ("commit", Json::str(commit())),
        ("nproc", Json::Num(nproc() as f64)),
        ("scratch_fs", Json::str(filesystem_of(scratch))),
        ("sync_mode", Json::str("every-commit")),
        (
            "load_average_at_start",
            load.map_or(Json::Null, |l| Json::Num(l.0)),
        ),
        (
            "runnable_at_start",
            load.map_or(Json::Null, |l| Json::Num(l.1 as f64)),
        ),
    ])
}
