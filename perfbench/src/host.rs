//! Host and build facts recorded with every result.

use std::path::Path;

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from a plain export, which has none.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of `.rs` source in the repository's workspace (`src`, `crates`,
/// `tests`, `examples`): the design-size figure the ROADMAP tracks.
fn workspace_rs_lines() -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    *total += text.lines().count();
                }
            }
        }
    }
    let mut total = 0;
    for dir in ["src", "crates", "tests", "examples"] {
        walk(Path::new(dir), &mut total);
    }
    total
}

pub fn facts(workload: &str, seed: u64, threads: usize, traced: bool) -> Vec<(String, String)> {
    let tier = match std::env::var("ACCELOS_EXEC_TIER") {
        Ok(v) => format!(
            "{:?} (ACCELOS_EXEC_TIER={v})",
            kernel_ir::ExecTier::from_env()
        ),
        Err(_) => format!("{:?} (default)", kernel_ir::ExecTier::from_env()),
    };
    [
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("host_threads", host_threads().to_string()),
        ("threads_used", threads.to_string()),
        ("git_rev", git_rev()),
        ("exec_tier", tier),
        ("workspace_rs_lines", workspace_rs_lines().to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}
