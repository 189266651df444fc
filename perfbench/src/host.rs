//! What the benchmark records about the host it ran on.

use std::process::Command;

/// A `/proc/self/status` memory line in MB, or `None` where `/proc` does
/// not provide it.
fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Keeps a fingerprint field printable inside a JSON string.
fn clean(s: Option<String>) -> String {
    s.unwrap_or_else(|| "unknown".to_string())
        .chars()
        .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
        .collect()
}

/// The host fingerprint as a JSON object: results from different hosts,
/// compilers or commits are not comparable, so each result carries it.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .map(|s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        clean(cpu_model()),
        clean(kernel),
        clean(first_line_of("rustc", &["-V"])),
        clean(first_line_of("git", &["rev-parse", "HEAD"])),
    )
}
