//! What the run header says about the machine and the build, and the
//! process's own memory high-water mark.

use std::process::Command;

use crate::json::Value;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// First line of the command's standard output, when it runs and succeeds.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// `HEAD` of the repository whose root is the current directory. The
/// search is stopped from climbing into parent directories: a checkout
/// that is not itself a repository has no commit, whatever contains it.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut cmd)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a sysfs cache size such as `4096K` or `260M` into bytes.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// Size in bytes of one cache of `level` as cpu0 sees it, and how many
/// CPUs share it (so the machine total can be stated).
fn cache_of_level(level: u32) -> Option<(u64, usize)> {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Some(l) = read(&format!("{dir}/level")) else {
            continue;
        };
        if l.parse::<u32>().ok() != Some(level) || read(&format!("{dir}/type"))? == "Instruction" {
            continue;
        }
        let size = parse_cache_size(&read(&format!("{dir}/size"))?)?;
        let sharers = read(&format!("{dir}/shared_cpu_list"))
            .map(|list| count_cpu_list(&list))
            .unwrap_or(1);
        return Some((size, sharers.max(1)));
    }
    None
}

/// CPUs named by a sysfs list such as `0-3,8`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| {
            let mut ends = part.trim().splitn(2, '-');
            let lo: usize = ends.next()?.parse().ok()?;
            let hi: usize = ends.next().map_or(Some(lo), |h| h.parse().ok())?;
            Some(hi.saturating_sub(lo) + 1)
        })
        .sum()
}

/// Machine-wide bytes of L2 and of L3 (0 = not reported by sysfs).
pub fn cache_bytes() -> (u64, u64) {
    let cpus = nproc();
    let total = |level| {
        cache_of_level(level).map_or(0, |(size, sharers)| size * cpus.div_ceil(sharers) as u64)
    };
    (total(2), total(3))
}

/// The host/build part of the run header.
pub fn header() -> Vec<(&'static str, Value)> {
    let unknown = || "unknown".to_string();
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let (l2, l3) = cache_bytes();
    vec![
        (
            "git_commit",
            Value::Str(git_commit().unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::Str(first_line(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("l2_bytes_total", Value::Num(l2 as f64)),
        ("l3_bytes_total", Value::Num(l3 as f64)),
    ]
}

/// `VmHWM` of this process in MiB: the resident-set high-water mark.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_and_cpu_lists_parse() {
        assert_eq!(parse_cache_size("4096K"), Some(4 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(count_cpu_list("0-3,8"), 5);
        assert_eq!(count_cpu_list("1"), 1);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
        }
    }
}
