//! Provenance recorded with every result, and process memory.

use std::fs;

fn read_trim(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// JSON string literal (quotes, backslashes and control characters
/// escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=48K L1i=32K L2=2048K L3=…` from cpu0's sysfs cache entries.
fn caches() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{base}/level")),
            read_trim(&format!("{base}/type")),
            read_trim(&format!("{base}/size")),
        ) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push(format!("L{level}{suffix}={size}"));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly; `none` outside a git checkout.
fn git_commit() -> String {
    let Some(head) = read_trim(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(c) = read_trim(&format!(".git/{reference}")) {
        return c;
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance as one JSON object.
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    config: &[(&str, String)],
) -> String {
    let mut fields = vec![
        ("workload", quote(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("nproc", nproc().to_string()),
        ("cpu_model", quote(&cpu_model())),
        ("caches", quote(&caches())),
        ("pmu", quote(&gcm_obs::pmu::pmu_status().to_string())),
        (
            "kernel",
            quote(&read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", quote(&rustc_version())),
        ("git_commit", quote(&git_commit())),
    ];
    fields.extend(config.iter().map(|(k, v)| (*k, quote(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU ticks of the whole machine from
/// `/proc/stat`: time the hypervisor ran something else on this VM's
/// vCPUs. Diffed across the load phase it says how much of the run the
/// host took away, the main source of run-to-run noise on a shared VM.
pub fn cpu_ticks() -> (u64, u64) {
    let line = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen by the host between two [`cpu_ticks`]
/// readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}
