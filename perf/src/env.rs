//! What the numbers were measured on: recorded next to every result.

use std::process::Command;

use foam_telemetry::json::Value;

fn first_line(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Size string of the highest-level cache of cpu0 (e.g. `"32768K"`).
fn last_level_cache() -> Option<String> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, String)> = None;
    for e in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map(|(_, s)| s)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// 1-minute load average when the run starts.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn describe() -> Value {
    let text = |s: Option<String>| Value::from(s.unwrap_or_else(|| "unknown".to_string()));
    Value::object([
        (
            "nproc".to_string(),
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        (
            "cpu_model".to_string(),
            text(first_line("/proc/cpuinfo", "model name")),
        ),
        ("last_level_cache".to_string(), text(last_level_cache())),
        (
            "rustc".to_string(),
            Value::from(tool_line("rustc", &["-V"])),
        ),
        (
            // The driver's checkout is not a git repository: "unknown" there.
            "git_commit".to_string(),
            Value::from(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "load_average_1m".to_string(),
            load_average().map(Value::from).unwrap_or(Value::Null),
        ),
        // Computed array sizes, for reading the kernel numbers against
        // the cache size above. No bandwidth or roofline ratio is claimed.
        (
            "array_bytes".to_string(),
            Value::object([
                (
                    "ocean_field_128x128x16_f64".to_string(),
                    Value::from(128usize * 128 * 16 * 8),
                ),
                (
                    "ocean_level_128x128_f64".to_string(),
                    Value::from(128usize * 128 * 8),
                ),
                (
                    "atm_field_48x40x18_f64".to_string(),
                    Value::from(48usize * 40 * 18 * 8),
                ),
                (
                    "r15_coefficients_complex".to_string(),
                    Value::from(16usize * 16 * 16),
                ),
            ]),
        ),
    ])
}
