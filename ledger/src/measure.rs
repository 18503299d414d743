//! Clocks, process counters and the few statistics the benchmark reports.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]`; 0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Standard error of the median of `values`, taking their spread from the
/// interquartile range (so that a few stalled samples do not inflate it):
/// 1.2533 × (IQR / 1.349) / √n; 0 for fewer than two values.
pub fn median_standard_error(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let iqr = percentile(values, 0.75) - percentile(values, 0.25);
    1.2533 * (iqr / 1.349) / (values.len() as f64).sqrt()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds `f` took, and its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median over `repeats` runs of the mean time of one call of `f`, in
/// nanoseconds, each run making `calls` calls.
pub fn median_ns_per_call(repeats: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&runs)
}

/// Milliseconds the reference kernel takes at the reference core speed (the
/// machine the first baseline was taken on, undisturbed).
pub const REFERENCE_KERNEL_NOMINAL_MS: f64 = 0.25;

/// Time the **reference kernel**: a fixed, dependent chain of 64-bit
/// multiply / xor / rotate steps with a data-dependent branch, touching no
/// memory.  Its time tracks the speed the core is running at *right now* —
/// on a shared host that moves by ±10 % for tens of seconds at a time
/// (frequency, a busy sibling hyperthread) — and nothing else.  It feeds no
/// metric: a run reports its median as a diagnostic, so that a slow phase of
/// the host can be told from a slow program.
pub fn reference_kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..100_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
        if x & 0x100 != 0 {
            x = x.rotate_left(7);
        }
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// CPU time this process and the children it has waited for have used, in
/// milliseconds: `utime + stime + cutime + cstime` from `/proc/self/stat`.
/// The kernel reports it in clock ticks (10 ms), so it is only meaningful
/// as a difference over a window of seconds.
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields count from
    // after its closing parenthesis, where field 3 is the state.
    let rest = &stat[stat.rfind(')')? + 1..];
    let ticks: u64 = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|field| field.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux ABI Rust targets.
    Some(ticks as f64 * 10.0)
}

/// CPU time the *calling thread* has used, in milliseconds, to nanosecond
/// precision (`/proc/thread-self/schedstat`); `None` where the kernel does
/// not keep scheduler statistics.
pub fn thread_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: u64 = stat.split_ascii_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns as f64 / 1e6)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores this process may run on (1 when the platform cannot say).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        // IQR 1.5 over four values.
        assert!((median_standard_error(&v) - 1.2533 * 1.5 / 1.349 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn proc_counters_parse() {
        assert!(process_cpu_ms().is_some());
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
