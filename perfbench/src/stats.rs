//! Order statistics over op times, and the process figures read from
//! `/proc`.

/// The `q`-quantile by nearest rank: the `ceil(q·n)`-th order statistic.
/// For n = 100, `q = 0.9` is the 90th value, with ten samples beyond it.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty() && (0.0..=1.0).contains(&q));
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median, averaging the two middle values of an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Blocks of consecutive ops a run is split into.
pub const BLOCKS: usize = 20;

/// The op times of the quiet quarter of a run: the ops are split into
/// [`BLOCKS`] blocks of consecutive ops and the quarter of the blocks
/// with the least total time is kept. On a shared host, interference
/// only ever adds time and comes in bursts of several ops; a block it
/// hit is slow as a whole, so dropping the slow blocks removes the
/// host's share and keeps the program's. Ops left over after the last
/// full block are not used.
pub fn quiet_quarter(op_secs: &[f64]) -> Vec<f64> {
    assert!(!op_secs.is_empty());
    let per_block = (op_secs.len() / BLOCKS).max(1);
    let mut blocks: Vec<&[f64]> = op_secs.chunks_exact(per_block).collect();
    blocks.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum()));
    blocks.truncate(blocks.len().div_ceil(4));
    blocks.concat()
}

/// Items per second over `op_secs`: every op moves `items_per_op`.
pub fn rate(op_secs: &[f64], items_per_op: u64) -> f64 {
    (items_per_op * op_secs.len() as u64) as f64 / op_secs.iter().sum::<f64>()
}

fn proc_field(path: &str, f: impl Fn(&str) -> Option<u64>) -> u64 {
    std::fs::read_to_string(path).ok().and_then(|s| f(&s)).unwrap_or(0)
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let kb = proc_field("/proc/self/status", |s| {
        s.lines().find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
    });
    kb as f64 / 1024.0
}

/// User plus system CPU time of the whole process so far, in seconds.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> f64 {
    let ticks = proc_field("/proc/self/stat", |s| {
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, so 12th and 13th from here.
        let rest = &s[s.rfind(')')? + 1..];
        let mut it = rest.split_whitespace().skip(11);
        Some(it.next()?.parse::<u64>().ok()? + it.next()?.parse::<u64>().ok()?)
    });
    ticks as f64 / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_100_is_the_90th_order_statistic() {
        // 1..=100 shuffled by a fixed stride: the 90th smallest is 90,
        // and exactly ten samples lie beyond it.
        let v: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let p90 = percentile(&v, 0.9);
        assert_eq!(p90, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(percentile(&v, 0.75), 75.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quiet_quarter_drops_the_blocks_a_burst_hit() {
        // 160 ops of 0.1 s moving 1000 items each: 10 000 items/s.
        let mut secs = vec![0.1; 160];
        assert_eq!(quiet_quarter(&secs).len(), 40);
        assert!((rate(&quiet_quarter(&secs), 1000) - 10_000.0).abs() < 1e-6);
        // A one-second stall and two bursts of slow ops that together
        // touch fifteen of the twenty blocks: total/elapsed drops by a
        // quarter, the quiet quarter holds.
        secs[42] = 1.0;
        secs[50..100].fill(0.15);
        secs[110..160].fill(0.15);
        let quiet = quiet_quarter(&secs);
        assert_eq!(quiet, vec![0.1; 40]);
        assert!((rate(&quiet, 1000) - 10_000.0).abs() < 1e-6);
        assert!(rate(&secs, 1000) < 7_700.0);
    }

    #[test]
    fn quiet_quarter_of_few_ops_uses_one_block_each() {
        assert_eq!(quiet_quarter(&[0.4, 0.1, 0.2]), vec![0.1]);
        assert_eq!(quiet_quarter(&[0.3, 0.2, 0.5, 0.4, 0.1]), vec![0.1, 0.2]);
        assert_eq!(quiet_quarter(&[0.3]), vec![0.3]);
        // 45 ops: twenty-two blocks of two, the last op unused, six kept.
        assert_eq!(quiet_quarter(&[0.1; 45]).len(), 12);
    }

    #[test]
    fn proc_figures_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
