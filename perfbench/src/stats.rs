//! The benchmark's own arithmetic: medians and tail percentiles, failure
//! tallies, span self time, and the units measurements are read in. Every
//! reported figure goes through these functions; the unit tests below pin
//! the rules of the first three.

use std::time::Duration;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it would be set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle two for an even count), or
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-th percentile (`0 < q < 100`) of `samples`, or
/// `None` unless at least [`MIN_BEYOND`] samples rank above it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} out of range");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed operations. An operation counts once however many
/// ways it fails: a refused request whose answer is also wrong is one
/// failure, not two.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    failed: Vec<bool>,
}

impl Tally {
    /// Records one attempted operation and returns its index.
    pub fn attempt(&mut self) -> usize {
        self.failed.push(false);
        self.failed.len() - 1
    }

    /// Marks operation `index` failed (idempotent).
    pub fn fail(&mut self, index: usize) {
        self.failed[index] = true;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Operations that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// Adds another tally's operations to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.failed.extend_from_slice(&other.failed);
    }

    /// Failed ÷ attempted (`0` when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

/// One recorded span: a named interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Each span's self time: its duration minus the durations of its direct
/// children. The spans come from RAII guards on one thread, so any two
/// are nested or disjoint; a span's children are the spans it is the
/// innermost container of, and grandchildren are not subtracted twice.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    // Outer spans first at equal starts, so the stack top is always the
    // innermost span still open.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start_ns, std::cmp::Reverse(spans[i].dur_ns), i));
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let s = spans[i];
        while let Some(&top) = open.last() {
            if spans[top].start_ns + spans[top].dur_ns > s.start_ns {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            self_ns[parent] = self_ns[parent].saturating_sub(s.dur_ns);
        }
        open.push(i);
    }
    self_ns
}

/// Milliseconds in a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is rank 90 with only 9 above it.
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        // 100 samples: rank 90, exactly 10 above.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        // p99 needs 1000 samples.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // The median is a percentile too: 20 samples leave 10 above rank 10.
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
    }

    #[test]
    fn failures_count_once_per_operation() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        let _a = t.attempt();
        let b = t.attempt();
        let _c = t.attempt();
        let d = t.attempt();
        t.fail(b);
        t.fail(b); // refused and also wrong: still one failure
        t.fail(d);
        assert_eq!((t.attempted(), t.failed()), (4, 2));
        assert_eq!(t.failed_frac(), 0.5);
        let mut other = Tally::default();
        let e = other.attempt();
        other.fail(e);
        t.absorb(&other);
        assert_eq!((t.attempted(), t.failed()), (5, 3));
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            dur_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = [
            span("op", 0, 100),
            span("a", 10, 30),
            span("a.inner", 12, 15),
            span("b", 40, 70),
            // A leaf that starts where its sibling ends.
            span("c", 70, 75),
            // The next op: disjoint from the first.
            span("op", 100, 110),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 20 - 30 - 5, 20 - 3, 3, 30, 5, 10]);
        // Recorded order does not matter: RAII guards record children
        // before their parents.
        let rev: Vec<SpanRec> = spans.iter().rev().copied().collect();
        let mut back = self_times(&rev);
        back.reverse();
        assert_eq!(back, st);
        // Equal intervals: the first recorded one is the parent.
        let same = [span("outer", 5, 9), span("inner", 5, 9)];
        assert_eq!(self_times(&same), vec![0, 4]);
    }
}
