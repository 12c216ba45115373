//! Sample statistics: medians, the tail rule, open-loop due times,
//! error accounting and the steadiness summary.

use std::time::Duration;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Value at quantile `q` (0..=1) of `sorted`, by linear interpolation
/// between the closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 0..=100.
    pub percentile: f64,
    /// The value at that rank.
    pub value: f64,
    /// Samples in the whole sample.
    pub samples: usize,
}

/// Applies the tail rule to an unsorted sample. With `n` samples the
/// reported value is the one at 0-based rank `n - 1 - TAIL_BEYOND`,
/// so exactly `TAIL_BEYOND` samples lie beyond it; its percentile is
/// `100 * (rank + 1) / n`. A sample too small to leave ten beyond any
/// rank falls back to its minimum (percentile 0): the rule never
/// reports a rank it cannot support.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            percentile: 0.0,
            value: 0.0,
            samples: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match n.checked_sub(TAIL_BEYOND + 1) {
        Some(rank) => Tail {
            percentile: 100.0 * (rank + 1) as f64 / n as f64,
            value: v[rank],
            samples: n,
        },
        None => Tail {
            percentile: 0.0,
            value: v[0],
            samples: n,
        },
    }
}

/// Milliseconds in `d`, with every digit.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`, with every digit.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The open-loop schedule of one generator: request `k` is due at
/// `offset + k * interval` from the start of the window, whether or not
/// earlier requests have completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval: Duration,
    /// Due time of request 0.
    pub offset: Duration,
}

impl Schedule {
    /// The schedule for `generators` generators sharing `rate` requests
    /// per second, generator `index` of them: each sends at
    /// `rate / generators`, phase-shifted so the union is evenly spaced.
    pub fn shared(rate: f64, generators: usize, index: usize) -> Self {
        let interval = Duration::from_secs_f64(generators as f64 / rate);
        Self {
            interval,
            offset: interval.mul_f64(index as f64 / generators as f64),
        }
    }

    /// Due time of request `k`.
    pub fn due(&self, k: u64) -> Duration {
        self.offset + self.interval.mul_f64(k as f64)
    }

    /// Requests due strictly before `window` ends.
    pub fn count_within(&self, window: Duration) -> u64 {
        if window <= self.offset {
            return 0;
        }
        ((window - self.offset).as_secs_f64() / self.interval.as_secs_f64()).ceil() as u64
    }
}

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When it was due, from the start of the window.
    pub due: Duration,
    /// When the generator actually sent it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
}

impl Timed {
    /// Latency as the client sees it: from the due time, so a stall
    /// that delays sending is charged to every request it delays.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs an open-loop generator over `window`: request `k` is sent at
/// its due time or, when the previous request is still outstanding,
/// as soon as it completes. `send(k)` performs request `k` and returns
/// its response once complete; `check(k, response)` then digests it
/// outside the timed part. `now()` reads the window clock. Every due
/// request is sent: a stall makes later requests late, never missing.
pub fn drive_open_loop<T, U>(
    schedule: Schedule,
    window: Duration,
    now: impl Fn() -> Duration,
    mut sleep_until: impl FnMut(Duration),
    mut send: impl FnMut(u64) -> T,
    mut check: impl FnMut(u64, T) -> U,
) -> Vec<(Timed, U)> {
    let total = schedule.count_within(window);
    let mut out = Vec::with_capacity(total as usize);
    for k in 0..total {
        let due = schedule.due(k);
        if now() < due {
            sleep_until(due);
        }
        let sent = now();
        let response = send(k);
        let timed = Timed {
            due,
            sent,
            done: now(),
        };
        out.push((timed, check(k, response)));
    }
    out
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the reference.
    Correct,
    /// Answered with a result that does not match the reference.
    Wrong,
    /// Refused by admission or overload (HTTP 429 or 503).
    Refused,
    /// Any other failure: transport error or unexpected status.
    Failed,
}

impl Outcome {
    /// The outcome of an HTTP status before the body is checked.
    pub fn of_status(status: u16) -> Option<Outcome> {
        match status {
            200 => None,
            429 | 503 => Some(Outcome::Refused),
            _ => Some(Outcome::Failed),
        }
    }
}

/// Tally of outcomes for `error_frac`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Correct answers.
    pub correct: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// 429/503 refusals.
    pub refused: u64,
    /// Other failures.
    pub failed: u64,
}

impl Tally {
    /// Counts one outcome.
    pub fn add(&mut self, o: Outcome) {
        self.attempted += 1;
        match o {
            Outcome::Correct => self.correct += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Operations that did not produce a correct answer.
    pub fn errors(&self) -> u64 {
        self.wrong + self.refused + self.failed
    }

    /// (failed + refused + wrong) ÷ attempted; 0 when nothing was
    /// attempted.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.errors() as f64 / self.attempted as f64
        }
    }
}

/// Median, quartiles and range of one metric over repeated runs, with
/// the two-mode check.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Runs summarised.
    pub runs: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
    /// Whether the values split into two separated groups.
    pub bimodal: bool,
}

impl Summary {
    /// Summarises `values` (at least one).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            runs: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[v.len() - 1],
            bimodal: is_bimodal(&v),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Whether an ascending sample splits into two groups: the widest gap
/// between neighbours leaves at least a quarter of the runs (and at
/// least two) on each side, and is wider than both groups' own ranges
/// and than a quarter of the median. Such a metric has two modes; its
/// median describes neither.
pub fn is_bimodal(sorted: &[f64]) -> bool {
    let n = sorted.len();
    if n < 4 {
        return false;
    }
    let (gap_at, gap) = sorted
        .windows(2)
        .enumerate()
        .map(|(i, w)| (i + 1, w[1] - w[0]))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("n >= 4");
    let min_side = (n / 4).max(2);
    if gap_at < min_side || n - gap_at < min_side {
        return false;
    }
    let low = sorted[gap_at - 1] - sorted[0];
    let high = sorted[n - 1] - sorted[gap_at];
    gap > low && gap > high && gap > 0.25 * quantile(sorted, 0.5).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn tail_of_large_sample_is_a_high_percentile() {
        let v: Vec<f64> = (0..10_000).map(f64::from).rev().collect();
        let t = tail(&v);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 99.9).abs() < 1e-9);
    }

    #[test]
    fn tail_of_small_sample_falls_back_to_minimum() {
        let v = [5.0, 3.0, 9.0];
        let t = tail(&v);
        assert_eq!((t.value, t.percentile), (3.0, 0.0));
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).value, 0.0);
        assert!((tail(&eleven).percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn a_stall_makes_later_requests_late_not_missing() {
        // Ten requests per 100 ms; request 2 stalls the generator for
        // 350 ms of simulated time.
        let clock = std::cell::Cell::new(Duration::ZERO);
        let schedule = Schedule::shared(100.0, 1, 0);
        let window = Duration::from_millis(100);
        let out = drive_open_loop(
            schedule,
            window,
            || clock.get(),
            |t| clock.set(t),
            |k| {
                let cost = if k == 2 { 35 } else { 1 };
                clock.set(clock.get() + Duration::from_millis(cost));
            },
            |k, ()| k,
        );
        let out: Vec<Timed> = out
            .into_iter()
            .enumerate()
            .map(|(i, (t, k))| {
                assert_eq!(k, i as u64, "responses are checked in order");
                t
            })
            .collect();
        assert_eq!(out.len(), 10, "every due request is sent");
        for (k, t) in out.iter().enumerate() {
            assert_eq!(t.due, Duration::from_millis(10 * k as u64));
        }
        // Requests 3..=5 fell due while request 2 was outstanding
        // (20 ms to 55 ms): each is sent late, and its latency counts
        // from its due time.
        let late: Vec<u64> = out[3..7]
            .iter()
            .map(|t| t.lateness().as_millis() as u64)
            .collect();
        assert_eq!(late, [25, 16, 7, 0]);
        assert_eq!(out[3].latency(), Duration::from_millis(26));
        assert_eq!(out[9].lateness(), Duration::ZERO);
        assert!(out.iter().all(|t| t.latency() >= t.done - t.sent));
    }

    #[test]
    fn schedule_spaces_generators_evenly() {
        let a = Schedule::shared(1000.0, 2, 0);
        let b = Schedule::shared(1000.0, 2, 1);
        assert_eq!(a.due(1), Duration::from_millis(2));
        assert_eq!(b.due(0), Duration::from_millis(1));
        assert_eq!(a.count_within(Duration::from_millis(10)), 5);
        assert_eq!(b.count_within(Duration::from_millis(10)), 5);
    }

    #[test]
    fn error_frac_counts_refusals_failures_and_wrong_answers() {
        let mut t = Tally::default();
        for status in [200, 200, 429, 503, 500] {
            t.add(Outcome::of_status(status).unwrap_or(Outcome::Correct));
        }
        t.add(Outcome::Wrong);
        assert_eq!(t.attempted, 6);
        assert_eq!((t.refused, t.failed, t.wrong, t.correct), (2, 1, 1, 2));
        assert!((t.error_frac() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().error_frac(), 0.0);
    }

    #[test]
    fn bimodal_values_are_flagged() {
        let two = [19.0, 20.0, 21.0, 20.5, 480.0, 700.0, 780.0, 520.0];
        let mut s = two.to_vec();
        s.sort_by(f64::total_cmp);
        assert!(is_bimodal(&s));
        assert!(Summary::of(&two).bimodal);
        let one = [19.0, 20.0, 21.0, 20.5, 19.5, 22.0, 20.2, 21.1];
        assert!(!Summary::of(&one).bimodal);
        // A single outlier is not a second mode.
        let outlier = [19.0, 20.0, 21.0, 20.5, 19.5, 22.0, 20.2, 90.0];
        assert!(!Summary::of(&outlier).bimodal);
    }

    #[test]
    fn summary_quartiles_match_linear_interpolation() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
    }
}
