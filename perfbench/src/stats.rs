//! Sample statistics, metric naming rules and a minimal JSON writer.

/// Percentile ladder, highest first, used to pick a tail percentile.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to count as supported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least `p`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // `p · n / 100` keeps whole-number products exact (0.99 · 1000 is not).
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (the lower middle value for even counts, matching
/// [`percentile`] at 50).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A growing set of latency samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Samples {
        Samples { values }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The count and the 10th to 90th percentiles plus p99, scaled by
    /// `scale`: the shape of the distribution, for the detail record.
    pub fn deciles(&self, scale: f64) -> Json {
        let mut j = Json::new().int("n", self.len() as u64);
        for p in [10, 20, 30, 40, 50, 60, 70, 80, 90, 99] {
            let v = self.percentile(f64::from(p)).unwrap_or(0.0) * scale;
            j = j.num(&format!("p{p}"), v);
        }
        j
    }

    /// Nearest-rank percentile.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    /// The percentile `p`, or an error naming why the run cannot support
    /// it (fewer than [`MIN_BEYOND`] samples beyond it).
    pub fn tail(&self, what: &str, p: f64) -> Result<f64, String> {
        let n = self.len();
        if beyond(n, p) < MIN_BEYOND {
            return Err(format!(
                "{what}: p{p} needs {MIN_BEYOND} samples beyond it but the run has {n} \
                 samples (supported tail: {:?})",
                supported_tail(n)
            ));
        }
        Ok(self.percentile(p).expect("non-empty"))
    }
}

/// `true` when `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// `true` when `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A JSON object under construction; values are rendered on insertion and
/// keys keep insertion order.
#[derive(Debug, Default, Clone)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    pub fn new() -> Json {
        Json::default()
    }

    pub fn num(mut self, key: &str, v: f64) -> Json {
        self.fields.push((key.into(), render_num(v)));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Json {
        self.fields.push((key.into(), v.to_string()));
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Json {
        self.fields.push((key.into(), v.to_string()));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Json {
        self.fields.push((key.into(), quote(v)));
        self
    }

    pub fn obj(mut self, key: &str, v: Json) -> Json {
        self.fields.push((key.into(), v.render()));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a finite number with all its digits (shortest round-trip form);
/// JSON has no NaN or infinity, so those become `null`.
fn render_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Odd count: the true median.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even count: the lower of the two middle values is rank n/2.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn highest_supported_tail() {
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn tail_refuses_unsupported_percentiles() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        let err = s.tail("x", 99.0).unwrap_err();
        assert!(err.contains("Some(95.0)"), "{err}");
        s.push(999.0);
        assert_eq!(s.tail("x", 99.0), Ok(989.0));
    }

    #[test]
    fn metric_names_and_units() {
        for ok in [
            "latency_ms",
            "setup_s",
            "exec.knn_calls",
            "wal.append_us_p50",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "a:b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "bytes", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_rendering() {
        let j = Json::new()
            .num("a", 1.25)
            .num("nan", f64::NAN)
            .int("n", 3)
            .bool("ok", true)
            .str("s", "q\"\\\n")
            .obj("o", Json::new().num("x", 0.1));
        assert_eq!(
            j.render(),
            r#"{"a": 1.25, "nan": null, "n": 3, "ok": true, "s": "q\"\\\n", "o": {"x": 0.1}}"#
        );
    }
}
