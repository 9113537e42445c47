//! Latency samples and their summaries.

/// Millisecond samples of one operation type.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Appends another thread's samples.
    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// The samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), linearly interpolated between
    /// the closest ranks; 0 without samples.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The arithmetic mean; 0 without samples.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
