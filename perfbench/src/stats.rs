//! Order statistics and output digests.

/// The `q` quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The harmonic mean of positive `values`; 0 for an empty slice. Of
/// per-pass rates over equal work, it is the total work over the total
/// time.
#[must_use]
pub fn harmonic_mean(values: &[f64]) -> f64 {
    ratio(values.len() as f64, values.iter().map(|v| v.recip()).sum())
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Accumulates deterministic output text and digests it with the
/// simulator's own snapshot hash, rendered as 16 hex digits.
#[derive(Debug, Default, Clone)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    /// Appends one deterministic record.
    pub fn add(&mut self, text: &str) {
        self.bytes.extend_from_slice(text.as_bytes());
        self.bytes.push(b'\n');
    }

    /// The digest of everything added so far.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", agile_core::digest(&self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 4.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_content_and_order() {
        let mut a = Digest::default();
        a.add("x");
        a.add("y");
        let mut b = Digest::default();
        b.add("y");
        b.add("x");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
