//! Order statistics over repeated samples, and the FNV-1a digest the
//! output checks use.

/// Quartiles and the tail of a sample set, as printed beside every
/// timing.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, and
    /// its value; `None` when fewer than 20 samples exist, because the
    /// percentile would then fall at or below the median.
    pub tail: Option<(u32, f64)>,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises a non-empty sample set.
///
/// # Panics
///
/// Panics on an empty set or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "cannot summarise zero samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = s.len();
    let tail = (n >= 20).then(|| {
        let pct = (100 * (n - 10) / n) as u32;
        (pct, quantile(&s, f64::from(pct) / 100.0))
    });
    Summary {
        n,
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        tail,
    }
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The `q`-quantile of a non-empty sample set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    quantile(&s, q)
}

impl Summary {
    /// One table cell set: `median  q1..q3  p<k> <v>  n`.
    pub fn render(&self, scale: f64, digits: usize) -> String {
        let tail = match self.tail {
            Some((pct, v)) => format!("p{pct} {:.digits$}", v * scale),
            None => "p-tail n/a (<20 samples)".to_string(),
        };
        format!(
            "median {:.digits$}  q1..q3 {:.digits$}..{:.digits$}  {tail}  n={}",
            self.median * scale,
            self.q1 * scale,
            self.q3 * scale,
            self.n
        )
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        assert!(s.tail.is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let (pct, v) = summarize(&xs).tail.unwrap();
        assert_eq!(pct, 75);
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
