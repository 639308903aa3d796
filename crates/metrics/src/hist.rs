//! Power-of-two histograms: the one sample distribution the workspace
//! uses, shared by the registry, the managers' per-request distributions
//! and the span profile.

use pcb_json::{Json, ToJson};

/// Number of power-of-two buckets needed to cover the full `u64` range:
/// bucket 0 for the value 0, buckets 1..=64 for `[2^(k-1), 2^k)`.
pub const HIST_BUCKETS: usize = 65;

/// A power-of-two histogram of `u64` samples.
///
/// Bucket 0 counts the value 0; bucket `k >= 1` counts values in
/// `[2^(k-1), 2^k)`. Sixty-five buckets therefore cover the full `u64`
/// range, which suits word sizes and probe counts (both heavy-tailed).
///
/// ```
/// use pcb_metrics::Histogram;
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(3);
/// h.record(3);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 7);
/// assert_eq!(h.bucket_counts()[2], 2); // [2, 4) holds both 3s
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// The bucket index a value falls into (0 for 0, else
    /// `64 - leading_zeros`).
    pub fn bucket_of(value: u64) -> u32 {
        match value {
            0 => 0,
            v => 64 - v.leading_zeros(),
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Dense per-bucket counts from bucket 0 through the highest
    /// non-empty bucket (empty vector when no samples).
    pub fn bucket_counts(&self) -> Vec<u64> {
        let len = self
            .buckets
            .iter()
            .rposition(|&n| n != 0)
            .map_or(0, |hi| hi + 1);
        self.buckets[..len].to_vec()
    }

    /// Folds `other` into `self`: per-bucket counts and totals add,
    /// maxima combine. Merging is commutative and associative, which is
    /// what makes sharded snapshots independent of the shard count.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Rebuilds a histogram from serialized parts (the inverse of the
    /// `ToJson` shape). The dense `buckets` vector must sum to `count`.
    ///
    /// # Errors
    ///
    /// A description of the inconsistency when the parts disagree.
    pub fn from_parts(count: u64, sum: u64, max: u64, buckets: &[u64]) -> Result<Self, String> {
        if buckets.len() > HIST_BUCKETS {
            return Err(format!(
                "histogram has {} buckets, max {HIST_BUCKETS}",
                buckets.len()
            ));
        }
        let total = buckets.iter().try_fold(0u64, |a, &b| a.checked_add(b));
        if total != Some(count) {
            return Err(match total {
                Some(total) => format!("bucket counts sum to {total}, count says {count}"),
                None => "bucket counts overflow u64".to_string(),
            });
        }
        let mut h = Histogram {
            count,
            sum,
            max,
            ..Histogram::new()
        };
        h.buckets[..buckets.len()].copy_from_slice(buckets);
        Ok(h)
    }

    /// Rebuilds a histogram from its `ToJson` shape (the derived `mean`
    /// is not read back).
    ///
    /// # Errors
    ///
    /// A description of the first missing or malformed field, or of the
    /// inconsistency [`from_parts`](Self::from_parts) finds.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 '{key}'"))
        };
        let buckets = json
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing 'buckets'".to_string())?
            .iter()
            .map(|b| b.as_u64().ok_or_else(|| "bucket is not a u64".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        Self::from_parts(field("count")?, field("sum")?, field("max")?, &buckets)
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("max", Json::from(self.max)),
            ("mean", Json::from(self.mean())),
            (
                "buckets",
                Json::array(self.bucket_counts().into_iter().map(Json::from)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inclusive upper bound of bucket `k`: 0 for bucket 0, else
    /// `2^k - 1` (the largest value with `bucket_of(v) == k`).
    fn bucket_upper_bound(k: u32) -> u64 {
        match k {
            0 => 0,
            64.. => u64::MAX,
            k => (1u64 << k) - 1,
        }
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.max(), 1000);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // {0}
        assert_eq!(buckets[1], 1); // [1,2)
        assert_eq!(buckets[2], 2); // [2,4)
        assert_eq!(buckets[3], 2); // [4,8)
        assert_eq!(buckets[4], 1); // [8,16)
        assert_eq!(buckets[10], 1); // [512,1024)
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.bucket_counts().is_empty());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let values_a = [0u64, 1, 5, 9, 1000];
        let values_b = [2u64, 5, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in values_a {
            a.record(v);
            both.record(v);
        }
        for v in values_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn parts_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 700] {
            h.record(v);
        }
        let back = Histogram::from_parts(h.count(), h.sum(), h.max(), &h.bucket_counts()).unwrap();
        assert_eq!(back, h);
        assert!(Histogram::from_parts(5, 0, 0, &[1, 2]).is_err());
        let overflow = Histogram::from_parts(0, 0, 0, &[u64::MAX, 1]).unwrap_err();
        assert!(overflow.contains("overflow"), "{overflow}");
        let json = Json::parse(&h.to_json().to_string()).unwrap();
        assert_eq!(Histogram::from_json(&json).unwrap(), h);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            let k = Histogram::bucket_of(v);
            assert!(v <= bucket_upper_bound(k));
            if k > 0 {
                assert!(v > bucket_upper_bound(k - 1));
            }
        }
    }
}
