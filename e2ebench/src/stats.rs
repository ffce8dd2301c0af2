//! Order statistics over measured samples, and seeded arrival schedules.

/// Quantile `q` in `[0, 1]` of `values`, linearly interpolated between
/// the two nearest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64 step: the seeded source of the arrival schedules.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arrival offsets (seconds from the start) of a seeded Poisson process
/// at `rate` per second over `span_s` seconds: exponential gaps drawn
/// from uniforms in `(0, 1]`.
pub fn poisson_schedule(seed: u64, rate: f64, span_s: f64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * span_s * 1.2) as usize + 8);
    loop {
        let u = ((splitmix(&mut state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= span_s {
            return out;
        }
        out.push(t);
    }
}

/// Arrival offsets of a camera streaming at a fixed `rate` over `span_s`
/// seconds, starting at a seeded phase within the first interval.
pub fn paced_schedule(seed: u64, rate: f64, span_s: f64) -> Vec<f64> {
    let mut state = seed;
    let phase = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 / rate;
    (0..)
        .map(|i| phase + i as f64 / rate)
        .take_while(|&t| t < span_s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_near_its_rate() {
        let a = poisson_schedule(7, 200.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 200.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 200.0, 10.0));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let p = paced_schedule(7, 60.0, 20.0);
        assert_eq!(p.len(), 1200);
        assert!(p[0] < 1.0 / 60.0 && p != paced_schedule(8, 60.0, 20.0));
    }
}
