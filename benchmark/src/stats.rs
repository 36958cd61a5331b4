//! Reducers of the timing rule: nearest-rank percentiles and quartiles.

/// Nearest-rank percentile of an ascending slice: the `⌈p·n⌉`-th smallest
/// value (so no interpolated number that was never measured is reported).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending in place.
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Nearest-rank percentile of unsorted values (sorts them in place).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    sort(values);
    percentile_sorted(values, p)
}

/// The quiet time of a deterministic op over its repetitions: the low end
/// of the shortest interval that holds half of them.
///
/// Interference only ever adds time, which argues for the low side; but
/// on a shared machine an *undisturbed* core is itself a passing state
/// (see `benchmark/README.md`), so the low side is taken of where most
/// repetitions agree, not of all of them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quiet_low(values: &mut [f64]) -> f64 {
    sort(values);
    let half = values.len().div_ceil(2);
    let width = |start: usize| values[start + half - 1] - values[start];
    // `min_by` keeps the first of equal widths: the lowest such interval.
    let start = (0..=values.len() - half)
        .min_by(|&a, &b| width(a).total_cmp(&width(b)))
        .expect("quiet time of no samples");
    values[start]
}

/// Nearest-rank median.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &mut [f64]) -> f64 {
    sort(values);
    let mid = percentile_sorted(values, 0.5);
    100.0 * (percentile_sorted(values, 0.75) - percentile_sorted(values, 0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_is_its_own_quiet_time_and_quartile() {
        assert_eq!(quiet_low(&mut [7.0]), 7.0);
        assert_eq!(percentile(&mut [7.0], 0.25), 7.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn two_rounds_take_the_quieter_one() {
        assert_eq!(quiet_low(&mut [9.0, 4.0]), 4.0);
        assert_eq!(percentile(&mut [9.0, 4.0], 0.25), 4.0);
        assert_eq!(median(&mut [9.0, 4.0]), 4.0);
        assert_eq!(percentile(&mut [9.0, 4.0], 0.75), 9.0);
    }

    #[test]
    fn twenty_four_rounds() {
        // Evenly spread: every half is as short, the lowest one wins.
        let mut rounds: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(quiet_low(&mut rounds), 1.0);
        assert_eq!(percentile(&mut rounds, 0.25), 6.0);
        assert_eq!(median(&mut rounds), 12.0);
        assert_eq!(percentile(&mut rounds, 0.75), 18.0);
    }

    #[test]
    fn quiet_time_is_the_low_end_of_where_most_rounds_agree() {
        // 24 rounds: 7 on an undisturbed core (77), 13 in the usual state
        // (100..101.2), 4 disturbed. The lower quartile would report 77.
        let mut rounds = vec![77.0; 7];
        rounds.extend((0..13).map(|i| 100.0 + 0.1 * f64::from(i)));
        rounds.extend([109.0, 120.0, 150.0, 300.0]);
        assert_eq!(percentile(&mut rounds.clone(), 0.25), 77.0);
        assert_eq!(quiet_low(&mut rounds), 100.0);
        // Once the undisturbed state is the usual one, it is the answer.
        let mut rounds = vec![77.0; 13];
        rounds.extend((0..11).map(|i| 100.0 + f64::from(i)));
        assert_eq!(quiet_low(&mut rounds), 77.0);
    }

    #[test]
    fn nearest_rank_on_a_known_vector() {
        // The classic five-value example: ranks ⌈p·5⌉.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.05), 15.0);
        assert_eq!(percentile_sorted(&v, 0.30), 20.0);
        assert_eq!(percentile_sorted(&v, 0.40), 20.0);
        assert_eq!(percentile_sorted(&v, 0.50), 35.0);
        assert_eq!(percentile_sorted(&v, 0.99), 50.0);
        assert_eq!(percentile_sorted(&v, 1.0), 50.0);
        assert_eq!(percentile_sorted(&v, 0.0), 15.0);
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 990.0);
        assert_eq!(percentile_sorted(&v, 0.5), 500.0);
    }

    #[test]
    fn iqr_as_a_share_of_the_median() {
        // Quartiles 1 and 3 around median 2.
        assert_eq!(iqr_pct(&mut [4.0, 1.0, 3.0, 2.0]), 100.0);
    }
}
