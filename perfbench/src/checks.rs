//! Output checks, run outside the timed sections. Each returns `Err`
//! naming what is wrong; any error fails the run.

use decima_nn::ParamStore;
use decima_sim::{EpisodeOutcome, EpisodeResult};

/// Relative tolerance between the engine's cost integral and the JCT
/// sum rebuilt from arrival and completion stamps (they agree to about
/// 1e-14 in practice; the slack covers summation order only).
pub const LITTLE_REL_TOL: f64 = 1e-9;

/// A served episode is whole and consistent:
/// * it ended `Drained` with every generated job completed;
/// * Little's law: the engine's running cost integral
///   (`total_penalty`, ∫ jobs-in-system dt) equals the sum of JCTs taken
///   from the jobs' own stamps — two totals reached by independent paths;
/// * capacity: the executed work fits in executors × episode length.
pub fn check_episode(r: &EpisodeResult, jobs: usize, executors: usize) -> Result<(), String> {
    if r.outcome != EpisodeOutcome::Drained {
        return Err(format!("episode ended {:?}, not Drained", r.outcome));
    }
    if r.jobs.len() != jobs {
        return Err(format!(
            "{} job outcomes for {jobs} generated jobs",
            r.jobs.len()
        ));
    }
    if r.completed() != jobs {
        return Err(format!("{} of {jobs} jobs completed", r.completed()));
    }
    let penalty = r.total_penalty();
    let jct_sum: f64 = r
        .jobs
        .iter()
        .map(|j| j.completion.map_or(f64::NAN, |c| c.as_secs()) - j.arrival.as_secs())
        .sum();
    let rel = (penalty - jct_sum).abs() / jct_sum.abs().max(1e-300);
    if rel.is_nan() || rel > LITTLE_REL_TOL {
        return Err(format!(
            "Little's law: cost integral {penalty} vs JCT sum {jct_sum} (relative gap {rel:e})"
        ));
    }
    let work: f64 = r.jobs.iter().map(|j| j.executed_work).sum();
    let capacity = executors as f64 * r.end_time.as_secs();
    if work.is_nan() || work > capacity * (1.0 + 1e-12) {
        return Err(format!(
            "capacity: executed work {work} exceeds {executors} executors x {} s",
            r.end_time.as_secs()
        ));
    }
    Ok(())
}

/// The determinism contract: every round of one seed takes the same
/// number of decisions and reaches the same average JCT, bit for bit.
pub fn check_same_round(first: (u64, f64), this: (u64, f64), round: usize) -> Result<(), String> {
    if first.0 != this.0 || first.1.to_bits() != this.1.to_bits() {
        return Err(format!(
            "round {round}: {} decisions / avg JCT {} differ from the first round's {} / {}",
            this.0, this.1, first.0, first.1
        ));
    }
    Ok(())
}

/// The fast path chose an argmax of the exact tape's node
/// log-probabilities: `chosen` is within `tol` of the maximum.
pub fn check_argmax(logp: &[f64], chosen: usize, tol: f64) -> Result<(), String> {
    let max = logp.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match logp.get(chosen) {
        Some(&l) if l >= max - tol => Ok(()),
        Some(&l) => Err(format!(
            "fast path chose candidate {chosen} (log-prob {l}) below the tape's maximum {max}"
        )),
        None => Err(format!(
            "fast path chose candidate {chosen} of {} candidates",
            logp.len()
        )),
    }
}

/// Two parameter stores are bit-identical and every value is finite.
pub fn check_params(a: &ParamStore, b: &ParamStore) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} vs {} parameter tensors", a.len(), b.len()));
    }
    for i in 0..a.len() {
        let (x, y) = (a.value(i).data(), b.value(i).data());
        if x.len() != y.len() {
            return Err(format!(
                "parameter {} has {} vs {} values",
                a.name(i),
                x.len(),
                y.len()
            ));
        }
        for (k, (u, v)) in x.iter().zip(y).enumerate() {
            if !u.is_finite() {
                return Err(format!("parameter {}[{k}] is {u}", a.name(i)));
            }
            if u.to_bits() != v.to_bits() {
                return Err(format!("parameter {}[{k}]: {u} vs {v}", a.name(i)));
            }
        }
    }
    Ok(())
}

/// A 64-bit FNV-1a fingerprint of every parameter's bits, for comparing
/// the outcome of rounds without keeping a copy of each store.
pub fn params_fingerprint(s: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..s.len() {
        for v in s.value(i).data() {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use decima_baselines::WeightedFairScheduler;
    use decima_core::SimTime;
    use decima_nn::Tensor;
    use decima_rl::{EnvFactory, SpecEnv};
    use decima_sim::Simulator;
    use decima_workload::WorkloadSpec;

    fn episode() -> (EpisodeResult, usize, usize) {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(40, 10, 20.0));
        let (cluster, jobs, cfg) = env.build(3);
        let n = jobs.len();
        let r = Simulator::new(cluster, jobs, cfg).run(WeightedFairScheduler::fair());
        (r, n, 10)
    }

    #[test]
    fn a_sound_episode_passes() {
        let (r, n, e) = episode();
        check_episode(&r, n, e).unwrap();
    }

    #[test]
    fn a_shifted_jct_is_rejected() {
        let (mut r, n, e) = episode();
        let c = r.jobs[7].completion.unwrap();
        r.jobs[7].completion = Some(SimTime::from_secs(c.as_secs() + 0.5));
        let err = check_episode(&r, n, e).unwrap_err();
        assert!(err.contains("Little"), "{err}");
    }

    #[test]
    fn an_unfinished_job_is_rejected() {
        let (mut r, n, e) = episode();
        r.jobs[3].completion = None;
        let err = check_episode(&r, n, e).unwrap_err();
        assert!(err.contains("completed"), "{err}");
        let (mut r, n, e) = episode();
        r.outcome = EpisodeOutcome::Horizon;
        assert!(check_episode(&r, n, e).is_err());
    }

    #[test]
    fn excess_work_is_rejected() {
        let (mut r, n, e) = episode();
        r.jobs[0].executed_work += e as f64 * r.end_time.as_secs();
        let err = check_episode(&r, n, e).unwrap_err();
        assert!(err.contains("capacity"), "{err}");
    }

    #[test]
    fn a_different_round_is_rejected() {
        check_same_round((10, 1.5), (10, 1.5), 2).unwrap();
        assert!(check_same_round((10, 1.5), (11, 1.5), 2).is_err());
        assert!(check_same_round((10, 1.5), (10, 1.5 + f64::EPSILON), 2).is_err());
    }

    #[test]
    fn a_non_argmax_choice_is_rejected() {
        let logp = [-2.0, -0.5, -0.5 - 1e-9, -3.0];
        check_argmax(&logp, 1, 1e-6).unwrap();
        check_argmax(&logp, 2, 1e-6).unwrap();
        assert!(check_argmax(&logp, 0, 1e-6).is_err());
        assert!(check_argmax(&logp, 4, 1e-6).is_err());
    }

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]));
        s.add("b", Tensor::from_vec(1, 2, vec![0.0, 1e-3]));
        s
    }

    #[test]
    fn a_perturbed_parameter_is_rejected() {
        let a = store();
        let mut b = store();
        check_params(&a, &b).unwrap();
        assert_eq!(params_fingerprint(&a), params_fingerprint(&b));
        let v = b.value_mut(1).data_mut();
        v[1] = f64::from_bits(v[1].to_bits() + 1);
        let err = check_params(&a, &b).unwrap_err();
        assert!(err.contains("b[1]"), "{err}");
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
    }

    #[test]
    fn a_non_finite_parameter_is_rejected() {
        let mut a = store();
        a.value_mut(0).data_mut()[2] = f64::NAN;
        let b = a.clone();
        assert!(check_params(&a, &b).is_err());
    }
}
