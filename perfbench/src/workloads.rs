//! The three workloads. Each is a closed loop: the engine asks for the
//! next decision only after the previous one returns, and arrivals are
//! batched or Poisson in simulated time, so the offered load does not
//! depend on the machine.
//!
//! A workload is measured in *rounds*: a round repeats exactly the same
//! operations on exactly the same inputs (one whole episode, or a fixed
//! number of training iterations from the same initial policy), so every
//! round of one seed takes the same decisions and reaches the same
//! result, which the run checks.

use crate::checks;
use crate::sched::{ArgmaxCheck, FeaturizeProbe, Timed, Traced};
use crate::stats::percentile;
use crate::trace::{merged_totals, LayerTotals, Tracer};
use decima_baselines::WeightedFairScheduler;
use decima_bench::factory::{build_trainer, TrainedPolicy};
use decima_bench::scenario::TrainSpec;
use decima_core::{ClusterSpec, JobId, JobSpec, SimTime};
use decima_gnn::GraphCache;
use decima_nn::Tape;
use decima_policy::{DecimaAgent, ReplayObs};
use decima_rl::{
    learner, EnvFactory, MovingAvg, SpecEnv, TrainConfig, Trainer, Trajectory, SIM_SEED_SALT,
};
use decima_sim::{EpisodeResult, Observation, Scheduler, SimConfig, Simulator};
use decima_workload::{tpch_job_scaled, WorkloadSpec, INPUT_SIZES_GB, NUM_QUERIES};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

// ---- inputs -------------------------------------------------------------

/// `sim_stream`: jobs per episode. Tens of thousands, so the job arena
/// retires and recycles continuously and an episode lasts about 2 s.
pub const SIM_JOBS: usize = 20_000;
/// `sim_stream`: executors (a large cluster).
pub const SIM_EXECUTORS: usize = 128;
/// `sim_stream`: mean Poisson interarrival time in simulated seconds,
/// which holds per-executor load at that of 8 executors at 96 s.
pub const SIM_IAT: f64 = 96.0 * 8.0 / SIM_EXECUTORS as f64;

/// `decima_serve`: the checkpoint served, relative to the repository root.
pub const SERVE_CHECKPOINT: &str = "perfbench/decima_serve.ckpt";
/// `decima_serve`: copies of each TPC-H `(query, input size)` pair in
/// the served stream.
pub const SERVE_MIX_COPIES: usize = 15;
/// `decima_serve`: jobs per episode.
pub const SERVE_JOBS: usize = SERVE_MIX_COPIES * NUM_QUERIES as usize * INPUT_SIZES_GB.len();
/// `decima_serve`: executors (must match the checkpoint's policy).
pub const SERVE_EXECUTORS: usize = 25;
/// `decima_serve`: mean interarrival time in simulated seconds (load near,
/// but below, what the policy can serve on this cluster).
pub const SERVE_IAT: f64 = 36.0;

/// `train`: copies of each TPC-H `(query, input size)` pair per round.
pub const TRAIN_MIX_COPIES: usize = 1;
/// `train`: jobs per batched episode.
pub const TRAIN_JOBS: usize = 12;
/// Task-count divisor of the TPC-H templates where the benchmark builds
/// jobs itself (the standard scaled-down setting of `WorkloadSpec`).
pub const TASK_SCALE: f64 = 8.0;
/// `train`: executors.
pub const TRAIN_EXECUTORS: usize = 15;
/// `train`: rollouts per iteration.
pub const TRAIN_ROLLOUTS: usize = 2;
/// `train`: iterations per round, each round from the same fresh policy:
/// as many as the round's job multiset fills batches.
pub const TRAIN_ITERS: usize =
    TRAIN_MIX_COPIES * NUM_QUERIES as usize * INPUT_SIZES_GB.len() / TRAIN_JOBS;
/// `train`: the recipe seed that initialises the policy and drives the
/// trainer's own random stream; pinned, so that `--seed` varies only how
/// the jobs are batched and the initial network is the same in every run.
pub const TRAIN_RECIPE_SEED: u64 = 11;
/// Decide latencies a round must have for its p99 to rest on at least
/// ten samples.
pub const PROBE_MIN_DECISIONS: usize = 1_000;

// ---- results ------------------------------------------------------------

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The figures of one round, timed and then checked.
#[derive(Clone, Debug)]
pub struct Round {
    /// Wall seconds of each timed part of the round: one whole episode,
    /// or one training iteration. Part `i` does the same work in every
    /// round, so its median over rounds discards a disturbance that hit
    /// only some of them.
    pub parts_s: Vec<f64>,
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Mean simulated JCT of the round's completed jobs.
    pub avg_jct: f64,
    /// Median and 99th-percentile decide latency over the round, in ns.
    pub decide_ns: (u32, u32),
}

/// The per-layer figures of a traced run and the traced walls of its
/// rounds (tracing probes excluded), from which the overhead follows.
pub struct TraceOut {
    pub layers: BTreeMap<&'static str, f64>,
    pub walls: Vec<f64>,
    pub tracers: Vec<Tracer>,
}

/// A workload, set up and ready to run rounds.
pub trait Workload {
    /// One untraced round: timed, then checked.
    fn round(&mut self) -> Result<Round, String>;
    /// Checks run once after the timed rounds.
    fn final_checks(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Traced rounds until `budget_s` has passed (at least one).
    fn traced(&mut self, epoch: Instant, budget_s: f64) -> Result<TraceOut, String>;
}

/// Builds the named workload from its seed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim_stream" => Box::new(SimStream::new(seed)),
        "decima_serve" => Box::new(DecimaServe::new(seed)?),
        "train" => Box::new(Train::new(seed)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Workload names the binary accepts. `BENCHMARK.json` gates `sim_stream`
/// and `train`; `decima_serve` is run by hand (its timings do not repeat
/// on a shared host, see `perfbench/README.md`).
pub const WORKLOADS: &[&str] = &["sim_stream", "decima_serve", "train"];

/// The per-layer metrics and their units. Every traced run reports all
/// of them; a layer that a workload does not run reads 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workload.build_s", "s"),
    ("sim.self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.allocs_per_decision", "count"),
    ("sim.event_queue_hwm", "count"),
    ("sim.live_jobs_peak", "count"),
    ("sim.result_bytes", "B"),
    ("baselines.decide_s", "s"),
    ("baselines.allocs_per_decision", "count"),
    ("gnn.featurize_us", "us"),
    ("gnn.featurize_allocs", "count"),
    ("gnn.featurize_bytes", "B"),
    ("gnn.structure_changes", "count"),
    ("gnn.nodes_per_decision", "count"),
    ("policy.encode_heads_us", "us"),
    ("policy.allocs_per_decision", "count"),
    ("policy.candidates_per_decision", "count"),
    ("policy.tape_forward_us", "us"),
    ("rl.rollout_s", "s"),
    ("rl.gradient_s", "s"),
    ("rl.learner_s", "s"),
    ("nn.backward_us", "us"),
    ("nn.adam_step_us", "us"),
    ("host.cpu_s", "s"),
    ("host.involuntary_switches", "count"),
    ("trace.overhead_pct", "%"),
];

/// Bytes held by an episode's per-action and per-job records, from
/// their lengths and sizes.
pub fn result_bytes(r: &EpisodeResult) -> u64 {
    use decima_sim::{ActionRecord, JobOutcome};
    let actions = r.actions.len() * std::mem::size_of::<ActionRecord>();
    let jobs: usize = r
        .jobs
        .iter()
        .map(|j| std::mem::size_of::<JobOutcome>() + j.name.len() + j.class_busy.len() * 8)
        .sum();
    (actions + jobs) as u64
}

/// Engine-side figures of the traced episodes, summed.
#[derive(Default)]
struct EpisodeCounts {
    episodes: u64,
    decisions: u64,
    events: u64,
    result_bytes: u64,
    queue_hwm: u64,
    live_peak: u64,
}

impl EpisodeCounts {
    fn add(&mut self, r: &EpisodeResult) {
        self.episodes += 1;
        self.decisions += r.actions.len() as u64;
        self.events += r.num_events;
        self.result_bytes += result_bytes(r);
        self.queue_hwm = self.queue_hwm.max(r.mem.event_queue_hwm);
        self.live_peak = self.live_peak.max(r.mem.live_jobs_peak);
    }

    /// The `sim.*` metrics from the `sim.episode` spans, whose children
    /// are everything the scheduler did.
    fn sim_layers(
        &self,
        totals: &BTreeMap<&str, LayerTotals>,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let ep = totals.get("sim.episode").copied().unwrap_or_default();
        let n = self.episodes.max(1) as f64;
        out.insert("sim.self_s", ep.self_s() / n);
        out.insert(
            "sim.ns_per_event",
            ep.self_ns as f64 / self.events.max(1) as f64,
        );
        out.insert("sim.events", self.events as f64 / n);
        out.insert(
            "sim.allocs_per_decision",
            ep.self_allocs as f64 / self.decisions.max(1) as f64,
        );
        out.insert("sim.event_queue_hwm", self.queue_hwm as f64);
        out.insert("sim.live_jobs_peak", self.live_peak as f64);
        out.insert("sim.result_bytes", self.result_bytes as f64 / n);
    }
}

/// Exact median and p99 of one round's decide latencies.
fn latency_pair(lat: &mut [u32]) -> Result<(u32, u32), String> {
    if lat.len() < PROBE_MIN_DECISIONS {
        return Err(format!("only {} decide latencies in a round", lat.len()));
    }
    Ok((percentile(lat, 0.5), percentile(lat, 0.99)))
}

/// One episode of `sched`, timed with each decide call, then checked.
fn timed_episode(
    sim: Simulator,
    sched: impl Scheduler,
    lat: &mut Vec<u32>,
    jobs: usize,
    executors: usize,
) -> Result<Round, String> {
    lat.clear();
    let t = Instant::now();
    let r = sim.run(Timed {
        inner: sched,
        lat_ns: lat,
    });
    let wall_s = t.elapsed().as_secs_f64();
    checks::check_episode(&r, jobs, executors)?;
    Ok(Round {
        parts_s: vec![wall_s],
        decisions: r.actions.len() as u64,
        avg_jct: r.avg_jct().unwrap_or(f64::NAN),
        decide_ns: latency_pair(lat)?,
    })
}

// ---- sim_stream ---------------------------------------------------------

/// The `fair` heuristic serving a long Poisson stream of TPC-H jobs: the
/// engine does most of the work.
struct SimStream {
    cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
    cfg: SimConfig,
    build_s: f64,
    lat: Vec<u32>,
}

impl SimStream {
    fn new(seed: u64) -> Self {
        let env = SpecEnv::new(WorkloadSpec::tpch_stream(SIM_JOBS, SIM_EXECUTORS, SIM_IAT));
        let t = Instant::now();
        let (cluster, jobs, cfg) = env.build(seed);
        let build_s = t.elapsed().as_secs_f64();
        SimStream {
            cluster,
            jobs,
            cfg,
            build_s,
            lat: Vec::new(),
        }
    }

    fn simulator(&self) -> Simulator {
        Simulator::new(self.cluster.clone(), self.jobs.clone(), self.cfg.clone())
    }
}

impl Workload for SimStream {
    fn round(&mut self) -> Result<Round, String> {
        let sim = self.simulator();
        let fair = WeightedFairScheduler::fair();
        timed_episode(sim, fair, &mut self.lat, SIM_JOBS, SIM_EXECUTORS)
    }

    fn traced(&mut self, epoch: Instant, budget_s: f64) -> Result<TraceOut, String> {
        let per_round = self.lat.capacity() + 16;
        let mut tracer = Tracer::new(epoch, tracer_capacity(per_round));
        let mut counts = EpisodeCounts::default();
        let mut walls = Vec::new();
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < budget_s {
            if tracer.spans().len() + per_round > tracer_capacity(per_round) {
                break;
            }
            let sim = self.simulator();
            let ep = tracer.open("sim.episode");
            let r = sim.run(Traced::new(
                WeightedFairScheduler::fair(),
                &mut tracer,
                "baselines.decide",
            ));
            tracer.close(ep);
            let s = &tracer.spans()[ep as usize];
            walls.push((s.end_ns - s.start_ns) as f64 * 1e-9);
            checks::check_episode(&r, SIM_JOBS, SIM_EXECUTORS)?;
            counts.add(&r);
        }
        let totals = merged_totals([&tracer]);
        let mut layers = BTreeMap::new();
        layers.insert("workload.build_s", self.build_s);
        counts.sim_layers(&totals, &mut layers);
        let d = totals.get("baselines.decide").copied().unwrap_or_default();
        layers.insert(
            "baselines.decide_s",
            d.total_s() / counts.episodes.max(1) as f64,
        );
        layers.insert(
            "baselines.allocs_per_decision",
            d.allocs as f64 / counts.decisions.max(1) as f64,
        );
        Ok(TraceOut {
            layers,
            walls,
            tracers: vec![tracer],
        })
    }
}

/// Traced rounds at most per traced run: spans of every traced round are
/// kept, and a `sim_stream` round alone records over half a million.
const MAX_TRACED_ROUNDS: usize = 2;

/// Span buffer reservation of a traced run.
fn tracer_capacity(per_round: usize) -> usize {
    per_round * MAX_TRACED_ROUNDS
}

// ---- decima_serve -------------------------------------------------------

/// The served stream: the TPC-H mix with every `(query, input size)`
/// pair `SERVE_MIX_COPIES` times, in an order the seed shuffles, arriving
/// as a Poisson process whose gaps are rescaled to end exactly at
/// `SERVE_JOBS × SERVE_IAT`. The seed thus changes the order and the
/// clustering of arrivals but not the offered work or its mean rate,
/// which near saturation would otherwise move the load, the graph sizes
/// and the decision cost from seed to seed by more than the timing
/// noise.
fn serve_stream(seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut mix = tpch_mix(SERVE_MIX_COPIES);
    shuffle(&mut mix, &mut rng);
    let gaps: Vec<f64> = (0..mix.len())
        .map(|_| -(1.0 - rng.gen::<f64>()).ln())
        .collect();
    let scale = SERVE_JOBS as f64 * SERVE_IAT / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    let jobs = mix
        .iter()
        .zip(&gaps)
        .enumerate()
        .map(|(i, (&(q, s), &g))| {
            t += g * scale;
            tpch_job_scaled(q, s, JobId(i as u32), SimTime::from_secs(t), TASK_SCALE)
        })
        .collect();
    let cluster = ClusterSpec::homogeneous(SERVE_EXECUTORS).with_move_delay(1.0);
    (
        cluster,
        jobs,
        SimConfig::default().with_seed(seed ^ SIM_SEED_SALT),
    )
}

/// Every `(query, input size)` pair of the TPC-H mix (§7.2), `copies`
/// times over.
fn tpch_mix(copies: usize) -> Vec<(u16, f64)> {
    (0..copies)
        .flat_map(|_| (1..=NUM_QUERIES).flat_map(|q| INPUT_SIZES_GB.map(|s| (q, s))))
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// A trained Decima policy, loaded from a checkpoint, serving a Poisson
/// stream of TPC-H jobs on the greedy `f32` fast path.
struct DecimaServe {
    snapshot: TrainedPolicy,
    cluster: ClusterSpec,
    jobs: Vec<JobSpec>,
    cfg: SimConfig,
    build_s: f64,
    lat: Vec<u32>,
}

impl DecimaServe {
    fn new(seed: u64) -> Result<Self, String> {
        let trainer = Trainer::load_checkpoint(std::path::Path::new(SERVE_CHECKPOINT))?;
        let snapshot = TrainedPolicy::of(&trainer);
        if snapshot.policy.cfg.total_executors != SERVE_EXECUTORS {
            return Err(format!(
                "{SERVE_CHECKPOINT} holds a policy for {} executors, not {SERVE_EXECUTORS}",
                snapshot.policy.cfg.total_executors
            ));
        }
        let t = Instant::now();
        let (cluster, jobs, cfg) = serve_stream(seed);
        let build_s = t.elapsed().as_secs_f64();
        Ok(DecimaServe {
            snapshot,
            cluster,
            jobs,
            cfg,
            build_s,
            lat: Vec::new(),
        })
    }

    fn simulator(&self) -> Simulator {
        Simulator::new(self.cluster.clone(), self.jobs.clone(), self.cfg.clone())
    }

    /// A fresh fast-path agent per round: the agent keeps a per-decision
    /// record for its whole life, so reusing one would grow memory with
    /// run length.
    fn agent(&self) -> Result<DecimaAgent, String> {
        let agent = self.snapshot.greedy_agent_fast();
        if !agent.uses_fast_infer() {
            return Err("the checkpoint's policy is not covered by the f32 fast path".into());
        }
        Ok(agent)
    }
}

impl Workload for DecimaServe {
    fn round(&mut self) -> Result<Round, String> {
        let agent = self.agent()?;
        let sim = self.simulator();
        timed_episode(sim, agent, &mut self.lat, SERVE_JOBS, SERVE_EXECUTORS)
    }

    fn final_checks(&mut self) -> Result<(), String> {
        let agent = self.agent()?;
        let mut check = ArgmaxCheck {
            agent,
            policy: &self.snapshot.policy,
            store: &self.snapshot.store,
            cache: GraphCache::with_cap(self.snapshot.policy.cfg.graph_cache_cap),
            checked: 0,
            inexact: 0,
            worst_gap: 0.0,
            failure: None,
        };
        let r = self.simulator().run(&mut check);
        checks::check_episode(&r, SERVE_JOBS, SERVE_EXECUTORS)?;
        if check.checked != r.actions.len() as u64 {
            return Err(format!(
                "argmax check saw {} of {} decisions",
                check.checked,
                r.actions.len()
            ));
        }
        eprintln!(
            "perfbench decima_serve: {} fast-path choices checked, {} not the tape's exact argmax (largest gap {:e})",
            check.checked, check.inexact, check.worst_gap
        );
        match check.failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Traced rounds with a span around each decision, then one more
    /// round that also featurizes each observation on its own (in a
    /// tracer of its own, since that extra work would disturb the other
    /// layers' figures and the overhead).
    fn traced(&mut self, epoch: Instant, budget_s: f64) -> Result<TraceOut, String> {
        let per_round = self.lat.capacity() + 16;
        let mut tracer = Tracer::new(epoch, tracer_capacity(per_round));
        let mut counts = EpisodeCounts::default();
        let mut walls = Vec::new();
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < budget_s {
            if tracer.spans().len() + per_round > tracer_capacity(per_round) {
                break;
            }
            let r = self.traced_episode(&mut tracer, None)?;
            let s = tracer
                .spans()
                .iter()
                .rev()
                .find(|s| s.name == "sim.episode");
            walls.push(s.map_or(0, |s| s.end_ns - s.start_ns) as f64 * 1e-9);
            counts.add(&r);
        }
        let mut probe_tracer = Tracer::new(epoch, 2 * per_round);
        let mut probe = FeaturizeProbe::new(&self.snapshot.policy);
        self.traced_episode(&mut probe_tracer, Some(&mut probe))?;

        let totals = merged_totals([&tracer]);
        let feat = merged_totals([&probe_tracer])
            .get("gnn.featurize")
            .copied()
            .unwrap_or_default();
        let decide = totals.get("policy.decide").copied().unwrap_or_default();
        let mut layers = BTreeMap::new();
        layers.insert("workload.build_s", self.build_s);
        counts.sim_layers(&totals, &mut layers);
        let pc = &probe.counts;
        let per_probed = |x: f64| x / pc.decisions.max(1) as f64;
        let featurize_us = per_probed(feat.total_ns as f64 * 1e-3);
        let decisions = counts.decisions.max(1) as f64;
        layers.insert("gnn.featurize_us", featurize_us);
        layers.insert("gnn.featurize_allocs", per_probed(feat.allocs as f64));
        layers.insert("gnn.featurize_bytes", per_probed(feat.bytes as f64));
        layers.insert("gnn.structure_changes", pc.structure_changes as f64);
        layers.insert("gnn.nodes_per_decision", per_probed(pc.nodes as f64));
        layers.insert(
            "policy.encode_heads_us",
            decide.total_ns as f64 * 1e-3 / decisions - featurize_us,
        );
        layers.insert(
            "policy.allocs_per_decision",
            decide.allocs as f64 / decisions,
        );
        layers.insert(
            "policy.candidates_per_decision",
            per_probed(pc.candidates as f64),
        );
        Ok(TraceOut {
            layers,
            walls,
            tracers: vec![tracer, probe_tracer],
        })
    }
}

impl DecimaServe {
    /// One checked episode in a `sim.episode` span, with a `policy.decide`
    /// span around each decision, preceded by `probe`'s featurize if given.
    fn traced_episode(
        &self,
        tracer: &mut Tracer,
        probe: Option<&mut FeaturizeProbe>,
    ) -> Result<EpisodeResult, String> {
        let mut agent = self.agent()?;
        let sim = self.simulator();
        let ep = tracer.open("sim.episode");
        let mut traced = Traced::new(&mut agent, tracer, "policy.decide");
        traced.probe = probe;
        let r = sim.run(traced);
        tracer.close(ep);
        checks::check_episode(&r, SERVE_JOBS, SERVE_EXECUTORS)?;
        Ok(r)
    }
}

// ---- train --------------------------------------------------------------

/// REINFORCE iterations on batched TPC-H: rollouts and the gradient pass
/// through the exact `f64` tape, then an Adam step.
struct Train {
    spec: TrainSpec,
    env: TrainEnv,
    /// Parameter fingerprint after the first round, which every later
    /// round (traced ones included) must reproduce.
    fingerprint: Option<u64>,
    /// Rollout decisions per round, from the first round.
    decisions: u64,
}

impl Train {
    /// Times the rollout agent's `decide` outside the timed iterations:
    /// the trainer's workers own their agents, so their calls cannot be
    /// timed from there. One pass samples on the initial policy over one
    /// episode of each of the round's batches; a pass follows every
    /// round, so its figures get a median over rounds like the others.
    fn decide_probe(
        &self,
        (policy, store): (decima_policy::DecimaPolicy, decima_nn::ParamStore),
    ) -> Result<(u32, u32), String> {
        let mut lat = Vec::with_capacity(self.decisions as usize);
        for k in 0..TRAIN_ITERS {
            let (cluster, jobs, cfg) = self.env.batch(k, k as u64);
            let mut agent = DecimaAgent::recorder(policy.clone(), store.clone(), k as u64);
            let r = Simulator::new(cluster, jobs, cfg).run(Timed {
                inner: &mut agent,
                lat_ns: &mut lat,
            });
            checks::check_episode(&r, TRAIN_JOBS, TRAIN_EXECUTORS)?;
        }
        latency_pair(&mut lat)
    }

    fn new(seed: u64) -> Self {
        let spec = TrainSpec {
            num_rollouts: TRAIN_ROLLOUTS,
            ..TrainSpec::standard(TRAIN_ITERS, TRAIN_RECIPE_SEED)
        };
        let env = TrainEnv::new(seed, &build_trainer(&spec, TRAIN_EXECUTORS).cfg);
        Train {
            spec,
            env,
            fingerprint: None,
            decisions: 0,
        }
    }

    fn trainer(&self) -> Trainer {
        build_trainer(&self.spec, TRAIN_EXECUTORS)
    }

    fn check_fingerprint(&mut self, fp: u64, what: &str) -> Result<(), String> {
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if first != fp => {
                return Err(format!(
                "{what}: parameters after {TRAIN_ITERS} iterations differ from the first round's"
            ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}

impl Workload for Train {
    /// The timed iterations, then (untimed) a pass of the decide probe.
    fn round(&mut self) -> Result<Round, String> {
        let mut trainer = self.trainer();
        let initial = (trainer.policy.clone(), trainer.store.clone());
        let mut parts_s = Vec::with_capacity(TRAIN_ITERS);
        let mut decisions = 0u64;
        let mut jct = 0.0;
        for _ in 0..TRAIN_ITERS {
            let t = Instant::now();
            let s = trainer.train_iteration(&self.env);
            parts_s.push(t.elapsed().as_secs_f64());
            decisions += (s.mean_actions * TRAIN_ROLLOUTS as f64).round() as u64;
            jct += s.mean_avg_jct;
        }
        self.check_fingerprint(checks::params_fingerprint(&trainer.store), "round")?;
        self.decisions = decisions;
        Ok(Round {
            parts_s,
            decisions,
            avg_jct: jct / TRAIN_ITERS as f64,
            decide_ns: self.decide_probe(initial)?,
        })
    }

    /// The trajectory gradient path and the legacy re-simulation path
    /// give bit-identical parameters after one iteration.
    fn final_checks(&mut self) -> Result<(), String> {
        let one = |legacy: bool| {
            let mut t = self.trainer();
            t.cfg.legacy_replay = legacy;
            t.train_iteration(&self.env);
            t.store
        };
        checks::check_params(&one(false), &one(true))
            .map_err(|e| format!("trajectory vs legacy replay: {e}"))
    }

    fn traced(&mut self, epoch: Instant, budget_s: f64) -> Result<TraceOut, String> {
        let worker_cap = self.decisions as usize + 64 * TRAIN_ITERS;
        let main_cap = 16 * TRAIN_ITERS + 3 * self.decisions as usize;
        let mut main = Tracer::new(epoch, tracer_capacity(main_cap));
        let mut workers: Vec<Tracer> = (0..TRAIN_ROLLOUTS)
            .map(|_| Tracer::new(epoch, tracer_capacity(worker_cap)))
            .collect();
        let mut acc = TrainTraceAcc::default();
        let mut walls = Vec::new();
        let start = Instant::now();
        while walls.is_empty() || start.elapsed().as_secs_f64() < budget_s {
            if workers[0].spans().len() + worker_cap > tracer_capacity(worker_cap)
                || main.spans().len() + main_cap > tracer_capacity(main_cap)
            {
                break;
            }
            let mut trainer = self.trainer();
            let wall = traced_round(&mut trainer, &self.env, &mut main, &mut workers, &mut acc)?;
            self.check_fingerprint(checks::params_fingerprint(&trainer.store), "traced round")?;
            walls.push(wall);
        }
        let totals = merged_totals(std::iter::once(&main).chain(&workers));
        let mut layers = BTreeMap::new();
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let build = t("workload.build");
        layers.insert(
            "workload.build_s",
            build.total_s() / build.count.max(1) as f64,
        );
        acc.episodes.sim_layers(&totals, &mut layers);
        let decisions = acc.episodes.decisions.max(1) as f64;
        let (feat, fwd) = (t("gnn.featurize"), t("policy.tape_forward"));
        let probed = feat.count.max(1) as f64;
        layers.insert("gnn.featurize_us", feat.total_ns as f64 * 1e-3 / probed);
        layers.insert("gnn.featurize_allocs", feat.allocs as f64 / probed);
        layers.insert("gnn.featurize_bytes", feat.bytes as f64 / probed);
        layers.insert(
            "gnn.structure_changes",
            acc.probe.structure_changes as f64 / acc.episodes.episodes.max(1) as f64,
        );
        layers.insert("gnn.nodes_per_decision", acc.probe.nodes as f64 / probed);
        let decide = t("policy.decide");
        layers.insert(
            "policy.allocs_per_decision",
            decide.allocs as f64 / decisions,
        );
        layers.insert(
            "policy.candidates_per_decision",
            acc.candidates as f64 / decisions,
        );
        let tape_fwd_us = fwd.total_ns as f64 * 1e-3 / fwd.count.max(1) as f64;
        layers.insert("policy.tape_forward_us", tape_fwd_us);
        let iters = t("rl.iteration").count.max(1) as f64;
        layers.insert("rl.rollout_s", t("rl.rollout").total_s() / iters);
        layers.insert("rl.gradient_s", t("rl.gradient").total_s() / iters);
        layers.insert("rl.learner_s", t("rl.learner").total_s() / iters);
        let grad_pass = t("rl.gradient_pass");
        layers.insert(
            "nn.backward_us",
            grad_pass.total_ns as f64 * 1e-3 / decisions - tape_fwd_us,
        );
        let adam = t("nn.adam_step");
        layers.insert(
            "nn.adam_step_us",
            adam.total_ns as f64 * 1e-3 / adam.count.max(1) as f64,
        );
        let mut tracers = vec![main];
        tracers.extend(workers);
        Ok(TraceOut {
            layers,
            walls,
            tracers,
        })
    }
}

/// The training environment. Every round trains on one fixed multiset of
/// jobs, each `(query, input size)` pair of the TPC-H mix (§7.2)
/// `TRAIN_MIX_COPIES` times; the seed shuffles the multiset into the
/// round's batches. So the seed changes which jobs share a batch and
/// the order of the batches, while a round's total work stays the same
/// for every seed (batches drawn independently would make the work per
/// round vary by more than the timings' own spread).
///
/// The trainer asks for episodes by sequence seed, drawn from its own
/// random stream; with the recipe seed pinned, the sequence seed of
/// iteration `i` is known in advance and names batch `i`.
struct TrainEnv {
    batches: Vec<Vec<(u16, f64)>>,
    by_seq_seed: HashMap<u64, usize>,
}

impl TrainEnv {
    fn new(seed: u64, cfg: &TrainConfig) -> Self {
        let mut mix = tpch_mix(TRAIN_MIX_COPIES);
        shuffle(&mut mix, &mut SmallRng::seed_from_u64(seed));
        let batches: Vec<Vec<(u16, f64)>> = mix.chunks(TRAIN_JOBS).map(<[_]>::to_vec).collect();
        assert_eq!(
            batches.len() * TRAIN_JOBS,
            mix.len(),
            "the mix fills whole batches"
        );
        // The trainer's draws per iteration (no curriculum): the master
        // sequence seed, then one action seed per rollout.
        let mut trainer_rng = SmallRng::seed_from_u64(cfg.seed);
        let mut by_seq_seed = HashMap::new();
        for i in 0..batches.len() {
            let master: u64 = trainer_rng.gen();
            for _ in 0..cfg.num_rollouts {
                let _: u64 = trainer_rng.gen();
            }
            by_seq_seed.insert(master, i);
        }
        TrainEnv {
            batches,
            by_seq_seed,
        }
    }

    /// Batch `i` as an episode: batched arrivals on the training cluster.
    fn batch(&self, i: usize, sim_seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig) {
        let jobs = self.batches[i]
            .iter()
            .enumerate()
            .map(|(j, &(q, s))| tpch_job_scaled(q, s, JobId(j as u32), SimTime::ZERO, TASK_SCALE))
            .collect();
        let cluster = ClusterSpec::homogeneous(TRAIN_EXECUTORS).with_move_delay(1.0);
        (
            cluster,
            jobs,
            SimConfig::default().with_seed(sim_seed ^ SIM_SEED_SALT),
        )
    }
}

impl EnvFactory for TrainEnv {
    fn build(&self, seq_seed: u64) -> (ClusterSpec, Vec<JobSpec>, SimConfig) {
        let i = *self
            .by_seq_seed
            .get(&seq_seed)
            .expect("sequence seeds come from the pinned trainer, one per batch");
        self.batch(i, seq_seed)
    }
}

/// Counts gathered across traced training rounds.
#[derive(Default)]
struct TrainTraceAcc {
    episodes: EpisodeCounts,
    probe: crate::sched::ProbeCounts,
    candidates: u64,
}

/// One traced round: `TRAIN_ITERS` iterations of
/// `Trainer::train_iteration`, rebuilt from the crates' public pieces
/// with a span around each (the trainer's own random stream is
/// reproduced from its seed, and the parameters after the round are
/// checked against the untraced rounds'). After each iteration, outside
/// its span, the rollouts' observations are featurized and run through
/// the tape forward once more to time those layers alone. Returns the
/// summed wall of the iteration spans.
fn traced_round(
    tr: &mut Trainer,
    env: &TrainEnv,
    main: &mut Tracer,
    workers: &mut [Tracer],
    acc: &mut TrainTraceAcc,
) -> Result<f64, String> {
    if tr.cfg.curriculum.is_some() || tr.cfg.differential_reward || tr.cfg.legacy_replay {
        return Err("the traced trainer covers the standard batched recipe only".into());
    }
    let n = tr.cfg.num_rollouts;
    assert_eq!(workers.len(), n, "one worker tracer per rollout");
    let mut rng = SmallRng::seed_from_u64(tr.cfg.seed);
    let mut rate_avg = MovingAvg::new(64);
    let mut wall_ns = 0u64;
    for _ in 0..TRAIN_ITERS {
        let it = main.open("rl.iteration");
        let beta = tr.beta();
        let master: u64 = rng.gen();
        let seq_seeds: Vec<u64> = (0..n)
            .map(|w| {
                if tr.cfg.input_dependent_baseline {
                    master
                } else {
                    master.wrapping_add(w as u64 + 1)
                }
            })
            .collect();
        let act_seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();

        let span = main.open("rl.rollout");
        let (policy, store) = (&tr.policy, &tr.store);
        let rollouts: Vec<(Trajectory, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(seq_seeds.iter().zip(&act_seeds))
                .map(|(wt, (&seq, &act))| {
                    s.spawn(move || {
                        let (cluster, jobs, cfg) = wt.scope("workload.build", || env.build(seq));
                        let mut agent = DecimaAgent::recorder(policy.clone(), store.clone(), act);
                        let ep = wt.open("sim.episode");
                        let mut sched = Traced::new(&mut agent, wt, "policy.decide");
                        let result = Simulator::new(cluster, jobs, cfg).run(&mut sched);
                        let candidates = sched.candidates;
                        wt.close(ep);
                        let traj = Trajectory {
                            seq_seed: seq,
                            observations: agent.observations,
                            choices: agent.records,
                            entropy_sum: agent.entropy_sum,
                            result,
                        };
                        (traj, candidates)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rollout thread panicked"))
                .collect()
        });
        main.close(span);
        let (trajs, cands): (Vec<Trajectory>, Vec<u64>) = rollouts.into_iter().unzip();

        let span = main.open("rl.learner");
        let rewards = learner::scaled_rewards(&trajs, &tr.cfg, &mut rate_avg);
        let advantages = learner::advantages(&trajs, &rewards, tr.cfg.normalize_advantages);
        main.close(span);

        let span = main.open("rl.gradient");
        let grads: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .iter_mut()
                .zip(trajs.iter().zip(advantages))
                .map(|(wt, (t, adv))| {
                    let (policy, store) = (policy.clone(), store.clone());
                    let choices = t.choices.clone();
                    let obs = &t.observations;
                    s.spawn(move || {
                        wt.scope("rl.gradient_pass", || {
                            DecimaAgent::accumulate_from_observations(
                                policy, store, obs, choices, adv, beta,
                            )
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gradient thread panicked"))
                .collect()
        });
        main.close(span);
        for g in &grads {
            tr.store.merge_grads(g);
        }
        tr.store.scale_grads(1.0 / n as f64);
        let _ = tr.store.grad_norm();
        main.scope("nn.adam_step", || tr.opt.step(&mut tr.store));
        tr.iter += 1;
        main.close(it);
        let s = &main.spans()[it as usize];
        wall_ns += s.end_ns - s.start_ns;

        for (t, c) in trajs.iter().zip(cands) {
            acc.episodes.add(&t.result);
            acc.candidates += c;
            probe_tape(tr, &t.observations, &t.choices, main, &mut acc.probe);
        }
    }
    Ok(wall_ns as f64 * 1e-9)
}

/// Featurizes each stored observation and runs the tape forward of its
/// recorded choice (node head, then the limit head of the chosen
/// candidate), each in its own span.
fn probe_tape(
    tr: &Trainer,
    observations: &[ReplayObs],
    choices: &[decima_policy::ActionChoice],
    main: &mut Tracer,
    counts: &mut crate::sched::ProbeCounts,
) {
    let mut probe = FeaturizeProbe::new(&tr.policy);
    let mut cache = GraphCache::with_cap(tr.policy.cfg.graph_cache_cap);
    let mut obs = Observation::default();
    for (o, ch) in observations.iter().zip(choices) {
        o.write_into(&mut obs);
        probe.featurize(&obs, main);
        let span = main.open("policy.tape_forward");
        let mut tape = Tape::new();
        let fwd = tr
            .policy
            .forward_nodes_cached(&mut tape, &tr.store, &obs, &mut cache);
        let cand = fwd.cands[ch.node];
        let _ = tr
            .policy
            .forward_limits(&mut tape, &tr.store, &obs, &fwd, cand);
        main.close(span);
    }
    counts.decisions += probe.counts.decisions;
    counts.nodes += probe.counts.nodes;
    counts.candidates += probe.counts.candidates;
    counts.structure_changes += probe.counts.structure_changes;
}
