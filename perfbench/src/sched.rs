//! Scheduler wrappers the benchmark puts between the engine and the
//! scheduler under test: one that times each `decide` call, one that
//! records spans around it, and one that checks the fast path against
//! the exact tape.

use crate::checks;
use crate::trace::Tracer;
use decima_gnn::{FeatureConfig, GraphCache, GraphStructure};
use decima_nn::{ParamStore, Tape};
use decima_policy::DecimaPolicy;
use decima_sim::{Action, Observation, Scheduler};
use std::sync::Arc;
use std::time::Instant;

/// Records the latency of every `decide` call, in nanoseconds, into a
/// buffer the caller sized beforehand (so timing allocates nothing).
pub struct Timed<'a, S> {
    pub inner: S,
    pub lat_ns: &'a mut Vec<u32>,
}

impl<S: Scheduler> Scheduler for Timed<'_, S> {
    fn on_episode_start(&mut self) {
        self.inner.on_episode_start();
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let t = Instant::now();
        let a = self.inner.decide(obs);
        let ns = t.elapsed().as_nanos();
        self.lat_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        a
    }
}

/// What the featurize probe saw: the GNN layer's load per decision.
#[derive(Default)]
pub struct ProbeCounts {
    /// Decisions featurized.
    pub decisions: u64,
    /// Graph nodes featurized, summed over decisions.
    pub nodes: u64,
    /// Schedulable candidates, summed over decisions.
    pub candidates: u64,
    /// Decisions whose graph structure was not the previous one's.
    pub structure_changes: u64,
}

/// Featurizes each observation the way the policy does, on its own
/// [`GraphCache`] with the policy's capacity, so the GNN input layer is
/// timed apart from the rest of the decision.
pub struct FeaturizeProbe {
    feat: FeatureConfig,
    cache: GraphCache,
    last: Option<Arc<GraphStructure>>,
    pub counts: ProbeCounts,
}

impl FeaturizeProbe {
    pub fn new(policy: &DecimaPolicy) -> Self {
        FeaturizeProbe {
            feat: policy.cfg.feat,
            cache: GraphCache::with_cap(policy.cfg.graph_cache_cap),
            last: None,
            counts: ProbeCounts::default(),
        }
    }

    /// Starts a new episode (fresh specs, so the cache must not carry over).
    pub fn reset(&mut self) {
        self.cache.clear();
        self.last = None;
    }

    /// Featurizes `obs` inside a `gnn.featurize` span.
    pub fn featurize(&mut self, obs: &Observation, tracer: &mut Tracer) {
        let span = tracer.open("gnn.featurize");
        let graph = self.feat.graph_input_cached(obs, &mut self.cache);
        tracer.close(span);
        self.counts.decisions += 1;
        self.counts.nodes += graph.num_nodes() as u64;
        self.counts.candidates += obs.schedulable.len() as u64;
        // Holding the previous structure keeps its address from being
        // reused, so pointer equality means "the same structure".
        if !self
            .last
            .as_ref()
            .is_some_and(|l| Arc::ptr_eq(l, &graph.structure))
        {
            self.counts.structure_changes += 1;
            self.last = Some(Arc::clone(&graph.structure));
        }
    }
}

/// Records a span named `layer` around every `decide` call, preceded by
/// a `gnn.featurize` span when a probe is attached.
pub struct Traced<'a, S> {
    pub inner: S,
    pub tracer: &'a mut Tracer,
    pub layer: &'static str,
    pub probe: Option<&'a mut FeaturizeProbe>,
    pub candidates: u64,
}

impl<'a, S> Traced<'a, S> {
    pub fn new(inner: S, tracer: &'a mut Tracer, layer: &'static str) -> Self {
        Traced {
            inner,
            tracer,
            layer,
            probe: None,
            candidates: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for Traced<'_, S> {
    fn on_episode_start(&mut self) {
        if let Some(p) = self.probe.as_mut() {
            p.reset();
        }
        self.inner.on_episode_start();
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        if let Some(p) = self.probe.as_mut() {
            p.featurize(obs, self.tracer);
        }
        self.candidates += obs.schedulable.len() as u64;
        let span = self.tracer.open(self.layer);
        let a = self.inner.decide(obs);
        self.tracer.close(span);
        a
    }
}

/// Largest shortfall of a fast-path choice below the tape's best node
/// log-probability, relative to that maximum's magnitude (at least 1),
/// that still counts as an argmax. The fast path is documented to match
/// the tape's logits within 1e-4 relative error, so it may break a
/// near-tie the other way; most gaps measured are below 1e-7, the
/// largest about 1e-5.
pub const ARGMAX_REL_TOL: f64 = 1e-4;

/// Runs the fast-path agent and, on every observation, the exact `f64`
/// tape forward of the same parameters; keeps the first choice that is
/// not an argmax of the tape's node log-probabilities.
pub struct ArgmaxCheck<'a, S> {
    pub agent: S,
    pub policy: &'a DecimaPolicy,
    pub store: &'a ParamStore,
    pub cache: GraphCache,
    pub checked: u64,
    /// Choices that are not the tape's exact argmax, and the largest gap.
    pub inexact: u64,
    pub worst_gap: f64,
    pub failure: Option<String>,
}

impl<S: Scheduler> Scheduler for ArgmaxCheck<'_, S> {
    fn on_episode_start(&mut self) {
        self.cache.clear();
        self.agent.on_episode_start();
    }

    fn decide(&mut self, obs: &Observation) -> Option<Action> {
        let a = self.agent.decide(obs)?;
        let mut tape = Tape::new();
        let fwd = self
            .policy
            .forward_nodes_cached(&mut tape, self.store, obs, &mut self.cache);
        let chosen = fwd
            .cands
            .iter()
            .position(|c| obs.jobs[c.job_idx].id == a.job && c.stage == a.stage.0)
            .unwrap_or(usize::MAX);
        let logp = tape.value(fwd.node_logp).data();
        let max = logp.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if let Some(&l) = logp.get(chosen) {
            if l < max {
                self.inexact += 1;
                self.worst_gap = self.worst_gap.max(max - l);
            }
        }
        if let Err(e) = checks::check_argmax(logp, chosen, ARGMAX_REL_TOL * max.abs().max(1.0)) {
            if self.failure.is_none() {
                self.failure = Some(format!("decision {}: {e}", self.checked));
            }
        }
        self.checked += 1;
        Some(a)
    }
}
