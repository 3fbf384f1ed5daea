//! The GA engine behind the [`Strategy`] trait.
//!
//! `ga::GaState` speaks ask/tell natively, so this is plain delegation:
//! every published experiment number that came from the engine comes
//! out of the strategy bit for bit.

use std::sync::Arc;

use ga::{GaConfig, GaState, GenTiming, Genome, Ranges};

use crate::{Strategy, StrategySnapshot};

/// `ga::GaState` as a [`Strategy`].
pub struct Ga {
    state: GaState,
}

impl Ga {
    /// Seeds a fresh GA; panics on an invalid config, like `GaState::new`.
    pub fn new(ranges: Ranges, config: GaConfig) -> Self {
        Ga {
            state: GaState::new(ranges, config),
        }
    }

    /// Wraps an already-running engine (e.g. restored from a snapshot).
    pub fn from_state(state: GaState) -> Self {
        Ga { state }
    }

    /// The underlying engine, for callers that want its full history.
    pub fn state(&self) -> &GaState {
        &self.state
    }
}

impl Strategy for Ga {
    fn kind(&self) -> &'static str {
        "ga"
    }

    fn config(&self) -> &GaConfig {
        self.state.config()
    }

    fn ask(&mut self) -> Vec<Genome> {
        self.state.ask()
    }

    fn tell(&mut self, batch: &[Genome], scores: &[f64]) {
        self.state.tell(batch, scores);
    }

    fn is_done(&self) -> bool {
        self.state.is_done()
    }

    fn best(&self) -> Option<(Genome, f64)> {
        self.state.best().map(|(g, f)| (g.clone(), f))
    }

    fn evaluations(&self) -> usize {
        self.state.evaluations()
    }

    fn cache_hits(&self) -> usize {
        self.state.cache_hits()
    }

    fn rounds(&self) -> usize {
        self.state.generation()
    }

    fn snapshot(&self) -> StrategySnapshot {
        StrategySnapshot::Ga(self.state.snapshot())
    }

    fn set_obs(&mut self, registry: Arc<obs::Registry>) {
        self.state.set_obs(registry);
    }

    fn last_timing(&self) -> Option<GenTiming> {
        self.state.last_timing()
    }
}
