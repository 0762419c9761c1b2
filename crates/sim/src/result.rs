//! Simulation outcome and statistics.

use crate::costs::cycles_to_secs;
use gprs_analyze::AnalysisReport;
use gprs_core::racecheck::Race;
use gprs_telemetry::TelemetrySummary;
use std::fmt;

/// Outcome of one simulated program run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name.
    pub name: String,
    /// Scheme label ("Pthreads", "P-CPR", "GPRS-B", …).
    pub scheme: String,
    /// Whether the program completed within the time cap. `false` is the
    /// paper's "DNC" (did not complete).
    pub completed: bool,
    /// Virtual finish time in cycles (the cap value if `!completed`).
    pub finish_cycles: u64,
    /// Sub-threads created (GPRS engines only).
    pub subthreads: u64,
    /// Checkpoints recorded (per sub-thread for GPRS, per barrier epoch ×
    /// threads for CPR).
    pub checkpoints: u64,
    /// Checkpoints skipped because the static restartability proof showed
    /// the boundary read-only (`GprsSimConfig::with_elision`; 0 when
    /// elision is off).
    pub checkpoints_elided: u64,
    /// Total cycles spent recording checkpoints (`t_s` summed).
    pub ckpt_cycles: u64,
    /// Total cycles threads spent waiting for their deterministic turn
    /// (`t_g`'s wait component, GPRS only).
    pub ordering_wait_cycles: u64,
    /// Wasted turns: the holder polled an empty FIFO and passed the token.
    pub polls: u64,
    /// Total cycles threads spent waiting at program or checkpoint barriers.
    pub barrier_wait_cycles: u64,
    /// Exceptions delivered to the recovery system.
    pub exceptions: u64,
    /// Exceptions that struck an idle context and were ignored.
    pub exceptions_ignored: u64,
    /// Sub-threads squashed by recovery (GPRS) — or, for CPR, the number of
    /// global rollbacks.
    pub squashed: u64,
    /// Total re-executed + restore cycles charged by recovery.
    pub redo_cycles: u64,
    /// Peak reorder-list occupancy (GPRS only).
    pub rol_peak: usize,
    /// End-of-run telemetry: determinism hashes, metrics, and the event
    /// trace, merged when read (the same [`TelemetrySummary`] type embedded in
    /// `gprs_runtime::RunReport`). The simulator is single-threaded, so the
    /// summary — including event sequence numbers — is fully deterministic
    /// and participates in `PartialEq` determinism comparisons.
    pub telemetry: TelemetrySummary,
    /// Data races flagged by the happens-before detector
    /// (`GprsSimConfig::with_racecheck`; 0 when the detector is off).
    pub races: u64,
    /// The first race in retired order, when the detector found one.
    pub first_race: Option<Race>,
    /// The ahead-of-run static analysis report
    /// (`GprsSimConfig::with_analysis`; `None` when analysis is off).
    pub analysis: Option<AnalysisReport>,
    /// The named divergence that aborted a replayed run
    /// (`GprsSimConfig::with_replay`): the live simulation performed a
    /// turn-consuming event the recording did not grant (or vice versa).
    /// Always accompanied by `completed == false`; `None` on clean runs.
    pub replay_divergence: Option<String>,
}

impl SimResult {
    /// Creates an empty result for the given workload and scheme.
    pub fn new(name: impl Into<String>, scheme: impl Into<String>) -> Self {
        SimResult {
            name: name.into(),
            scheme: scheme.into(),
            completed: false,
            finish_cycles: 0,
            subthreads: 0,
            checkpoints: 0,
            checkpoints_elided: 0,
            ckpt_cycles: 0,
            ordering_wait_cycles: 0,
            polls: 0,
            barrier_wait_cycles: 0,
            exceptions: 0,
            exceptions_ignored: 0,
            squashed: 0,
            redo_cycles: 0,
            rol_peak: 0,
            telemetry: TelemetrySummary::default(),
            races: 0,
            first_race: None,
            analysis: None,
            replay_divergence: None,
        }
    }

    /// Finish time in simulated seconds.
    pub fn finish_secs(&self) -> f64 {
        cycles_to_secs(self.finish_cycles)
    }

    /// Execution time relative to a baseline run (the y-axis of Figures
    /// 8–10). Returns `None` if either run did not complete.
    pub fn relative_to(&self, baseline: &SimResult) -> Option<f64> {
        (self.completed && baseline.completed && baseline.finish_cycles > 0)
            .then(|| self.finish_cycles as f64 / baseline.finish_cycles as f64)
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.completed {
            write!(
                f,
                "{} [{}]: {:.3}s ({} subthreads, {} ckpts, {} exceptions, {} squashed)",
                self.name,
                self.scheme,
                self.finish_secs(),
                self.subthreads,
                self.checkpoints,
                self.exceptions,
                self.squashed
            )
        } else {
            write!(f, "{} [{}]: DNC", self.name, self.scheme)
        }
    }
}

/// Harmonic mean of relative execution times — the HM bars of Figure 8.
///
/// Returns `None` for an empty input or any non-positive value.
pub fn harmonic_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    Some(values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_needs_completion() {
        let mut a = SimResult::new("x", "GPRS");
        let mut b = SimResult::new("x", "Pthreads");
        a.finish_cycles = 150;
        b.finish_cycles = 100;
        assert_eq!(a.relative_to(&b), None);
        a.completed = true;
        b.completed = true;
        assert_eq!(a.relative_to(&b), Some(1.5));
    }

    #[test]
    fn harmonic_mean_matches_hand_calc() {
        let hm = harmonic_mean(&[1.0, 2.0]).unwrap();
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), None);
        assert_eq!(harmonic_mean(&[1.0, 0.0]), None);
    }

    #[test]
    fn display_shows_dnc() {
        let r = SimResult::new("pbzip2", "P-CPR");
        assert!(r.to_string().contains("DNC"));
    }
}
