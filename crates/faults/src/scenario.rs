//! Schedule-driven fault scenarios.
//!
//! A [`FaultScenario`] is a list of timestamped [`FaultEvent`]s, each
//! activating one [`FaultKind`] on one [`FaultTarget`] for a time
//! window. Scenarios are pure data: the same scenario applied to the
//! same simulation always produces the same faulty readings, so sweep
//! cells stay content-addressable and bit-replayable.

use serde::{Deserialize, Serialize};

/// What a fault event afflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// One thermal sensor: `(core, index)` where index 0 is the integer
    /// register file sensor and 1 the floating-point one.
    Sensor {
        /// Core owning the sensor.
        core: usize,
        /// Sensor index within the core (0 = int RF, 1 = fp RF).
        index: usize,
    },
    /// Every sensor of (or the actuator of) one core.
    Core {
        /// The afflicted core.
        core: usize,
    },
    /// Every sensor / every core actuator on the chip.
    Chip,
}

impl FaultTarget {
    /// Whether this target covers `(core, index)`.
    pub fn covers_sensor(&self, core: usize, index: usize) -> bool {
        match *self {
            FaultTarget::Sensor { core: c, index: i } => c == core && i == index,
            FaultTarget::Core { core: c } => c == core,
            FaultTarget::Chip => true,
        }
    }

    /// Whether this target covers `core`'s actuators.
    pub fn covers_core(&self, core: usize) -> bool {
        match *self {
            FaultTarget::Sensor { .. } => false,
            FaultTarget::Core { core: c } => c == core,
            FaultTarget::Chip => true,
        }
    }
}

/// The failure mode an event activates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The sensor output is frozen at a constant reading (°C).
    SensorStuck {
        /// The frozen reading.
        value: f64,
    },
    /// The sensor output drifts away from the truth at a constant rate
    /// (°C/s), accumulating from the event's start.
    SensorDrift {
        /// Drift rate (°C/s); positive reads hot, negative reads cold.
        rate: f64,
    },
    /// The reading is unavailable: the sensor returns NaN.
    SensorDropout,
    /// A transient additive spike (°C) for the event window.
    SensorSpike {
        /// Additive error while the event is active.
        amplitude: f64,
    },
    /// Stale telemetry: the sensor reports the reading from `delay`
    /// seconds ago (held at the oldest recorded reading near the start
    /// of history).
    SensorStale {
        /// Reporting delay (s).
        delay: f64,
    },
    /// The core's DVFS level is stuck: controller commands are ignored
    /// and the frequency scale is frozen at its pre-fault value.
    DvfsStuck,
    /// Stop-go gating is ignored: stall commands are issued and
    /// accounted but the core keeps executing.
    GateIgnored,
}

impl FaultKind {
    /// Whether this kind afflicts a sensor (vs an actuator).
    pub fn is_sensor_fault(&self) -> bool {
        !matches!(self, FaultKind::DvfsStuck | FaultKind::GateIgnored)
    }
}

/// One scheduled fault: a kind applied to a target over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Activation time (s of simulated time, inclusive).
    pub start: f64,
    /// Deactivation time (s, exclusive); `f64::INFINITY` for permanent
    /// faults.
    pub end: f64,
    /// What is afflicted.
    pub target: FaultTarget,
    /// The failure mode.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// An event active from `start` to the end of the run.
    pub fn permanent(start: f64, target: FaultTarget, kind: FaultKind) -> Self {
        FaultEvent {
            start,
            end: f64::INFINITY,
            target,
            kind,
        }
    }

    /// Whether the event is active at `time`.
    pub fn active(&self, time: f64) -> bool {
        time >= self.start && time < self.end
    }
}

/// A named, replayable schedule of fault events.
///
/// The empty scenario (`FaultScenario::ideal()`) is the distinguished
/// fault-free case: it injects nothing and adds no per-step work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenario {
    /// Display name (`ideal`, `stuck-hot`, …) used by experiment tables
    /// and ledger variant labels.
    pub name: String,
    /// The schedule, in no particular order; overlapping events apply
    /// in list order.
    pub events: Vec<FaultEvent>,
}

impl FaultScenario {
    /// The fault-free scenario.
    pub fn ideal() -> Self {
        FaultScenario {
            name: "ideal".into(),
            events: Vec::new(),
        }
    }

    /// A named scenario over explicit events.
    pub fn new(name: impl Into<String>, events: Vec<FaultEvent>) -> Self {
        FaultScenario {
            name: name.into(),
            events,
        }
    }

    /// Whether the scenario injects nothing.
    pub fn is_ideal(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Convenience: one sensor stuck at a constant reading from `start`
    /// onward.
    pub fn stuck_sensor(
        name: impl Into<String>,
        core: usize,
        index: usize,
        value: f64,
        start: f64,
    ) -> Self {
        FaultScenario::new(
            name,
            vec![FaultEvent::permanent(
                start,
                FaultTarget::Sensor { core, index },
                FaultKind::SensorStuck { value },
            )],
        )
    }

    /// Convenience: one sensor dropping out (NaN) from `start` onward.
    pub fn dropout_sensor(name: impl Into<String>, core: usize, index: usize, start: f64) -> Self {
        FaultScenario::new(
            name,
            vec![FaultEvent::permanent(
                start,
                FaultTarget::Sensor { core, index },
                FaultKind::SensorDropout,
            )],
        )
    }
}

impl Default for FaultScenario {
    fn default() -> Self {
        FaultScenario::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_empty_and_default() {
        assert!(FaultScenario::ideal().is_ideal());
        assert_eq!(FaultScenario::default(), FaultScenario::ideal());
        assert_eq!(FaultScenario::ideal().name, "ideal");
    }

    #[test]
    fn event_window_is_half_open() {
        let e = FaultEvent {
            start: 0.1,
            end: 0.2,
            target: FaultTarget::Chip,
            kind: FaultKind::SensorDropout,
        };
        assert!(!e.active(0.099));
        assert!(e.active(0.1));
        assert!(e.active(0.199_999));
        assert!(!e.active(0.2));
    }

    #[test]
    fn permanent_events_never_end() {
        let e = FaultEvent::permanent(0.05, FaultTarget::Core { core: 1 }, FaultKind::DvfsStuck);
        assert!(e.active(1e9));
        assert!(!e.active(0.049));
    }

    #[test]
    fn targets_cover_expected_sensors() {
        let s = FaultTarget::Sensor { core: 2, index: 1 };
        assert!(s.covers_sensor(2, 1));
        assert!(!s.covers_sensor(2, 0));
        assert!(!s.covers_sensor(1, 1));
        assert!(!s.covers_core(2));

        let c = FaultTarget::Core { core: 0 };
        assert!(c.covers_sensor(0, 0) && c.covers_sensor(0, 1));
        assert!(!c.covers_sensor(1, 0));
        assert!(c.covers_core(0) && !c.covers_core(3));

        assert!(FaultTarget::Chip.covers_sensor(7, 1));
        assert!(FaultTarget::Chip.covers_core(7));
    }

    #[test]
    fn sensor_vs_actuator_kinds() {
        assert!(FaultKind::SensorDropout.is_sensor_fault());
        assert!(FaultKind::SensorStuck { value: 99.0 }.is_sensor_fault());
        assert!(!FaultKind::DvfsStuck.is_sensor_fault());
        assert!(!FaultKind::GateIgnored.is_sensor_fault());
    }

    #[test]
    fn builders_produce_expected_schedules() {
        let s = FaultScenario::stuck_sensor("stuck", 1, 0, 150.0, 0.2);
        assert!(!s.is_ideal());
        assert_eq!(s.events.len(), 1);
        assert!(matches!(
            s.events[0].kind,
            FaultKind::SensorStuck { value } if (value - 150.0).abs() < 1e-12
        ));
        let d = FaultScenario::dropout_sensor("drop", 0, 1, 0.1).with_event(FaultEvent::permanent(
            0.3,
            FaultTarget::Chip,
            FaultKind::GateIgnored,
        ));
        assert_eq!(d.events.len(), 2);
    }

    #[test]
    fn debug_repr_is_stable_for_cache_keys() {
        // The content-addressed result cache folds `{scenario:?}` into
        // cell keys; pin the spelling so a formatting change (which
        // would silently orphan cached faulty cells) fails loudly.
        let s = FaultScenario::stuck_sensor("stuck-hot", 0, 0, 150.0, 0.1);
        let repr = format!("{s:?}");
        assert!(repr.contains("stuck-hot"));
        assert!(repr.contains("SensorStuck"));
        assert!(repr.contains("150.0"));
    }
}
