//! Functional-unit complement and occupancy tracking (the paper's Table 1).
//!
//! Two configurations are built in: the **default** (suitable for
//! single-threaded SDSP execution, per Wallace & Bagherzadeh) and the
//! **enhanced** ("++" in Figures 11/12) which adds two integer ALUs and one
//! of every other unit. Units within a class are allocated lowest-index
//! first, so the occupancy of the *highest-index* ("extra") unit measures
//! the marginal value of adding it — exactly what the paper's Table 3
//! reports.
//!
//! Latency semantics: an instruction issued at cycle `t` completes (writes
//! back) at `t + latency`. Pipelined classes accept a new instruction every
//! cycle; the iterative dividers (integer and FP) are unpipelined and accept
//! a new instruction only after the previous one completes.

use std::fmt;

use smt_isa::FuClass;

/// Per-class unit count, latency, and pipelining.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClassConfig {
    /// Number of identical units.
    pub count: usize,
    /// Cycles from issue to writeback.
    pub latency: u64,
    /// Whether the unit accepts a new instruction every cycle.
    pub pipelined: bool,
}

/// The functional-unit configuration (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FuConfig {
    classes: [ClassConfig; FuClass::ALL.len()],
}

fn class_index(class: FuClass) -> usize {
    class.index()
}

impl FuConfig {
    /// Table 1's "Default no." column (reconstructed counts; see DESIGN.md).
    #[must_use]
    pub fn paper_default() -> Self {
        let mut cfg = FuConfig {
            classes: [ClassConfig {
                count: 1,
                latency: 1,
                pipelined: true,
            }; FuClass::ALL.len()],
        };
        let set = |cfg: &mut FuConfig, class, count, latency, pipelined| {
            cfg.classes[class_index(class)] = ClassConfig {
                count,
                latency,
                pipelined,
            };
        };
        set(&mut cfg, FuClass::Alu, 4, 1, true);
        set(&mut cfg, FuClass::IntMul, 1, 3, true);
        set(&mut cfg, FuClass::IntDiv, 1, 8, false);
        set(&mut cfg, FuClass::Load, 1, 2, true);
        set(&mut cfg, FuClass::Store, 1, 1, true);
        set(&mut cfg, FuClass::Ctu, 1, 1, true);
        set(&mut cfg, FuClass::FpAdd, 1, 2, true);
        set(&mut cfg, FuClass::FpMul, 1, 4, true);
        set(&mut cfg, FuClass::FpDiv, 1, 12, false);
        set(&mut cfg, FuClass::Sync, 1, 1, true);
        cfg
    }

    /// Table 1's "Other no." column — the enhanced ("++") configuration:
    /// six ALUs and two of every other computational unit.
    #[must_use]
    pub fn paper_enhanced() -> Self {
        let mut cfg = Self::paper_default();
        for class in FuClass::ALL {
            if class == FuClass::Sync {
                continue; // the sync unit is not part of Table 1
            }
            let extra = if class == FuClass::Alu { 2 } else { 1 };
            cfg.classes[class_index(class)].count += extra;
        }
        cfg
    }

    /// Per-class parameters.
    #[must_use]
    pub fn class(&self, class: FuClass) -> ClassConfig {
        self.classes[class_index(class)]
    }

    /// Returns a copy with `class`'s unit count replaced (for ablations).
    #[must_use]
    pub fn with_count(mut self, class: FuClass, count: usize) -> Self {
        self.classes[class_index(class)].count = count;
        self
    }

    /// Total number of units across all classes.
    #[must_use]
    pub fn total_units(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }
}

impl Default for FuConfig {
    fn default() -> Self {
        FuConfig::paper_default()
    }
}

impl fmt::Display for FuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in FuClass::ALL {
            let c = self.class(class);
            writeln!(
                f,
                "{class}: {} unit(s), latency {}{}",
                c.count,
                c.latency,
                if c.pipelined { "" } else { " (unpipelined)" }
            )?;
        }
        Ok(())
    }
}

#[derive(Clone, Debug)]
struct Unit {
    /// First cycle at which the unit can accept a new instruction.
    free_at: u64,
    /// Cycles this unit has been occupied (accept-port cycles for pipelined
    /// units; full occupancy for unpipelined ones).
    busy_cycles: u64,
    /// Instructions issued to this unit.
    issues: u64,
}

/// Runtime state of every functional unit, with per-unit occupancy counters.
#[derive(Clone, Debug)]
pub struct FuPool {
    config: FuConfig,
    units: Vec<Vec<Unit>>,
}

impl FuPool {
    /// Creates an idle pool for `config`.
    #[must_use]
    pub fn new(config: FuConfig) -> Self {
        let mut pool = FuPool {
            config,
            units: Vec::new(),
        };
        pool.reset();
        pool
    }

    /// Returns every unit to idle, with zeroed counters, keeping the
    /// pool's storage.
    pub fn reset(&mut self) {
        const IDLE: Unit = Unit {
            free_at: 0,
            busy_cycles: 0,
            issues: 0,
        };
        self.units.resize_with(FuClass::ALL.len(), Vec::new);
        for (units, &class) in self.units.iter_mut().zip(&FuClass::ALL) {
            units.clear();
            units.resize(self.config.class(class).count, IDLE);
        }
    }

    /// The pool's configuration.
    #[must_use]
    pub fn config(&self) -> &FuConfig {
        &self.config
    }

    /// Attempts to issue an instruction of `class` at cycle `now`.
    ///
    /// On success returns the completion (writeback) cycle; `None` means
    /// every unit of the class is busy this cycle.
    pub fn try_issue(&mut self, class: FuClass, now: u64) -> Option<u64> {
        let cfg = self.config.class(class);
        let units = &mut self.units[class_index(class)];
        let unit = units.iter_mut().find(|u| u.free_at <= now)?;
        let occupied = if cfg.pipelined { 1 } else { cfg.latency };
        unit.free_at = now + occupied;
        unit.busy_cycles += occupied;
        unit.issues += 1;
        Some(now + cfg.latency)
    }

    /// Whether at least one unit of `class` can accept at cycle `now`.
    #[must_use]
    pub fn can_issue(&self, class: FuClass, now: u64) -> bool {
        self.units[class_index(class)]
            .iter()
            .any(|u| u.free_at <= now)
    }

    /// Occupied cycles of unit `index` within `class` (see module docs for
    /// the occupancy definition).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the class.
    #[must_use]
    pub fn busy_cycles(&self, class: FuClass, index: usize) -> u64 {
        self.units[class_index(class)][index].busy_cycles
    }

    /// Instructions issued to unit `index` within `class`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the class.
    #[must_use]
    pub fn issues(&self, class: FuClass, index: usize) -> u64 {
        self.units[class_index(class)][index].issues
    }

    /// Serializes every unit's runtime state (`free_at`, occupancy and
    /// issue counters), in class-then-unit allocation order.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        for class_units in &self.units {
            w.put_usize(class_units.len());
            for u in class_units {
                w.put_u64(u.free_at);
                w.put_u64(u.busy_cycles);
                w.put_u64(u.issues);
            }
        }
    }

    /// Replaces every unit's state with [`save`](Self::save)d state,
    /// refusing a unit count the configuration does not have. Every unit
    /// is written, so no reset need precede it.
    pub fn decode(
        &mut self,
        r: &mut smt_checkpoint::Reader<'_>,
    ) -> Result<(), smt_checkpoint::DecodeError> {
        for class_units in &mut self.units {
            let n = r.take_usize()?;
            if n != class_units.len() {
                return Err(smt_checkpoint::DecodeError::Malformed(format!(
                    "fu pool: {n} serialized units for a class configured with {}",
                    class_units.len()
                )));
            }
            for u in class_units.iter_mut() {
                u.free_at = r.take_u64()?;
                u.busy_cycles = r.take_u64()?;
                u.issues = r.take_u64()?;
            }
        }
        Ok(())
    }

    /// Occupancy of the class's *last* (extra) unit as a percentage of
    /// `total_cycles` — the paper's Table 3 metric.
    #[must_use]
    pub fn extra_unit_usage_pct(&self, class: FuClass, total_cycles: u64) -> f64 {
        let units = &self.units[class_index(class)];
        let last = units.last().expect("class has at least one unit");
        if total_cycles == 0 {
            0.0
        } else {
            100.0 * last.busy_cycles as f64 / total_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1_shape() {
        let cfg = FuConfig::paper_default();
        assert_eq!(cfg.class(FuClass::Alu).count, 4);
        assert_eq!(cfg.class(FuClass::Load).count, 1);
        assert_eq!(cfg.class(FuClass::FpMul).latency, 4);
        assert!(!cfg.class(FuClass::IntDiv).pipelined);
        assert!(!cfg.class(FuClass::FpDiv).pipelined);
        assert_eq!(cfg.total_units(), 4 + 8 + 1);
    }

    #[test]
    fn enhanced_adds_expected_units() {
        let d = FuConfig::paper_default();
        let e = FuConfig::paper_enhanced();
        assert_eq!(e.class(FuClass::Alu).count, d.class(FuClass::Alu).count + 2);
        for class in FuClass::ALL {
            if class == FuClass::Alu || class == FuClass::Sync {
                continue;
            }
            assert_eq!(e.class(class).count, d.class(class).count + 1, "{class}");
        }
        assert_eq!(e.class(FuClass::Sync).count, 1);
    }

    #[test]
    fn pipelined_unit_accepts_every_cycle() {
        let mut pool = FuPool::new(FuConfig::paper_default().with_count(FuClass::FpMul, 1));
        assert_eq!(pool.try_issue(FuClass::FpMul, 0), Some(4));
        assert_eq!(
            pool.try_issue(FuClass::FpMul, 0),
            None,
            "one accept port per cycle"
        );
        assert_eq!(pool.try_issue(FuClass::FpMul, 1), Some(5));
    }

    #[test]
    fn unpipelined_divider_blocks_for_full_latency() {
        let mut pool = FuPool::new(FuConfig::paper_default());
        assert_eq!(pool.try_issue(FuClass::IntDiv, 0), Some(8));
        assert_eq!(pool.try_issue(FuClass::IntDiv, 7), None);
        assert_eq!(pool.try_issue(FuClass::IntDiv, 8), Some(16));
    }

    #[test]
    fn units_fill_lowest_index_first() {
        let mut pool = FuPool::new(FuConfig::paper_default());
        // 4 ALUs: three issues in one cycle use units 0..3.
        for _ in 0..3 {
            assert!(pool.try_issue(FuClass::Alu, 0).is_some());
        }
        assert_eq!(pool.issues(FuClass::Alu, 0), 1);
        assert_eq!(pool.issues(FuClass::Alu, 2), 1);
        assert_eq!(pool.issues(FuClass::Alu, 3), 0, "extra unit untouched");
    }

    #[test]
    fn extra_unit_usage_pct_reflects_pressure() {
        let mut pool = FuPool::new(FuConfig::paper_default().with_count(FuClass::Alu, 2));
        for now in 0..10 {
            let _ = pool.try_issue(FuClass::Alu, now); // unit 0 every cycle
            if now < 3 {
                let _ = pool.try_issue(FuClass::Alu, now); // unit 1 on 3 cycles
            }
        }
        assert!((pool.extra_unit_usage_pct(FuClass::Alu, 10) - 30.0).abs() < 1e-9);
        assert_eq!(pool.extra_unit_usage_pct(FuClass::Alu, 0), 0.0);
    }

    #[test]
    fn can_issue_matches_try_issue() {
        let mut pool = FuPool::new(FuConfig::paper_default());
        assert!(pool.can_issue(FuClass::FpDiv, 0));
        let _ = pool.try_issue(FuClass::FpDiv, 0);
        assert!(!pool.can_issue(FuClass::FpDiv, 5));
        assert!(pool.can_issue(FuClass::FpDiv, 12));
    }
}
