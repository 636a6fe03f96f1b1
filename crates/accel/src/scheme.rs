//! Protection schemes and accelerator configuration.

use ancode::{AbnCode, AnCode, CorrectionPolicy, CorrectionTable, ErrorListConfig, GroupLayout};
use serde::{Deserialize, Value};
use xbar::DeviceParams;

/// The error-protection configurations evaluated in Figures 10–12.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtectionScheme {
    /// Unprotected 16-bit weights — the `NoECC` baseline.
    None,
    /// The naïve per-operand static code: each 16-bit weight encoded
    /// with the minimal single-error `A` (47) and a `B = 3` check term.
    /// Costs 6 check bits per operand (48 per 8-operand group).
    Static16,
    /// The naïve multi-operand static code: one minimal single-error
    /// code over the whole 128-bit group with `B = 3`, no data
    /// awareness.
    Static128,
    /// Data-aware ABN code over 128-bit groups (`ABN-X` in the paper,
    /// where `X` is the total check-bit budget, 7–10).
    DataAware {
        /// Total ECC bits available to `A·B`.
        check_bits: u32,
        /// Restrict the `A` search to the five hardware divider
        /// constants (the paper's §VI optimization) instead of all odd
        /// candidates.
        hardware_candidates: bool,
    },
}

impl ProtectionScheme {
    /// The detection multiplier used by every coded scheme.
    pub const B: u64 = 3;

    /// Convenience constructor for `ABN-X` with the hardware candidate
    /// set (the configuration the paper evaluates).
    pub fn data_aware(check_bits: u32) -> ProtectionScheme {
        ProtectionScheme::DataAware {
            check_bits,
            hardware_candidates: true,
        }
    }

    /// Whether the scheme encodes whole operand groups (vs per-operand
    /// or no coding).
    pub fn is_grouped(&self) -> bool {
        matches!(
            self,
            ProtectionScheme::Static128 | ProtectionScheme::DataAware { .. }
        )
    }

    /// Whether any arithmetic code is applied.
    pub fn is_coded(&self) -> bool {
        !matches!(self, ProtectionScheme::None)
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            ProtectionScheme::None => "NoECC".into(),
            ProtectionScheme::Static16 => "Static16".into(),
            ProtectionScheme::Static128 => "Static128".into(),
            ProtectionScheme::DataAware { check_bits, .. } => format!("ABN-{check_bits}"),
        }
    }

    /// Parses a figure-legend label back into a scheme — the inverse of
    /// [`label`](ProtectionScheme::label), used by the CLI and by
    /// campaign checkpoints (whose JSON stores the label string).
    pub fn from_label(label: &str) -> Option<ProtectionScheme> {
        match label {
            "NoECC" => Some(ProtectionScheme::None),
            "Static16" => Some(ProtectionScheme::Static16),
            "Static128" => Some(ProtectionScheme::Static128),
            _ => {
                let bits: u32 = label.strip_prefix("ABN-")?.parse().ok()?;
                Some(ProtectionScheme::data_aware(bits))
            }
        }
    }

    /// Check bits added per 128-bit (8×16-bit) group of weights.
    pub fn check_bits_per_group(&self) -> u32 {
        match self {
            ProtectionScheme::None => 0,
            // 6 bits of A per operand (the B term rides along in the
            // paper's accounting).
            ProtectionScheme::Static16 => 48,
            ProtectionScheme::Static128 => {
                let a = ancode::search::min_a_for_data_bits(128);
                crate::scheme::total_check_bits(a, ProtectionScheme::B)
            }
            ProtectionScheme::DataAware { check_bits, .. } => *check_bits,
        }
    }
}

/// Check bits consumed by the multiplier `a·b`.
pub(crate) fn total_check_bits(a: u64, b: u64) -> u32 {
    let m = a * b;
    64 - (m - 1).leading_zeros()
}

/// Builds the static per-operand code used by `Static16`: minimal
/// single-error `A` for 16-bit operands with `B = 3`, table covering
/// per-row errors for the given cell width.
pub(crate) fn static16_code(cell_bits: u32) -> AbnCode {
    let a = ancode::search::min_a_for_data_bits(16); // 47
    let an = AnCode::new(a).expect("minimal A is valid");
    let width = 16 + total_check_bits(a, ProtectionScheme::B);
    let table = CorrectionTable::for_cell_rows(&an, width, cell_bits);
    AbnCode::from_table(a, ProtectionScheme::B, table, 16).expect("static code is valid")
}

/// Builds the static multi-operand code used by `Static128`.
pub(crate) fn static128_code(cell_bits: u32) -> AbnCode {
    let a = ancode::search::min_a_for_data_bits(128);
    let an = AnCode::new(a).expect("minimal A is valid");
    let width = 128 + total_check_bits(a, ProtectionScheme::B);
    let table = CorrectionTable::for_cell_rows(&an, width, cell_bits);
    AbnCode::from_table(a, ProtectionScheme::B, table, 128).expect("static code is valid")
}

/// Full accelerator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// Device and noise parameters (Table I defaults).
    pub device: DeviceParams,
    /// The protection scheme under evaluation.
    pub scheme: ProtectionScheme,
    /// Policy when the `B` check flags a miscorrection.
    pub policy: CorrectionPolicy,
    /// Retries of a group read on an uncorrectable error (0 in the
    /// paper's default pipeline; >0 models the §VI-A retry option).
    pub max_retries: u32,
    /// Operand group geometry (8 × 16-bit in the paper).
    pub group: GroupLayout,
    /// Maximum crossbar columns per chunk (128 in the paper).
    pub max_columns: usize,
    /// Bits of each input applied bit-serially per cycle (16-bit
    /// activations).
    pub input_bits: u32,
    /// Error-list enumeration bounds for data-aware table construction.
    pub error_list: ErrorListConfig,
    /// Remap logical rows away from faulty cells before programming
    /// (the Xia-et-al. composition of [`crate::remap`]).
    pub remap: bool,
    /// Worker-shard fault injection ([`chaos::ShardChaos`]): mid-shard
    /// panics at deterministic shards. Always
    /// [`chaos::ShardChaos::Off`] outside chaos runs and tests.
    pub shard_chaos: chaos::ShardChaos,
    /// Input vectors evaluated per MVM pass (default 1). Every batch
    /// size runs the one `mvm_batch_into` kernel of
    /// [`CrossbarEngine`](crate::CrossbarEngine), which takes one RTN
    /// snapshot and one set of conductance planes per batch. Like
    /// `REPRO_THREADS`, changing the batch changes the noise draws but
    /// not the estimator.
    pub batch: usize,
}

impl AccelConfig {
    /// A configuration with Table I device defaults and the paper's
    /// array geometry.
    pub fn new(scheme: ProtectionScheme) -> AccelConfig {
        AccelConfig {
            device: DeviceParams::default(),
            scheme,
            policy: CorrectionPolicy::Revert,
            max_retries: 0,
            group: GroupLayout::PAPER_128,
            max_columns: 128,
            input_bits: 16,
            error_list: crate::mapping::mapping_error_list_config(),
            remap: false,
            shard_chaos: chaos::ShardChaos::Off,
            batch: 1,
        }
    }

    /// Checks the configuration for internal consistency, reporting the
    /// first problem found.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`](crate::AccelError) when a
    /// field is out of its physical range: zero cell bits (or more than
    /// the device's level budget supports), a fault rate outside
    /// `[0, 1]`, zero crossbar columns, zero input bits, or a
    /// data-aware check-bit budget outside the paper's 7–10 range the
    /// hardware table sizes were derived for.
    pub fn validate(&self) -> Result<(), crate::AccelError> {
        let invalid = |detail: String| Err(crate::AccelError::InvalidConfig(detail));
        if self.device.bits_per_cell == 0 || self.device.bits_per_cell > 5 {
            return invalid(format!(
                "bits_per_cell must be 1-5, got {}",
                self.device.bits_per_cell
            ));
        }
        if !(0.0..=1.0).contains(&self.device.fault_rate) {
            return invalid(format!(
                "fault_rate must lie in [0, 1], got {}",
                self.device.fault_rate
            ));
        }
        if self.max_columns == 0 {
            return invalid("max_columns must be nonzero".into());
        }
        if self.input_bits == 0 || self.input_bits > 16 {
            return invalid(format!("input_bits must be 1-16, got {}", self.input_bits));
        }
        if self.batch == 0 {
            return invalid("batch must be at least 1".into());
        }
        if let ProtectionScheme::DataAware { check_bits, .. } = self.scheme {
            if !(7..=10).contains(&check_bits) {
                return invalid(format!(
                    "data-aware check_bits must be 7-10, got {check_bits}"
                ));
            }
        }
        Ok(())
    }

    /// Sets the bits per memristor cell (1–5 in the evaluation).
    #[must_use]
    pub fn with_cell_bits(mut self, bits: u32) -> AccelConfig {
        self.device.bits_per_cell = bits;
        self
    }

    /// Sets the stuck-at fault rate (0 disables cell faults).
    #[must_use]
    pub fn with_fault_rate(mut self, rate: f64) -> AccelConfig {
        self.device.fault_rate = rate;
        self
    }

    /// Sets the number of input vectors evaluated per MVM pass.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> AccelConfig {
        self.batch = batch;
        self
    }

    /// Overrides one named knob with a JSON value. This is the one way
    /// a grid variant changes a configuration, so both launchers of a
    /// grid cell build the same one.
    ///
    /// | knob | value |
    /// | --- | --- |
    /// | `device.rlo_delta_r` | RTN `ΔR/R` at `R_LO`, in `(0, 1 − 1/α)`, via [`DeviceParams::with_rlo_delta_r`] |
    /// | `device.rtn_state_probability` | RTN error-state probability in `[0, 1]` |
    /// | `device.rtn_offset` | bool: program resistances offset by `p·ΔR` |
    /// | `policy` | `"revert"` or `"keep-corrected"` |
    /// | `max_retries` | integer: ECU re-reads of an uncorrectable group |
    /// | `group_operands` | positive integer: 16-bit operands per coded group |
    /// | `error_list.max_rows_per_event` | positive integer: rows per table error event |
    /// | `remap` | bool: fault-aware row remapping |
    ///
    /// The fault rate is not a knob: a campaign derives it per epoch
    /// from the wear schedule.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`](crate::AccelError) naming
    /// the knob for an unknown knob, a value of the wrong type, or a
    /// value out of range; `self` is then unchanged.
    pub fn apply(&mut self, knob: &str, value: &Value) -> Result<(), crate::AccelError> {
        let invalid =
            |detail: String| crate::AccelError::InvalidConfig(format!("knob {knob}: {detail}"));
        let number = || match value {
            Value::Number(n) => Ok(*n),
            other => Err(invalid(format!("expected a number, found {other:?}"))),
        };
        let positive = || match usize::from_value(value) {
            Ok(0) => Err(invalid("must be positive".into())),
            other => other.map_err(invalid),
        };
        match knob {
            "device.rlo_delta_r" => {
                let target = number()?;
                let saturation = 1.0 - 1.0 / self.device.rtn_alpha;
                if !(target > 0.0 && target < saturation) {
                    return Err(invalid(format!("{target} outside (0, {saturation})")));
                }
                self.device = self.device.clone().with_rlo_delta_r(target);
            }
            "device.rtn_state_probability" => {
                let p = number()?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(invalid(format!("{p} outside [0, 1]")));
                }
                self.device.rtn_state_probability = p;
            }
            "device.rtn_offset" => {
                self.device.rtn_offset = bool::from_value(value).map_err(invalid)?
            }
            "policy" => {
                self.policy = match String::from_value(value).map_err(invalid)?.as_str() {
                    "revert" => CorrectionPolicy::Revert,
                    "keep-corrected" => CorrectionPolicy::KeepCorrected,
                    other => {
                        return Err(invalid(format!(
                            "unknown policy {other} (try revert, keep-corrected)"
                        )))
                    }
                }
            }
            "max_retries" => self.max_retries = u32::from_value(value).map_err(invalid)?,
            "group_operands" => {
                self.group = GroupLayout::new(self.group.operand_bits(), positive()?)
                    .map_err(|e| invalid(e.to_string()))?;
            }
            "error_list.max_rows_per_event" => self.error_list.max_rows_per_event = positive()?,
            "remap" => self.remap = bool::from_value(value).map_err(invalid)?,
            _ => {
                return Err(invalid(format!(
                    "unknown knob (try {})",
                    AccelConfig::KNOBS.join(", ")
                )))
            }
        }
        Ok(())
    }

    /// The knobs [`AccelConfig::apply`] accepts.
    pub const KNOBS: [&'static str; 8] = [
        "device.rlo_delta_r",
        "device.rtn_state_probability",
        "device.rtn_offset",
        "policy",
        "max_retries",
        "group_operands",
        "error_list.max_rows_per_event",
        "remap",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(ProtectionScheme::None.label(), "NoECC");
        assert_eq!(ProtectionScheme::Static16.label(), "Static16");
        assert_eq!(ProtectionScheme::Static128.label(), "Static128");
        assert_eq!(ProtectionScheme::data_aware(9).label(), "ABN-9");
    }

    #[test]
    fn grouping_classification() {
        assert!(!ProtectionScheme::None.is_grouped());
        assert!(!ProtectionScheme::Static16.is_grouped());
        assert!(ProtectionScheme::Static128.is_grouped());
        assert!(ProtectionScheme::data_aware(8).is_grouped());
        assert!(!ProtectionScheme::None.is_coded());
        assert!(ProtectionScheme::Static16.is_coded());
    }

    #[test]
    fn static16_uses_minimal_a_47() {
        let code = static16_code(2);
        assert_eq!(code.a(), 47);
        assert_eq!(code.b(), 3);
        // Every 2-bit row of the 16-bit operand is covered at ±1.
        assert!(code.table().len() >= 16);
    }

    #[test]
    fn static128_a_covers_group() {
        let code = static128_code(2);
        assert!(code.a() >= 277, "A = {}", code.a());
        assert_eq!(code.data_bits(), 128);
    }

    #[test]
    fn check_bit_accounting() {
        assert_eq!(ProtectionScheme::None.check_bits_per_group(), 0);
        assert_eq!(ProtectionScheme::Static16.check_bits_per_group(), 48);
        assert!(ProtectionScheme::Static128.check_bits_per_group() >= 10);
        assert_eq!(ProtectionScheme::data_aware(7).check_bits_per_group(), 7);
    }

    #[test]
    fn from_label_round_trips() {
        for scheme in [
            ProtectionScheme::None,
            ProtectionScheme::Static16,
            ProtectionScheme::Static128,
            ProtectionScheme::data_aware(7),
            ProtectionScheme::data_aware(10),
        ] {
            assert_eq!(ProtectionScheme::from_label(&scheme.label()), Some(scheme));
        }
        assert_eq!(ProtectionScheme::from_label("ABN-x"), None);
        assert_eq!(ProtectionScheme::from_label("bogus"), None);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_fields() {
        assert!(AccelConfig::new(ProtectionScheme::data_aware(9))
            .validate()
            .is_ok());
        assert!(AccelConfig::new(ProtectionScheme::None)
            .with_cell_bits(0)
            .validate()
            .is_err());
        assert!(AccelConfig::new(ProtectionScheme::None)
            .with_fault_rate(1.5)
            .validate()
            .is_err());
        assert!(AccelConfig::new(ProtectionScheme::data_aware(11))
            .validate()
            .is_err());
        let mut c = AccelConfig::new(ProtectionScheme::None);
        c.max_columns = 0;
        assert!(c.validate().is_err());
        assert!(AccelConfig::new(ProtectionScheme::None)
            .with_batch(0)
            .validate()
            .is_err());
    }

    #[test]
    fn chaos_and_durability_default_off() {
        let c = AccelConfig::new(ProtectionScheme::None);
        assert_eq!(c.shard_chaos, chaos::ShardChaos::Off);
        assert_eq!(c.batch, 1);
    }

    #[test]
    fn config_builders() {
        let c = AccelConfig::new(ProtectionScheme::data_aware(9))
            .with_cell_bits(4)
            .with_fault_rate(0.0);
        assert_eq!(c.device.bits_per_cell, 4);
        assert_eq!(c.device.fault_rate, 0.0);
        assert_eq!(c.max_columns, 128);
        assert_eq!(c.input_bits, 16);
    }

    #[test]
    fn apply_sets_each_knob_and_refuses_the_rest() {
        let base = AccelConfig::new(ProtectionScheme::data_aware(9)).with_cell_bits(2);
        let set = |knob: &str, json: &str| {
            let mut c = base.clone();
            c.apply(knob, &serde_json::from_str(json).expect("json"))
                .map(|()| c)
        };
        assert_eq!(
            set("device.rlo_delta_r", "0.028").unwrap().device,
            base.device.clone().with_rlo_delta_r(0.028)
        );
        assert_eq!(
            set("device.rtn_state_probability", "0.22")
                .unwrap()
                .device
                .rtn_state_probability,
            0.22
        );
        assert!(!set("device.rtn_offset", "false").unwrap().device.rtn_offset);
        assert_eq!(
            set("policy", "\"keep-corrected\"").unwrap().policy,
            CorrectionPolicy::KeepCorrected
        );
        assert_eq!(set("max_retries", "2").unwrap().max_retries, 2);
        assert_eq!(
            set("group_operands", "4").unwrap().group,
            GroupLayout::new(16, 4).unwrap()
        );
        assert_eq!(
            set("error_list.max_rows_per_event", "1")
                .unwrap()
                .error_list
                .max_rows_per_event,
            1
        );
        assert!(set("remap", "true").unwrap().remap);

        for (knob, json, needle) in [
            ("device.fault_rate", "0.1", "unknown knob"),
            ("remap", "1", "expected bool"),
            ("max_retries", "1.5", "out of range"),
            ("max_retries", "\"2\"", "expected number"),
            ("policy", "\"retry\"", "unknown policy"),
            ("group_operands", "0", "positive"),
            ("device.rtn_state_probability", "1.5", "outside"),
            ("device.rlo_delta_r", "null", "expected a number"),
            ("device.rlo_delta_r", "0.9", "outside"),
        ] {
            match set(knob, json) {
                Err(crate::AccelError::InvalidConfig(m)) => {
                    assert!(m.contains(knob) && m.contains(needle), "{knob}={json}: {m}")
                }
                other => panic!("{knob}={json}: expected a refusal, got {other:?}"),
            }
        }
    }
}
