//! # ringcnn-hw
//!
//! Analytical hardware cost models for the RingCNN reproduction: a gate-
//! level 40 nm area/power model ([`params`]) calibrated against the
//! published eCNN backbone; the one description of the RCONV engine
//! ([`engine`]) — its geometry and widths, the one multiplier count, the
//! per-ring FRCONV estimates of Fig. 12 and the cycles and multiplications
//! of one convolution the simulator charges; whole-accelerator layout
//! reports and efficiency comparisons — Tables V/VI, Fig. 14 —
//! ([`accelerator`]); quality-energy curves — Fig. 15, Table VII —
//! ([`energy`]); and cited competitor comparisons — Table VIII —
//! ([`competitors`]).
//!
//! ```
//! use ringcnn_hw::prelude::*;
//! let t = TechParams::tsmc40();
//! let n4 = layout_report(&AcceleratorConfig::eringcnn_n4(), &t);
//! assert!(n4.area_mm2 < 30.0 && n4.power_w < 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod competitors;
pub mod energy;
pub mod engine;
pub mod params;
pub mod sweep;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::accelerator::{
        dram_bandwidth_gbs, efficiency_vs_ecnn, layout_report, AcceleratorConfig, EfficiencyVsEcnn,
        LayoutReport,
    };
    pub use crate::competitors::{table7, table8, DiffyComparisonRow, SparsityAcceleratorRow};
    pub use crate::energy::{operating_point, EnergyPoint};
    pub use crate::engine::{estimate_engine, fig12_engines, EngineEstimate, EnginePass};
    pub use crate::params::TechParams;
    pub use crate::sweep::{sweep_n, SweepPoint};
}
