//! Packaging architecture descriptions and their configuration parameters.

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_techdb::{Area, Length, TechNode};

use crate::error::PackagingError;

/// Redistribution-layer (RDL) fanout packaging configuration (Fig. 4(a)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RdlFanoutConfig {
    /// Technology node of the RDL substrate (22 nm – 65 nm in Table I).
    pub tech: TechNode,
    /// Number of RDL metal layers `L_RDL` (3 – 9 in Table I).
    pub layers: u32,
}

impl Default for RdlFanoutConfig {
    /// 65 nm substrate with 4 RDL layers (the paper's defaults).
    fn default() -> Self {
        Self {
            tech: TechNode::N65,
            layers: 4,
        }
    }
}

/// Silicon-bridge (EMIB / LSI) packaging configuration (Fig. 4(b)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiliconBridgeConfig {
    /// Technology node of the bridge (22 nm – 65 nm).
    pub tech: TechNode,
    /// Number of metal layers in the bridge `L_bridge` (3 – 4).
    pub layers: u32,
    /// Area of one silicon bridge `A_bridge` (the EMIB specification uses
    /// roughly 2 mm × 2 mm cavities).
    pub bridge_area: Area,
    /// Reach of one bridge along a die edge. One bridge is added per
    /// `bridge_range` of overlapping edge between two adjacent chiplets.
    pub bridge_range: Length,
    /// Number of RDL layers in the organic build-up substrate underneath the
    /// bridges.
    pub substrate_layers: u32,
}

impl Default for SiliconBridgeConfig {
    /// 65 nm bridges, 4 bridge layers, 2 mm × 2 mm bridges with a 2 mm range,
    /// 4-layer organic substrate.
    fn default() -> Self {
        Self {
            tech: TechNode::N65,
            layers: 4,
            bridge_area: Area::from_mm2(4.0),
            bridge_range: Length::from_mm(2.0),
            substrate_layers: 4,
        }
    }
}

/// Passive or active interposer configuration (Fig. 4(c)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterposerConfig {
    /// Technology node of the interposer (22 nm – 65 nm).
    pub tech: TechNode,
    /// Number of BEOL metal layers in the interposer.
    pub beol_layers: u32,
    /// Fraction of the interposer area that carries active FEOL devices
    /// (routers, repeaters). Only meaningful for active interposers.
    pub active_area_fraction: f64,
}

impl Default for InterposerConfig {
    /// 65 nm interposer with 6 BEOL layers and 10 % active area.
    fn default() -> Self {
        Self {
            tech: TechNode::N65,
            beol_layers: 6,
            active_area_fraction: 0.10,
        }
    }
}

/// Vertical interconnect technology used by 3D stacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BondTechnology {
    /// Through-silicon vias (face-to-back stacking), 10 – 45 µm pitch.
    Tsv,
    /// Microbumps (face-to-face stacking), 10 – 45 µm pitch.
    Microbump,
    /// Hybrid (bumpless) bonding, 1 – 10 µm pitch.
    HybridBond,
}

impl BondTechnology {
    /// The default (typical) pitch of this bond technology.
    pub fn default_pitch(self) -> Length {
        match self {
            BondTechnology::Tsv => Length::from_um(25.0),
            BondTechnology::Microbump => Length::from_um(25.0),
            BondTechnology::HybridBond => Length::from_um(5.0),
        }
    }

    /// Patterning / plating energy per bond in kWh (etch + fill for TSVs,
    /// bump plating for microbumps, surface prep amortised per bond for
    /// hybrid bonding).
    pub fn energy_per_bond_kwh(self) -> f64 {
        match self {
            BondTechnology::Tsv => 2.5e-6,
            BondTechnology::Microbump => 1.2e-6,
            BondTechnology::HybridBond => 0.15e-6,
        }
    }

    /// Probability that an individual bond fails during assembly
    /// (misalignment, voids). The assembly yield of an interface with `N`
    /// bonds is `(1 - p)^N`.
    pub fn bond_failure_probability(self) -> f64 {
        match self {
            BondTechnology::Tsv => 2.0e-7,
            BondTechnology::Microbump => 1.5e-7,
            BondTechnology::HybridBond => 4.0e-8,
        }
    }
}

impl fmt::Display for BondTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BondTechnology::Tsv => write!(f, "TSV"),
            BondTechnology::Microbump => write!(f, "microbump"),
            BondTechnology::HybridBond => write!(f, "hybrid bond"),
        }
    }
}

/// 3D stacking configuration (Fig. 4(d)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreeDConfig {
    /// Vertical interconnect technology.
    pub bond: BondTechnology,
    /// Bond pitch (Table I: TSV/microbump 10 – 45 µm, hybrid 1 – 10 µm).
    pub pitch: Length,
    /// Per-interface wafer bonding / thinning energy (kWh per cm² of stacked
    /// interface area).
    pub bonding_epa_kwh_per_cm2: f64,
}

impl Default for ThreeDConfig {
    /// Microbump stacking at 25 µm pitch (the minimum-pitch dense network the
    /// paper assumes is configurable via [`ThreeDConfig::pitch`]).
    fn default() -> Self {
        Self {
            bond: BondTechnology::Microbump,
            pitch: BondTechnology::Microbump.default_pitch(),
            bonding_epa_kwh_per_cm2: 0.15,
        }
    }
}

impl ThreeDConfig {
    /// A TSV-based configuration at the given pitch.
    pub fn tsv(pitch: Length) -> Self {
        Self {
            bond: BondTechnology::Tsv,
            pitch,
            bonding_epa_kwh_per_cm2: 0.15,
        }
    }

    /// A microbump configuration at the given pitch.
    pub fn microbump(pitch: Length) -> Self {
        Self {
            bond: BondTechnology::Microbump,
            pitch,
            bonding_epa_kwh_per_cm2: 0.15,
        }
    }

    /// A hybrid-bonding configuration at the given pitch.
    pub fn hybrid(pitch: Length) -> Self {
        Self {
            bond: BondTechnology::HybridBond,
            pitch,
            bonding_epa_kwh_per_cm2: 0.12,
        }
    }

    /// Number of bonds in an interface of the given area at this pitch.
    pub fn bonds_for_interface(&self, interface: Area) -> f64 {
        let pitch_mm = self.pitch.mm();
        if pitch_mm <= 0.0 {
            return 0.0;
        }
        (interface.mm2() / (pitch_mm * pitch_mm)).floor().max(0.0)
    }
}

/// The packaging architecture of a heterogeneous system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum PackagingArchitecture {
    /// Chiplets on an RDL fanout substrate.
    RdlFanout(RdlFanoutConfig),
    /// Chiplets on an organic substrate with embedded silicon bridges (EMIB).
    SiliconBridge(SiliconBridgeConfig),
    /// Chiplets on a metal-only (passive) silicon interposer.
    PassiveInterposer(InterposerConfig),
    /// Chiplets on an interposer with active devices (routers, repeaters).
    ActiveInterposer(InterposerConfig),
    /// Chiplets stacked vertically with TSVs, microbumps or hybrid bonds.
    ThreeD(ThreeDConfig),
}

impl PackagingArchitecture {
    /// A short name for tables and plots (`"RDL"`, `"EMIB"`, …).
    pub fn short_name(&self) -> &'static str {
        match self {
            PackagingArchitecture::RdlFanout(_) => "RDL",
            PackagingArchitecture::SiliconBridge(_) => "EMIB",
            PackagingArchitecture::PassiveInterposer(_) => "passive-interposer",
            PackagingArchitecture::ActiveInterposer(_) => "active-interposer",
            PackagingArchitecture::ThreeD(_) => "3D",
        }
    }

    /// The packaging technology node used for substrate / interposer /
    /// bridge manufacturing, if the architecture has one (3D stacking uses
    /// the chiplet nodes themselves).
    pub fn packaging_node(&self) -> Option<TechNode> {
        match self {
            PackagingArchitecture::RdlFanout(c) => Some(c.tech),
            PackagingArchitecture::SiliconBridge(c) => Some(c.tech),
            PackagingArchitecture::PassiveInterposer(c)
            | PackagingArchitecture::ActiveInterposer(c) => Some(c.tech),
            PackagingArchitecture::ThreeD(_) => None,
        }
    }

    /// Validate the architecture configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PackagingError::InvalidConfig`] when layer counts are zero,
    /// areas/pitches are non-positive, or fractions fall outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), PackagingError> {
        match self {
            PackagingArchitecture::RdlFanout(c) => {
                if c.layers == 0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "rdl_layers",
                        value: 0.0,
                        expected: "at least 1 layer",
                    });
                }
            }
            PackagingArchitecture::SiliconBridge(c) => {
                if c.layers == 0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "bridge_layers",
                        value: 0.0,
                        expected: "at least 1 layer",
                    });
                }
                if !c.bridge_area.mm2().is_finite() || c.bridge_area.mm2() <= 0.0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "bridge_area",
                        value: c.bridge_area.mm2(),
                        expected: "a finite area > 0",
                    });
                }
                if !c.bridge_range.mm().is_finite() || c.bridge_range.mm() <= 0.0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "bridge_range",
                        value: c.bridge_range.mm(),
                        expected: "a finite length > 0",
                    });
                }
            }
            PackagingArchitecture::PassiveInterposer(c)
            | PackagingArchitecture::ActiveInterposer(c) => {
                if c.beol_layers == 0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "beol_layers",
                        value: 0.0,
                        expected: "at least 1 layer",
                    });
                }
                if !(0.0..=1.0).contains(&c.active_area_fraction) {
                    return Err(PackagingError::InvalidConfig {
                        name: "active_area_fraction",
                        value: c.active_area_fraction,
                        expected: "a fraction in [0, 1]",
                    });
                }
            }
            PackagingArchitecture::ThreeD(c) => {
                if !c.pitch.um().is_finite() || c.pitch.um() <= 0.0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "bond_pitch",
                        value: c.pitch.um(),
                        expected: "a finite pitch > 0",
                    });
                }
                if !c.bonding_epa_kwh_per_cm2.is_finite() || c.bonding_epa_kwh_per_cm2 < 0.0 {
                    return Err(PackagingError::InvalidConfig {
                        name: "bonding_epa",
                        value: c.bonding_epa_kwh_per_cm2,
                        expected: "a finite value >= 0",
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for PackagingArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackagingArchitecture::RdlFanout(c) => {
                write!(f, "RDL fanout ({} layers @ {})", c.layers, c.tech)
            }
            PackagingArchitecture::SiliconBridge(c) => {
                write!(f, "silicon bridge ({} layers @ {})", c.layers, c.tech)
            }
            PackagingArchitecture::PassiveInterposer(c) => {
                write!(
                    f,
                    "passive interposer ({} BEOL @ {})",
                    c.beol_layers, c.tech
                )
            }
            PackagingArchitecture::ActiveInterposer(c) => {
                write!(f, "active interposer ({} BEOL @ {})", c.beol_layers, c.tech)
            }
            PackagingArchitecture::ThreeD(c) => {
                write!(f, "3D stack ({} @ {:.0} um pitch)", c.bond, c.pitch.um())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let rdl = RdlFanoutConfig::default();
        assert_eq!(rdl.tech, TechNode::N65);
        assert!((3..=9).contains(&rdl.layers));
        let emib = SiliconBridgeConfig::default();
        assert!((3..=4).contains(&emib.layers));
        assert!((emib.bridge_range.mm() - 2.0).abs() < 1e-9);
        assert!((emib.bridge_area.mm2() - 4.0).abs() < 1e-9);
        let ip = InterposerConfig::default();
        assert_eq!(ip.tech, TechNode::N65);
        let td = ThreeDConfig::default();
        assert!((10.0..=45.0).contains(&td.pitch.um()));
    }

    #[test]
    fn bond_technology_properties() {
        assert!(
            BondTechnology::HybridBond.default_pitch().um()
                < BondTechnology::Tsv.default_pitch().um()
        );
        assert!(
            BondTechnology::HybridBond.energy_per_bond_kwh()
                < BondTechnology::Microbump.energy_per_bond_kwh()
        );
        assert!(
            BondTechnology::HybridBond.bond_failure_probability()
                < BondTechnology::Tsv.bond_failure_probability()
        );
        for b in [
            BondTechnology::Tsv,
            BondTechnology::Microbump,
            BondTechnology::HybridBond,
        ] {
            assert!(!b.to_string().is_empty());
        }
    }

    #[test]
    fn bonds_for_interface_counts() {
        let cfg = ThreeDConfig::microbump(Length::from_um(25.0));
        // 100 mm² interface at 25 µm pitch: 100 / (0.025²) = 160 000 bumps.
        let n = cfg.bonds_for_interface(Area::from_mm2(100.0));
        assert!((n - 160_000.0).abs() <= 1.0 + 1e-9);
        // Larger pitch, fewer bonds.
        let coarse = ThreeDConfig::microbump(Length::from_um(45.0));
        assert!(coarse.bonds_for_interface(Area::from_mm2(100.0)) < n);
        // Degenerate pitch.
        let degenerate = ThreeDConfig::microbump(Length::from_um(0.0));
        assert_eq!(degenerate.bonds_for_interface(Area::from_mm2(100.0)), 0.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad_rdl = PackagingArchitecture::RdlFanout(RdlFanoutConfig {
            layers: 0,
            ..RdlFanoutConfig::default()
        });
        assert!(bad_rdl.validate().is_err());

        let bad_bridge = PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
            bridge_area: Area::ZERO,
            ..SiliconBridgeConfig::default()
        });
        assert!(bad_bridge.validate().is_err());
        let bad_bridge = PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
            bridge_range: Length::ZERO,
            ..SiliconBridgeConfig::default()
        });
        assert!(bad_bridge.validate().is_err());
        let bad_bridge = PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
            layers: 0,
            ..SiliconBridgeConfig::default()
        });
        assert!(bad_bridge.validate().is_err());

        let bad_ip = PackagingArchitecture::ActiveInterposer(InterposerConfig {
            active_area_fraction: 1.5,
            ..InterposerConfig::default()
        });
        assert!(bad_ip.validate().is_err());
        let bad_ip = PackagingArchitecture::PassiveInterposer(InterposerConfig {
            beol_layers: 0,
            ..InterposerConfig::default()
        });
        assert!(bad_ip.validate().is_err());

        let bad_3d = PackagingArchitecture::ThreeD(ThreeDConfig {
            pitch: Length::ZERO,
            ..ThreeDConfig::default()
        });
        assert!(bad_3d.validate().is_err());
        let bad_3d = PackagingArchitecture::ThreeD(ThreeDConfig {
            bonding_epa_kwh_per_cm2: f64::NAN,
            ..ThreeDConfig::default()
        });
        assert!(bad_3d.validate().is_err());

        // All defaults validate.
        for arch in [
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ] {
            assert!(arch.validate().is_ok(), "{arch}");
            assert!(!arch.to_string().is_empty());
            assert!(!arch.short_name().is_empty());
        }
    }

    #[test]
    fn packaging_node_exposure() {
        assert_eq!(
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()).packaging_node(),
            Some(TechNode::N65)
        );
        assert_eq!(
            PackagingArchitecture::ThreeD(ThreeDConfig::default()).packaging_node(),
            None
        );
    }

    #[test]
    fn serde_round_trip() {
        let arch = PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default());
        let json = serde_json::to_string(&arch).unwrap();
        assert!(json.contains("silicon_bridge"));
        let back: PackagingArchitecture = serde_json::from_str(&json).unwrap();
        assert_eq!(arch, back);
    }

    #[test]
    fn direct_encoding_matches_the_value_tree_for_every_variant() {
        let interposer = InterposerConfig::default();
        for arch in [
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(interposer),
            PackagingArchitecture::ActiveInterposer(interposer),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ] {
            let mut direct = String::new();
            serde::Serialize::write_json(&arch, &mut direct).unwrap();
            let mut tree = String::new();
            serde::write_json_value(&serde::Serialize::to_value(&arch), &mut tree).unwrap();
            assert_eq!(direct, tree, "{}", arch.short_name());
        }
    }
}
