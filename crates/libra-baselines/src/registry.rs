//! The platform registry: the one place a platform name maps to a
//! constructor. The experiment harness builds from it by legend name
//! ([`PlatformKind::name`]) and the CLI by slug ([`PlatformKind::slug`]).

use crate::{Freyr, OpenWhiskDefault};
use libra_core::{LibraConfig, LibraPlatform, ModelChoice};
use libra_sim::platform::Platform;

/// The six §8.3 platforms plus the Fig 13(a) model ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformKind {
    /// OpenWhisk default.
    Default,
    /// The Freyr stand-in.
    Freyr,
    /// Full Libra.
    Libra,
    /// Libra without the safeguard.
    LibraNs,
    /// Libra without the profiler (moving window).
    LibraNp,
    /// Libra without either.
    LibraNsp,
    /// Libra with histogram models only.
    LibraHist,
    /// Libra with ML models only.
    LibraMl,
}

impl PlatformKind {
    /// The six platforms of §8.3.
    pub const MAIN_SIX: [PlatformKind; 6] = [
        PlatformKind::Default,
        PlatformKind::Freyr,
        PlatformKind::Libra,
        PlatformKind::LibraNs,
        PlatformKind::LibraNp,
        PlatformKind::LibraNsp,
    ];

    /// Every registered platform: the main six, then the model ablations.
    pub const ALL: [PlatformKind; 8] = [
        PlatformKind::Default,
        PlatformKind::Freyr,
        PlatformKind::Libra,
        PlatformKind::LibraNs,
        PlatformKind::LibraNp,
        PlatformKind::LibraNsp,
        PlatformKind::LibraHist,
        PlatformKind::LibraMl,
    ];

    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformKind::Default => "Default",
            PlatformKind::Freyr => "Freyr",
            PlatformKind::Libra => "Libra",
            PlatformKind::LibraNs => "Libra-NS",
            PlatformKind::LibraNp => "Libra-NP",
            PlatformKind::LibraNsp => "Libra-NSP",
            PlatformKind::LibraHist => "Hist",
            PlatformKind::LibraMl => "ML",
        }
    }

    /// Lower-case CLI spelling, accepted by [`PlatformKind::parse`].
    pub fn slug(&self) -> &'static str {
        match self {
            PlatformKind::Default => "default",
            PlatformKind::Freyr => "freyr",
            PlatformKind::Libra => "libra",
            PlatformKind::LibraNs => "ns",
            PlatformKind::LibraNp => "np",
            PlatformKind::LibraNsp => "nsp",
            PlatformKind::LibraHist => "hist",
            PlatformKind::LibraMl => "ml",
        }
    }

    /// Parse a CLI slug (`default`, `freyr`, `libra`, `ns`, `np`, `nsp`,
    /// `hist` or `ml`).
    pub fn parse(s: &str) -> Result<PlatformKind, String> {
        Self::ALL.into_iter().find(|k| k.slug() == s).ok_or_else(|| {
            let slugs: Vec<&str> = Self::ALL.iter().map(PlatformKind::slug).collect();
            format!("unknown platform `{s}` (expected {})", slugs.join(" | "))
        })
    }

    /// Build the platform.
    pub fn build(&self) -> Box<dyn Platform> {
        match self {
            PlatformKind::Default => Box::new(OpenWhiskDefault),
            PlatformKind::Freyr => Box::new(Freyr::new()),
            PlatformKind::Libra => Box::new(LibraPlatform::new(LibraConfig::libra())),
            PlatformKind::LibraNs => Box::new(LibraPlatform::new(LibraConfig::ns())),
            PlatformKind::LibraNp => Box::new(LibraPlatform::new(LibraConfig::np())),
            PlatformKind::LibraNsp => Box::new(LibraPlatform::new(LibraConfig::nsp())),
            PlatformKind::LibraHist => Box::new(LibraPlatform::new(LibraConfig {
                model_choice: ModelChoice::HistogramOnly,
                ..LibraConfig::libra()
            })),
            PlatformKind::LibraMl => Box::new(LibraPlatform::new(LibraConfig {
                model_choice: ModelChoice::MlOnly,
                ..LibraConfig::libra()
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_parse() {
        for k in PlatformKind::ALL {
            assert_eq!(PlatformKind::parse(k.slug()), Ok(k));
        }
        assert_eq!(PlatformKind::ALL[..6], PlatformKind::MAIN_SIX);
    }

    #[test]
    fn kinds_build() {
        for k in PlatformKind::ALL {
            assert!(!k.build().name().is_empty());
        }
        assert_eq!(PlatformKind::Libra.name(), "Libra");
    }
}
