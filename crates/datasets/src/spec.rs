//! Dataset specifications: the paper's Table II datasets, the synthetic
//! scale ladder, and the validated [`DatasetSpec::builder`].

use std::error::Error;
use std::fmt;

/// Qualitative topology class of a generated network.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Topology {
    /// Small population, heavy pair repetition (email / proximity traces).
    RepeatedContact {
        /// Probability an event repeats an already-linked pair
        /// (Pólya-urn reinforced by multiplicity).
        repeat: f64,
        /// Latent groups (departments / locations) fresh contacts form in.
        groups: usize,
        /// Probability a fresh contact stays inside one group.
        intra: f64,
        /// Per-event probability that one random node migrates to another
        /// group (re-orgs / mobility), keeping fresh intra-group pairs —
        /// the predictable positives — flowing even once old groups
        /// saturate.
        drift: f64,
    },
    /// Degree-preferential attachment with a celebrity core
    /// (reply / wall-post / loan networks).
    HubDominated {
        /// Probability an event repeats an already-linked pair.
        repeat: f64,
        /// Exponent on the degree bias (1.0 = classic preferential
        /// attachment; larger concentrates on the hubs).
        hub_bias: f64,
        /// Probability a fresh link closes a triangle around the chosen
        /// hub (two-hop locality) instead of reaching a uniform stranger.
        /// Real wall-post/reply links are local — raw degree alone is a
        /// weak predictor (the paper's PA scores 0.303 on Facebook).
        local: f64,
    },
    /// Small dense groups with occasional bridges (co-authorship).
    Community {
        /// Number of communities nodes are partitioned into.
        communities: usize,
        /// Probability a link stays inside one community.
        intra: f64,
        /// Probability an event repeats an already-linked pair.
        repeat: f64,
        /// Per-event probability that one random node migrates to another
        /// community. Drift makes old links stale — the property that
        /// rewards time-aware features over all-time link counts.
        drift: f64,
    },
}

impl Topology {
    /// All `(name, value)` probability parameters of the class, for
    /// validation.
    fn probabilities(&self) -> Vec<(&'static str, f64)> {
        match *self {
            Topology::RepeatedContact {
                repeat,
                intra,
                drift,
                ..
            } => vec![("repeat", repeat), ("intra", intra), ("drift", drift)],
            Topology::HubDominated { repeat, local, .. } => {
                vec![("repeat", repeat), ("local", local)]
            }
            Topology::Community {
                intra,
                repeat,
                drift,
                ..
            } => vec![("intra", intra), ("repeat", repeat), ("drift", drift)],
        }
    }
}

/// A typed reason a [`DatasetSpec`] is invalid, produced by
/// [`DatasetSpecBuilder::build`] (and converted into the facade's
/// `SsfError::Config` by `ssf-repro`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpecError {
    /// The dataset name is empty.
    EmptyName,
    /// Fewer than two nodes: no pair to link.
    TooFewNodes {
        /// The requested node count.
        nodes: usize,
    },
    /// Fewer links than `nodes - 1`: the growth phase attaches every node
    /// with one event, so the graph cannot cover `|V|` nodes.
    TooFewLinks {
        /// The requested link count.
        links: usize,
        /// The minimum for the requested node count.
        min: usize,
    },
    /// A time span of zero ticks: timestamps sweep `[1, span]`.
    ZeroTimeSpan,
    /// No topology class was supplied to the builder.
    MissingTopology,
    /// A probability parameter is outside `[0, 1]`.
    InvalidProbability {
        /// Which parameter (`"repeat"`, `"intra"`, …).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A group/community count of zero, or a degree bias below 1.
    InvalidTopology {
        /// Which invariant failed, human-readable.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyName => write!(f, "dataset name is empty"),
            SpecError::TooFewNodes { nodes } => {
                write!(f, "need at least 2 nodes, got {nodes}")
            }
            SpecError::TooFewLinks { links, min } => write!(
                f,
                "need at least {min} links to cover every node, got {links}"
            ),
            SpecError::ZeroTimeSpan => {
                write!(f, "time span must be at least 1 tick")
            }
            SpecError::MissingTopology => {
                write!(f, "no topology class supplied")
            }
            SpecError::InvalidProbability { field, value } => write!(
                f,
                "probability `{field}` must be in [0, 1], got {value}"
            ),
            SpecError::InvalidTopology { detail } => {
                write!(f, "invalid topology: {detail}")
            }
        }
    }
}

impl Error for SpecError {}

/// One paper dataset (Table II), as a typed name for
/// [`ScaleTier::Paper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Eu-Email — institutional email.
    EuEmail,
    /// Contact — wireless proximity.
    Contact,
    /// Facebook — wall posts.
    Facebook,
    /// Co-author — DBLP subset.
    Coauthor,
    /// Prosper — loans.
    Prosper,
    /// Slashdot — replies.
    Slashdot,
    /// Digg — replies, sparsest.
    Digg,
}

impl PaperDataset {
    /// All seven paper datasets in Table II order.
    pub fn all() -> [PaperDataset; 7] {
        [
            PaperDataset::EuEmail,
            PaperDataset::Contact,
            PaperDataset::Facebook,
            PaperDataset::Coauthor,
            PaperDataset::Prosper,
            PaperDataset::Slashdot,
            PaperDataset::Digg,
        ]
    }

    /// The spec of this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            PaperDataset::EuEmail => DatasetSpec::eu_email(),
            PaperDataset::Contact => DatasetSpec::contact(),
            PaperDataset::Facebook => DatasetSpec::facebook(),
            PaperDataset::Coauthor => DatasetSpec::coauthor(),
            PaperDataset::Prosper => DatasetSpec::prosper(),
            PaperDataset::Slashdot => DatasetSpec::slashdot(),
            PaperDataset::Digg => DatasetSpec::digg(),
        }
    }
}

/// A rung of the synthetic scale ladder, or one of the paper datasets.
///
/// The synthetic tiers share one topology family (drifting communities
/// with Pólya pair repetition) and grow only in size, so cross-tier
/// comparisons measure scale, not topology. Tier time spans are coarse
/// relative to the link count — consecutive same-row timestamps stay
/// close, as in real traces (many events per tick).
///
/// | tier | nodes | links | span |
/// |------|-------|-------|------|
/// | S    | 10 000 | 50 000 | 4 000 |
/// | M    | 100 000 | 300 000 | 8 000 |
/// | L    | 400 000 | 1 000 000 | 16 000 |
/// | XL   | 1 000 000 | 2 500 000 | 30 000 |
/// | Huge | 2 000 000 | 5 000 000 | 50 000 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ScaleTier {
    /// 10k nodes / 50k links — CI-fast.
    S,
    /// 100k nodes / 300k links.
    M,
    /// 400k nodes / 1M links — the acceptance rung for bytes/link.
    L,
    /// 1M nodes / 2.5M links.
    Xl,
    /// 2M nodes / 5M links — headroom rung, not exercised by CI.
    Huge,
    /// One of the seven Table II datasets.
    Paper(PaperDataset),
}

impl ScaleTier {
    /// All synthetic rungs, small to large.
    pub fn synthetic() -> [ScaleTier; 5] {
        [
            ScaleTier::S,
            ScaleTier::M,
            ScaleTier::L,
            ScaleTier::Xl,
            ScaleTier::Huge,
        ]
    }

    /// The tier's short name (`"S"`, `"M"`, …, or the paper dataset name).
    pub fn name(self) -> &'static str {
        match self {
            ScaleTier::S => "S",
            ScaleTier::M => "M",
            ScaleTier::L => "L",
            ScaleTier::Xl => "XL",
            ScaleTier::Huge => "Huge",
            ScaleTier::Paper(p) => p.spec().name,
        }
    }
}

/// Parameters of one dataset: name, Table II statistics and topology class.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Dataset name as printed in the paper's tables.
    pub name: &'static str,
    /// Target node count `|V|`.
    pub nodes: usize,
    /// Target timestamped link count `|E|` (multi-links counted).
    pub target_links: usize,
    /// Number of timestamp ticks ("Time Span" of Table II).
    pub time_span: u32,
    /// Topology class driving the generator.
    pub topology: Topology,
}

impl DatasetSpec {
    /// Starts a validated spec builder. See [`DatasetSpecBuilder`].
    ///
    /// ```rust
    /// use datasets::{DatasetSpec, Topology};
    ///
    /// let spec = DatasetSpec::builder("my-trace")
    ///     .nodes(500)
    ///     .target_links(5_000)
    ///     .time_span(100)
    ///     .topology(Topology::HubDominated {
    ///         repeat: 0.3,
    ///         hub_bias: 1.1,
    ///         local: 0.5,
    ///     })
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(spec.nodes, 500);
    /// ```
    pub fn builder(name: &'static str) -> DatasetSpecBuilder {
        DatasetSpecBuilder {
            name,
            nodes: 0,
            target_links: 0,
            time_span: 0,
            topology: None,
        }
    }

    /// The spec of one [`ScaleTier`] rung — infallible (every rung is a
    /// known-valid spec).
    pub fn tier(tier: ScaleTier) -> DatasetSpec {
        let synthetic = |name, nodes: usize, links, span| DatasetSpec {
            name,
            nodes,
            target_links: links,
            time_span: span,
            topology: Topology::Community {
                communities: (nodes / 250).max(4),
                intra: 0.8,
                repeat: 0.3,
                drift: 0.005,
            },
        };
        match tier {
            ScaleTier::S => synthetic("scale-s", 10_000, 50_000, 4_000),
            ScaleTier::M => synthetic("scale-m", 100_000, 300_000, 8_000),
            ScaleTier::L => synthetic("scale-l", 400_000, 1_000_000, 16_000),
            ScaleTier::Xl => {
                synthetic("scale-xl", 1_000_000, 2_500_000, 30_000)
            }
            ScaleTier::Huge => {
                synthetic("scale-huge", 2_000_000, 5_000_000, 50_000)
            }
            ScaleTier::Paper(p) => p.spec(),
        }
    }

    /// Checks every invariant the builder enforces; constructor-made specs
    /// always pass.
    ///
    /// # Errors
    ///
    /// The first violated [`SpecError`] invariant.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        if self.nodes < 2 {
            return Err(SpecError::TooFewNodes { nodes: self.nodes });
        }
        if self.target_links < self.nodes - 1 {
            return Err(SpecError::TooFewLinks {
                links: self.target_links,
                min: self.nodes - 1,
            });
        }
        if self.time_span == 0 {
            return Err(SpecError::ZeroTimeSpan);
        }
        for (field, value) in self.topology.probabilities() {
            if !(0.0..=1.0).contains(&value) {
                return Err(SpecError::InvalidProbability { field, value });
            }
        }
        match self.topology {
            Topology::RepeatedContact { groups: 0, .. } => {
                return Err(SpecError::InvalidTopology {
                    detail: "zero groups".to_string(),
                });
            }
            Topology::Community { communities: 0, .. } => {
                return Err(SpecError::InvalidTopology {
                    detail: "zero communities".to_string(),
                });
            }
            Topology::HubDominated { hub_bias, .. } if hub_bias < 1.0 => {
                return Err(SpecError::InvalidTopology {
                    detail: format!("hub_bias {hub_bias} below 1.0"),
                });
            }
            _ => {}
        }
        Ok(())
    }

    /// Eu-Email: |V|=309, |E|=61046, span 803 h — institutional email.
    pub fn eu_email() -> Self {
        DatasetSpec {
            name: "Eu-email",
            nodes: 309,
            target_links: 61_046,
            time_span: 803,
            topology: Topology::RepeatedContact {
                repeat: 0.82,
                groups: 18,
                intra: 0.85,
                drift: 0.01,
            },
        }
    }

    /// Contact: |V|=274, |E|=28245, span 96 h — wireless proximity.
    pub fn contact() -> Self {
        DatasetSpec {
            name: "Contact",
            nodes: 274,
            target_links: 28_245,
            time_span: 96,
            topology: Topology::RepeatedContact {
                repeat: 0.75,
                groups: 14,
                intra: 0.8,
                drift: 0.01,
            },
        }
    }

    /// Facebook: |V|=4313, |E|=42346, span 366 d — wall posts.
    pub fn facebook() -> Self {
        DatasetSpec {
            name: "Facebook",
            nodes: 4313,
            target_links: 42_346,
            time_span: 366,
            topology: Topology::HubDominated {
                repeat: 0.35,
                hub_bias: 1.0,
                local: 0.7,
            },
        }
    }

    /// Co-author: |V|=744, |E|=7034, span 20 y — DBLP subset.
    pub fn coauthor() -> Self {
        DatasetSpec {
            name: "Coauthor",
            nodes: 744,
            target_links: 7034,
            time_span: 20,
            topology: Topology::Community {
                communities: 60,
                intra: 0.9,
                repeat: 0.25,
                drift: 0.1,
            },
        }
    }

    /// Prosper: |V|=1264, |E|=8874, span 60 m — loans.
    pub fn prosper() -> Self {
        DatasetSpec {
            name: "Prosper",
            nodes: 1264,
            target_links: 8874,
            time_span: 60,
            topology: Topology::HubDominated {
                repeat: 0.15,
                hub_bias: 1.1,
                local: 0.6,
            },
        }
    }

    /// Slashdot: |V|=2680, |E|=9904, span 240 d — replies.
    pub fn slashdot() -> Self {
        DatasetSpec {
            name: "Slashdot",
            nodes: 2680,
            target_links: 9904,
            time_span: 240,
            topology: Topology::HubDominated {
                repeat: 0.12,
                hub_bias: 1.2,
                local: 0.45,
            },
        }
    }

    /// Digg: |V|=3215, |E|=9618, span 240 h — replies, sparsest.
    pub fn digg() -> Self {
        DatasetSpec {
            name: "Digg",
            nodes: 3215,
            target_links: 9618,
            time_span: 240,
            topology: Topology::HubDominated {
                repeat: 0.10,
                hub_bias: 1.25,
                local: 0.4,
            },
        }
    }

    /// All seven paper datasets in Table II order.
    pub fn paper_datasets() -> Vec<DatasetSpec> {
        PaperDataset::all().iter().map(|p| p.spec()).collect()
    }

    /// A reduced copy for fast test/CI runs: scales nodes and links by
    /// `factor` (at least 30 nodes / 60 links), keeping the time span.
    /// Community counts scale along so the per-community size — the
    /// structure the generator relies on — is preserved.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let mut s = self.clone();
        s.nodes = ((s.nodes as f64 * factor) as usize).max(30);
        s.target_links = ((s.target_links as f64 * factor) as usize).max(60);
        match &mut s.topology {
            Topology::Community { communities, .. } => {
                *communities = ((*communities as f64 * factor) as usize).max(4);
            }
            Topology::RepeatedContact { groups, .. } => {
                *groups = ((*groups as f64 * factor) as usize).max(3);
            }
            Topology::HubDominated { .. } => {}
        }
        s
    }

    /// Expected average multigraph degree `2|E| / |V|`.
    pub fn expected_avg_degree(&self) -> f64 {
        2.0 * self.target_links as f64 / self.nodes as f64
    }
}

impl fmt::Display for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (|V|={}, |E|={}, span={})",
            self.name, self.nodes, self.target_links, self.time_span
        )
    }
}

/// Validated builder for custom [`DatasetSpec`]s, mirroring the facade's
/// `OnlinePredictorConfig` pattern: setters are infallible, every
/// invariant is checked once in [`build`](DatasetSpecBuilder::build) and
/// violations come back as typed [`SpecError`]s instead of generator
/// panics deep inside a run.
#[derive(Debug, Clone)]
#[must_use = "call .build() to obtain the validated spec"]
pub struct DatasetSpecBuilder {
    name: &'static str,
    nodes: usize,
    target_links: usize,
    time_span: u32,
    topology: Option<Topology>,
}

impl DatasetSpecBuilder {
    /// Target node count `|V|` (at least 2).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Target timestamped link count `|E|` (at least `nodes - 1`).
    pub fn target_links(mut self, links: usize) -> Self {
        self.target_links = links;
        self
    }

    /// Number of timestamp ticks (at least 1).
    pub fn time_span(mut self, span: u32) -> Self {
        self.time_span = span;
        self
    }

    /// Topology class driving the generator (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Validates and produces the spec.
    ///
    /// # Errors
    ///
    /// The first violated [`SpecError`] invariant.
    pub fn build(self) -> Result<DatasetSpec, SpecError> {
        let topology = self.topology.ok_or(SpecError::MissingTopology)?;
        let spec = DatasetSpec {
            name: self.name,
            nodes: self.nodes,
            target_links: self.target_links,
            time_span: self.time_span,
            topology,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_statistics() {
        let all = DatasetSpec::paper_datasets();
        assert_eq!(all.len(), 7);
        let eu = &all[0];
        assert_eq!(
            (eu.nodes, eu.target_links, eu.time_span),
            (309, 61_046, 803)
        );
        assert!((eu.expected_avg_degree() - 395.12).abs() < 0.1);
        let digg = &all[6];
        assert!((digg.expected_avg_degree() - 5.98).abs() < 0.01);
    }

    #[test]
    fn scaled_preserves_span_and_bounds() {
        let s = DatasetSpec::facebook().scaled(0.01);
        assert_eq!(s.time_span, 366);
        assert!(s.nodes >= 30);
        assert!(s.target_links >= 60);
        assert!(s.nodes < 4313);
    }

    #[test]
    fn display_contains_name() {
        assert!(DatasetSpec::digg().to_string().contains("Digg"));
    }

    #[test]
    fn builder_round_trips_a_valid_spec() {
        let spec = DatasetSpec::builder("custom")
            .nodes(100)
            .target_links(1000)
            .time_span(50)
            .topology(Topology::Community {
                communities: 8,
                intra: 0.9,
                repeat: 0.2,
                drift: 0.05,
            })
            .build()
            .unwrap();
        assert_eq!(spec.name, "custom");
        assert_eq!(spec.nodes, 100);
        spec.validate().unwrap();
    }

    #[test]
    fn builder_rejects_each_invalid_field_with_a_typed_error() {
        let topo = Topology::HubDominated {
            repeat: 0.3,
            hub_bias: 1.0,
            local: 0.5,
        };
        let base = || {
            DatasetSpec::builder("t")
                .nodes(100)
                .target_links(1000)
                .time_span(10)
                .topology(topo)
        };
        assert_eq!(
            DatasetSpec::builder("t").build(),
            Err(SpecError::MissingTopology)
        );
        assert_eq!(
            base().nodes(1).build(),
            Err(SpecError::TooFewNodes { nodes: 1 })
        );
        assert_eq!(
            base().target_links(5).build(),
            Err(SpecError::TooFewLinks { links: 5, min: 99 })
        );
        assert_eq!(base().time_span(0).build(), Err(SpecError::ZeroTimeSpan));
        assert_eq!(
            base()
                .topology(Topology::HubDominated {
                    repeat: 1.5,
                    hub_bias: 1.0,
                    local: 0.5,
                })
                .build(),
            Err(SpecError::InvalidProbability {
                field: "repeat",
                value: 1.5
            })
        );
        assert!(matches!(
            base()
                .topology(Topology::Community {
                    communities: 0,
                    intra: 0.5,
                    repeat: 0.5,
                    drift: 0.0,
                })
                .build(),
            Err(SpecError::InvalidTopology { .. })
        ));
        assert_eq!(
            DatasetSpec::builder("")
                .nodes(2)
                .target_links(1)
                .time_span(1)
                .topology(topo)
                .build(),
            Err(SpecError::EmptyName)
        );
    }

    #[test]
    fn spec_error_display_is_actionable() {
        let e = SpecError::TooFewLinks { links: 5, min: 99 };
        let text = e.to_string();
        assert!(text.contains('5') && text.contains("99"), "{text}");
        assert!(SpecError::InvalidProbability {
            field: "intra",
            value: -0.2
        }
        .to_string()
        .contains("intra"));
    }

    #[test]
    fn every_tier_is_valid_and_monotone_in_links() {
        let mut last = 0usize;
        for tier in ScaleTier::synthetic() {
            let spec = DatasetSpec::tier(tier);
            spec.validate().unwrap();
            assert!(
                spec.target_links > last,
                "{tier:?} not larger than predecessor"
            );
            last = spec.target_links;
        }
        for p in PaperDataset::all() {
            DatasetSpec::tier(ScaleTier::Paper(p)).validate().unwrap();
        }
        assert_eq!(DatasetSpec::tier(ScaleTier::S).name, "scale-s");
        assert_eq!(
            DatasetSpec::tier(ScaleTier::Paper(PaperDataset::Digg)).name,
            "Digg"
        );
        assert_eq!(ScaleTier::Xl.name(), "XL");
        assert_eq!(ScaleTier::Paper(PaperDataset::Coauthor).name(), "Coauthor");
    }
}
