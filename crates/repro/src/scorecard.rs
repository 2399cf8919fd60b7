//! The reproduction scorecard: every checkable headline claim of the
//! paper, recomputed and judged against a tolerance.
//!
//! This is the machine-checkable core of EXPERIMENTS.md — run
//! `repro scorecard` to audit the whole reproduction in one shot.

use pai_core::characterize;
use pai_profiler::validate::validate_all;
use serde_json::json;

use crate::render::table;
use crate::{Context, ExperimentResult};

/// One audited claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where the paper states it.
    pub source: &'static str,
    /// What is claimed.
    pub statement: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our recomputed value.
    pub reproduced: f64,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
}

impl Claim {
    /// Verdict string: PASS within tolerance, CLOSE within 2×, MISS
    /// beyond.
    pub fn verdict(&self) -> &'static str {
        let err = (self.reproduced - self.paper).abs();
        if err <= self.tolerance {
            "PASS"
        } else if err <= 2.0 * self.tolerance {
            "CLOSE"
        } else {
            "MISS"
        }
    }
}

/// Recomputes every claim from the context. The fleet-level claims
/// all read one [`characterize`] pass.
pub fn claims(ctx: &Context) -> Vec<Claim> {
    let h = characterize(&ctx.model, ctx.population.store(), ctx.threads);
    let mut out = vec![
        // Fleet composition.
        Claim {
            source: "Sec. III-A / Fig. 5b",
            statement: "PS/Worker share of cNodes",
            paper: 0.81,
            reproduced: h.ps_cnode_share,
            tolerance: 0.06,
        },
        Claim {
            source: "Sec. III-D",
            statement: "jobs training models under 10 GB",
            paper: 0.90,
            reproduced: h.small_model_share,
            tolerance: 0.04,
        },
        // Breakdown aggregates.
        Claim {
            source: "Sec. III-D",
            statement: "weight-communication share, cNode level",
            paper: 0.62,
            reproduced: h.cnode_level_fractions[1],
            tolerance: 0.04,
        },
        Claim {
            source: "Sec. III-B",
            statement: "weight-communication share, job level",
            paper: 0.22,
            reproduced: h.job_level_fractions[1],
            tolerance: 0.04,
        },
        Claim {
            source: "Sec. III-D",
            statement: "compute-bound share, cNode level",
            paper: 0.13,
            reproduced: h.cnode_level_fractions[2],
            tolerance: 0.04,
        },
        Claim {
            source: "Sec. III-D",
            statement: "memory-bound share, cNode level",
            paper: 0.22,
            reproduced: h.cnode_level_fractions[3],
            tolerance: 0.05,
        },
        // PS tail.
        Claim {
            source: "Sec. III-B / Fig. 8d",
            statement: "PS jobs with >80% communication",
            paper: 0.40,
            reproduced: h.ps_over_80_comm,
            tolerance: 0.06,
        },
        // Projections.
        Claim {
            source: "Fig. 9a",
            statement: "PS jobs not sped up on AllReduce-Local",
            paper: 0.226,
            reproduced: h.arl_not_sped_up,
            tolerance: 0.06,
        },
        Claim {
            source: "Sec. III-D",
            statement: "PS jobs with throughput improved by AllReduce-Local",
            paper: 0.60,
            reproduced: h.arl_throughput_improved,
            tolerance: 0.08,
        },
        Claim {
            source: "Sec. III-C1",
            statement: "PS jobs sped up on AllReduce-Cluster",
            paper: 0.679,
            reproduced: h.arc_sped_up,
            tolerance: 0.08,
        },
        // Hardware what-ifs.
        Claim {
            source: "Abstract / Sec. III-D",
            statement: "mean PS speedup from 25 to 100 GbE",
            paper: 1.7,
            reproduced: h.eth_100g_speedup,
            tolerance: 0.1,
        },
        Claim {
            source: "Eq. 3",
            statement: "communication-bound speedup bound",
            paper: 21.0,
            reproduced: h.eq3_bound,
            tolerance: 1e-6,
        },
    ];

    // Case studies.
    for r in validate_all() {
        let (paper, tolerance) = match r.model.as_str() {
            // "less than 10% in most cases": claim |diff| small.
            "ResNet50" | "NMT" | "BERT" => (0.0, 0.10),
            "Multi-Interests" => (0.0, 0.20),
            // "more than 66.7%": claim a large magnitude.
            "Speech" => (0.667, 0.30),
            "GCN" => continue, // the paper gives no Fig. 12 number for GCN
            _ => continue,
        };
        out.push(Claim {
            source: "Fig. 12",
            statement: match r.model.as_str() {
                "ResNet50" => "ResNet50 estimate-vs-measured |difference|",
                "NMT" => "NMT estimate-vs-measured |difference|",
                "BERT" => "BERT estimate-vs-measured |difference|",
                "Multi-Interests" => "Multi-Interests estimate-vs-measured |difference|",
                _ => "Speech estimate-vs-measured |difference|",
            },
            paper,
            reproduced: r.difference.abs(),
            tolerance,
        });
    }
    out
}

/// The scorecard experiment.
pub fn scorecard(ctx: &Context) -> ExperimentResult {
    let claims = claims(ctx);
    let mut rows = vec![vec![
        "source".to_string(),
        "claim".to_string(),
        "paper".to_string(),
        "reproduced".to_string(),
        "verdict".to_string(),
    ]];
    let mut payload = Vec::new();
    let mut passes = 0usize;
    for c in &claims {
        if c.verdict() == "PASS" {
            passes += 1;
        }
        rows.push(vec![
            c.source.to_string(),
            c.statement.to_string(),
            format!("{:.3}", c.paper),
            format!("{:.3}", c.reproduced),
            c.verdict().to_string(),
        ]);
        payload.push(json!({
            "source": c.source,
            "claim": c.statement,
            "paper": c.paper,
            "reproduced": c.reproduced,
            "verdict": c.verdict(),
        }));
    }
    let mut text = table(&rows);
    text.push_str(&format!("\n{passes}/{} claims PASS\n", claims.len()));
    ExperimentResult {
        id: "scorecard",
        title: "Reproduction scorecard: every checkable headline claim",
        text,
        json: json!(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_claims_pass_at_scale() {
        let ctx = Context::with_size(8_000);
        let claims = claims(&ctx);
        assert!(claims.len() >= 15, "only {} claims", claims.len());
        let passes = claims.iter().filter(|c| c.verdict() == "PASS").count();
        let misses: Vec<String> = claims
            .iter()
            .filter(|c| c.verdict() == "MISS")
            .map(|c| format!("{}: {} vs {}", c.statement, c.reproduced, c.paper))
            .collect();
        assert!(
            passes as f64 / claims.len() as f64 > 0.75,
            "{passes}/{} pass; misses: {misses:?}",
            claims.len()
        );
        // The exact claims must always pass.
        assert!(
            claims
                .iter()
                .find(|c| c.source == "Eq. 3")
                .expect("present")
                .verdict()
                == "PASS"
        );
    }

    #[test]
    fn verdict_boundaries() {
        let c = Claim {
            source: "x",
            statement: "y",
            paper: 1.0,
            reproduced: 1.04,
            tolerance: 0.05,
        };
        assert_eq!(c.verdict(), "PASS");
        let close = Claim {
            reproduced: 1.09,
            ..c.clone()
        };
        assert_eq!(close.verdict(), "CLOSE");
        let miss = Claim {
            reproduced: 1.2,
            ..c
        };
        assert_eq!(miss.verdict(), "MISS");
    }

    #[test]
    fn scorecard_renders() {
        let r = scorecard(&Context::with_size(2_000));
        assert!(r.text.contains("claims PASS"));
        assert!(r.text.contains("Eq. 3"));
    }
}
