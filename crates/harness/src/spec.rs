//! Textual specs for topologies, size distributions, speeds and
//! policies, so sweep files, the CLI, and scripts driving it can name
//! every configuration on one line.
//!
//! Grammar (everything after `:` is comma-separated numbers):
//!
//! * topology — `line:R`, `star:B,D`, `kary:K,D`, `caterpillar:S,L`,
//!   `broomstick:H,LEN,L`, `fat-tree:P,E,H`, `random:R,L` (seeded
//!   separately).
//! * sizes — `fixed:P`, `uniform:LO,HI`, `pareto:ALPHA,MIN`,
//!   `bimodal:SMALL,LARGE,PLARGE`, `pow:BASE,MAXK`.
//! * speeds — `uniform:S`, `layered:ROOT,DEEP`,
//!   `paper-identical:EPS`, `paper-unrelated:EPS`.
//! * policy — `NODE+ASSIGN` with nodes `sjf|sjf-classes:EPS|fifo|srpt|ljf|hdf`
//!   and assignments `greedy:EPS|greedy-unrel:EPS|greedy-no-dist:EPS|`
//!   `closest|random:SEED|round-robin|least-volume|min-eta|`
//!   `best-fit|min-active|random-feasible:SEED|chaos`
//!   (the capacity-aware trio reads the workload's `capacity` knob;
//!   `chaos` deliberately panics — fault-injection only).

use crate::registry::{AssignKind, NodePolicyKind, PolicyCombo};
use bct_core::{SpeedProfile, Tree};
use bct_workloads::jobs::SizeDist;
use bct_workloads::topo;
use rand::SeedableRng;

fn split(spec: &str) -> (&str, Vec<f64>) {
    match spec.split_once(':') {
        None => (spec, Vec::new()),
        Some((name, rest)) => {
            let nums = rest
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<f64>().unwrap_or(f64::NAN))
                .collect();
            (name, nums)
        }
    }
}

fn arg(nums: &[f64], i: usize, what: &str) -> Result<f64, String> {
    match nums.get(i) {
        Some(v) if v.is_finite() => Ok(*v),
        _ => Err(format!("missing/invalid argument {i} for {what}")),
    }
}

/// Parse a topology spec; `seed` feeds `random:`.
pub fn parse_topology(spec: &str, seed: u64) -> Result<Tree, String> {
    let (name, n) = split(spec);
    let u = |i: usize| -> Result<usize, String> {
        arg(&n, i, name).map(|v| v.max(1.0) as usize)
    };
    match name {
        "line" => Ok(topo::line(u(0)?)),
        "star" => Ok(topo::star(u(0)?, u(1)?)),
        "kary" => Ok(topo::kary(u(0)?, u(1)?)),
        "caterpillar" => Ok(topo::caterpillar(u(0)?, u(1)?)),
        "broomstick" => Ok(topo::broomstick(u(0)?, u(1)?.max(2), u(2)?)),
        "fat-tree" | "fattree" => Ok(topo::fat_tree(u(0)?, u(1)?, u(2)?)),
        "random" => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            Ok(topo::random_tree(&mut rng, u(0)?, u(1)?))
        }
        other => Err(format!("unknown topology '{other}'")),
    }
}

/// Parse a size-distribution spec.
pub fn parse_sizes(spec: &str) -> Result<SizeDist, String> {
    let (name, n) = split(spec);
    match name {
        "fixed" => Ok(SizeDist::Fixed(arg(&n, 0, name)?)),
        "uniform" => Ok(SizeDist::Uniform {
            lo: arg(&n, 0, name)?,
            hi: arg(&n, 1, name)?,
        }),
        "pareto" => Ok(SizeDist::Pareto {
            alpha: arg(&n, 0, name)?,
            min: arg(&n, 1, name)?,
        }),
        "bimodal" => Ok(SizeDist::Bimodal {
            small: arg(&n, 0, name)?,
            large: arg(&n, 1, name)?,
            p_large: arg(&n, 2, name)?,
        }),
        "pow" => Ok(SizeDist::PowerOfBase {
            base: arg(&n, 0, name)?,
            max_k: arg(&n, 1, name)? as u32,
        }),
        other => Err(format!("unknown size distribution '{other}'")),
    }
}

/// Parse a speed-profile spec.
pub fn parse_speeds(spec: &str) -> Result<SpeedProfile, String> {
    let (name, n) = split(spec);
    match name {
        "uniform" => Ok(SpeedProfile::Uniform(arg(&n, 0, name)?)),
        "layered" => Ok(SpeedProfile::Layered {
            root_adjacent: arg(&n, 0, name)?,
            deeper: arg(&n, 1, name)?,
        }),
        "paper-identical" => Ok(SpeedProfile::paper_identical(arg(&n, 0, name)?)),
        "paper-unrelated" => Ok(SpeedProfile::paper_unrelated(arg(&n, 0, name)?)),
        other => Err(format!("unknown speed profile '{other}'")),
    }
}

/// Parse a `node+assign` policy spec.
pub fn parse_policy(spec: &str) -> Result<PolicyCombo, String> {
    let (node_s, assign_s) = spec
        .split_once('+')
        .ok_or_else(|| format!("policy must be NODE+ASSIGN, got '{spec}'"))?;
    let (nname, nn) = split(node_s);
    let node = match nname {
        "sjf" => NodePolicyKind::Sjf,
        "sjf-classes" => NodePolicyKind::SjfClasses(arg(&nn, 0, nname)?),
        "fifo" => NodePolicyKind::Fifo,
        "srpt" => NodePolicyKind::Srpt,
        "ljf" => NodePolicyKind::Ljf,
        "hdf" => NodePolicyKind::Hdf,
        other => return Err(format!("unknown node policy '{other}'")),
    };
    let (aname, an) = split(assign_s);
    let assign = match aname {
        "greedy" => AssignKind::GreedyIdentical(arg(&an, 0, aname).unwrap_or(0.5)),
        "greedy-unrel" => AssignKind::GreedyUnrelated(arg(&an, 0, aname).unwrap_or(0.5)),
        "greedy-no-dist" => AssignKind::GreedyNoDistance(arg(&an, 0, aname).unwrap_or(0.5)),
        "closest" => AssignKind::Closest,
        "random" => AssignKind::Random(arg(&an, 0, aname).unwrap_or(0.0) as u64),
        "round-robin" => AssignKind::RoundRobin,
        "least-volume" => AssignKind::LeastVolume,
        "min-eta" => AssignKind::MinEta,
        "best-fit" => AssignKind::BestFit,
        "min-active" => AssignKind::MinActive,
        "random-feasible" => AssignKind::RandomFeasible(arg(&an, 0, aname).unwrap_or(0.0) as u64),
        "chaos" => AssignKind::Chaos,
        other => return Err(format!("unknown assignment policy '{other}'")),
    };
    Ok(PolicyCombo { node, assign })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_parse() {
        assert_eq!(parse_topology("line:3", 0).unwrap().num_leaves(), 1);
        assert_eq!(parse_topology("star:4,2", 0).unwrap().num_leaves(), 4);
        assert_eq!(parse_topology("fat-tree:2,2,2", 0).unwrap().num_leaves(), 8);
        assert!(parse_topology("blob:1", 0).is_err());
        assert!(parse_topology("star:4", 0).is_err(), "missing arg");
        // random is seeded deterministically
        let a = parse_topology("random:5,5", 9).unwrap();
        let b = parse_topology("random:5,5", 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_sizes("fixed:2").unwrap(), SizeDist::Fixed(2.0));
        assert!(matches!(
            parse_sizes("bimodal:1,32,0.1").unwrap(),
            SizeDist::Bimodal { .. }
        ));
        assert!(parse_sizes("pareto:2").is_err());
        assert!(parse_sizes("nope:1").is_err());
    }

    #[test]
    fn speeds_parse() {
        assert_eq!(
            parse_speeds("uniform:1.5").unwrap(),
            SpeedProfile::Uniform(1.5)
        );
        assert!(matches!(
            parse_speeds("paper-identical:0.5").unwrap(),
            SpeedProfile::Layered { .. }
        ));
        assert!(parse_speeds("warp:9").is_err());
    }

    #[test]
    fn policies_parse() {
        let c = parse_policy("sjf+greedy:0.5").unwrap();
        assert_eq!(c.label(), "sjf+greedy");
        let c = parse_policy("fifo+round-robin").unwrap();
        assert_eq!(c.label(), "fifo+round-robin");
        let c = parse_policy("sjf-classes:0.5+least-volume").unwrap();
        assert_eq!(c.label(), "sjf-classes+least-volume");
        let c = parse_policy("sjf+chaos").unwrap();
        assert_eq!(c.label(), "sjf+chaos");
        let c = parse_policy("sjf+best-fit").unwrap();
        assert_eq!(c.assign, AssignKind::BestFit);
        let c = parse_policy("srpt+min-active").unwrap();
        assert_eq!(c.label(), "srpt+min-active");
        let c = parse_policy("sjf+random-feasible:42").unwrap();
        assert_eq!(c.assign, AssignKind::RandomFeasible(42));
        assert!(parse_policy("sjf").is_err());
        assert!(parse_policy("sjf+warp").is_err());
    }
}
