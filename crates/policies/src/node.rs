//! Per-node preemptive priority policies.
//!
//! All keys are lexicographic [`PolicyKey`]s; smaller runs first, and a
//! newly available job preempts the incumbent iff its key is strictly
//! smaller (see `bct-sim`).

use bct_core::ClassRounding;
use bct_sim::{KeyCtx, NodePolicy, PolicyKey};

/// **Shortest Job First** — the paper's node policy (§2):
/// order by the job's original processing time on this node, breaking
/// ties by age (earlier release first), then id.
///
/// With a [`ClassRounding`] attached, sizes are first mapped to their
/// `(1+ε)^k` class so that jobs in the same class are strictly ordered
/// by age — exactly the paper's "in the case of ties, the algorithm
/// processes the oldest job in the class".
#[derive(Clone, Copy, Debug, Default)]
pub struct Sjf {
    rounding: Option<ClassRounding>,
}

impl Sjf {
    /// SJF on raw sizes.
    pub fn new() -> Sjf {
        Sjf { rounding: None }
    }

    /// SJF on `(1+ε)^k` size classes.
    pub fn with_classes(rounding: ClassRounding) -> Sjf {
        Sjf {
            rounding: Some(rounding),
        }
    }
}

impl NodePolicy for Sjf {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        let p = ctx.instance.p(ctx.job, ctx.node);
        let primary = match &self.rounding {
            Some(r) => r.class_of(p) as f64,
            None => p,
        };
        PolicyKey::new(primary, ctx.instance.job(ctx.job).release, ctx.job.0)
    }
}

/// **First In First Out** per node: order of availability at the node.
/// Because a later arrival can never have a smaller key, FIFO is
/// effectively non-preemptive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo;

impl NodePolicy for Fifo {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        PolicyKey::new(
            ctx.arrived_at_node,
            ctx.instance.job(ctx.job).release,
            ctx.job.0,
        )
    }
}

/// **Shortest Remaining Processing Time** at this node.
/// (A waiting job's remaining work is constant, so the key stays valid
/// while it waits; the engine recomputes keys on preemption.)
#[derive(Clone, Copy, Debug, Default)]
pub struct Srpt;

impl NodePolicy for Srpt {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        PolicyKey::new(ctx.remaining, ctx.instance.job(ctx.job).release, ctx.job.0)
    }
}

/// **Highest Density First**: order by `p_{j,v}/w_j` — the natural
/// weighted generalization of SJF used throughout weighted flow-time
/// scheduling (the paper's refs \[3,13\] on machines). Coincides with SJF
/// when all weights are 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hdf;

impl NodePolicy for Hdf {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        let job = ctx.instance.job(ctx.job);
        PolicyKey::new(
            ctx.instance.p(ctx.job, ctx.node) / job.weight,
            job.release,
            ctx.job.0,
        )
    }
}

/// **Longest Job First** — an adversarial ablation baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ljf;

impl NodePolicy for Ljf {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        PolicyKey::new(
            -ctx.instance.p(ctx.job, ctx.node),
            ctx.instance.job(ctx.job).release,
            ctx.job.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, JobId, NodeId};

    fn ctx_fixture() -> Instance {
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        b.add_child(r);
        let t = b.build().unwrap();
        Instance::new(
            t,
            vec![
                Job::identical(0u32, 0.0, 8.0),
                Job::identical(1u32, 1.0, 2.0),
                Job::identical(2u32, 2.0, 2.0),
            ],
        )
        .unwrap()
    }

    fn key_of(p: &dyn NodePolicy, inst: &Instance, j: u32, remaining: f64, arrived: f64) -> PolicyKey {
        p.key(&KeyCtx {
            instance: inst,
            node: NodeId(1),
            job: JobId(j),
            now: 10.0,
            remaining,
            arrived_at_node: arrived,
        })
    }

    #[test]
    fn sjf_orders_by_size_then_age() {
        let inst = ctx_fixture();
        let sjf = Sjf::new();
        let k0 = key_of(&sjf, &inst, 0, 8.0, 0.0);
        let k1 = key_of(&sjf, &inst, 1, 2.0, 1.0);
        let k2 = key_of(&sjf, &inst, 2, 2.0, 2.0);
        assert!(k1 < k0, "smaller job first");
        assert!(k1 < k2, "same size: older job first");
    }

    #[test]
    fn sjf_with_classes_groups_sizes() {
        let inst = ctx_fixture();
        let sjf = Sjf::with_classes(ClassRounding::new(1.0)); // classes: powers of 2
        // 8 -> class 3, 2 -> class 1.
        let k0 = key_of(&sjf, &inst, 0, 8.0, 0.0);
        let k1 = key_of(&sjf, &inst, 1, 2.0, 1.0);
        assert_eq!(k0.primary, 3.0);
        assert_eq!(k1.primary, 1.0);
    }

    #[test]
    fn fifo_orders_by_node_arrival() {
        let inst = ctx_fixture();
        let fifo = Fifo;
        let early = key_of(&fifo, &inst, 0, 8.0, 3.0);
        let late = key_of(&fifo, &inst, 1, 2.0, 5.0);
        assert!(early < late);
    }

    #[test]
    fn srpt_orders_by_remaining() {
        let inst = ctx_fixture();
        let srpt = Srpt;
        let nearly_done = key_of(&srpt, &inst, 0, 0.5, 0.0);
        let fresh = key_of(&srpt, &inst, 1, 2.0, 1.0);
        assert!(nearly_done < fresh);
    }

    #[test]
    fn ljf_reverses_sjf() {
        let inst = ctx_fixture();
        let ljf = Ljf;
        let big = key_of(&ljf, &inst, 0, 8.0, 0.0);
        let small = key_of(&ljf, &inst, 1, 2.0, 1.0);
        assert!(big < small);
    }

    #[test]
    fn hdf_orders_by_density() {
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        b.add_child(r);
        let t = b.build().unwrap();
        let inst = Instance::new(
            t,
            vec![
                Job::identical(0u32, 0.0, 8.0).with_weight(8.0), // density 1
                Job::identical(1u32, 1.0, 2.0),                  // density 2
            ],
        )
        .unwrap();
        let hdf = Hdf;
        let heavy = key_of(&hdf, &inst, 0, 8.0, 0.0);
        let light = key_of(&hdf, &inst, 1, 2.0, 1.0);
        assert!(heavy < light, "high-weight big job outranks the small one");
        // With unit weights HDF == SJF ordering.
        let sjf = Sjf::new();
        let inst_unw = Instance::new(
            inst.tree().clone(),
            vec![
                Job::identical(0u32, 0.0, 8.0),
                Job::identical(1u32, 1.0, 2.0),
            ],
        )
        .unwrap();
        let h0 = key_of(&hdf, &inst_unw, 0, 8.0, 0.0);
        let h1 = key_of(&hdf, &inst_unw, 1, 2.0, 1.0);
        let s0 = key_of(&sjf, &inst_unw, 0, 8.0, 0.0);
        let s1 = key_of(&sjf, &inst_unw, 1, 2.0, 1.0);
        assert_eq!(h0 < h1, s0 < s1);
    }
}
