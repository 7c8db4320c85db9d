//! Seeded, deterministic fault injection for the simulator.
//!
//! Production fleets do not run on perfect devices: compute units die,
//! individual CUs stall, kernels abort mid-flight. The fault plane lets
//! every layer above the simulator rehearse those failures
//! deterministically — a [`FaultPlan`] is either written out explicitly
//! (unit tests) or drawn from a [`FaultSpec`] plus a seed (sweeps), and
//! the same plan on the same episode yields a byte-identical
//! [`crate::SimReport`] on every run and thread count.
//!
//! Four fault kinds are modelled (see [`FaultKind`]):
//!
//! * **CU failure** — the CU drops out of placement (permanently, or
//!   until a repair time). Resident work is lost: in-flight chunks are
//!   rolled back and requeued so they re-execute *exactly once*, and the
//!   workers themselves migrate to the surviving CUs' queue heads.
//! * **Domain failure** — a whole [`FailureDomain`] (a rack or power
//!   domain's worth of CUs, carried by the plan) fails together
//!   and repairs together: every member CU takes the CU-failure path at
//!   the same instant, in ascending CU order, sharing one repair time.
//! * **Straggler** — every segment *started* on the CU during a time
//!   window is stretched by a slowdown factor (a thermal throttle or a
//!   flaky memory channel, not a death).
//! * **Kernel abort** — the launch dies mid-flight: its in-flight work
//!   is rolled back, its completed-group count is reported as-is, its
//!   resources are freed, and any resume anchored on its retirement
//!   still fires (recovery is the runtime's job — `ProxyCl` retries
//!   aborted kernels with exponential backoff, resuming from the
//!   completed-group checkpoint).
//!
//! Zero faults configured costs nothing: the engine takes the exact same
//! arithmetic path as before the fault plane existed, so fault-free runs
//! are bit-identical to historical reports.

use crate::launch::LaunchId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A correlated-failure group of compute units — the CUs that share a
/// rack, power feed, or cooling loop and therefore fail *together*.
///
/// Domains travel with the fault plan that fails them
/// ([`FaultPlan::domains`]); a [`FaultKind::DomainFailure`] names one
/// by index. Domains need not partition the device and may overlap,
/// though the usual topology is a partition
/// ([`FailureDomain::split_evenly`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDomain {
    /// Human-readable label (rendered in traces and harness tables).
    pub name: String,
    /// Member compute units, by index.
    pub cus: Vec<usize>,
}

impl FailureDomain {
    /// Partition `num_cus` compute units into `num_domains` contiguous
    /// domains as evenly as possible (the first `num_cus % num_domains`
    /// domains get one extra CU), named `rack0`, `rack1`, ….
    ///
    /// # Examples
    ///
    /// ```
    /// use gpu_sim::FailureDomain;
    /// let racks = FailureDomain::split_evenly(13, 4);
    /// assert_eq!(racks.len(), 4);
    /// assert_eq!(racks[0].cus, vec![0, 1, 2, 3]);
    /// assert_eq!(racks[3].cus, vec![10, 11, 12]);
    /// ```
    pub fn split_evenly(num_cus: usize, num_domains: usize) -> Vec<FailureDomain> {
        let n = num_domains.max(1);
        let base = num_cus / n;
        let extra = num_cus % n;
        let mut out = Vec::with_capacity(n);
        let mut next = 0;
        for d in 0..n {
            let size = base + usize::from(d < extra);
            out.push(FailureDomain {
                name: format!("rack{d}"),
                cus: (next..next + size).collect(),
            });
            next += size;
        }
        out
    }
}

/// One kind of injected failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Compute unit `cu` fails: it leaves the ready-set index and rejects
    /// all placement until `repair_at` (forever when `None`). Resident
    /// chunks are lost and requeued; resident workers migrate to
    /// surviving CUs.
    CuFailure {
        /// The failing compute unit.
        cu: usize,
        /// Absolute repair time, or `None` for a permanent failure.
        repair_at: Option<u64>,
    },
    /// Compute unit `cu` runs slow: segments starting on it before
    /// `until` cost `factor` times their nominal (contention-scaled)
    /// duration. No work is lost.
    Straggler {
        /// The slowed compute unit.
        cu: usize,
        /// Multiplier applied to segment costs (≥ 1 to slow down).
        factor: f64,
        /// Absolute end of the slowdown window.
        until: u64,
    },
    /// Every CU of one of the plan's [`FailureDomain`]s fails at once (rack
    /// power loss): each member takes the exact CU-failure path, in
    /// ascending CU order, and all members share one repair time. A
    /// permanent domain failure never takes the *last* surviving CU —
    /// the engine skips that member so capacity degrades without
    /// zeroing, mirroring the [`FaultPlan::from_spec`] draw guarantee.
    DomainFailure {
        /// Index into the plan's [`FaultPlan::domains`].
        domain: usize,
        /// Absolute repair time for every member, or `None` for a
        /// permanent loss of the whole domain.
        repair_at: Option<u64>,
    },
    /// The launch dies at the fault time: in-flight chunks roll back,
    /// queued and resident workers are torn down, resources are freed,
    /// and the report keeps the completed-group count with
    /// `aborted = true`.
    KernelAbort {
        /// The launch to kill.
        launch: LaunchId,
    },
}

/// One scheduled fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulation time the fault fires.
    pub at: u64,
    /// What fails.
    pub kind: FaultKind,
}

/// Shape of a random fault draw: *counts* of each fault kind over a time
/// horizon (counts, not rates, so a sweep point is exactly reproducible
/// and the fault rate is simply `count / horizon`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault times are drawn uniformly from `[0, horizon)`.
    pub horizon: u64,
    /// Number of CU failures to draw.
    pub cu_failures: usize,
    /// Repair delay after each CU failure (`None` = permanent).
    pub repair_delay: Option<u64>,
    /// Number of straggler windows to draw.
    pub stragglers: usize,
    /// Slowdown factor of each straggler window.
    pub slowdown: f64,
    /// Length of each straggler window.
    pub straggler_window: u64,
    /// Number of kernel aborts to draw.
    pub aborts: usize,
    /// Number of correlated domain failures to draw (requires the
    /// domain-aware draw, [`FaultPlan::from_spec_with_domains`]; the
    /// plain [`FaultPlan::from_spec`] knows no domains and draws none).
    pub domain_failures: usize,
    /// Repair delay after each domain failure (`None` = permanent).
    pub domain_repair_delay: Option<u64>,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a sweep baseline).
    pub fn none(horizon: u64) -> Self {
        FaultSpec {
            horizon,
            cu_failures: 0,
            repair_delay: None,
            stragglers: 0,
            slowdown: 1.0,
            straggler_window: 0,
            aborts: 0,
            domain_failures: 0,
            domain_repair_delay: None,
        }
    }
}

/// A concrete, ordered schedule of fault injections.
///
/// # Examples
///
/// ```
/// use gpu_sim::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
///
/// // Drawn plans are deterministic per (spec, topology, seed).
/// let spec = FaultSpec { horizon: 10_000, cu_failures: 1, repair_delay: None,
///                        stragglers: 1, slowdown: 3.0, straggler_window: 2_000,
///                        aborts: 0, domain_failures: 0, domain_repair_delay: None };
/// let a = FaultPlan::from_spec(&spec, 8, 3, 42);
/// let b = FaultPlan::from_spec(&spec, 8, 3, 42);
/// assert_eq!(a, b);
/// assert_eq!(a.events.len(), 2);
///
/// // Or written out explicitly.
/// let plan = FaultPlan::new(vec![FaultEvent {
///     at: 500,
///     kind: FaultKind::CuFailure { cu: 0, repair_at: Some(2_000) },
/// }]);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The injections, in non-decreasing time order.
    pub events: Vec<FaultEvent>,
    /// The correlated-failure topology the plan's
    /// [`FaultKind::DomainFailure`] events index into: filled by the
    /// domain-aware draw, empty otherwise. With no domain failure in
    /// `events` it is inert — the run is bit-identical to an empty list.
    pub domains: Vec<FailureDomain>,
}

impl FaultPlan {
    /// Plan from an explicit event list (sorted by time, stably, so
    /// same-instant faults keep their authored order) with no failure
    /// domains.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan {
            events,
            domains: Vec::new(),
        }
    }

    /// Draw a plan from `spec` for a device with `num_cus` compute units
    /// and an episode of `num_launches` launches, using the workspace's
    /// seeded generator. The draw never fails *every* CU permanently —
    /// at least one CU always survives, so work is degraded, not
    /// stranded.
    ///
    /// This draw knows no failure domains: `spec.domain_failures` is
    /// ignored (use [`FaultPlan::from_spec_with_domains`]). For any spec
    /// with `domain_failures == 0`, both draws are byte-identical.
    pub fn from_spec(spec: &FaultSpec, num_cus: usize, num_launches: usize, seed: u64) -> Self {
        Self::from_spec_with_domains(spec, num_cus, num_launches, 0, seed)
    }

    /// [`FaultPlan::from_spec`] on a device partitioned into
    /// `num_domains` failure domains
    /// ([`FailureDomain::split_evenly`], kept in [`FaultPlan::domains`];
    /// none when `num_domains` is 0), plus `spec.domain_failures`
    /// correlated domain failures drawn over them. The domain draws come
    /// strictly *after* every independent draw, so a `(spec, seed)` pair
    /// that drew a plan before domains existed still draws the identical
    /// events.
    pub fn from_spec_with_domains(
        spec: &FaultSpec,
        num_cus: usize,
        num_launches: usize,
        num_domains: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut dead = Vec::new();
        for _ in 0..spec.cu_failures {
            if num_cus == 0 {
                break;
            }
            let cu = rng.random_range(0..num_cus);
            let at = rng.random_range(0..spec.horizon.max(1));
            // A permanent failure of the last survivor is skipped: the
            // fault plane degrades capacity, it must not zero it.
            let lethal =
                spec.repair_delay.is_none() && !dead.contains(&cu) && dead.len() + 1 >= num_cus;
            if lethal {
                continue;
            }
            if !dead.contains(&cu) {
                dead.push(cu);
            }
            events.push(FaultEvent {
                at,
                kind: FaultKind::CuFailure {
                    cu,
                    repair_at: spec.repair_delay.map(|d| at + d),
                },
            });
        }
        for _ in 0..spec.stragglers {
            if num_cus == 0 {
                break;
            }
            let cu = rng.random_range(0..num_cus);
            let at = rng.random_range(0..spec.horizon.max(1));
            events.push(FaultEvent {
                at,
                kind: FaultKind::Straggler {
                    cu,
                    factor: spec.slowdown,
                    until: at + spec.straggler_window,
                },
            });
        }
        for _ in 0..spec.aborts {
            if num_launches == 0 {
                break;
            }
            let launch = LaunchId(rng.random_range(0..num_launches as u32));
            let at = rng.random_range(0..spec.horizon.max(1));
            events.push(FaultEvent {
                at,
                kind: FaultKind::KernelAbort { launch },
            });
        }
        for _ in 0..spec.domain_failures {
            if num_domains == 0 {
                break;
            }
            let domain = rng.random_range(0..num_domains);
            let at = rng.random_range(0..spec.horizon.max(1));
            events.push(FaultEvent {
                at,
                kind: FaultKind::DomainFailure {
                    domain,
                    repair_at: spec.domain_repair_delay.map(|d| at + d),
                },
            });
        }
        let mut plan = FaultPlan::new(events);
        if num_domains > 0 {
            plan.domains = FailureDomain::split_evenly(num_cus, num_domains);
        }
        plan
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan's device-side targets against a device of
    /// `num_cus` compute units: every domain member and every CU-failure
    /// or straggler target is a CU of the device, and every domain
    /// failure names one of [`FaultPlan::domains`]. Kernel-abort targets
    /// depend on the launch set and are left to its owner.
    ///
    /// # Errors
    ///
    /// Describes the first out-of-range target.
    pub fn check_targets(&self, num_cus: usize) -> Result<(), String> {
        for d in &self.domains {
            if let Some(cu) = d.cus.iter().find(|&&cu| cu >= num_cus) {
                return Err(format!("failure domain `{}` names unknown CU {cu}", d.name));
            }
        }
        for e in &self.events {
            match e.kind {
                FaultKind::CuFailure { cu, .. } | FaultKind::Straggler { cu, .. }
                    if cu >= num_cus =>
                {
                    return Err(format!("fault targets unknown CU {cu}"));
                }
                FaultKind::DomainFailure { domain, .. } if domain >= self.domains.len() => {
                    return Err(format!("fault targets unknown failure domain {domain}"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_sorted() {
        let spec = FaultSpec {
            horizon: 50_000,
            cu_failures: 3,
            repair_delay: Some(5_000),
            stragglers: 2,
            slowdown: 2.5,
            straggler_window: 4_000,
            aborts: 1,
            domain_failures: 0,
            domain_repair_delay: None,
        };
        let a = FaultPlan::from_spec(&spec, 13, 4, 7);
        let b = FaultPlan::from_spec(&spec, 13, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 6);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let c = FaultPlan::from_spec(&spec, 13, 4, 8);
        assert_ne!(a, c, "a different seed draws a different plan");
    }

    #[test]
    fn domain_draws_append_without_perturbing_independent_draws() {
        let mut spec = FaultSpec {
            horizon: 50_000,
            cu_failures: 3,
            repair_delay: Some(5_000),
            stragglers: 2,
            slowdown: 2.5,
            straggler_window: 4_000,
            aborts: 1,
            domain_failures: 0,
            domain_repair_delay: Some(9_000),
        };
        let old = FaultPlan::from_spec(&spec, 13, 4, 7);
        assert!(old.domains.is_empty(), "the plain draw knows no domains");
        // Domain-aware draw of a domain-free spec draws the same events
        // and carries the partition.
        let partitioned = FaultPlan::from_spec_with_domains(&spec, 13, 4, 4, 7);
        assert_eq!(old.events, partitioned.events);
        assert_eq!(partitioned.domains, FailureDomain::split_evenly(13, 4));
        spec.domain_failures = 2;
        let with = FaultPlan::from_spec_with_domains(&spec, 13, 4, 4, 7);
        assert_eq!(with, FaultPlan::from_spec_with_domains(&spec, 13, 4, 4, 7));
        let domains: Vec<_> = with
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::DomainFailure { domain, repair_at } => {
                    assert!(domain < 4);
                    assert_eq!(repair_at, Some(e.at + 9_000));
                    Some(e.kind)
                }
                _ => None,
            })
            .collect();
        assert_eq!(domains.len(), 2);
        // The independent draws are untouched by the appended ones.
        let mut independent = with.events.clone();
        independent.retain(|e| !matches!(e.kind, FaultKind::DomainFailure { .. }));
        assert_eq!(independent, old.events);
        // No domains configured: the domain count draws nothing.
        assert_eq!(FaultPlan::from_spec_with_domains(&spec, 13, 4, 0, 7), old);
    }

    #[test]
    fn split_evenly_partitions_every_cu_once() {
        for (num_cus, num_domains) in [(13, 4), (8, 8), (5, 2), (3, 7), (0, 3)] {
            let domains = FailureDomain::split_evenly(num_cus, num_domains);
            assert_eq!(domains.len(), num_domains.max(1));
            let mut all: Vec<usize> = domains.iter().flat_map(|d| d.cus.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..num_cus).collect::<Vec<_>>());
            let (min, max) = domains.iter().fold((usize::MAX, 0), |(lo, hi), d| {
                (lo.min(d.cus.len()), hi.max(d.cus.len()))
            });
            assert!(max - min <= 1, "even split: {num_cus}/{num_domains}");
        }
    }

    #[test]
    fn at_least_one_cu_survives_permanent_failures() {
        let spec = FaultSpec {
            horizon: 1_000,
            cu_failures: 64,
            repair_delay: None,
            stragglers: 0,
            slowdown: 1.0,
            straggler_window: 0,
            aborts: 0,
            domain_failures: 0,
            domain_repair_delay: None,
        };
        let plan = FaultPlan::from_spec(&spec, 2, 1, 3);
        let mut dead = std::collections::BTreeSet::new();
        for e in &plan.events {
            if let FaultKind::CuFailure { cu, .. } = e.kind {
                dead.insert(cu);
            }
        }
        assert!(dead.len() < 2, "one of two CUs must survive: {dead:?}");
    }

    #[test]
    fn check_targets_names_the_first_out_of_range_target() {
        let cu = |cu| FaultEvent {
            at: 0,
            kind: FaultKind::CuFailure {
                cu,
                repair_at: None,
            },
        };
        let domain = FaultEvent {
            at: 0,
            kind: FaultKind::DomainFailure {
                domain: 1,
                repair_at: None,
            },
        };
        assert_eq!(FaultPlan::new(vec![cu(3)]).check_targets(4), Ok(()));
        assert_eq!(
            FaultPlan::new(vec![cu(4)]).check_targets(4),
            Err("fault targets unknown CU 4".into())
        );
        let mut plan = FaultPlan::new(vec![domain]);
        assert_eq!(
            plan.check_targets(4),
            Err("fault targets unknown failure domain 1".into())
        );
        plan.domains = FailureDomain::split_evenly(4, 2);
        assert_eq!(plan.check_targets(4), Ok(()));
        assert_eq!(
            plan.check_targets(3),
            Err("failure domain `rack1` names unknown CU 3".into())
        );
    }

    #[test]
    fn none_spec_is_empty() {
        assert!(FaultPlan::from_spec(&FaultSpec::none(1_000), 8, 2, 1).is_empty());
    }
}
