//! The autonomous rebalancer actor: closes the loop from load to
//! placement.
//!
//! Rocksteady's premise is that migration is cheap enough to use as a
//! routine load-management tool (§1). This actor is the missing
//! operator: on a fixed cadence it samples per-server load from the
//! shared stats handles (dispatch utilization — the resource that
//! saturates first — and op rates), reads tablet ownership from the
//! coordinator map, asks the [`GreedyLoadDelta`] policy for tablet
//! moves, and issues the admitted ones as ordinary `MigrateTablet`
//! RPCs — the same path a scripted `ControlCmd::Migrate` takes.
//! [`AdmissionCaps`] bounds how many migrations run at once per source,
//! per target, and cluster-wide, so reactive placement can never pile
//! unbounded migration load onto one participant.
//!
//! The actor is installed only when [`ClusterConfig::rebalancer`] is
//! set: a cluster built without one has an event schedule identical to
//! a build predating this module. With it set, everything remains
//! deterministic per seed — the tick cadence is fixed, every scrape
//! iterates servers in `ServerId` order, and the policy is pure.
//!
//! [`ClusterConfig::rebalancer`]: crate::ClusterConfig::rebalancer

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rocksteady_audit::{AuditKind, AuditSink};
use rocksteady_common::{MigrationId, Nanos, RpcId, ServerId, SECOND};
use rocksteady_proto::{Body, Envelope, Request, Response, TabletState};
use rocksteady_rebalancer::{
    AdmissionCaps, ClusterView, GreedyLoadDelta, MoveInFlight, MoveProposal, ServerLoad, TabletInfo,
};
use rocksteady_server::stats::StatsHandle;
use rocksteady_simnet::{Actor, Ctx, Directory, Event};

use crate::coordinator_actor::CoordHandle;

/// Rebalancer ids start here so they can never collide with the small
/// literal ids experiment scripts hand to `ControlCmd::Migrate`.
pub const REBALANCER_MIG_BASE: u64 = 1 << 32;

/// Configuration for the autonomous rebalancer.
#[derive(Debug, Clone)]
pub struct RebalancerConfig {
    /// Decision cadence (virtual time between load scrapes).
    pub interval: Nanos,
    /// Concurrency ceilings for admitted migrations.
    pub caps: AdmissionCaps,
    /// The placement policy.
    pub policy: GreedyLoadDelta,
}

impl Default for RebalancerConfig {
    fn default() -> Self {
        RebalancerConfig {
            interval: SECOND / 10,
            caps: AdmissionCaps::default(),
            policy: GreedyLoadDelta::default(),
        }
    }
}

/// One move the rebalancer issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedMove {
    /// The id the rebalancer assigned (`>= REBALANCER_MIG_BASE`).
    pub id: MigrationId,
    /// When it was issued.
    pub at: Nanos,
    /// The admitted proposal.
    pub proposal: MoveProposal,
}

/// What the rebalancer has done so far, queryable between run segments.
#[derive(Debug, Clone, Default)]
pub struct RebalancerReport {
    /// Decision ticks taken.
    pub ticks: u64,
    /// Moves the policy proposed (pre-admission).
    pub proposed: u64,
    /// Moves admitted and issued.
    pub admitted: u64,
    /// Issued moves that completed (target confirmed the migration).
    pub completed: u64,
    /// Issued moves the target refused or abandoned.
    pub rejected: u64,
    /// Every issued move, in issue order.
    pub moves: Vec<IssuedMove>,
}

/// Shared handle to the rebalancer's report.
pub type RebalancerHandle = Rc<RefCell<RebalancerReport>>;

/// The rebalancer actor. One per cluster, installed after the cadence
/// actor when configured.
pub struct RebalancerActor {
    interval: Nanos,
    caps: AdmissionCaps,
    policy: GreedyLoadDelta,
    coord: CoordHandle,
    dir: Directory,
    /// Per-server stats handles, sorted by `ServerId` (scrape order is
    /// part of the deterministic schedule).
    server_stats: Vec<(ServerId, StatsHandle)>,
    out: RebalancerHandle,
    /// Cumulative counters at the previous tick, for windowed deltas.
    prev_dispatch_ns: HashMap<ServerId, u64>,
    prev_ops: HashMap<ServerId, u64>,
    /// Issued moves awaiting the target's final response.
    in_flight: HashMap<RpcId, IssuedMove>,
    next_rpc: u64,
    next_mig: u64,
    /// Protocol auditing (zero-cost when disarmed): proposals,
    /// admissions, and outcomes anchor the explain engine's causal
    /// chains.
    audit: AuditSink,
}

impl RebalancerActor {
    /// Creates the actor around the cluster's shared state.
    pub fn new(
        cfg: RebalancerConfig,
        coord: CoordHandle,
        dir: Directory,
        mut server_stats: Vec<(ServerId, StatsHandle)>,
        out: RebalancerHandle,
        audit: AuditSink,
    ) -> Self {
        server_stats.sort_by_key(|(id, _)| *id);
        RebalancerActor {
            interval: cfg.interval,
            caps: cfg.caps,
            policy: cfg.policy,
            coord,
            dir,
            server_stats,
            out,
            prev_dispatch_ns: HashMap::new(),
            prev_ops: HashMap::new(),
            in_flight: HashMap::new(),
            next_rpc: 1,
            next_mig: 0,
            audit,
        }
    }

    /// Samples per-server load over the last interval and assembles the
    /// policy's view of the cluster.
    fn scrape(&mut self, now: Nanos) -> ClusterView {
        let map = self.coord.borrow().tablet_map();
        let mut servers = Vec::with_capacity(self.server_stats.len());
        for (id, stats) in &self.server_stats {
            let busy = stats.dispatch_busy_ns.get();
            let ops = stats.ops_served.get();
            let prev_busy = self.prev_dispatch_ns.insert(*id, busy).unwrap_or(0);
            let prev_ops = self.prev_ops.insert(*id, ops).unwrap_or(0);
            let window = self.interval.max(1) as f64;
            let mut tablets: Vec<TabletInfo> = map
                .iter()
                .filter(|t| t.owner == *id && t.state == TabletState::Normal)
                .map(|t| TabletInfo {
                    table: t.table,
                    range: t.range,
                })
                .collect();
            tablets.sort_by_key(|t| (t.table, t.range.start));
            servers.push(ServerLoad {
                server: *id,
                dispatch_util: ((busy - prev_busy) as f64 / window).min(1.0),
                ops_per_sec: (ops - prev_ops) as f64 * 1e9 / window,
                tablets,
            });
        }
        // In-flight view: every coordinator lineage dep (covers scripted
        // migrations too) plus our own issued moves whose
        // MigrationStarting has not reached the coordinator yet.
        let mut seen: Vec<MigrationId> = Vec::new();
        let mut in_flight = Vec::new();
        for dep in self.coord.borrow().lineage_deps() {
            seen.push(dep.id);
            in_flight.push(MoveInFlight {
                source: dep.source,
                target: dep.target,
            });
        }
        for mv in self.in_flight.values() {
            if !seen.contains(&mv.id) {
                in_flight.push(MoveInFlight {
                    source: mv.proposal.source,
                    target: mv.proposal.target,
                });
            }
        }
        ClusterView {
            at: now,
            servers,
            in_flight,
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        let view = self.scrape(now);
        let proposals = self.policy.propose(&view);
        self.out.borrow_mut().ticks += 1;
        self.out.borrow_mut().proposed += proposals.len() as u64;
        if self.audit.is_on() {
            for p in &proposals {
                self.audit.emit(
                    now,
                    AuditKind::RebalanceProposed {
                        source: p.source,
                        target: p.target,
                        table: p.table,
                        range: p.range,
                    },
                );
            }
        }
        let admitted = self.caps.admit(&view.in_flight, proposals);
        for p in admitted {
            self.next_mig += 1;
            let id = MigrationId(REBALANCER_MIG_BASE + self.next_mig);
            let rpc = RpcId(self.next_rpc);
            self.next_rpc += 1;
            let issued = IssuedMove {
                id,
                at: now,
                proposal: p,
            };
            self.in_flight.insert(rpc, issued);
            let mut out = self.out.borrow_mut();
            out.admitted += 1;
            out.moves.push(issued);
            drop(out);
            if self.audit.is_on() {
                self.audit.emit(
                    now,
                    AuditKind::RebalanceAdmitted {
                        id,
                        source: p.source,
                        target: p.target,
                        table: p.table,
                        range: p.range,
                    },
                );
            }
            ctx.send(
                self.dir.actor_of(p.target),
                Envelope::req(
                    rpc,
                    Request::MigrateTablet {
                        id,
                        table: p.table,
                        range: p.range,
                        source: p.source,
                    },
                ),
            );
        }
    }
}

impl Actor<Envelope> for RebalancerActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        match event {
            Event::Timer { .. } => {
                self.tick(ctx);
                ctx.timer(self.interval, 0);
            }
            Event::Message { payload, .. } => {
                // The target answers our MigrateTablet when the run
                // finishes (MigrateTabletOk) or fails (anything else);
                // either way the move stops counting against the caps.
                if let Some(mv) = self.in_flight.remove(&payload.rpc) {
                    let ok = matches!(payload.body, Body::Resp(Response::MigrateTabletOk));
                    let mut out = self.out.borrow_mut();
                    if ok {
                        out.completed += 1;
                    } else {
                        out.rejected += 1;
                    }
                    drop(out);
                    if self.audit.is_on() {
                        self.audit.emit(
                            ctx.now(),
                            AuditKind::RebalanceOutcome {
                                id: mv.id,
                                completed: ok,
                            },
                        );
                    }
                }
            }
        }
    }
}
