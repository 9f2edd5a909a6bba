//! The server actor: dispatch/worker scheduling and protocol glue.
//!
//! See the crate docs for the model. Approximations relative to real
//! hardware, all of which bias *against* Rocksteady or are
//! timing-neutral:
//!
//! - A task's real data-structure work executes when the task is
//!   *assigned* to a worker; its outputs (responses, follow-up RPCs) are
//!   released when the modeled service time elapses. State is therefore
//!   never stale by more than one service time (≤ a few µs).
//! - A durable write may occasionally be acknowledged while a covering
//!   replication chunk shipped by a *concurrent* write is still in
//!   flight; the bytes are identical and ordering per backup is
//!   preserved, so this shifts timing by at most one RTT and never
//!   changes recovered data.

use rocksteady_common::FxHashMap;
use std::collections::VecDeque;

use bytes::Bytes;
use rocksteady::{
    Action, BaselineAction, BaselineMigration, MigrationManager, MissOutcome, ReplayBatch,
    RetryCause,
};
use rocksteady_audit::{AuditKind, AuditSink, ReleaseVia};
use rocksteady_backup::BackupService;
use rocksteady_common::{CausalCtx, KeyHash, MigrationId, Nanos, RpcId, ServerId, TableId};
use rocksteady_logstore::SideLog;
use rocksteady_master::{MasterService, OpError, ReplayDest, TabletRole, Work};
use rocksteady_profiler::{Activity, Profiler};
use rocksteady_proto::msg::{BaselineOpts, SegmentImage};
use rocksteady_proto::{Body, Envelope, Priority, Record, Request, Response, Status};
use rocksteady_simnet::{Actor, ActorId, Ctx, Event};
use rocksteady_trace::{lanes, schema, Tracer};

use crate::stats::StatsHandle;
use crate::{Directory, ServerConfig};

// Timer token kinds (low 8 bits).
const KIND_DISPATCH: u64 = 1;
const KIND_WORKER_DONE: u64 = 2;
const KIND_DEFERRED_SEND: u64 = 3;
const KIND_CLEANER: u64 = 4;

// Trace lanes (`tid` within this server's `pid`) follow the shared
// convention in [`rocksteady_trace::lanes`], also used by the
// critical-path walker in `rocksteady-profiler`. Lanes are chosen so
// spans sharing one never partially overlap: worker cores run one task
// at a time, each pull partition has one Pull in flight, PriorityPull
// batches are serialized by the batcher, and migration phases tile.

fn token(kind: u64, payload: u64) -> u64 {
    (payload << 8) | kind
}

/// A unit of worker work.
#[derive(Debug)]
enum Task {
    /// Service an inbound RPC.
    Rpc {
        src: ActorId,
        rpc: RpcId,
        req: Request,
        /// Causal context the request arrived with; inherited by any
        /// RPC this task issues on the requester's behalf (e.g. the
        /// PriorityPull a read miss spawns) and echoed on the response.
        cctx: CausalCtx,
    },
    /// One baseline-migration scan step (source).
    BaselineStep,
    /// Replay fetched segment images (crash recovery).
    RecoveryReplay {
        /// Key into the node's recovery table.
        recovery: u64,
    },
    /// One log-cleaner pass (background system task, §2.3).
    CleanerPass,
}

/// Effects released when a worker task's service time elapses.
#[derive(Debug)]
enum Deferred {
    /// Plain message send.
    Send(ActorId, Envelope),
    /// Tell the named migration's manager a replay finished.
    ReplayDone(MigrationId, Option<usize>),
    /// Schedule the next baseline scan step.
    BaselineContinue,
    /// Ship un-replicated log bytes to the backups; if `wait` is set the
    /// worker stays held and the named client is answered when all
    /// replica acks return (the durable-write path).
    ShipLog {
        wait: Option<(ActorId, RpcId, Response)>,
    },
}

#[derive(Debug, Default)]
struct WorkerState {
    busy: bool,
    /// Held past its service time (awaiting replication acks or a
    /// synchronous PriorityPull).
    held: bool,
    /// When the hold began (service end), for busy-time accounting —
    /// a blocked core is a busy core (§4.4 measures exactly this).
    hold_since: Nanos,
    deferred: Vec<Deferred>,
    /// The replay partition this worker is processing, if any.
    replay_partition: Option<Option<usize>>,
    /// Open trace span for the task on this core: (label, start).
    /// `Some` only while tracing is armed.
    trace_op: Option<(&'static str, Nanos)>,
    /// Open activity-ledger charge for the task on this core:
    /// (activity, start). `Some` only while the profiler is armed.
    ledger_op: Option<(Activity, Nanos)>,
    /// Causal context of the RPC currently on this core
    /// ([`CausalCtx::NONE`] for system tasks); [`ServerNode::defer_send`]
    /// echoes it on the response envelope.
    cur_ctx: CausalCtx,
}

/// What an outstanding outbound RPC means to us.
#[derive(Debug)]
enum Pending {
    Pull {
        mig: MigrationId,
        partition: usize,
    },
    PriorityPull {
        mig: MigrationId,
        hashes: Vec<KeyHash>,
    },
    SyncPriorityPull(SyncWait),
    Prepare {
        mig: MigrationId,
    },
    MigStartAck {
        mig: MigrationId,
    },
    MigCompleteAck,
    /// A replication chunk; `waiters` lists ack groups to credit.
    ReplAck {
        group: Option<u64>,
    },
    PushRecords,
    BaselineTransferAck,
    FetchSegments {
        recovery: u64,
    },
}

#[derive(Debug)]
struct SyncWait {
    worker: usize,
    client: ActorId,
    client_rpc: RpcId,
    table: TableId,
    hash: KeyHash,
    key: Bytes,
    /// The blocked read's causal context, echoed on its response.
    cctx: CausalCtx,
}

/// A group of replication acks someone waits on.
#[derive(Debug)]
struct AckGroup {
    remaining: u32,
    /// Worker to release.
    worker: Option<usize>,
    /// Client to answer.
    respond: Option<(ActorId, RpcId, Response)>,
}

struct MigrationRun {
    /// Cluster-wide id of this run; keys every piece of per-run state.
    id: MigrationId,
    mgr: MigrationManager,
    source_actor: ActorId,
    client: Option<(ActorId, RpcId)>,
    /// Per-worker side logs for this run's replays (§3.1.3). Per run so
    /// overlapping migrations never mix side segments: each run commits
    /// (or abandons) exactly its own.
    sidelogs: Vec<Option<SideLog>>,
    /// Wall-clock anchors of this run's trace spans (`Some` only while
    /// tracing is armed).
    mig_trace: Option<MigTrace>,
    /// Outstanding Pull rpc → (send time, partition), for pull spans.
    pull_span_start: FxHashMap<u64, (Nanos, usize)>,
    /// Outstanding PriorityPull rpc → (send time, batch size).
    pp_span_start: FxHashMap<u64, (Nanos, u64)>,
    /// Causal context of the waiting read that asked for each hash, so
    /// the batched PriorityPull that eventually covers it inherits the
    /// read's trace id (first hash in batch order wins as the batch's
    /// representative — deterministic, no clock, no RNG).
    pp_ctx: FxHashMap<KeyHash, CausalCtx>,
}

struct BaselineRun {
    mig: BaselineMigration,
    target_actor: ActorId,
    opts: BaselineOpts,
}

struct RecoveryRun {
    table: TableId,
    range: rocksteady_common::HashRange,
    coordinator_rpc: (ActorId, RpcId),
    pending_fetches: u32,
    images: FxHashMap<u64, Bytes>,
    /// Whose log we are recovering, and from which segment on — kept so
    /// a fetch to a dead backup can be re-issued elsewhere.
    crashed: ServerId,
    from_segment: u64,
    /// The coordinator's backup list for `crashed`.
    backups: Vec<ServerId>,
    /// Backups that died while we were fetching from them.
    failed_backups: Vec<ServerId>,
}

/// Per-RPC latency decomposition, recorded only while tracing is on.
/// Keyed by `(src, rpc)`; finalized (and emitted) when the response is
/// handed to the NIC.
#[derive(Debug)]
struct RpcSpan {
    name: &'static str,
    /// When the requester's NIC accepted the request (stamped by the
    /// simnet kernel into `Envelope::sent_at`).
    sent_at: Nanos,
    /// When the request entered our rx queue.
    arrived: Nanos,
    /// When a worker started servicing it (0 until assigned).
    assigned: Nanos,
    /// Predicted end of worker service (assignment + service time).
    service_end: Nanos,
    /// NIC serialization + queueing delay of the inbound request
    /// (`departed_at - sent_at`, stamped by the kernel).
    nic_in: Nanos,
    /// Causal context the request carried; stamped as `trace`/`hop`
    /// args on the decomposition instant so journeys can be stitched.
    cctx: CausalCtx,
}

/// Arrival stamps of an inbound request, captured once on the dispatch
/// core and threaded to wherever the RPC span is opened.
#[derive(Debug, Clone, Copy)]
struct InStamps {
    /// When the requester's NIC accepted the request.
    sent_at: Nanos,
    /// When the request entered our rx queue.
    arrived: Nanos,
    /// Inbound NIC serialization + queueing (`departed_at - sent_at`).
    nic_in: Nanos,
    /// Causal context the request envelope carried.
    cctx: CausalCtx,
}

/// Wall-clock anchors of the in-progress migration's trace spans.
#[derive(Debug)]
struct MigTrace {
    started: Nanos,
    phase_start: Nanos,
}

/// Accumulated bookkeeping for one dispatch quantum: a maximal run of
/// back-to-back dispatch polls (each firing exactly at the previous
/// poll's busy horizon, so the covered interval `[start, start + busy)`
/// is contiguous). Stats-counter adds and profiler charges coalesce here
/// and flush once per quantum; because the polls tile the interval with
/// no gaps, the lumped profiler charge lands in exactly the same buckets
/// the per-poll charges would have, and the counter totals are
/// identical — only the per-message host cost is amortized away.
#[derive(Debug, Default, Clone, Copy)]
struct DispatchLedger {
    /// Virtual time the open quantum's first poll fired.
    start: Nanos,
    /// Total dispatch busy time accrued by the quantum's polls.
    busy: Nanos,
    /// Portion of `busy` that is outbound-tx cost.
    tx: Nanos,
    /// Portion of `busy` spent in migration-manager polls.
    mgr: Nanos,
    /// Polls coalesced so far; zero means the ledger is closed.
    polls: u32,
}

/// Upper bound on polls per quantum, so a saturated dispatch core still
/// publishes its busy counter at a bounded staleness (the harness
/// sampler windows the counter every millisecond; a full quantum is a
/// few microseconds of busy time).
const DISPATCH_QUANTUM_POLLS: u32 = 64;

/// One simulated RAMCloud server (master + backup + dispatch/workers).
pub struct ServerNode {
    /// Static configuration.
    pub cfg: ServerConfig,
    dir: Directory,
    /// The master component (public for harness preloading).
    pub master: MasterService,
    /// The backup component.
    pub backup: BackupService,
    stats: StatsHandle,

    // Dispatch.
    rx_queue: VecDeque<(ActorId, Nanos, Envelope)>,
    dispatch_busy_until: Nanos,
    dispatch_scheduled: bool,
    /// Cost accumulated while handling the current dispatch event.
    dispatch_charge: Nanos,
    /// Portion of `dispatch_charge` that is outbound-tx cost, kept for
    /// the profiler's rx/tx split (reset whenever `dispatch_charge` is).
    dispatch_charge_tx: Nanos,
    /// Portion of `dispatch_charge` spent in migration-manager polls.
    dispatch_charge_mgr: Nanos,
    /// Batch-amortized dispatch bookkeeping: per-poll charges accrue
    /// here and flush to the stats counter and profiler once per
    /// dispatch *quantum* — a maximal back-to-back run of dispatch
    /// polls — instead of once per message.
    dispatch_ledger: DispatchLedger,

    // Workers.
    workers: Vec<WorkerState>,
    queues: [VecDeque<Task>; rocksteady_proto::msg::PRIORITY_LEVELS],

    // Outbound RPC state.
    next_rpc: u64,
    outstanding: FxHashMap<RpcId, Pending>,
    /// Destination actor of each outstanding RPC, for crash failover.
    rpc_dst: FxHashMap<RpcId, ActorId>,

    // Replication manager (serialized §2.3 resource). Foreground
    // (write-path) replication preempts bulk (lazy re-replication)
    // traffic: bulk chunks queue behind both lanes, foreground only
    // behind itself.
    repl_free_at: Nanos,
    repl_bulk_free_at: Nanos,
    repl_cursor: FxHashMap<u64, usize>,
    deferred_sends: FxHashMap<u64, (ActorId, Envelope)>,
    next_deferred: u64,
    ack_groups: FxHashMap<u64, AckGroup>,
    next_group: u64,

    // Migration state: every in-flight run this node is the target of,
    // in admission order. Disjoint ranges only (overlap is rejected at
    // admission); a node may simultaneously serve as pull *source* for
    // other migrations, which needs no state here (pull service is
    // stateless on the source).
    migrations: Vec<MigrationRun>,
    /// Replay batches swallowed by the `test_defer_replay` fault hook:
    /// held here (never replayed) so the gather→replay backlog grows
    /// while pulls keep flowing. Always empty outside fault tests.
    deferred_replay_faults: Vec<ReplayBatch>,
    baseline: Option<BaselineRun>,
    /// In-flight crash recoveries, keyed by the coordinator's RPC id
    /// (several tablets may recover onto this master concurrently).
    recoveries: FxHashMap<u64, RecoveryRun>,

    // Tracing (zero-cost when disarmed: every site is gated on one
    // `Option` discriminant check).
    trace: Tracer,
    rpc_spans: FxHashMap<(ActorId, u64), RpcSpan>,

    // Profiling (same zero-cost-off contract as `trace`): the per-core
    // activity ledger every charge lands in.
    profiler: Profiler,

    // Protocol auditing (same zero-cost-off contract): ownership
    // transitions, version-floor raises, and gather/replay counts feed
    // the cluster-wide invariant auditor.
    audit: AuditSink,
}

impl ServerNode {
    /// Creates a server; `dir` provides actor wiring, `stats` is shared
    /// with the harness, `trace` with the trace exporter, `profiler`
    /// with the activity-ledger exporter, and `audit` with the protocol
    /// auditor (pass [`Tracer::off`] / [`Profiler::off`] /
    /// [`AuditSink::off`] to compile those paths down to one branch).
    pub fn new(
        cfg: ServerConfig,
        dir: Directory,
        stats: StatsHandle,
        trace: Tracer,
        profiler: Profiler,
        audit: AuditSink,
    ) -> Self {
        // Register every core up front so never-scheduled cores still
        // export (as all-idle).
        for core in 0..=cfg.workers as u32 {
            profiler.register_core(cfg.id.0, core);
        }
        let workers = (0..cfg.workers).map(|_| WorkerState::default()).collect();
        let master = MasterService::new(cfg.master.clone());
        let backup = BackupService::new(cfg.id);
        ServerNode {
            master,
            backup,
            dir,
            stats,
            rx_queue: VecDeque::new(),
            dispatch_busy_until: 0,
            dispatch_scheduled: false,
            dispatch_charge: 0,
            dispatch_charge_tx: 0,
            dispatch_charge_mgr: 0,
            dispatch_ledger: DispatchLedger::default(),
            workers,
            queues: Default::default(),
            next_rpc: 1,
            outstanding: FxHashMap::default(),
            rpc_dst: FxHashMap::default(),
            repl_free_at: 0,
            repl_bulk_free_at: 0,
            repl_cursor: FxHashMap::default(),
            deferred_sends: FxHashMap::default(),
            next_deferred: 1,
            ack_groups: FxHashMap::default(),
            next_group: 1,
            migrations: Vec::new(),
            deferred_replay_faults: Vec::new(),
            baseline: None,
            recoveries: FxHashMap::default(),
            trace,
            rpc_spans: FxHashMap::default(),
            profiler,
            audit,
            cfg,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> StatsHandle {
        std::rc::Rc::clone(&self.stats)
    }

    /// Marks everything currently in the log as already replicated.
    /// Harness-only: used after preloaded data has been copied onto the
    /// backups directly, so the replication manager doesn't re-ship it.
    pub fn mark_log_durable(&mut self) {
        for seg in self.master.log.segments_snapshot() {
            self.repl_cursor.insert(seg.id(), seg.committed());
        }
    }

    // ------------------------------------------------------------ sends --

    fn alloc_rpc(&mut self, pending: Pending) -> RpcId {
        let id = RpcId(self.next_rpc);
        self.next_rpc += 1;
        self.outstanding.insert(id, pending);
        id
    }

    /// Allocates an RPC bound for `dst`, recording the destination so a
    /// crash notification can fail it over.
    fn alloc_rpc_to(&mut self, dst: ActorId, pending: Pending) -> RpcId {
        let id = self.alloc_rpc(pending);
        self.rpc_dst.insert(id, dst);
        id
    }

    fn send(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, env: Envelope) {
        self.dispatch_charge += self.cfg.cost.dispatch_tx_per_msg_ns;
        self.dispatch_charge_tx += self.cfg.cost.dispatch_tx_per_msg_ns;
        ctx.send(dst, env);
    }

    /// Ledgers dispatch-core cost accrued *outside* a dispatch event
    /// (worker-completion sends, deferred replication sends, cleaner
    /// scheduling). The busy-counter semantics are untouched — the next
    /// dispatch event has always overwritten this accumulator, so these
    /// nanoseconds never reached `dispatch_busy_ns` — but the ledger
    /// records them, and any overlap with an already-charged dispatch
    /// interval surfaces as overcommit instead of disappearing.
    fn flush_offdispatch_charges(&mut self, now: Nanos) {
        // Off-dispatch charges land at `now`, which may sit past an open
        // dispatch quantum's start — flush the quantum first so the
        // profiler's cursor sees both in time order.
        self.flush_dispatch_ledger();
        if self.profiler.is_on() {
            let (tx, mgr) = (self.dispatch_charge_tx, self.dispatch_charge_mgr);
            let id = self.cfg.id.0;
            self.profiler.charge(id, 0, Activity::DispatchTx, now, tx);
            self.profiler
                .charge(id, 0, Activity::MigrationMgr, now + tx, mgr);
        }
        self.dispatch_charge = 0;
        self.dispatch_charge_tx = 0;
        self.dispatch_charge_mgr = 0;
    }

    fn respond(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, rpc: RpcId, resp: Response) {
        if self.trace.is_on() {
            self.finalize_rpc_span(ctx.now(), ctx.self_id(), dst, rpc);
        }
        self.send(ctx, dst, Envelope::resp(rpc, resp));
    }

    /// Like [`Self::respond`], but echoes the request's causal context
    /// on the response envelope (used where the worker's current-task
    /// context is not in scope, e.g. the sync PriorityPull completion).
    fn respond_ctx(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        dst: ActorId,
        rpc: RpcId,
        resp: Response,
        cctx: CausalCtx,
    ) {
        if self.trace.is_on() {
            self.finalize_rpc_span(ctx.now(), ctx.self_id(), dst, rpc);
        }
        self.send(ctx, dst, Envelope::resp(rpc, resp).with_ctx(cctx));
    }

    /// Emits the per-RPC latency-decomposition instant when a response
    /// is handed to the NIC. The four server-side segments telescope:
    /// `net_in + queue + service + hold = resp_sent − sent_at`, so a
    /// client that stamps issue/complete times can account for every
    /// nanosecond of its observed latency.
    fn finalize_rpc_span(&mut self, now: Nanos, self_id: ActorId, dst: ActorId, rpc: RpcId) {
        let Some(span) = self.rpc_spans.remove(&(dst, rpc.0)) else {
            return; // control-plane RPC or tracing armed mid-flight
        };
        if span.assigned == 0 {
            return; // never serviced (answered straight from dispatch)
        }
        // A hold can be cut short by a failover arriving mid-service;
        // saturate rather than underflow in that corner.
        let service_end = span.service_end.min(now);
        let trace = span.cctx.trace_id;
        let vals = [
            dst as u64,
            rpc.0,
            span.sent_at,
            span.arrived,
            span.assigned,
            service_end,
            now,
            span.arrived - span.sent_at,
            span.nic_in,
            span.assigned - span.arrived,
            service_end - span.assigned,
            now - service_end,
            trace.0,
            span.cctx.hop as u64,
        ];
        let n = if trace.is_some() {
            schema::RPC.len()
        } else {
            schema::RPC_UNTRACED_LEN
        };
        self.trace.instant(
            span.name,
            "rpc",
            self_id as u64,
            lanes::RPC,
            now,
            &schema::RPC[..n],
            &vals[..n],
        );
        // Close the flow edge the requester opened at send time: the
        // arrow ties the client's (or PriorityPull issuer's) lane to
        // this server's decomposition instant in the chrome view.
        if trace.is_some() {
            self.trace.flow(
                "rpc-flow",
                "flow",
                self_id as u64,
                lanes::RPC,
                now,
                false,
                trace.0 ^ rpc.0,
                &schema::FLOW,
                &[trace.0],
            );
        }
    }

    /// The one place retry hints are computed (satellite: previously
    /// each miss path rolled its own, with jitter in `[0, base)` —
    /// doubling the documented mean hint — while recovery paths sent
    /// none at all). Base comes from [`MigrationConfig::retry_base`];
    /// jitter is uniform in `[0, base/2)` so the hint lands in
    /// `[base, 1.5·base)`.
    fn retry_hint(&mut self, ctx: &mut Ctx<'_, Envelope>, cause: RetryCause) -> Response {
        let base = self.cfg.migration.retry_base(cause);
        let after = base + ctx.rng.next_below((base / 2).max(1));
        let sent = self.stats.retry_hints_sent.inc();
        if self.trace.is_on() {
            self.trace
                .counter("retry-hints", ctx.self_id() as u64, ctx.now(), sent);
        }
        Response::Err(Status::Retry { after })
    }

    // ------------------------------------------------- dispatch machinery --

    fn ensure_dispatch(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if self.dispatch_scheduled || self.rx_queue.is_empty() {
            return;
        }
        self.dispatch_scheduled = true;
        let delay = self.dispatch_busy_until.saturating_sub(ctx.now());
        ctx.timer(delay, token(KIND_DISPATCH, 0));
    }

    fn on_dispatch_timer(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.dispatch_scheduled = false;
        let Some((src, arrived, env)) = self.rx_queue.pop_front() else {
            self.flush_dispatch_ledger();
            return;
        };
        // A poll firing past the previous busy horizon means the chain
        // broke with an idle gap: the open quantum's interval ends here,
        // so flush it before starting a new one.
        if ctx.now() > self.dispatch_busy_until {
            self.flush_dispatch_ledger();
        }
        if self.dispatch_ledger.polls == 0 {
            self.dispatch_ledger.start = ctx.now();
        }
        self.dispatch_charge = self.cfg.cost.dispatch_per_msg_ns;
        self.dispatch_charge_tx = 0;
        self.dispatch_charge_mgr = 0;
        let stamps = InStamps {
            sent_at: env.sent_at,
            arrived,
            nic_in: env.departed_at.saturating_sub(env.sent_at),
            cctx: env.ctx,
        };
        match env.body {
            Body::Req(req) => self.on_request(ctx, src, env.rpc, req, stamps),
            Body::Resp(resp) => self.on_response(ctx, env.rpc, resp, stamps.nic_in),
        }
        self.try_assign(ctx);
        // Accrue this poll's dispatch time into the quantum ledger and
        // chain the next poll. The busy horizon still advances per
        // message — only the bookkeeping is batched.
        let charge = self.dispatch_charge;
        self.dispatch_charge = 0;
        self.dispatch_ledger.busy += charge;
        self.dispatch_ledger.tx += self.dispatch_charge_tx;
        self.dispatch_ledger.mgr += self.dispatch_charge_mgr;
        self.dispatch_ledger.polls += 1;
        self.dispatch_charge_tx = 0;
        self.dispatch_charge_mgr = 0;
        self.dispatch_busy_until = ctx.now() + charge;
        if self.rx_queue.is_empty() || self.dispatch_ledger.polls >= DISPATCH_QUANTUM_POLLS {
            self.flush_dispatch_ledger();
        }
        self.ensure_dispatch(ctx);
    }

    /// Flushes the open dispatch quantum: one stats-counter add and one
    /// profiler rx/tx/manager charge triple for the whole back-to-back
    /// poll run (the split is attribution, not a schedule).
    fn flush_dispatch_ledger(&mut self) {
        if self.dispatch_ledger.polls == 0 {
            return;
        }
        let l = std::mem::take(&mut self.dispatch_ledger);
        self.stats.dispatch_busy_ns.add(l.busy);
        if self.profiler.is_on() {
            let rx = l.busy.saturating_sub(l.tx + l.mgr);
            let id = self.cfg.id.0;
            self.profiler
                .charge(id, 0, Activity::DispatchRx, l.start, rx);
            self.profiler
                .charge(id, 0, Activity::DispatchTx, l.start + rx, l.tx);
            self.profiler
                .charge(id, 0, Activity::MigrationMgr, l.start + rx + l.tx, l.mgr);
        }
    }

    // ---------------------------------------------------- request intake --

    fn on_request(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        src: ActorId,
        rpc: RpcId,
        req: Request,
        stamps: InStamps,
    ) {
        match req {
            // Control-plane requests are cheap and handled right on the
            // dispatch core.
            Request::PrepareMigration {
                table,
                range,
                target,
            } => {
                // Test-only fault injection (see `MigrationConfig`):
                // answer with the ceiling but keep serving the range, so
                // the audit layer's single-owner check has a real split
                // brain to catch.
                let resp = if self.cfg.migration.test_skip_source_flip {
                    Some(self.master.version_ceiling())
                } else {
                    rocksteady::source::handle_prepare(&mut self.master, table, range, target)
                };
                let resp = match resp {
                    Some(version_ceiling) => {
                        if self.audit.is_on() && !self.cfg.migration.test_skip_source_flip {
                            self.audit.emit(
                                ctx.now(),
                                AuditKind::NodeRelease {
                                    server: self.cfg.id,
                                    table,
                                    range,
                                    via: ReleaseVia::PrepareFlip,
                                },
                            );
                        }
                        Response::PrepareMigrationOk { version_ceiling }
                    }
                    None => Response::Err(Status::UnknownTablet),
                };
                self.respond(ctx, src, rpc, resp);
            }
            Request::MigrateTablet {
                id,
                table,
                range,
                source,
            } => {
                // Admission: reject a run that would overlap an
                // in-flight migration's range on this target (or reuse
                // its id). Disjoint concurrent runs are accepted — a node
                // may be the replay target of several migrations at once.
                if self
                    .migrations
                    .iter()
                    .any(|r| r.id == id || (r.mgr.table == table && r.mgr.range.overlaps(&range)))
                {
                    self.respond(ctx, src, rpc, Response::Err(Status::MigrationInProgress));
                    return;
                }
                // Ownership (locally) from the very start: reads miss into
                // the PriorityPull path, writes are accepted (§3).
                self.master
                    .add_tablet(table, range, TabletRole::PullingFrom { source });
                let lineage = self.master.log.head_segment_id();
                let mut mgr = MigrationManager::new(
                    table,
                    range,
                    source,
                    lineage,
                    self.cfg.migration.clone(),
                );
                let source_actor = self.dir.actor_of(source);
                let first = mgr.begin();
                self.stats.begin_migration_run(id, ctx.now());
                if self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::MigrationAdmitted {
                            id,
                            table,
                            range,
                            source,
                            target: self.cfg.id,
                        },
                    );
                }
                let mig_trace = self.trace.is_on().then(|| MigTrace {
                    started: ctx.now(),
                    phase_start: ctx.now(),
                });
                self.migrations.push(MigrationRun {
                    id,
                    mgr,
                    source_actor,
                    client: Some((src, rpc)),
                    sidelogs: (0..self.cfg.workers).map(|_| None).collect(),
                    mig_trace,
                    pull_span_start: FxHashMap::default(),
                    pp_span_start: FxHashMap::default(),
                    pp_ctx: FxHashMap::default(),
                });
                self.run_migration_actions(ctx, id, vec![first]);
            }
            Request::MigrateTabletBaseline {
                table,
                range,
                target,
                opts,
            } => {
                let Some(mig) = BaselineMigration::new(
                    &mut self.master,
                    table,
                    range,
                    target,
                    opts,
                    self.cfg.migration.pull_budget_bytes as u64,
                ) else {
                    self.respond(ctx, src, rpc, Response::Err(Status::UnknownTablet));
                    return;
                };
                self.stats.begin_migration(ctx.now());
                self.baseline = Some(BaselineRun {
                    mig,
                    target_actor: self.dir.actor_of(target),
                    opts,
                });
                self.queues[Priority::Background as usize].push_back(Task::BaselineStep);
                self.respond(ctx, src, rpc, Response::MigrateTabletOk);
            }
            Request::RecoverTablet {
                table,
                range,
                crashed,
                backups,
                from_segment,
                merge,
            } => {
                // Block client traffic on the range until the replicated
                // log has been merged: accepting a write before the
                // replay would let it carry a version below what the
                // dead participant already acknowledged (§3.4).
                if merge {
                    if self
                        .master
                        .set_tablet_role(table, range, TabletRole::Recovering)
                    {
                        // We were serving this range (e.g. as a migration
                        // target); replay now blocks it.
                        if self.audit.is_on() {
                            self.audit.emit(
                                ctx.now(),
                                AuditKind::NodeRelease {
                                    server: self.cfg.id,
                                    table,
                                    range,
                                    via: ReleaseVia::RecoveryBlock,
                                },
                            );
                        }
                    } else {
                        self.master.add_tablet(table, range, TabletRole::Recovering);
                    }
                    // A migration we were running for this range is moot:
                    // the coordinator's recovery plan supersedes it.
                    // Overlapping runs are impossible (admission), so at
                    // most one matches; other in-flight runs continue.
                    if let Some(mig) = self
                        .migrations
                        .iter()
                        .find(|run| run.mgr.table == table && run.mgr.range == range)
                        .map(|run| run.id)
                    {
                        self.abandon_migration(ctx, mig, "mig:abandoned-superseded");
                    }
                } else {
                    self.master.add_tablet(table, range, TabletRole::Recovering);
                }
                let key = rpc.0;
                let mut pending = 0u32;
                for b in &backups {
                    let dst = self.dir.actor_of(*b);
                    let id = self.alloc_rpc_to(dst, Pending::FetchSegments { recovery: key });
                    pending += 1;
                    self.send(
                        ctx,
                        dst,
                        Envelope::req(
                            id,
                            Request::FetchSegments {
                                owner: crashed,
                                min_segment: from_segment,
                            },
                        ),
                    );
                }
                self.recoveries.insert(
                    key,
                    RecoveryRun {
                        table,
                        range,
                        coordinator_rpc: (src, rpc),
                        pending_fetches: pending,
                        images: FxHashMap::default(),
                        crashed,
                        from_segment,
                        backups,
                        failed_backups: Vec::new(),
                    },
                );
                if pending == 0 {
                    self.queues[Priority::Replay as usize]
                        .push_back(Task::RecoveryReplay { recovery: key });
                }
            }
            Request::NotifyServerDown { server } => {
                self.on_server_down(ctx, server);
                self.respond(ctx, src, rpc, Response::Ok);
            }
            // Everything else runs on a worker.
            other => {
                if self.trace.is_on() {
                    self.rpc_spans.insert(
                        (src, rpc.0),
                        RpcSpan {
                            name: other.name(),
                            sent_at: stamps.sent_at,
                            arrived: stamps.arrived,
                            assigned: 0,
                            service_end: 0,
                            nic_in: stamps.nic_in,
                            cctx: stamps.cctx,
                        },
                    );
                }
                let priority = other.priority();
                self.queues[priority as usize].push_back(Task::Rpc {
                    src,
                    rpc,
                    req: other,
                    cctx: stamps.cctx,
                });
            }
        }
    }

    // ------------------------------------------------- response handling --

    fn on_response(&mut self, ctx: &mut Ctx<'_, Envelope>, rpc: RpcId, resp: Response, nic: Nanos) {
        let Some(pending) = self.outstanding.remove(&rpc) else {
            return; // late/duplicate response
        };
        self.rpc_dst.remove(&rpc);
        match (pending, resp) {
            (Pending::Prepare { mig }, Response::PrepareMigrationOk { version_ceiling }) => {
                self.master.raise_version_floor(version_ceiling);
                if self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::VersionFloor {
                            server: self.cfg.id,
                            floor: self.master.version_ceiling(),
                        },
                    );
                }
                let prepared = match self.run_mut(mig) {
                    Some(run) => Some((run.mgr.on_prepared(), run.mgr.phase().name())),
                    None => None,
                };
                if let Some((action, label)) = prepared {
                    self.mig_phase_span(ctx.now(), ctx.self_id(), mig, label);
                    self.run_migration_actions(ctx, mig, vec![action]);
                }
            }
            (Pending::MigStartAck { mig }, Response::Ok) => {
                let mut registered = None;
                let mut client = None;
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_registered();
                    registered = Some(run.mgr.phase().name());
                    client = run.client.take();
                }
                if let Some((c, client_rpc)) = client {
                    self.respond(ctx, c, client_rpc, Response::MigrateTabletOk);
                }
                if let Some(label) = registered {
                    self.mig_phase_span(ctx.now(), ctx.self_id(), mig, label);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::MigCompleteAck, _) => {}
            (Pending::Pull { mig, partition }, Response::PullOk { records, next }) => {
                let wire: u64 = records.iter().map(Record::wire_size).sum();
                self.stats.bytes_migrated_in.add(wire);
                let span = self
                    .run_mut(mig)
                    .and_then(|r| r.pull_span_start.remove(&rpc.0));
                if let Some((t0, part)) = span {
                    self.trace.span(
                        "mig:pull",
                        "migration",
                        ctx.self_id() as u64,
                        lanes::pull(part),
                        t0,
                        ctx.now() - t0,
                        &["records", "bytes", "resp_nic"],
                        &[records.len() as u64, wire, nic],
                    );
                }
                if self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::Gathered {
                            id: mig,
                            partition: partition as u64,
                            records: records.len() as u64,
                            priority: false,
                        },
                    );
                }
                self.stats.migration_gathered(mig, records.len() as u64);
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_pull_response(partition, records, next, wire);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::PriorityPull { mig, hashes }, Response::PriorityPullOk { records }) => {
                let wire: u64 = records.iter().map(Record::wire_size).sum();
                self.stats.bytes_migrated_in.add(wire);
                let span = self
                    .run_mut(mig)
                    .and_then(|r| r.pp_span_start.remove(&rpc.0));
                if let Some((t0, batch)) = span {
                    self.trace.span(
                        "mig:priority-pull",
                        "migration",
                        ctx.self_id() as u64,
                        lanes::PRIORITY_PULL,
                        t0,
                        ctx.now() - t0,
                        &["hashes", "records", "resp_nic"],
                        &[batch, records.len() as u64, nic],
                    );
                }
                if self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::Gathered {
                            id: mig,
                            partition: u64::MAX,
                            records: records.len() as u64,
                            priority: true,
                        },
                    );
                }
                self.stats.migration_gathered(mig, records.len() as u64);
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_priority_pull_response(&hashes, records);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::SyncPriorityPull(wait), Response::PriorityPullOk { records }) => {
                self.finish_sync_priority_pull(ctx, wait, records);
            }
            (Pending::ReplAck { group: Some(gid) }, _) => {
                self.credit_ack_group(ctx, gid);
            }
            (Pending::ReplAck { group: None }, _) => {}
            (Pending::PushRecords, Response::PushRecordsOk) if self.baseline.is_some() => {
                // Window of 1: next scan step now that the target acked.
                self.queues[Priority::Background as usize].push_back(Task::BaselineStep);
            }
            (Pending::PushRecords, Response::PushRecordsOk) => {}
            (Pending::BaselineTransferAck, _) => {
                if let Some(run) = &mut self.baseline {
                    run.mig.on_ownership_transferred(&mut self.master);
                    self.stats.migration_finished_at.set(ctx.now());
                }
                self.baseline = None;
            }
            (Pending::FetchSegments { recovery }, Response::SegmentsOk { segments }) => {
                self.on_segments(ctx, recovery, segments);
            }
            // Error responses on protocol RPCs: drop the related state
            // rather than wedging (e.g. source died mid-migration; the
            // coordinator's crash handling takes over).
            (Pending::SyncPriorityPull(wait), _) => {
                let resp = self.retry_hint(ctx, RetryCause::SourceFailover);
                self.respond(ctx, wait.client, wait.client_rpc, resp);
                self.release_worker(ctx, wait.worker);
            }
            // The coordinator (or the source) rejected the run — an
            // overlapping migration won the race, or ownership was stale.
            // Previously this fell into the catch-all and the run wedged
            // forever with its requester unanswered; drop it instead.
            (Pending::MigStartAck { mig }, _) | (Pending::Prepare { mig }, _) => {
                self.abandon_migration(ctx, mig, "mig:abandoned-rejected");
            }
            _ => {}
        }
    }

    fn run_mut(&mut self, id: MigrationId) -> Option<&mut MigrationRun> {
        self.migrations.iter_mut().find(|r| r.id == id)
    }

    fn on_segments(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        recovery: u64,
        segments: Vec<SegmentImage>,
    ) {
        let Some(rec) = self.recoveries.get_mut(&recovery) else {
            return;
        };
        for img in segments {
            let entry = rec.images.entry(img.id).or_insert_with(|| img.data.clone());
            if img.data.len() > entry.len() {
                *entry = img.data;
            }
        }
        rec.pending_fetches -= 1;
        if rec.pending_fetches == 0 {
            self.queues[Priority::Replay as usize].push_back(Task::RecoveryReplay { recovery });
            self.try_assign(ctx);
        }
    }

    // -------------------------------------------------- worker machinery --

    /// Any idle worker, including the reserved one.
    fn idle_worker_any(&self) -> Option<usize> {
        self.workers.iter().position(|w| !w.busy)
    }

    /// An idle worker excluding worker 0. Worker 0 is reserved away from
    /// tasks that can *hold* a core while waiting on another server
    /// (durable writes awaiting replication acks, synchronous
    /// PriorityPulls) — without the reserve, a ring of fully-loaded
    /// servers deadlocks: every core held awaiting an ack that only
    /// another held core could produce. Non-holding work (reads, pulls,
    /// replay, replication service) runs on any core.
    fn idle_worker_nonreserved(&self) -> Option<usize> {
        let skip = usize::from(self.workers.len() > 1);
        self.workers
            .iter()
            .enumerate()
            .skip(skip)
            .find(|(_, w)| !w.busy)
            .map(|(i, _)| i)
    }

    fn idle_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.busy).count()
    }

    /// Whether a task can hold its worker past its service time, waiting
    /// on a remote ack (see [`Self::idle_worker_nonreserved`]).
    fn may_hold(&self, task: &Task) -> bool {
        match task {
            Task::Rpc { req, .. } => match req {
                Request::Write { .. } | Request::Delete { .. } => true,
                Request::PushRecords {
                    replay: true,
                    rereplicate: true,
                    ..
                } => true,
                Request::Read { .. } => self.cfg.migration.sync_priority_pulls,
                _ => false,
            },
            _ => false,
        }
    }

    fn try_assign(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        // Strict priority: Urgent, Foreground, then the migration
        // manager's held replay batches, then Replay/Background queues
        // (§3.1, §3.1.2). Hold-capable tasks never take the reserved
        // worker.
        loop {
            let mut assigned = false;
            for q in 0..self.queues.len() {
                let Some(front) = self.queues[q].front() else {
                    if q == 1
                        && !self.migrations.is_empty()
                        && self.idle_workers() > 0
                        && self.poll_and_run_migrations(ctx)
                    {
                        // Between Foreground and Replay: offer idle
                        // workers to the migration managers (§3.1.2).
                        assigned = true;
                        break;
                    }
                    continue;
                };
                let worker = if self.may_hold(front) {
                    self.idle_worker_nonreserved()
                } else {
                    self.idle_worker_any()
                };
                let Some(worker) = worker else {
                    // Strict priority: don't let lower classes jump the
                    // queue just because the head can't be placed.
                    return;
                };
                let task = self.queues[q].pop_front().expect("peeked above");
                self.run_task(ctx, worker, task);
                assigned = true;
                break;
            }
            if !assigned {
                if !self.migrations.is_empty()
                    && self.idle_workers() > 0
                    && self.poll_and_run_migrations(ctx)
                {
                    continue;
                }
                return;
            }
        }
    }

    /// Ledger activity a task charges its worker core with. Replication
    /// appends, segment-fetch service, cleaning, and non-replay pushes
    /// are background duty; everything client-visible is `Service`.
    fn activity_of(task: &Task) -> Activity {
        match task {
            Task::Rpc { req, .. } => match req {
                Request::Pull { .. } => Activity::PullGather,
                Request::PriorityPull { .. } => Activity::PriorityPull,
                Request::PushRecords { replay: true, .. } => Activity::Replay,
                Request::PushRecords { .. }
                | Request::ReplicateAppend { .. }
                | Request::ReplicateClose { .. }
                | Request::FetchSegments { .. } => Activity::Background,
                _ => Activity::Service,
            },
            Task::BaselineStep => Activity::PullGather,
            Task::RecoveryReplay { .. } => Activity::Replay,
            Task::CleanerPass => Activity::Background,
        }
    }

    fn run_task(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize, task: Task) {
        debug_assert!(!self.workers[worker].busy);
        self.workers[worker].busy = true;
        let activity = if self.profiler.is_on() {
            Some(Self::activity_of(&task))
        } else {
            None
        };
        let span_key = if self.trace.is_on() {
            match &task {
                Task::Rpc { src, rpc, req, .. } => Some((req.name(), Some((*src, rpc.0)))),
                Task::BaselineStep => Some(("baseline-step", None)),
                Task::RecoveryReplay { .. } => Some(("recovery-replay", None)),
                Task::CleanerPass => Some(("cleaner", None)),
            }
        } else {
            None
        };
        let service_ns = match task {
            Task::Rpc {
                src,
                rpc,
                req,
                cctx,
            } => {
                self.workers[worker].cur_ctx = cctx;
                self.exec_rpc(ctx, worker, src, rpc, req, cctx)
            }
            Task::BaselineStep => self.exec_baseline_step(ctx, worker),
            Task::RecoveryReplay { recovery } => {
                self.exec_recovery_replay(ctx.now(), worker, recovery)
            }
            Task::CleanerPass => self.exec_cleaner_pass(),
        };
        if let Some(act) = activity {
            self.workers[worker].ledger_op = Some((act, ctx.now()));
        }
        if let Some((label, rpc_key)) = span_key {
            self.workers[worker].trace_op = Some((label, ctx.now()));
            if let Some(key) = rpc_key {
                if let Some(span) = self.rpc_spans.get_mut(&key) {
                    span.assigned = ctx.now();
                    span.service_end = ctx.now() + service_ns;
                }
            }
        }
        self.stats.worker_busy_ns.add(service_ns);
        ctx.timer(service_ns, token(KIND_WORKER_DONE, worker as u64));
    }

    fn on_worker_done(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize) {
        if let Some((act, since)) = self.workers[worker].ledger_op.take() {
            self.profiler.charge(
                self.cfg.id.0,
                worker as u32 + 1,
                act,
                since,
                ctx.now() - since,
            );
        }
        if let Some((label, since)) = self.workers[worker].trace_op.take() {
            self.trace.span(
                label,
                "worker",
                ctx.self_id() as u64,
                lanes::worker(worker),
                since,
                ctx.now() - since,
                &[],
                &[],
            );
        }
        let deferred = std::mem::take(&mut self.workers[worker].deferred);
        let mut migration_event = false;
        for d in deferred {
            match d {
                Deferred::Send(dst, env) => {
                    if self.trace.is_on() {
                        if let Body::Resp(_) = env.body {
                            self.finalize_rpc_span(ctx.now(), ctx.self_id(), dst, env.rpc);
                        }
                    }
                    self.send(ctx, dst, env);
                }
                Deferred::ReplayDone(mig, partition) => {
                    if let Some(run) = self.run_mut(mig) {
                        run.mgr.on_replay_done(partition);
                    }
                    migration_event = true;
                }
                Deferred::BaselineContinue => {
                    self.queues[Priority::Background as usize].push_back(Task::BaselineStep);
                }
                Deferred::ShipLog { wait } => {
                    self.ship_log(ctx, Some(worker), wait, false);
                }
            }
        }
        self.workers[worker].replay_partition = None;
        if !self.workers[worker].held {
            self.workers[worker].busy = false;
        } else {
            self.workers[worker].hold_since = ctx.now();
        }
        if migration_event {
            self.poll_and_run_migrations(ctx);
        }
        self.try_assign(ctx);
    }

    fn release_worker(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize) {
        let hold = {
            let w = &mut self.workers[worker];
            if w.held {
                // The core sat blocked from service end until now; that
                // wait is busy time (a stalled worker serves nobody,
                // §4.4).
                let waited = ctx.now().saturating_sub(w.hold_since);
                w.held = false;
                Some((w.hold_since, waited))
            } else {
                None
            }
        };
        if let Some((since, waited)) = hold {
            self.stats.worker_busy_ns.add(waited);
            // Mirror the §4.4 rule in the ledger: the blocked window is
            // charged as Hold, guarded like the trace span below so a
            // mid-service failover release doesn't double-charge.
            if self.workers[worker].ledger_op.is_none() && since > 0 {
                self.profiler.charge(
                    self.cfg.id.0,
                    worker as u32 + 1,
                    Activity::Hold,
                    since,
                    waited,
                );
            }
            // Only span the hold if the service span has already closed
            // (a failover can release a core mid-service, before
            // `hold_since` was ever stamped).
            if self.trace.is_on() && self.workers[worker].trace_op.is_none() && since > 0 {
                self.trace.span(
                    "hold",
                    "worker",
                    ctx.self_id() as u64,
                    lanes::worker(worker),
                    since,
                    waited,
                    &[],
                    &[],
                );
            }
        }
        self.workers[worker].busy = false;
        self.try_assign(ctx);
    }

    // ------------------------------------------------------- replication --

    /// Ships every not-yet-replicated byte of the main log to this
    /// master's backups through the replication-manager resource. If
    /// `wait` is set, a fresh ack group is created that releases
    /// `worker` and answers the client once every chunk is acked.
    fn ship_log(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: Option<usize>,
        wait: Option<(ActorId, RpcId, Response)>,
        bulk: bool,
    ) {
        let backups = self.cfg.backup_actors.clone();
        let mut chunk_rpcs = Vec::new();
        if !backups.is_empty() {
            let segments = self.master.log.segments_snapshot();
            // Cap chunk size so bulk (lazy) re-replication interleaves
            // with foreground responses on the NIC instead of hogging it
            // with whole-segment transmissions.
            const CHUNK: usize = 64 * 1024;
            for seg in segments {
                let committed = seg.committed();
                let mut done = *self.repl_cursor.get(&seg.id()).unwrap_or(&0);
                if committed <= done {
                    continue;
                }
                // One zero-copy window per segment; every chunk below is
                // a refcounted slice of it rather than a 64 KB memcpy.
                let window = seg.committed_as_bytes();
                while done < committed {
                    let end = (done + CHUNK).min(committed);
                    let data = window.slice(done..end);
                    let bytes = data.len() as u64;
                    // The replication manager is a serialized ~380 MB/s
                    // resource (§2.3): each chunk occupies it for its
                    // fan-out before the RPCs leave.
                    let occupancy = self.cfg.cost.replication_occupancy_ns(bytes);
                    let start = if bulk {
                        ctx.now().max(self.repl_free_at).max(self.repl_bulk_free_at)
                    } else {
                        ctx.now().max(self.repl_free_at)
                    };
                    let free = start + occupancy;
                    if bulk {
                        self.repl_bulk_free_at = free;
                    } else {
                        self.repl_free_at = free;
                    }
                    let delay = free - ctx.now();
                    for b in &backups {
                        let req = Request::ReplicateAppend {
                            owner: self.cfg.id,
                            segment: seg.id(),
                            offset: done as u32,
                            data: data.clone(),
                        };
                        let rpc = self.alloc_rpc_to(*b, Pending::ReplAck { group: None });
                        chunk_rpcs.push(rpc);
                        let env = Envelope::req(rpc, req);
                        if delay == 0 {
                            self.send(ctx, *b, env);
                        } else {
                            let tok = self.next_deferred;
                            self.next_deferred += 1;
                            self.deferred_sends.insert(tok, (*b, env));
                            ctx.timer(delay, token(KIND_DEFERRED_SEND, tok));
                        }
                    }
                    done = end;
                }
                self.repl_cursor.insert(seg.id(), committed);
            }
        }
        match wait {
            Some((client, rpc, resp)) if !chunk_rpcs.is_empty() => {
                let gid = self.next_group;
                self.next_group += 1;
                for r in &chunk_rpcs {
                    self.outstanding
                        .insert(*r, Pending::ReplAck { group: Some(gid) });
                }
                self.ack_groups.insert(
                    gid,
                    AckGroup {
                        remaining: chunk_rpcs.len() as u32,
                        worker,
                        respond: Some((client, rpc, resp)),
                    },
                );
            }
            Some((client, rpc, resp)) => {
                // Nothing to ship (no backups, or a concurrent shipment
                // already covered our bytes): respond immediately.
                self.respond(ctx, client, rpc, resp);
                if let Some(w) = worker {
                    self.release_worker(ctx, w);
                }
            }
            None => {}
        }
    }

    fn credit_ack_group(&mut self, ctx: &mut Ctx<'_, Envelope>, gid: u64) {
        let finished = {
            let Some(g) = self.ack_groups.get_mut(&gid) else {
                return;
            };
            g.remaining -= 1;
            g.remaining == 0
        };
        if finished {
            let g = self.ack_groups.remove(&gid).expect("checked above");
            if let Some((client, rpc, resp)) = g.respond {
                self.respond(ctx, client, rpc, resp);
            }
            if let Some(w) = g.worker {
                self.release_worker(ctx, w);
            }
        }
    }

    // ------------------------------------------------------ RPC execution --

    #[allow(clippy::too_many_lines)]
    fn exec_rpc(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        src: ActorId,
        rpc: RpcId,
        req: Request,
        cctx: CausalCtx,
    ) -> Nanos {
        let m = self.cfg.cost.clone();
        let mut work = Work::default();
        match req {
            Request::Read {
                table,
                key,
                key_hash,
            } => {
                self.stats.ops_served.add(1);
                let service = m.op_fixed_ns + m.read_per_object_ns;
                match self.master.read(table, key_hash, Some(&key), &mut work) {
                    Ok((value, version)) => {
                        self.defer_send(worker, src, rpc, Response::ReadOk { value, version });
                    }
                    Err(err) => {
                        return self.read_miss(
                            ctx,
                            worker,
                            src,
                            rpc,
                            table,
                            key,
                            key_hash,
                            err,
                            service + work.service_ns(&m),
                            cctx,
                        );
                    }
                }
                service + work.service_ns(&m)
            }
            Request::MultiRead { table, keys } => {
                let n = keys.len() as u64;
                self.stats.ops_served.add(n);
                let mut values = Vec::with_capacity(keys.len());
                for (key, hash) in &keys {
                    values.push(
                        self.master
                            .read(table, *hash, Some(key), &mut work)
                            .ok()
                            .map(|(v, _)| v),
                    );
                }
                self.defer_send(worker, src, rpc, Response::MultiReadOk { values });
                m.op_fixed_ns + n * m.read_per_object_ns + work.service_ns(&m)
            }
            Request::MultiReadHash { table, hashes } => {
                let n = hashes.len() as u64;
                self.stats.ops_served.add(n);
                let mut values = Vec::with_capacity(hashes.len());
                for hash in &hashes {
                    values.push(
                        self.master
                            .read(table, *hash, None, &mut work)
                            .ok()
                            .map(|(v, _)| v),
                    );
                }
                self.defer_send(worker, src, rpc, Response::MultiReadHashOk { values });
                m.op_fixed_ns + n * m.read_per_object_ns + work.service_ns(&m)
            }
            Request::Write {
                table,
                key,
                key_hash,
                value,
            } => {
                self.stats.ops_served.add(1);
                let service = m.op_fixed_ns + m.write_per_object_ns;
                match self.master.write(table, key_hash, &key, &value, &mut work) {
                    Ok((version, _)) => {
                        // Durable write: ship the log delta at completion
                        // and hold the worker until the replicas ack (§2:
                        // 15 µs writes).
                        self.workers[worker].held = true;
                        self.workers[worker].deferred.push(Deferred::ShipLog {
                            wait: Some((src, rpc, Response::WriteOk { version })),
                        });
                    }
                    Err(OpError::UnknownTablet) => {
                        self.defer_send(worker, src, rpc, Response::Err(Status::UnknownTablet));
                    }
                    Err(OpError::Recovering) => {
                        let resp = self.retry_hint(ctx, RetryCause::Recovering);
                        self.defer_send(worker, src, rpc, resp);
                    }
                    Err(_) => {
                        self.defer_send(worker, src, rpc, Response::Err(Status::NotFound));
                    }
                }
                service + work.service_ns(&m)
            }
            Request::Delete {
                table,
                key,
                key_hash,
            } => {
                self.stats.ops_served.add(1);
                match self.master.delete(table, key_hash, &key, &mut work) {
                    Ok(existed) => {
                        self.workers[worker].held = true;
                        self.workers[worker].deferred.push(Deferred::ShipLog {
                            wait: Some((src, rpc, Response::DeleteOk { existed })),
                        });
                    }
                    Err(OpError::UnknownTablet) => {
                        self.defer_send(worker, src, rpc, Response::Err(Status::UnknownTablet));
                    }
                    Err(OpError::Recovering) => {
                        let resp = self.retry_hint(ctx, RetryCause::Recovering);
                        self.defer_send(worker, src, rpc, resp);
                    }
                    Err(_) => {
                        self.defer_send(worker, src, rpc, Response::Err(Status::NotFound));
                    }
                }
                m.op_fixed_ns + m.write_per_object_ns + work.service_ns(&m)
            }
            Request::IndexScan {
                table,
                index,
                begin,
                end,
                limit,
            } => {
                self.stats.ops_served.add(1);
                let resp = match self.master.index_scan(
                    table,
                    index,
                    &begin,
                    &end,
                    limit as usize,
                    &mut work,
                ) {
                    Ok((hashes, truncated)) => Response::IndexScanOk { hashes, truncated },
                    Err(_) => Response::Err(Status::UnknownTablet),
                };
                self.defer_send(worker, src, rpc, resp);
                m.op_fixed_ns + m.index_lookup_ns + work.service_ns(&m)
            }
            Request::IndexInsert {
                table,
                index,
                sec_key,
                primary_hash,
            } => {
                let resp =
                    match self
                        .master
                        .index_insert(table, index, &sec_key, primary_hash, &mut work)
                    {
                        Ok(()) => Response::Ok,
                        Err(_) => Response::Err(Status::UnknownTablet),
                    };
                self.defer_send(worker, src, rpc, resp);
                m.op_fixed_ns + m.index_lookup_ns + work.service_ns(&m)
            }
            Request::Pull {
                table,
                range,
                cursor,
                budget_bytes,
            } => {
                if self.cfg.migration.test_drop_pulls {
                    // Fault injection: swallow the Pull without answering.
                    // The target's gather pipeline never advances and the
                    // migration hangs in flight — the stall the flight
                    // recorder's watchdog must catch.
                    return m.pull_fixed_ns;
                }
                self.stats.pulls_served.add(1);
                let (records, next, gwork) = rocksteady::source::handle_pull(
                    &self.master,
                    table,
                    range,
                    cursor,
                    budget_bytes,
                );
                let mut service = m.pull_fixed_ns;
                let mut wire = 0;
                for r in &records {
                    service += m.pull_record_ns(r.wire_size());
                    wire += r.wire_size();
                }
                self.stats.bytes_migrated_out.add(wire);
                let _ = gwork; // per-record costs are covered by pull_record_ns
                self.defer_send(worker, src, rpc, Response::PullOk { records, next });
                service
            }
            Request::PriorityPull { table, hashes } => {
                if self.cfg.migration.test_drop_pulls {
                    // Fault injection: priority pulls stall too —
                    // otherwise client traffic into the migrating range
                    // trickles gather progress and masks the stall.
                    return m.priority_pull_fixed_ns;
                }
                self.stats.priority_pulls_served.add(1);
                let (records, _gwork) =
                    rocksteady::source::handle_priority_pull(&self.master, table, &hashes);
                let mut service = m.priority_pull_fixed_ns;
                let mut wire = 0;
                for r in &records {
                    service += m.priority_pull_per_record_ns
                        + m.checksum_ns(r.wire_size())
                        + m.copy_ns(r.wire_size());
                    wire += r.wire_size();
                }
                self.stats.bytes_migrated_out.add(wire);
                if self.audit.is_on() {
                    self.audit.emit(
                        ctx.now(),
                        AuditKind::PriorityServed {
                            server: self.cfg.id,
                            requested: hashes.len() as u64,
                            records: records.len() as u64,
                        },
                    );
                }
                self.defer_send(worker, src, rpc, Response::PriorityPullOk { records });
                service
            }
            Request::PushRecords {
                table: _,
                records,
                replay,
                rereplicate,
            } => {
                let mut service = m.op_fixed_ns;
                let wire: u64 = records.iter().map(Record::wire_size).sum();
                self.stats.bytes_migrated_in.add(wire);
                if replay {
                    for rec in &records {
                        service += m.replay_record_ns(rec.wire_size());
                    }
                    let replayed =
                        self.master
                            .replay_batch(&records, ReplayDest::MainLog, &mut work);
                    self.stats.records_replayed.add(replayed as u64);
                    if self.audit.is_on() {
                        self.audit.emit(
                            ctx.now(),
                            AuditKind::VersionFloor {
                                server: self.cfg.id,
                                floor: self.master.version_ceiling(),
                            },
                        );
                    }
                }
                if replay && rereplicate {
                    self.workers[worker].held = true;
                    self.workers[worker].deferred.push(Deferred::ShipLog {
                        wait: Some((src, rpc, Response::PushRecordsOk)),
                    });
                } else {
                    self.defer_send(worker, src, rpc, Response::PushRecordsOk);
                }
                service
            }
            Request::ReplicateAppend {
                owner,
                segment,
                offset,
                data,
            } => {
                let dlen = data.len();
                let outcome = self.backup.append(owner, segment, offset, data);
                debug_assert!(
                    matches!(outcome, rocksteady_backup::AppendOutcome::Ok),
                    "replication stream corrupted: {outcome:?}"
                );
                self.defer_send(worker, src, rpc, Response::ReplicateOk);
                m.backup_fixed_ns + (dlen as f64 * m.backup_per_byte_ns) as Nanos
            }
            Request::ReplicateClose { owner, segment } => {
                self.backup.close(owner, segment);
                self.defer_send(worker, src, rpc, Response::ReplicateOk);
                m.backup_fixed_ns
            }
            Request::FetchSegments { owner, min_segment } => {
                let segments = self.backup.fetch(owner, min_segment);
                let bytes: u64 = segments.iter().map(|s| s.data.len() as u64).sum();
                self.defer_send(worker, src, rpc, Response::SegmentsOk { segments });
                m.backup_fixed_ns + m.copy_ns(bytes)
            }
            // Control-plane requests never reach workers.
            other => {
                debug_assert!(false, "unexpected worker request {other:?}");
                self.defer_send(worker, src, rpc, Response::Err(Status::UnknownTablet));
                m.op_fixed_ns
            }
        }
    }

    /// Handles a read that could not be served directly.
    #[allow(clippy::too_many_arguments)]
    fn read_miss(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        src: ActorId,
        rpc: RpcId,
        table: TableId,
        key: Bytes,
        _key_hash: KeyHash,
        err: OpError,
        service: Nanos,
        cctx: CausalCtx,
    ) -> Nanos {
        match err {
            OpError::NotYetHere { hash } => {
                let sync = self.cfg.migration.sync_priority_pulls;
                // Route the miss to the run whose range covers the hash —
                // with several runs in flight the first would otherwise
                // swallow every other run's misses.
                let covering = self
                    .migrations
                    .iter()
                    .find(|r| r.mgr.table == table && r.mgr.range.contains(hash))
                    .map(|r| (r.id, r.source_actor));
                if sync {
                    if let Some((_, source_actor)) = covering {
                        // Naïve mode (Figure 13b/14b): the worker blocks on
                        // its own single-key PriorityPull.
                        self.workers[worker].held = true;
                        let pp = self.alloc_rpc_to(
                            source_actor,
                            Pending::SyncPriorityPull(SyncWait {
                                worker,
                                client: src,
                                client_rpc: rpc,
                                table,
                                hash,
                                key,
                                cctx,
                            }),
                        );
                        // The pull is issued on the blocked read's
                        // behalf: same trace id, one hop deeper.
                        let pp_ctx = cctx.child(rpc.0);
                        if self.trace.is_on() && pp_ctx.trace_id.is_some() {
                            self.trace.flow(
                                "rpc-flow",
                                "flow",
                                ctx.self_id() as u64,
                                lanes::PRIORITY_PULL,
                                ctx.now(),
                                true,
                                pp_ctx.trace_id.0 ^ pp.0,
                                &schema::FLOW,
                                &[pp_ctx.trace_id.0],
                            );
                        }
                        self.send(
                            ctx,
                            source_actor,
                            Envelope::req(
                                pp,
                                Request::PriorityPull {
                                    table,
                                    hashes: vec![hash],
                                },
                            )
                            .with_ctx(pp_ctx),
                        );
                        return service;
                    }
                }
                let outcome = match covering.and_then(|(id, _)| self.run_mut(id)) {
                    Some(run) => {
                        let outcome = run.mgr.on_read_miss(hash);
                        // Remember who asked: the batched PriorityPull
                        // that eventually covers this hash inherits the
                        // waiting read's context (first waiter wins).
                        if matches!(outcome, MissOutcome::Wait) && cctx.trace_id.is_some() {
                            run.pp_ctx.entry(hash).or_insert(cctx.child(rpc.0));
                        }
                        outcome
                    }
                    None => MissOutcome::Wait,
                };
                let resp = match outcome {
                    MissOutcome::Wait => {
                        // "Retry after the time when the target expects it
                        // will have the value" (§3): with PriorityPulls
                        // that is one PP round trip; without them the
                        // record only arrives with the bulk pulls, so the
                        // hint is correspondingly longer.
                        let cause = if self.cfg.migration.priority_pulls {
                            RetryCause::MissPriorityPull
                        } else {
                            RetryCause::MissBulkOnly
                        };
                        if covering.is_some() && self.cfg.migration.priority_pulls {
                            let n = self.stats.priority_pull_deferrals.inc();
                            if self.trace.is_on() {
                                self.trace.counter(
                                    "pp-deferrals",
                                    ctx.self_id() as u64,
                                    ctx.now(),
                                    n,
                                );
                            }
                        }
                        self.retry_hint(ctx, cause)
                    }
                    MissOutcome::NotFound => Response::Err(Status::NotFound),
                };
                self.defer_send(worker, src, rpc, resp);
                self.poll_and_run_migrations(ctx);
                service
            }
            OpError::UnknownTablet => {
                self.defer_send(worker, src, rpc, Response::Err(Status::UnknownTablet));
                service
            }
            OpError::Recovering => {
                let resp = self.retry_hint(ctx, RetryCause::Recovering);
                self.defer_send(worker, src, rpc, resp);
                service
            }
            _ => {
                self.defer_send(worker, src, rpc, Response::Err(Status::NotFound));
                service
            }
        }
    }

    fn finish_sync_priority_pull(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        wait: SyncWait,
        records: Vec<Record>,
    ) {
        let m = self.cfg.cost.clone();
        let mut work = Work::default();
        let mut service = 0;
        for rec in &records {
            service += m.replay_record_ns(rec.wire_size());
        }
        let replayed = self
            .master
            .replay_batch(&records, ReplayDest::MainLog, &mut work);
        self.stats.records_replayed.add(replayed as u64);
        if self.audit.is_on() {
            self.audit.emit(
                ctx.now(),
                AuditKind::VersionFloor {
                    server: self.cfg.id,
                    floor: self.master.version_ceiling(),
                },
            );
        }
        // The worker was blocked the whole round trip; charge the replay
        // on top.
        self.stats.worker_busy_ns.add(service);
        let resp = match self
            .master
            .read(wait.table, wait.hash, Some(&wait.key), &mut work)
        {
            Ok((value, version)) => Response::ReadOk { value, version },
            Err(_) => Response::Err(Status::NotFound),
        };
        self.respond_ctx(ctx, wait.client, wait.client_rpc, resp, wait.cctx);
        self.release_worker(ctx, wait.worker);
    }

    // --------------------------------------------------------- migration --

    /// Polls every in-flight migration run (admission order), executing
    /// each run's actions before polling the next so the idle-worker
    /// count each manager sees stays exact. Returns whether any run
    /// produced actions.
    fn poll_and_run_migrations(&mut self, ctx: &mut Ctx<'_, Envelope>) -> bool {
        if self.migrations.is_empty() {
            return false;
        }
        let ids: Vec<MigrationId> = self.migrations.iter().map(|r| r.id).collect();
        let mut any = false;
        for id in ids {
            // Each manager runs as a dispatch continuation (§3.1.2).
            self.dispatch_charge += self.cfg.cost.migration_mgr_check_ns;
            self.dispatch_charge_mgr += self.cfg.cost.migration_mgr_check_ns;
            let idle = self.idle_workers();
            let Some(run) = self.run_mut(id) else {
                continue;
            };
            let actions = run.mgr.poll(idle);
            if !actions.is_empty() {
                any = true;
                self.run_migration_actions(ctx, id, actions);
            }
        }
        any
    }

    fn run_migration_actions(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        id: MigrationId,
        actions: Vec<Action>,
    ) {
        for action in actions {
            // Re-find each iteration: an action (Finished, or an abandon
            // triggered downstream) may remove the run mid-loop.
            let Some(idx) = self.migrations.iter().position(|r| r.id == id) else {
                return;
            };
            match action {
                Action::SendPrepare => {
                    let (table, range, dst) = {
                        let run = &self.migrations[idx];
                        (run.mgr.table, run.mgr.range, run.source_actor)
                    };
                    let req = Request::PrepareMigration {
                        table,
                        range,
                        target: self.cfg.id,
                    };
                    let rpc = self.alloc_rpc_to(dst, Pending::Prepare { mig: id });
                    self.send(ctx, dst, Envelope::req(rpc, req));
                }
                Action::NotifyStart {
                    lineage_from_segment,
                } => {
                    let (table, range, source) = {
                        let run = &self.migrations[idx];
                        (run.mgr.table, run.mgr.range, run.mgr.source)
                    };
                    let req = Request::MigrationStarting {
                        id,
                        table,
                        range,
                        source,
                        target: self.cfg.id,
                        lineage_from_segment,
                    };
                    let dst = self.dir.coordinator;
                    let rpc = self.alloc_rpc_to(dst, Pending::MigStartAck { mig: id });
                    self.send(ctx, dst, Envelope::req(rpc, req));
                }
                Action::SendPull { partition, cursor } => {
                    let (table, range, budget_bytes, dst) = {
                        let run = &self.migrations[idx];
                        (
                            run.mgr.table,
                            run.mgr.range.split(run.mgr.config.partitions)[partition],
                            run.mgr.config.pull_budget_bytes,
                            run.source_actor,
                        )
                    };
                    let req = Request::Pull {
                        table,
                        range,
                        cursor,
                        budget_bytes,
                    };
                    let rpc = self.alloc_rpc_to(dst, Pending::Pull { mig: id, partition });
                    if self.trace.is_on() {
                        self.migrations[idx]
                            .pull_span_start
                            .insert(rpc.0, (ctx.now(), partition));
                    }
                    self.send(ctx, dst, Envelope::req(rpc, req));
                }
                Action::SendPriorityPull { hashes } => {
                    let (table, dst) = {
                        let run = &self.migrations[idx];
                        (run.mgr.table, run.source_actor)
                    };
                    // The batch is issued on behalf of the reads waiting
                    // on its hashes; the first hash (batch order) with a
                    // recorded context represents the batch so the
                    // source-side span joins that read's journey.
                    let mut pp_ctx = CausalCtx::NONE;
                    {
                        let run = &mut self.migrations[idx];
                        for h in &hashes {
                            if let Some(c) = run.pp_ctx.remove(h) {
                                if !pp_ctx.trace_id.is_some() {
                                    pp_ctx = c;
                                }
                            }
                        }
                    }
                    let req = Request::PriorityPull {
                        table,
                        hashes: hashes.clone(),
                    };
                    let batch = hashes.len() as u64;
                    let rpc = self.alloc_rpc_to(dst, Pending::PriorityPull { mig: id, hashes });
                    if self.trace.is_on() {
                        self.migrations[idx]
                            .pp_span_start
                            .insert(rpc.0, (ctx.now(), batch));
                        if pp_ctx.trace_id.is_some() {
                            self.trace.flow(
                                "rpc-flow",
                                "flow",
                                ctx.self_id() as u64,
                                lanes::PRIORITY_PULL,
                                ctx.now(),
                                true,
                                pp_ctx.trace_id.0 ^ rpc.0,
                                &schema::FLOW,
                                &[pp_ctx.trace_id.0],
                            );
                        }
                    }
                    self.send(ctx, dst, Envelope::req(rpc, req).with_ctx(pp_ctx));
                }
                Action::Replay(batch) => {
                    if self.cfg.migration.test_defer_replay {
                        // Fault injection: accept the batch but never
                        // replay it. The manager already pipelined the
                        // partition's next Pull, so gather keeps running
                        // while the replay counters stay flat — the
                        // backlog the flight recorder must catch.
                        self.deferred_replay_faults.push(batch);
                        continue;
                    }
                    let Some(worker) = self.idle_worker_any() else {
                        debug_assert!(false, "manager scheduled replay with no idle worker");
                        continue;
                    };
                    self.workers[worker].busy = true;
                    let service = self.exec_replay(ctx.now(), worker, idx, batch);
                    if self.profiler.is_on() {
                        self.workers[worker].ledger_op = Some((Activity::Replay, ctx.now()));
                    }
                    if self.trace.is_on() {
                        self.workers[worker].trace_op = Some(("mig:replay", ctx.now()));
                    }
                    self.stats.worker_busy_ns.add(service);
                    ctx.timer(service, token(KIND_WORKER_DONE, worker as u64));
                }
                Action::Finished => {
                    self.finish_migration(ctx, id);
                }
            }
        }
    }

    fn exec_replay(&mut self, now: Nanos, worker: usize, idx: usize, batch: ReplayBatch) -> Nanos {
        let m = self.cfg.cost.clone();
        // Each worker replays into its own per-run side log: zero
        // contention (§3.1.3), and overlapping runs never mix side
        // segments.
        if self.migrations[idx].sidelogs[worker].is_none() {
            self.migrations[idx].sidelogs[worker] =
                Some(SideLog::new(std::sync::Arc::clone(&self.master.log)));
        }
        let mut service = 0;
        let mut work = Work::default();
        for rec in &batch.records {
            service += m.replay_record_ns(rec.wire_size());
        }
        // One replay_batch call = one side-log lock acquisition for the
        // whole Pull response (tentpole 3).
        let run_id = self.migrations[idx].id;
        let side = self.migrations[idx].sidelogs[worker]
            .as_ref()
            .expect("created above");
        let replayed = self
            .master
            .replay_batch(&batch.records, ReplayDest::Side(side), &mut work);
        self.stats.records_replayed.add(replayed as u64);
        self.stats
            .migration_replayed(run_id, batch.records.len() as u64, replayed as u64);
        if self.audit.is_on() {
            self.audit.emit(
                now,
                AuditKind::Replayed {
                    id: run_id,
                    received: batch.records.len() as u64,
                    applied: replayed as u64,
                },
            );
            // replay_batch raised the floor above every version it saw.
            self.audit.emit(
                now,
                AuditKind::VersionFloor {
                    server: self.cfg.id,
                    floor: self.master.version_ceiling(),
                },
            );
        }
        self.workers[worker].replay_partition = Some(batch.partition);
        self.workers[worker]
            .deferred
            .push(Deferred::ReplayDone(run_id, batch.partition));
        service.max(1)
    }

    /// Emits the span for the migration phase that just ended on run
    /// `id` and re-anchors the next one. No-op unless tracing was armed
    /// when the migration began.
    fn mig_phase_span(
        &mut self,
        now: Nanos,
        self_id: ActorId,
        id: MigrationId,
        label: &'static str,
    ) {
        let Some(run) = self.migrations.iter_mut().find(|r| r.id == id) else {
            return;
        };
        if let Some(mt) = &mut run.mig_trace {
            self.trace.span(
                label,
                "migration",
                self_id as u64,
                lanes::MIGRATION,
                mt.phase_start,
                now - mt.phase_start,
                &[],
                &[],
            );
            mt.phase_start = now;
        }
    }

    /// Drops in-flight migration run `id`: the source died, the
    /// coordinator rejected the start, or a recovery plan superseded it
    /// (§3.4). The abandonment is stamped (per run), counted, traced,
    /// and the run's own side logs are committed (their records were
    /// already replayed into the hash table, and another run's finish
    /// must not sweep up this run's stale segments). Other in-flight
    /// runs are untouched.
    fn abandon_migration(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        id: MigrationId,
        reason: &'static str,
    ) {
        let Some(idx) = self.migrations.iter().position(|r| r.id == id) else {
            return;
        };
        let mut run = self.migrations.remove(idx);
        for slot in &mut run.sidelogs {
            if let Some(side) = slot.take() {
                side.commit().expect("side log commit");
            }
        }
        // A rejected run never registered ownership anywhere but locally
        // (the coordinator said no before the flip): drop the provisional
        // tablet so this master stops claiming hashes it will never
        // receive. Other abandon reasons keep the tablet — a recovery
        // plan (`Recovering` role) or crash handling owns its fate.
        if reason == "mig:abandoned-rejected" {
            self.master.drop_tablet(run.mgr.table, run.mgr.range);
            if self.audit.is_on() {
                self.audit.emit(
                    ctx.now(),
                    AuditKind::NodeRelease {
                        server: self.cfg.id,
                        table: run.mgr.table,
                        range: run.mgr.range,
                        via: ReleaseVia::Abandon,
                    },
                );
            }
        }
        if self.audit.is_on() {
            self.audit.emit(
                ctx.now(),
                AuditKind::MigrationAbandoned {
                    id,
                    target: self.cfg.id,
                },
            );
        }
        // If the migration never registered, its requester is still
        // waiting on MigrateTablet — tell it to try again later.
        if let Some((client, client_rpc)) = run.client.take() {
            let resp = self.retry_hint(ctx, RetryCause::SourceFailover);
            self.respond(ctx, client, client_rpc, resp);
        }
        let now = ctx.now();
        self.stats.abandon_migration_run(id, now);
        let abandoned = self.stats.migrations_abandoned.inc();
        if self.trace.is_on() {
            let pid = ctx.self_id() as u64;
            self.trace
                .instant(reason, "migration", pid, lanes::MIGRATION, now, &[], &[]);
            if let Some(mt) = run.mig_trace.take() {
                self.trace.span(
                    "migration",
                    "migration",
                    pid,
                    lanes::MIGRATION,
                    mt.started,
                    now - mt.started,
                    &["abandoned"],
                    &[1],
                );
            }
            self.trace
                .counter("migrations-abandoned", pid, now, abandoned);
        }
    }

    fn finish_migration(&mut self, ctx: &mut Ctx<'_, Envelope>, id: MigrationId) {
        let Some(idx) = self.migrations.iter().position(|r| r.id == id) else {
            return;
        };
        let label = self.migrations[idx].mgr.phase().name();
        self.mig_phase_span(ctx.now(), ctx.self_id(), id, label);
        let mut run = self.migrations.remove(idx);
        // Commit every worker's side log for THIS run into the main log
        // (§3.1.3); concurrent runs' side logs stay open.
        let mut committed_sidelogs = 0u64;
        for slot in &mut run.sidelogs {
            if let Some(side) = slot.take() {
                side.commit().expect("side log commit");
                committed_sidelogs += 1;
            }
        }
        // Lazy re-replication (§3.4): the committed side segments are now
        // ordinary unreplicated log bytes; ship them in the background,
        // yielding to foreground write replication.
        self.ship_log(ctx, None, None, true);
        // Become a plain owner.
        self.master
            .set_tablet_role(run.mgr.table, run.mgr.range, TabletRole::Owner);
        // Drop the lineage dependency.
        let req = Request::MigrationComplete {
            id,
            table: run.mgr.table,
            range: run.mgr.range,
            source: run.mgr.source,
            target: self.cfg.id,
        };
        let dst = self.dir.coordinator;
        let rpc = self.alloc_rpc_to(dst, Pending::MigCompleteAck);
        self.send(ctx, dst, Envelope::req(rpc, req));
        self.stats.finish_migration_run(id, ctx.now());
        if self.audit.is_on() {
            self.audit.emit(
                ctx.now(),
                AuditKind::MigrationFinished {
                    id,
                    target: self.cfg.id,
                    pull_records: run.mgr.stats.pull_records,
                    priority_records: run.mgr.stats.priority_records,
                },
            );
        }
        if let Some(mt) = run.mig_trace.take() {
            let now = ctx.now();
            let pid = ctx.self_id() as u64;
            let stats = &run.mgr.stats;
            self.trace.span(
                "mig:commit",
                "migration",
                pid,
                lanes::MIGRATION,
                now,
                0,
                &["sidelogs"],
                &[committed_sidelogs],
            );
            self.trace.span(
                "migration",
                "migration",
                pid,
                lanes::MIGRATION,
                mt.started,
                now - mt.started,
                &[
                    "pulls_sent",
                    "pull_records",
                    "priority_pulls_sent",
                    "priority_records",
                ],
                &[
                    stats.pulls_sent,
                    stats.pull_records,
                    stats.priority_pulls_sent,
                    stats.priority_records,
                ],
            );
        }
    }

    // ---------------------------------------------------------- baseline --

    fn exec_baseline_step(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize) -> Nanos {
        let m = self.cfg.cost.clone();
        let Some(run) = &mut self.baseline else {
            return m.op_fixed_ns;
        };
        let (action, work) = run.mig.step(&mut self.master);
        let service = work.service_ns(&m).max(1);
        match action {
            BaselineAction::SendBatch {
                records,
                await_ack,
                scanned_bytes,
            } => {
                self.stats.bytes_migrated_out.add(scanned_bytes);
                if await_ack && !records.is_empty() {
                    let req = Request::PushRecords {
                        table: run.mig.table,
                        records,
                        replay: !run.opts.skip_replay,
                        rereplicate: !run.opts.skip_replay && !run.opts.skip_rereplication,
                    };
                    let dst = run.target_actor;
                    let rpc = self.alloc_rpc_to(dst, Pending::PushRecords);
                    self.workers[worker]
                        .deferred
                        .push(Deferred::Send(dst, Envelope::req(rpc, req)));
                } else {
                    // Lever variants (skip_copy/skip_tx) keep scanning
                    // without waiting on the network.
                    self.workers[worker]
                        .deferred
                        .push(Deferred::BaselineContinue);
                }
            }
            BaselineAction::TransferOwnership => {
                let req = Request::BaselineOwnershipTransfer {
                    table: run.mig.table,
                    range: run.mig.range,
                    source: self.cfg.id,
                    target: self
                        .dir
                        .servers
                        .iter()
                        .find(|(_, a)| **a == run.target_actor)
                        .map(|(s, _)| *s)
                        .expect("target in directory"),
                };
                let dst = self.dir.coordinator;
                let rpc = self.alloc_rpc_to(dst, Pending::BaselineTransferAck);
                self.workers[worker]
                    .deferred
                    .push(Deferred::Send(dst, Envelope::req(rpc, req)));
            }
            BaselineAction::Done => {
                if run.mig.is_done() {
                    self.baseline = None;
                }
            }
        }
        let _ = ctx;
        service
    }

    // ---------------------------------------------------------- recovery --

    fn exec_recovery_replay(&mut self, now: Nanos, worker: usize, recovery: u64) -> Nanos {
        let m = self.cfg.cost.clone();
        let Some(rec) = self.recoveries.remove(&recovery) else {
            return m.op_fixed_ns;
        };
        let mut service = m.op_fixed_ns;
        let mut work = Work::default();
        let mut replayed = 0u64;
        let mut ids: Vec<u64> = rec.images.keys().copied().collect();
        ids.sort_unstable();
        let mut batch = Vec::new();
        for id in ids {
            let data = &rec.images[&id];
            let mut offset = 0usize;
            while offset < data.len() {
                let Ok((view, len)) = rocksteady_logstore::entry::parse(&data[offset..]) else {
                    break;
                };
                work.scanned_entries += 1;
                if view.table_id == rec.table.0
                    && rec.range.contains(view.key_hash)
                    && view.kind != rocksteady_logstore::EntryKind::SideLogCommit
                {
                    // Key/value as refcounted slices of the fetched image —
                    // no per-record copy. The CRC verification above
                    // (`parse`, foreign bytes) is what recovery pays for.
                    let hdr = offset + rocksteady_logstore::entry::ENTRY_HEADER_BYTES;
                    let record = Record {
                        table: rec.table,
                        key_hash: view.key_hash,
                        version: view.version,
                        key: data.slice(hdr..hdr + view.key.len()),
                        value: data.slice(hdr + view.key.len()..offset + len),
                        tombstone: view.kind == rocksteady_logstore::EntryKind::Tombstone,
                    };
                    service += m.replay_record_ns(record.wire_size());
                    batch.push(record);
                }
                offset += len;
            }
        }
        replayed += self
            .master
            .replay_batch(&batch, ReplayDest::MainLog, &mut work) as u64;
        service += work.scanned_entries * m.log_scan_per_entry_ns;
        self.stats.recovery_replayed.add(replayed);
        // The replay raised the version floor above everything the dead
        // participant acknowledged; clients may come back now.
        self.master
            .set_tablet_role(rec.table, rec.range, TabletRole::Owner);
        if self.audit.is_on() {
            self.audit.emit(
                now,
                AuditKind::NodeClaim {
                    server: self.cfg.id,
                    table: rec.table,
                    range: rec.range,
                    via: rocksteady_audit::ClaimVia::Recovery,
                },
            );
            self.audit.emit(
                now,
                AuditKind::VersionFloor {
                    server: self.cfg.id,
                    floor: self.master.version_ceiling(),
                },
            );
        }
        let (dst, rpc) = rec.coordinator_rpc;
        self.workers[worker].deferred.push(Deferred::Send(
            dst,
            Envelope::resp(rpc, Response::RecoverTabletOk { replayed }),
        ));
        // Recovered data must become durable.
        self.workers[worker]
            .deferred
            .push(Deferred::ShipLog { wait: None });
        service
    }

    fn exec_cleaner_pass(&mut self) -> Nanos {
        let m = self.cfg.cost.clone();
        let cleaner = rocksteady_logstore::Cleaner::default();
        match self.master.clean_once(&cleaner) {
            Some(stats) => {
                self.stats
                    .segments_cleaned
                    .add(stats.segments_cleaned as u64);
                // Relocation copies + checksums live bytes and walks the
                // victim segment's entries.
                m.copy_ns(stats.bytes_relocated)
                    + m.checksum_ns(stats.bytes_relocated)
                    + (stats.entries_relocated + stats.entries_dropped) * m.log_scan_per_entry_ns
                    + m.op_fixed_ns
            }
            None => m.op_fixed_ns,
        }
    }

    /// Membership update: `server` is dead. Drop it from the backup set
    /// and fail over everything outstanding to it — replication waits
    /// are credited (RAMCloud re-replicates elsewhere; we degrade to
    /// R-1 replicas and document it), blocked sync PriorityPulls turn
    /// into client retries, and migrations involving the dead peer are
    /// abandoned (the coordinator's recovery plan supersedes them,
    /// §3.4).
    fn on_server_down(&mut self, ctx: &mut Ctx<'_, Envelope>, server: rocksteady_common::ServerId) {
        let Some(&dead) = self.dir.servers.get(&server) else {
            return;
        };
        self.cfg.backup_actors.retain(|a| *a != dead);
        let doomed: Vec<RpcId> = self
            .rpc_dst
            .iter()
            .filter(|(_, d)| **d == dead)
            .map(|(r, _)| *r)
            .collect();
        for rpc in doomed {
            self.rpc_dst.remove(&rpc);
            let Some(pending) = self.outstanding.remove(&rpc) else {
                continue;
            };
            match pending {
                Pending::ReplAck { group: Some(g) } => self.credit_ack_group(ctx, g),
                Pending::ReplAck { group: None } => {}
                Pending::SyncPriorityPull(wait) => {
                    let resp = self.retry_hint(ctx, RetryCause::SourceFailover);
                    self.respond(ctx, wait.client, wait.client_rpc, resp);
                    self.release_worker(ctx, wait.worker);
                }
                Pending::Pull { .. }
                | Pending::PriorityPull { .. }
                | Pending::Prepare { .. }
                | Pending::MigStartAck { .. } => {
                    // Handled by the sweep below: every run whose source
                    // died is abandoned, RPC in flight or not.
                }
                Pending::PushRecords | Pending::BaselineTransferAck => {
                    if let Some(run) = &self.baseline {
                        if run.target_actor == dead {
                            self.baseline = None;
                        }
                    }
                }
                Pending::FetchSegments { recovery } => {
                    self.on_fetch_failed(ctx, recovery, server);
                }
                Pending::MigCompleteAck => {}
            }
        }
        // A migration whose source died is dead even if no RPC to it was
        // in flight at this instant (e.g. every pull was mid-replay).
        // Runs pulling from other, still-alive sources are unharmed.
        let doomed_runs: Vec<MigrationId> = self
            .migrations
            .iter()
            .filter(|run| run.source_actor == dead)
            .map(|run| run.id)
            .collect();
        for id in doomed_runs {
            self.abandon_migration(ctx, id, "mig:abandoned-source-died");
        }
    }

    /// A backup died while we were fetching the crashed master's
    /// segments from it. Previously this was silently treated as an
    /// empty fetch, losing whatever only that fetch would have returned
    /// without a trace; now we re-issue the fetch against a surviving
    /// backup, and only when none remain do we record an irrecoverable
    /// gap.
    fn on_fetch_failed(&mut self, ctx: &mut Ctx<'_, Envelope>, recovery: u64, dead: ServerId) {
        let next = {
            let Some(rec) = self.recoveries.get_mut(&recovery) else {
                return;
            };
            if !rec.failed_backups.contains(&dead) {
                rec.failed_backups.push(dead);
            }
            rec.backups
                .iter()
                .copied()
                .find(|b| !rec.failed_backups.contains(b))
                .map(|b| (b, rec.crashed, rec.from_segment))
        };
        match next {
            Some((backup, crashed, from_segment)) => {
                let n = self.stats.recovery_fetch_failovers.inc();
                if self.trace.is_on() {
                    self.trace.instant(
                        "recovery:fetch-failover",
                        "recovery",
                        ctx.self_id() as u64,
                        lanes::RPC,
                        ctx.now(),
                        &["backup", "failovers"],
                        &[backup.0 as u64, n],
                    );
                }
                let dst = self.dir.actor_of(backup);
                let id = self.alloc_rpc_to(dst, Pending::FetchSegments { recovery });
                self.send(
                    ctx,
                    dst,
                    Envelope::req(
                        id,
                        Request::FetchSegments {
                            owner: crashed,
                            min_segment: from_segment,
                        },
                    ),
                );
            }
            None => {
                let n = self.stats.recovery_fetch_gaps.inc();
                if self.trace.is_on() {
                    self.trace.instant(
                        "recovery:gap",
                        "recovery",
                        ctx.self_id() as u64,
                        lanes::RPC,
                        ctx.now(),
                        &["gaps"],
                        &[n],
                    );
                }
                let Some(rec) = self.recoveries.get_mut(&recovery) else {
                    return;
                };
                rec.pending_fetches = rec.pending_fetches.saturating_sub(1);
                if rec.pending_fetches == 0 {
                    self.queues[Priority::Replay as usize]
                        .push_back(Task::RecoveryReplay { recovery });
                    self.try_assign(ctx);
                }
            }
        }
    }

    fn defer_send(&mut self, worker: usize, dst: ActorId, rpc: RpcId, resp: Response) {
        let cctx = self.workers[worker].cur_ctx;
        self.workers[worker].deferred.push(Deferred::Send(
            dst,
            Envelope::resp(rpc, resp).with_ctx(cctx),
        ));
    }
}

impl Actor<Envelope> for ServerNode {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if let Some(every) = self.cfg.cleaner_interval {
            ctx.timer(every, KIND_CLEANER);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        match event {
            Event::Message { src, payload } => {
                self.rx_queue.push_back((src, ctx.now(), payload));
                self.ensure_dispatch(ctx);
            }
            Event::Timer { token: tok } => {
                match tok & 0xff {
                    KIND_DISPATCH => self.on_dispatch_timer(ctx),
                    KIND_WORKER_DONE => self.on_worker_done(ctx, (tok >> 8) as usize),
                    KIND_DEFERRED_SEND => {
                        if let Some((dst, env)) = self.deferred_sends.remove(&(tok >> 8)) {
                            self.send(ctx, dst, env);
                        }
                    }
                    KIND_CLEANER => {
                        self.queues[Priority::Background as usize].push_back(Task::CleanerPass);
                        self.try_assign(ctx);
                        if let Some(every) = self.cfg.cleaner_interval {
                            ctx.timer(every, KIND_CLEANER);
                        }
                    }
                    _ => {}
                }
                if (tok & 0xff) != KIND_DISPATCH {
                    self.flush_offdispatch_charges(ctx.now());
                }
            }
        }
    }
}
