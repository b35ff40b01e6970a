//! The SpaceA machine and its event-driven SpMV execution.
//!
//! [`Machine::run`] — the single entrypoint, driven by a [`RunSpec`] —
//! builds the full component hierarchy (banks, PEs, CAMs, load queues,
//! TSVs, NoC meshes), distributes the matrix according to the mapping and
//! the vectors block-cyclically over the vector banks, then drives the
//! discrete-event loop of Section III until every non-zero is processed and
//! every partial result is accumulated. The run is validated against the
//! software SpMV oracle, exactly as the paper validates its simulator.
//!
//! The X-request data path (paper Figure 3, one cube shown):
//!
//! ```text
//!  matrix layer 1..7                          vector layer 0
//!  ┌───────────────────────┐                 ┌──────────────────────┐
//!  │ bank ─▶ PE queue ─▶ RF │                │ vector bank          │
//!  │          │  miss       │                │   ▲ read 32 B block  │
//!  │      L1 CAM ─ L1 LDQ   │                │ L1 CAM (Accum-PE)    │
//!  └──────────┬─────────────┘                └──────────▲───────────┘
//!             │ TSV (bus, 16 B/cy)                      │ TSV
//!  ┌──────────▼──────────────────────────────────────────┴──┐
//!  │ vault controller: L2 CAM ─ L2 LDQ ─ NoC router         │ base die
//!  └──────────▲──────────────────────────────────────────▲──┘
//!             │ 4x4 vault mesh (X-Y routing)              │
//!             └───────────── SerDes cube mesh ────────────┘
//! ```
//!
//! Y partials flow the same way in reverse: PE → TSV → home vault →
//! TSV → Accumulation-PE update buffer.

use crate::accum::{UpdateBuffer, UpdateOutcome};
use crate::config::HwConfig;
use crate::layout::{DataLayout, SlotId};
use crate::packet::{size, Requester};
use crate::pe::{pack_rows, PeEntry, ProductPe};
use crate::report::{SimReport, SpmmReport};
use crate::trace::{TraceEvent, TraceRecord};
use spacea_mapping::Mapping;
use spacea_matrix::Csr;
use spacea_model::ActivitySummary;
use spacea_obs::{MetricKey, Sampler, SamplerConfig, Timeline};
use spacea_sim::cam::Cam;
use spacea_sim::dram::{AccessKind, DramBank};
use spacea_sim::engine::EventQueue;
use spacea_sim::fault::{OccupancyHistory, OccupancySample, StallDiagnosis, VaultOccupancy};
use spacea_sim::ldq::{LdqPush, LoadQueue};
use spacea_sim::link::Link;
use spacea_sim::noc::MeshNoc;
use spacea_sim::stats::{CamCounters, SramCounters};
use spacea_sim::trace::TraceLog;
use spacea_sim::Cycle;
use std::cell::Cell;
use std::error::Error;
use std::fmt;

/// Errors from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The hardware configuration failed validation.
    BadConfig(String),
    /// Vector length does not match the matrix.
    DimensionMismatch {
        /// Expected length (matrix columns).
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// A fused multi-vector run was given no input vectors.
    EmptyBatch,
    /// The mapping was built for a different PE count or matrix.
    MappingMismatch(String),
    /// The simulated output disagreed with the software oracle.
    ValidationFailed {
        /// First mismatching element index.
        index: usize,
        /// Simulated value.
        simulated: f64,
        /// Oracle value.
        expected: f64,
    },
    /// The event queue drained while PEs/vaults still held in-flight work.
    Deadlock(StallDiagnosis),
    /// No retirement happened within the watchdog's stall window.
    NoProgress {
        /// The configured stall window, cycles.
        window: Cycle,
        /// Machine state at abort.
        diagnosis: StallDiagnosis,
    },
    /// Simulated time passed the watchdog's total cycle budget.
    CycleBudgetExceeded {
        /// The configured budget, cycles.
        budget: Cycle,
        /// Machine state at abort.
        diagnosis: StallDiagnosis,
    },
    /// The engine's counter invariant was violated (events lost or
    /// double-delivered — a simulator bug, never data-dependent).
    CounterInvariant(String),
}

impl SimError {
    /// True for hang-class failures (deadlock, livelock, cycle budget).
    /// Hangs are deterministic — retrying one burns the same budget again —
    /// so supervisors report them as timeouts instead of retrying.
    pub fn is_hang(&self) -> bool {
        matches!(
            self,
            SimError::Deadlock(_)
                | SimError::NoProgress { .. }
                | SimError::CycleBudgetExceeded { .. }
        )
    }

    /// The stall diagnosis carried by hang-class failures.
    pub fn diagnosis(&self) -> Option<&StallDiagnosis> {
        match self {
            SimError::Deadlock(d) => Some(d),
            SimError::NoProgress { diagnosis, .. }
            | SimError::CycleBudgetExceeded { diagnosis, .. } => Some(diagnosis),
            _ => None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadConfig(msg) => write!(f, "invalid hardware configuration: {msg}"),
            SimError::DimensionMismatch { expected, actual } => {
                write!(f, "input vector length {actual} does not match {expected} columns")
            }
            SimError::EmptyBatch => {
                write!(f, "a fused multi-vector run needs at least one input vector")
            }
            SimError::MappingMismatch(msg) => write!(f, "mapping mismatch: {msg}"),
            SimError::ValidationFailed { index, simulated, expected } => write!(
                f,
                "output validation failed at element {index}: simulated {simulated}, expected {expected}"
            ),
            SimError::Deadlock(d) => {
                write!(f, "deadlock: event queue drained with work outstanding — {d}")
            }
            SimError::NoProgress { window, diagnosis } => {
                write!(f, "livelock: no retirement in {window} cycles — {diagnosis}")
            }
            SimError::CycleBudgetExceeded { budget, diagnosis } => {
                write!(f, "cycle budget of {budget} exceeded — {diagnosis}")
            }
            SimError::CounterInvariant(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for SimError {}

/// A configured SpaceA machine, ready to run SpMV workloads.
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: HwConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(cfg: HwConfig) -> Self {
        Machine { cfg }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Validates configuration, dimensions, and mapping before a run.
    fn preflight(&self, a: &Csr, xs: &[&[f64]], mapping: &Mapping) -> Result<(), SimError> {
        self.cfg.validate().map_err(SimError::BadConfig)?;
        if xs.is_empty() {
            return Err(SimError::EmptyBatch);
        }
        for x in xs {
            if x.len() != a.cols() {
                return Err(SimError::DimensionMismatch { expected: a.cols(), actual: x.len() });
            }
        }
        if mapping.assignment.num_pes() != self.cfg.shape.product_pes() {
            return Err(SimError::MappingMismatch(format!(
                "mapping has {} PEs, machine has {}",
                mapping.assignment.num_pes(),
                self.cfg.shape.product_pes()
            )));
        }
        if mapping.assignment.total_rows() != a.rows() {
            return Err(SimError::MappingMismatch(format!(
                "mapping covers {} rows, matrix has {}",
                mapping.assignment.total_rows(),
                a.rows()
            )));
        }
        Ok(())
    }

    /// Runs the simulation described by `spec` — the single entrypoint for
    /// every workload shape: plain SpMV, fused SpMM, traced and observed
    /// runs are all one [`RunSpec`] with different options. The spec holds
    /// data only, so the event loop runs no code its caller passes in.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on configuration, dimension or mapping mismatch
    /// (plus [`SimError::EmptyBatch`] for an empty batch input); if the
    /// simulated output fails oracle validation (which would indicate a
    /// simulator bug, never a data-dependent condition); or with a
    /// hang-class error carrying a [`StallDiagnosis`] when the
    /// forward-progress watchdog aborts the run (deadlock, stall window, or
    /// cycle budget — see [`spacea_sim::fault::WatchdogConfig`]).
    pub fn run(&self, spec: RunSpec<'_>) -> Result<RunOutput, SimError> {
        let RunSpec { a, input, mapping, trace_capacity, observe } = spec;
        let single = matches!(input, RunInput::Single(_));
        let xs: Vec<&[f64]> = match input {
            RunInput::Single(x) => vec![x],
            RunInput::Batch(xs) => xs.iter().map(Vec::as_slice).collect(),
        };
        self.preflight(a, &xs, mapping)?;
        let mut sim = Sim::build(&self.cfg, a, xs, mapping);
        // Observed runs keep a bounded trace too (duration slices derive
        // from it); an explicit `traced` capacity takes precedence.
        if let Some(cap) = trace_capacity.or(observe.map(|_| OBSERVED_TRACE_CAPACITY)) {
            sim.trace = TraceLog::new(cap);
        }
        if let Some(obs) = observe {
            sim.arm_sampler(obs);
        }
        sim.run()?;
        let timeline = if observe.is_some() {
            // Final snapshot at the end cycle so short runs still get a
            // series. The sampler was armed above; an empty timeline is the
            // graceful degradation if that ever changes.
            let end = sim.end_time;
            sim.obs_cycle = end;
            Some(match sim.sampler.take() {
                Some(mut sampler) => {
                    sampler.sample_now(end, &sim);
                    sampler.into_timeline()
                }
                None => Timeline::default(),
            })
        } else {
            None
        };
        let trace = std::mem::take(&mut sim.trace);
        let timeline = timeline.map(|mut tl| {
            tl.slices = crate::trace::timeline_slices(trace.records());
            tl
        });
        let (mut report, outputs) = sim.finish(a)?;
        if single {
            report.output = outputs[0].clone();
        }
        Ok(RunOutput { report, outputs, trace: trace_capacity.map(|_| trace), timeline })
    }
}

/// The input side of a [`RunSpec`]: one vector (SpMV) or a fused batch
/// (SpMM).
#[derive(Debug, Clone, Copy)]
enum RunInput<'a> {
    /// Single-vector `y = A·x`.
    Single(&'a [f64]),
    /// Fused multi-vector pass `Y = A · [x_0 … x_{k-1}]`: the matrix is
    /// streamed through the Product-PEs exactly once, each X response
    /// carries the block of every vector in the batch, and each Y packet
    /// carries one partial per vector — so row-buffer activations, CAM
    /// lookups and packet headers are paid once for the whole batch instead
    /// of once per vector.
    Batch(&'a [Vec<f64>]),
}

/// Bounded event-trace prefix an observed run keeps for its duration
/// slices, unless [`RunSpec::traced`] sets a capacity explicitly.
const OBSERVED_TRACE_CAPACITY: usize = 65_536;

/// What one simulation should compute and record. [`Machine::run`] is the
/// only entrypoint; this spec composes the input shape (single vector or
/// fused batch) with tracing and observation as options — the next
/// recording feature adds a field here, not another `run_*` method. The
/// spec is plain data: it holds no closure, so everything a run records
/// comes back in its [`RunOutput`].
///
/// Build with [`RunSpec::spmv`] or [`RunSpec::spmm`], then chain
/// [`RunSpec::traced`] and [`RunSpec::observed`].
pub struct RunSpec<'a> {
    a: &'a Csr,
    input: RunInput<'a>,
    mapping: &'a Mapping,
    trace_capacity: Option<usize>,
    observe: Option<SamplerConfig>,
}

impl<'a> RunSpec<'a> {
    /// A plain single-vector run `y = A·x` under `mapping`.
    pub fn spmv(a: &'a Csr, x: &'a [f64], mapping: &'a Mapping) -> Self {
        RunSpec { a, input: RunInput::Single(x), mapping, trace_capacity: None, observe: None }
    }

    /// A fused multi-vector run `Y = A · [x_0 … x_{k-1}]` under `mapping`.
    ///
    /// Every output vector is bitwise-identical to what the single-vector
    /// run returns for that vector alone (row dot products are reduced in
    /// canonical CSR entry order, independent of batch composition), which
    /// is what lets a batching service fuse concurrent requests safely.
    pub fn spmm(a: &'a Csr, xs: &'a [Vec<f64>], mapping: &'a Mapping) -> Self {
        RunSpec { a, input: RunInput::Batch(xs), mapping, trace_capacity: None, observe: None }
    }

    /// Record the first `capacity` machine events (the paper's "detailed
    /// event trace", bounded so memory stays predictable) into
    /// [`RunOutput::trace`].
    pub fn traced(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Sample per-component gauges (queue occupancy, CAM and row-buffer hit
    /// rates, TSV/NoC traffic) every `obs.every` cycles, at most
    /// `obs.capacity` windows per series, into [`RunOutput::timeline`], with
    /// duration slices derived from a bounded event-trace prefix (65,536
    /// events unless [`RunSpec::traced`] sets the capacity). The
    /// [`Timeline`] exports to CSV or Perfetto-loadable Chrome trace JSON
    /// (see `spacea-obs`).
    ///
    /// Observation is pure reading: an observed run retires in exactly the
    /// same cycles as a plain one.
    pub fn observed(mut self, obs: SamplerConfig) -> Self {
        self.observe = Some(obs);
        self
    }
}

/// Everything one [`Machine::run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// Timing, traffic, and activity accounting. For single-vector runs
    /// `report.output` carries the result vector (mirroring `outputs[0]`).
    pub report: SimReport,
    /// One oracle-validated output vector per input vector (length 1 for
    /// single-vector runs).
    pub outputs: Vec<Vec<f64>>,
    /// The bounded event trace, present iff [`RunSpec::traced`] was set.
    pub trace: Option<TraceLog<TraceRecord>>,
    /// Gauge series and duration slices, present iff [`RunSpec::observed`]
    /// was set.
    pub timeline: Option<Timeline>,
}

impl RunOutput {
    /// The batch width `k` (1 for single-vector runs).
    pub fn batch(&self) -> usize {
        self.outputs.len()
    }

    /// Just the report. For single-vector runs its `output` field already
    /// carries the result vector.
    pub fn into_report(self) -> SimReport {
        self.report
    }

    /// Repackages a fused multi-vector run as a [`SpmmReport`].
    pub fn into_spmm(self) -> SpmmReport {
        SpmmReport { report: self.report, outputs: self.outputs }
    }
}

/// Simulation events. Every event carries its destination component id.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Product-PE control-unit scan step.
    PeStep { pe: u32 },
    /// A DRAM row arrived in the PE queue.
    RowLoaded { pe: u32, row_id: u32 },
    /// Type I packet at a vault controller.
    VaultXReq { vault: u32, block: u64, from: Requester },
    /// Type II packet at a vault controller.
    VaultXResp { vault: u32, block: u64 },
    /// X request reached the owning vector bank.
    BankXReq { bank: u32, block: u64 },
    /// X response reached a product bank group: fill L1, wake waiters.
    L1Fill { bg: u32, block: u64 },
    /// Type III packet at the vault owning `Y_row`. The per-vector partial
    /// values travel out-of-band in `Sim::y_stash` (events stay `Copy`).
    YAtVault { vault: u32, row: u32 },
    /// Y partial reached the owning vector bank's Accumulation-PE.
    YAtBank { bank: u32, row: u32 },
}

/// Converts an internal event into its public trace representation.
fn trace_event(ev: &Ev) -> TraceEvent {
    match *ev {
        Ev::PeStep { pe } => TraceEvent::PeStep { pe },
        Ev::RowLoaded { pe, row_id } => TraceEvent::RowLoaded { pe, row_id },
        Ev::VaultXReq { vault, block, .. } => TraceEvent::XRequestAtVault { vault, block },
        Ev::VaultXResp { vault, block } => TraceEvent::XResponseAtVault { vault, block },
        Ev::BankXReq { bank, block } => TraceEvent::XRequestAtBank { bank, block },
        Ev::L1Fill { bg, block } => TraceEvent::L1Fill { bg, block },
        Ev::YAtVault { vault, row } => TraceEvent::YAtVault { vault, row },
        Ev::YAtBank { bank, row } => TraceEvent::YAtBank { bank, row },
    }
}

/// A PE-queue entry parked in an L1 load queue.
#[derive(Debug, Clone, Copy)]
struct PeWaiter {
    pe: u32,
    entry: PeEntry,
}

struct Sim<'a> {
    cfg: &'a HwConfig,
    layout: DataLayout,
    a: &'a Csr,
    /// The batch of input vectors (`k = xs.len()`, ≥ 1 by preflight). A
    /// single-vector SpMV is the `k = 1` special case of the same machine.
    xs: Vec<&'a [f64]>,
    q: EventQueue<Ev>,

    pes: Vec<ProductPe>,
    pe_slots: Vec<SlotId>,
    matrix_banks: Vec<DramBank>,
    vector_banks: Vec<DramBank>,
    // The CAMs model presence/timing only: X values are read directly from
    // `xs` where needed, so a CAM keeps tags and no payload.
    prod_l1: Vec<Cam>,
    vec_l1: Vec<Cam>,
    l1_ldq: Vec<LoadQueue<PeWaiter>>,
    l2_cam: Vec<Cam>,
    l2_ldq: Vec<LoadQueue<Requester>>,
    // The waiters an L1 or L2 fill wakes, reused from fill to fill.
    l1_woken: Vec<PeWaiter>,
    l2_woken: Vec<Requester>,
    tsv: Vec<Link>,
    nocs: Vec<MeshNoc>,
    serdes: Option<MeshNoc>,
    update_buf: Vec<UpdateBuffer>,
    accum_busy: Vec<Cycle>,

    /// One output vector per input vector.
    ys: Vec<Vec<f64>>,
    /// Completed per-vector row partials in flight toward their home bank:
    /// a flat `rows × k` arena indexed `row·k + v` (events stay `Copy`; the
    /// values travel out-of-band here). Each row flushes exactly once — a
    /// whole row belongs to one PE.
    y_stash: Vec<f64>,
    /// Which rows currently hold a stashed partial; a clear flag at
    /// delivery means the packet was lost to an injected fault.
    y_ready: Vec<bool>,
    entries_left: u64,
    y_left: u64,
    end_time: Cycle,

    // Fault-injection ordinals: routed cross-vault NoC packets and
    // accumulator updates seen so far.
    noc_packets: u64,
    accum_updates: u64,

    rf: SramCounters,
    queue_sram: SramCounters,
    fpu_ops: u64,
    trace: TraceLog<TraceRecord>,

    // Always-on per-vault occupancy history feeding
    // `StallDiagnosis::history`: a flat ring of sample rounds
    // (`OCC_HISTORY` rounds × vaults, slot `(round % OCC_HISTORY)·vaults +
    // vault`), plus the optional full gauge sampler armed by observed runs.
    // Both are pure readers: they must never change what the machine does,
    // only record it.
    occ_hist: Vec<OccupancySample>,
    occ_rounds: usize,
    occ_every: Cycle,
    occ_next: Cycle,
    /// The cycle observation probes treat as "now": set to the cycle being
    /// drained before each sampler tick (the event clock itself trails by
    /// one cycle at batch boundaries).
    obs_cycle: Cycle,
    sampler: Option<Sampler<Sim<'a>>>,
}

impl<'a> Sim<'a> {
    fn build(cfg: &'a HwConfig, a: &'a Csr, xs: Vec<&'a [f64]>, mapping: &Mapping) -> Self {
        debug_assert_eq!(
            cfg.l1_cam.way_bytes, 32,
            "preflight validation enforces the 32-byte (4-element) CAM way assumption"
        );
        let layout = DataLayout::new(cfg);
        let num_pes = cfg.shape.product_pes();
        let nnz_per_row = cfg.nnz_per_dram_row();

        let mut pes = Vec::with_capacity(num_pes);
        let mut pe_slots = Vec::with_capacity(num_pes);
        let mut entries_left = 0u64;
        let mut y_left = 0u64;
        for slot_ix in 0..num_pes {
            let logical = mapping.placement.logical_at_slot(slot_ix) as usize;
            let rows = mapping.assignment.rows_of(logical);
            let packed = pack_rows(a, rows, nnz_per_row);
            let pe = ProductPe::new(packed);
            entries_left += pe.total_nnz() as u64;
            y_left += rows.iter().filter(|&&r| a.row_nnz(r as usize) > 0).count() as u64;
            pes.push(pe);
            pe_slots.push(layout.slot_from_linear(slot_ix));
        }

        let vaults = cfg.shape.vaults();
        let (nw, nh) = HwConfig::mesh_dims(cfg.shape.vaults_per_cube);
        let nocs = (0..cfg.shape.cubes)
            .map(|_| MeshNoc::new(nw, nh, cfg.noc_hop_latency, cfg.noc_bytes_per_cycle))
            .collect();
        let serdes = (cfg.shape.cubes > 1).then(|| {
            let (cw, ch) = HwConfig::mesh_dims(cfg.shape.cubes);
            MeshNoc::new(cw, ch, cfg.serdes_hop_latency, cfg.serdes_bytes_per_cycle)
        });

        let k = xs.len();
        let ys = vec![vec![0.0; a.rows()]; k];
        Sim {
            cfg,
            layout,
            a,
            xs,
            q: EventQueue::new(),
            pes,
            pe_slots,
            matrix_banks: (0..num_pes).map(|_| DramBank::new(cfg.timing)).collect(),
            vector_banks: (0..cfg.vector_banks()).map(|_| DramBank::new(cfg.timing)).collect(),
            prod_l1: (0..cfg.shape.product_bank_groups()).map(|_| Cam::new(cfg.l1_cam)).collect(),
            vec_l1: (0..vaults).map(|_| Cam::new(cfg.l1_cam)).collect(),
            l1_ldq: (0..cfg.shape.product_bank_groups())
                .map(|_| LoadQueue::new(cfg.l1_ldq_entries))
                .collect(),
            l2_cam: (0..vaults).map(|_| Cam::new(cfg.l2_cam)).collect(),
            l2_ldq: (0..vaults).map(|_| LoadQueue::new(cfg.l2_ldq_entries)).collect(),
            l1_woken: Vec::new(),
            l2_woken: Vec::new(),
            tsv: (0..vaults)
                .map(|_| Link::new_bus(cfg.tsv_latency, cfg.tsv_bytes_per_cycle))
                .collect(),
            nocs,
            serdes,
            update_buf: (0..cfg.vector_banks())
                .map(|_| UpdateBuffer::new(cfg.update_buffer_rows))
                .collect(),
            accum_busy: vec![0; cfg.vector_banks()],
            y_stash: vec![0.0; a.rows() * k],
            y_ready: vec![false; a.rows()],
            ys,
            entries_left,
            y_left,
            end_time: 0,
            noc_packets: 0,
            accum_updates: 0,
            rf: SramCounters::default(),
            queue_sram: SramCounters::default(),
            fpu_ops: 0,
            trace: TraceLog::disabled(),
            occ_hist: vec![OccupancySample::default(); Self::OCC_HISTORY * vaults],
            occ_rounds: 0,
            // Sixteen history points per stall window give the diagnosis a
            // trend, not a snapshot; without a window, sample sparsely.
            occ_every: cfg.watchdog.stall_window.map_or(65_536, |w| (w / 16).max(1)),
            occ_next: 0,
            obs_cycle: 0,
            sampler: None,
        }
    }

    /// The batch width `k` (≥ 1), as a counter increment.
    fn k(&self) -> u64 {
        self.xs.len() as u64
    }

    /// Registers the full gauge set on a fresh sampler: per-vault queue
    /// occupancy, CAM and DRAM row-buffer hit rates and TSV traffic, plus
    /// machine-wide NoC utilization. The probe closures capture only index
    /// lists, so they stay `'static` while reading any `Sim`.
    fn arm_sampler(&mut self, cfg: SamplerConfig) {
        // Pin each closure to a higher-ranked signature; without this the
        // compiler would tie it to this `Sim`'s lifetime and reject the
        // `'static` registration bound.
        fn probe<F: for<'x> Fn(&Sim<'x>) -> f64 + 'static>(f: F) -> F {
            f
        }
        let mut s: Sampler<Sim<'a>> = Sampler::new(cfg);
        let bgs_per_vault = self.cfg.shape.product_bgs_per_vault;
        for v in 0..self.cfg.shape.vaults() {
            let bgs: Vec<usize> = (v * bgs_per_vault..(v + 1) * bgs_per_vault).collect();
            let pes: Vec<usize> = (0..self.pes.len())
                .filter(|&p| self.pe_slots[p].global_vault(self.cfg) == v)
                .collect();
            let banks: Vec<usize> = (0..self.vector_banks.len())
                .filter(|&b| self.layout.vault_of_vector_bank(b) == v)
                .collect();

            let b = bgs.clone();
            s.register(
                MetricKey::vault("ldq", v, "l1-occupancy"),
                probe(move |s| b.iter().map(|&g| s.l1_ldq[g].len()).sum::<usize>() as f64),
            );
            s.register(
                MetricKey::vault("ldq", v, "l2-occupancy"),
                probe(move |s| s.l2_ldq[v].len() as f64),
            );
            // Latency probe: age (in cycles) of the vault's longest-waiting
            // LDQ entry across its L1 bank-group queues and the L2 queue. A
            // growing age under flat occupancy means a stuck queue; a deep
            // but moving queue keeps the age bounded.
            let b = bgs.clone();
            s.register(
                MetricKey::vault("ldq", v, "queue-age"),
                probe(move |s| {
                    let now = s.obs_cycle;
                    let l1 = b.iter().map(|&g| s.l1_ldq[g].oldest_age(now)).max().unwrap_or(0);
                    l1.max(s.l2_ldq[v].oldest_age(now)) as f64
                }),
            );
            let p = pes.clone();
            s.register(
                MetricKey::vault("pe", v, "pending"),
                probe(move |s| p.iter().map(|&i| s.pes[i].pending).sum::<usize>() as f64),
            );
            let b = bgs;
            s.register(
                MetricKey::vault("cam", v, "l1-hit-rate"),
                probe(move |s| {
                    let mut c = CamCounters::default();
                    for &g in &b {
                        c += *s.prod_l1[g].counters();
                    }
                    c.hit_rate()
                }),
            );
            s.register(
                MetricKey::vault("cam", v, "l2-hit-rate"),
                probe(move |s| s.l2_cam[v].counters().hit_rate()),
            );
            s.register(
                MetricKey::vault("dram", v, "row-hit-rate"),
                probe(move |s| {
                    let (mut hits, mut activates) = (0u64, 0u64);
                    for &i in &pes {
                        let c = s.matrix_banks[i].counters();
                        hits += c.row_hits;
                        activates += c.activates;
                    }
                    for &b in &banks {
                        let c = s.vector_banks[b].counters();
                        hits += c.row_hits;
                        activates += c.activates;
                    }
                    if hits + activates == 0 {
                        0.0
                    } else {
                        hits as f64 / (hits + activates) as f64
                    }
                }),
            );
            s.register(
                MetricKey::vault("tsv", v, "bytes"),
                probe(move |s| s.tsv[v].bytes_total() as f64),
            );
        }
        fn total_byte_hops(s: &Sim<'_>) -> u64 {
            s.nocs.iter().map(MeshNoc::byte_hops).sum::<u64>()
                + s.serdes.as_ref().map_or(0, MeshNoc::byte_hops)
        }
        s.register(MetricKey::global("noc", "byte-hops"), probe(|s| total_byte_hops(s) as f64));
        // Pending events in the calendar queue — the event engine's own
        // load gauge (how much same-cycle batching the drain loop sees).
        s.register(MetricKey::global("engine", "queue-depth"), probe(|s| s.q.len() as f64));
        // Utilization is the byte-hop delta per cycle since the previous
        // sample; the Cells carry that previous point between reads.
        let prev = Cell::new((0u64, 0u64));
        s.register(
            MetricKey::global("noc", "utilization"),
            probe(move |s| {
                let (hops, now) = (total_byte_hops(s), s.obs_cycle);
                let (prev_hops, prev_cycle) = prev.replace((hops, now));
                let dt = now.saturating_sub(prev_cycle);
                if dt == 0 {
                    0.0
                } else {
                    hops.saturating_sub(prev_hops) as f64 / dt as f64
                }
            }),
        );
        self.sampler = Some(s);
    }

    /// Routes a packet between two global vaults; returns the arrival
    /// cycle, or `None` when an injected fault dropped the packet (the
    /// caller then skips the delivery and the lost message eventually
    /// surfaces as a diagnosed deadlock).
    ///
    /// Same vault: free (the packet never leaves the vault controller).
    /// Same cube: the intra-cube vault mesh. Different cubes: the base-die
    /// network carries the packet from the source vault onto the cube's
    /// SerDes links (every vault has a path to the link controllers, so
    /// inter-cube traffic is not funnelled through one vault), across the
    /// cube mesh, then over the remote cube's mesh from the mirrored entry
    /// position to the target vault.
    fn route(&mut self, t: Cycle, src: usize, dst: usize, bytes: usize) -> Option<Cycle> {
        if src == dst {
            return Some(t);
        }
        let n = self.noc_packets;
        self.noc_packets += 1;
        if self.cfg.faults.drop_noc_packet == Some(n) {
            return None;
        }
        let t = match self.cfg.faults.delay_noc {
            Some((from, delay)) if n >= from => t + delay,
            _ => t,
        };
        let (sc, sv) = (self.layout.cube_of_vault(src), self.layout.local_vault(src));
        let (dc, dv) = (self.layout.cube_of_vault(dst), self.layout.local_vault(dst));
        if sc == dc {
            return Some(self.nocs[sc].send(t, sv, dv, bytes));
        }
        // A multi-cube shape always builds a SerDes mesh; if that invariant
        // ever breaks, dropping the packet surfaces as a diagnosed deadlock
        // instead of crashing the worker.
        let serdes = self.serdes.as_mut()?;
        let t = serdes.send(t, sc, dc, bytes);
        Some(self.nocs[dc].send(t, sv, dv, bytes))
    }

    /// Cycles an injected vault stall holds an event before retrying it.
    const STALL_RETRY: Cycle = 256;

    /// True when an injected vault stall wedges `ev` at cycle `t`.
    fn stalled(&self, ev: &Ev, t: Cycle) -> bool {
        let Some((stalled_vault, from)) = self.cfg.faults.stall_vault else {
            return false;
        };
        if t < from {
            return false;
        }
        match *ev {
            Ev::VaultXReq { vault, .. }
            | Ev::VaultXResp { vault, .. }
            | Ev::YAtVault { vault, .. } => vault as usize == stalled_vault,
            _ => false,
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        if self.cfg.faults.panic_on_run {
            // lint:allow(R1) injected fault: the supervisor tests assert this panic
            panic!("injected fault: deliberate panic at simulation start");
        }
        // Kick off the first DRAM row load of every PE.
        for pe in 0..self.pes.len() {
            self.try_load(pe as u32, 0);
        }
        // Forward-progress watchdog: retirement means the (entries_left,
        // y_left) pair moved. A healthy run retires continuously; a stalled
        // one trips the window long before any wall-clock patience runs out.
        //
        // The loop drains the queue one whole cycle at a time. Within a
        // cycle the engine hands events back in scheduling order, and
        // same-cycle follow-ups land behind the batch — so this batch loop
        // delivers the exact event stream the old one-pop-at-a-time loop
        // did. The watchdog, occupancy, and sampler checks depend only on
        // `t` (constant across the batch) and are idempotent within a
        // cycle, so checking once per drained batch is exactly the
        // per-event checks of the pop loop.
        let watchdog = self.cfg.watchdog;
        let mut last_progress = (self.entries_left, self.y_left);
        let mut last_progress_cycle: Cycle = 0;
        let mut batch: Vec<Ev> = Vec::new();
        while let Some(t) = self.q.peek_time() {
            self.end_time = self.end_time.max(t);
            // Watchdog checks run before the drain so an aborting
            // diagnosis still sees the wedged cycle's events as pending.
            if let Some(budget) = watchdog.max_cycles {
                if t > budget {
                    return Err(SimError::CycleBudgetExceeded {
                        budget,
                        diagnosis: self.diagnose_at(t),
                    });
                }
            }
            // Check the stall window before handling (and in particular
            // before the stall intercept below, whose bounced events would
            // otherwise starve this check forever).
            if last_progress != (0, 0) {
                if let Some(window) = watchdog.stall_window {
                    if t.saturating_sub(last_progress_cycle) > window {
                        return Err(SimError::NoProgress {
                            window,
                            diagnosis: self.diagnose_at(t),
                        });
                    }
                }
            }
            // Observation points, before the stall intercept so a wedged
            // vault keeps being recorded while it livelocks. Pure reads:
            // neither can change scheduling.
            if t >= self.occ_next {
                self.record_occupancy(t);
                self.occ_next = (t - t % self.occ_every) + self.occ_every;
            }
            if self.sampler.as_ref().is_some_and(|s| s.due(t)) {
                if let Some(mut sampler) = self.sampler.take() {
                    self.obs_cycle = t;
                    sampler.tick(t, self);
                    self.sampler = Some(sampler);
                }
            }
            if self.q.drain_cycle(&mut batch).is_none() {
                break;
            }
            for ev in batch.drain(..) {
                if self.stalled(&ev, t) {
                    // The vault controller is wedged: bounce the event
                    // forward instead of handling it. Retirement stops
                    // while the queue never drains, so only the stall
                    // window can catch it.
                    self.q.schedule(t + Self::STALL_RETRY, ev);
                    continue;
                }
                if self.trace.is_enabled() {
                    self.trace.push_with(|| TraceRecord { cycle: t, event: trace_event(&ev) });
                }
                match ev {
                    Ev::PeStep { pe } => self.pe_step(pe, t),
                    Ev::RowLoaded { pe, row_id } => self.row_loaded(pe, row_id, t),
                    Ev::VaultXReq { vault, block, from } => self.vault_x_req(vault, block, from, t),
                    Ev::VaultXResp { vault, block } => self.vault_x_resp(vault, block, t),
                    Ev::BankXReq { bank, block } => self.bank_x_req(bank, block, t),
                    Ev::L1Fill { bg, block } => self.l1_fill(bg, block, t),
                    Ev::YAtVault { vault, row } => self.y_at_vault(vault, row, t),
                    Ev::YAtBank { bank, row } => self.y_at_bank(bank, row, t),
                }
            }
            let progress = (self.entries_left, self.y_left);
            if progress != last_progress {
                last_progress = progress;
                last_progress_cycle = t;
            }
        }
        if self.entries_left > 0 || self.y_left > 0 || !self.pes.iter().all(ProductPe::finished) {
            return Err(SimError::Deadlock(self.diagnose_at(self.q.now())));
        }
        Ok(())
    }

    /// Per-vault outstanding work right now: LDQ occupancy and PE in-flight
    /// requests, indexed by global vault id.
    fn vault_occupancy(&self) -> Vec<VaultOccupancy> {
        let mut occ: Vec<VaultOccupancy> = (0..self.cfg.shape.vaults())
            .map(|vault| VaultOccupancy { vault, ..VaultOccupancy::default() })
            .collect();
        for (v, ldq) in self.l2_ldq.iter().enumerate() {
            occ[v].l2_ldq = ldq.len();
        }
        for (bg, ldq) in self.l1_ldq.iter().enumerate() {
            occ[bg / self.cfg.shape.product_bgs_per_vault].l1_ldq += ldq.len();
        }
        for (p, pe) in self.pes.iter().enumerate() {
            occ[self.pe_slots[p].global_vault(self.cfg)].pe_pending += pe.pending;
        }
        occ
    }

    /// How many history-ring samples each vault keeps.
    const OCC_HISTORY: usize = 32;

    /// Pushes the current occupancy of every vault into the history ring
    /// (one round of `vaults` consecutive samples per call).
    fn record_occupancy(&mut self, t: Cycle) {
        let occ = self.vault_occupancy();
        let vaults = occ.len();
        let slot = (self.occ_rounds % Self::OCC_HISTORY) * vaults;
        for (i, o) in occ.iter().enumerate() {
            self.occ_hist[slot + i] = OccupancySample {
                cycle: t,
                l1_ldq: o.l1_ldq,
                l2_ldq: o.l2_ldq,
                pe_pending: o.pe_pending,
            };
        }
        self.occ_rounds += 1;
    }

    /// Snapshots outstanding work for a watchdog report at abort cycle
    /// `now`: per-vault LDQ occupancy and PE in-flight requests (with the
    /// recent occupancy time series of each), naming the most loaded vault
    /// (ties broken toward the lowest id) as the suspect.
    fn diagnose_at(&self, now: Cycle) -> StallDiagnosis {
        let occ = self.vault_occupancy();
        let vaults = occ.len();
        let suspect_vault = occ
            .iter()
            .filter(|o| o.total() > 0)
            .max_by_key(|o| (o.total(), std::cmp::Reverse(o.vault)))
            .map(|o| o.vault);
        let first_round = self.occ_rounds.saturating_sub(Self::OCC_HISTORY);
        let history = occ
            .iter()
            .filter(|o| o.total() > 0)
            .map(|o| {
                let mut samples: Vec<OccupancySample> = (first_round..self.occ_rounds)
                    .map(|r| self.occ_hist[(r % Self::OCC_HISTORY) * vaults + o.vault])
                    .collect();
                samples.push(OccupancySample {
                    cycle: now,
                    l1_ldq: o.l1_ldq,
                    l2_ldq: o.l2_ldq,
                    pe_pending: o.pe_pending,
                });
                OccupancyHistory { vault: o.vault, samples }
            })
            .collect();
        StallDiagnosis {
            cycle: now,
            entries_left: self.entries_left,
            y_left: self.y_left,
            pending_events: self.q.len(),
            suspect_vault,
            vaults: occ.into_iter().filter(|o| o.total() > 0).collect(),
            history,
        }
    }

    /// Issues the next DRAM row load if the PE queue has space.
    fn try_load(&mut self, pe: u32, t: Cycle) {
        let p = pe as usize;
        let state = &mut self.pes[p];
        if state.load_in_flight
            || state.next_load >= state.dram_rows.len()
            || state.queue.len() >= self.cfg.pe_queue_rows
        {
            return;
        }
        let row_id = state.next_load as u32;
        state.next_load += 1;
        state.load_in_flight = true;
        let done = self.matrix_banks[p].access(t, row_id as u64, size::DRAM_ROW, AccessKind::Read);
        self.q.schedule(done, Ev::RowLoaded { pe, row_id });
    }

    fn row_loaded(&mut self, pe: u32, row_id: u32, t: Cycle) {
        let p = pe as usize;
        let a = self.a;
        let state = &mut self.pes[p];
        let spec = state.dram_rows[row_id as usize];
        let (matrix_row, n) = (spec.matrix_row, spec.len);
        state.queue.push_back(crate::pe::LoadedRow { id: row_id, remaining: n });
        for &col in &a.col_idx()[spec.range()] {
            state.fresh.push_back(PeEntry { row_id, matrix_row, col });
        }
        state.load_in_flight = false;
        self.queue_sram.writes += n as u64;
        self.try_load(pe, t);
        self.wake(pe, t);
    }

    /// Schedules a scan step if the PE has work and none is scheduled.
    fn wake(&mut self, pe: u32, t: Cycle) {
        let state = &mut self.pes[pe as usize];
        if !state.step_scheduled && state.has_work() {
            state.step_scheduled = true;
            self.q.schedule(t, Ev::PeStep { pe });
        }
    }

    fn pe_step(&mut self, pe: u32, t: Cycle) {
        let p = pe as usize;
        self.pes[p].step_scheduled = false;

        if let Some(entry) = self.pes[p].ready.pop_front() {
            self.pes[p].steps += 1;
            // A response satisfied this entry earlier; compute now.
            self.compute(pe, entry, t);
        } else if let Some(entry) = self.pes[p].fresh.pop_front() {
            self.pes[p].steps += 1;
            self.queue_sram.reads += 1;
            let block = self.layout.block_of_element(entry.col as usize);
            let bg = self.pe_slots[p].global_bank_group(self.cfg);
            if self.prod_l1[bg].lookup(block) {
                // Case II: X_j ready via the L1 CAM (one RF write per
                // vector in the batch).
                self.rf.writes += self.k();
                self.compute(pe, entry, t);
            } else {
                // Case I: X_j not ready — non-blocking remote request.
                self.pes[p].pending += 1;
                let push = self.l1_ldq[bg].push_forced_at(block, PeWaiter { pe, entry }, t);
                if push == LdqPush::NewRequest || !self.cfg.ldq_dedup {
                    let vault = self.pe_slots[p].global_vault(self.cfg);
                    let t_req =
                        self.tsv[vault].transfer(t + self.cfg.l1_cam_latency, size::X_REQUEST);
                    self.q.schedule(
                        t_req,
                        Ev::VaultXReq {
                            vault: vault as u32,
                            block,
                            from: Requester::BankGroup(bg),
                        },
                    );
                }
            }
        }

        // Continue scanning after L_p cycles if work remains.
        if self.pes[p].has_work() {
            self.pes[p].step_scheduled = true;
            self.q.schedule(t + self.cfg.l_p, Ev::PeStep { pe });
        }
    }

    /// Performs `Y_i += A_ij · X_j` (for every vector in the batch) and the
    /// completion bookkeeping.
    ///
    /// Only the *remaining* count is tracked per in-flight row; when it
    /// reaches zero the full dot product of the row is reduced in canonical
    /// CSR entry order — one multiply-accumulate per non-zero has been paid
    /// event-by-event, so the FPU counters are exact, while the reduction
    /// order is fixed regardless of when each X response arrived. This makes
    /// the output bitwise-identical to [`Csr::spmv`] and independent of
    /// batch composition.
    fn compute(&mut self, pe: u32, entry: PeEntry, t: Cycle) {
        let p = pe as usize;
        self.fpu_ops += self.k();
        self.rf.reads += self.k();

        let flush = match self.pes[p].row_remaining_mut(entry.row_id) {
            Some(remaining) => {
                *remaining -= 1;
                *remaining == 0
            }
            None => {
                debug_assert!(false, "computed entry's DRAM row must be one of the PE's");
                false
            }
        };

        let popped = self.pes[p].complete_entry(entry.row_id);
        debug_assert!(popped.is_some(), "completed entry's row must be resident");
        let popped = popped.unwrap_or(0);
        self.entries_left -= 1;
        if popped > 0 {
            self.try_load(pe, t);
        }

        if flush {
            let row = entry.matrix_row as usize;
            let base = row * self.xs.len();
            // Canonical reduction, exactly the oracle's loop shape.
            for (v, x) in self.xs.iter().enumerate() {
                let mut acc = 0.0;
                for (c, val) in self.a.row(row) {
                    acc += val * x[c as usize];
                }
                self.y_stash[base + v] = acc;
            }
            self.y_ready[row] = true;
            self.flush_y(pe, entry.matrix_row, t + self.cfg.fpu_latency);
        }
    }

    /// Sends a completed partial `Y_i` toward its home vault (Type III).
    fn flush_y(&mut self, pe: u32, row: u32, t: Cycle) {
        let bytes = size::y_partial_bytes(self.xs.len());
        let src_vault = self.pe_slots[pe as usize].global_vault(self.cfg);
        let block = self.layout.block_of_element(row as usize);
        let home_vault = self.layout.home_vault_of_block(block);
        let t1 = self.tsv[src_vault].transfer(t, bytes);
        let Some(t2) = self.route(t1, src_vault, home_vault, bytes) else {
            return;
        };
        self.q.schedule(t2, Ev::YAtVault { vault: home_vault as u32, row });
    }

    /// Type I: X request at a vault controller.
    fn vault_x_req(&mut self, vault: u32, block: u64, from: Requester, t: Cycle) {
        let v = vault as usize;
        let t_look = t + self.cfg.l2_cam_latency;
        if self.l2_cam[v].lookup(block) {
            self.respond(v, block, from, t_look);
            return;
        }
        if self.l2_ldq[v].push_forced_at(block, from, t) != LdqPush::NewRequest
            && self.cfg.ldq_dedup
        {
            return; // deduplicated: an identical request is already in flight
        }
        let home_vault = self.layout.home_vault_of_block(block);
        if home_vault == v {
            let bank = self.layout.home_bank_of_block(block);
            let t1 = self.tsv[v].transfer(t_look, size::X_REQUEST);
            self.q.schedule(t1, Ev::BankXReq { bank: bank as u32, block });
        } else {
            let Some(t1) = self.route(t_look, v, home_vault, size::X_REQUEST) else {
                return;
            };
            self.q.schedule(
                t1,
                Ev::VaultXReq { vault: home_vault as u32, block, from: Requester::Vault(v) },
            );
        }
    }

    /// Sends an X response from vault `v` toward a requester. The response
    /// carries one block per batched vector behind a shared header.
    fn respond(&mut self, v: usize, block: u64, to: Requester, t: Cycle) {
        let bytes = size::x_response_bytes(self.xs.len());
        match to {
            Requester::BankGroup(bg) => {
                let t1 = self.tsv[v].transfer(t, bytes);
                self.q.schedule(t1, Ev::L1Fill { bg: bg as u32, block });
            }
            Requester::Vault(w) => {
                let Some(t1) = self.route(t, v, w, bytes) else {
                    return;
                };
                self.q.schedule(t1, Ev::VaultXResp { vault: w as u32, block });
            }
        }
    }

    /// Type II: X response at a vault controller — fill L2, wake waiters.
    fn vault_x_resp(&mut self, vault: u32, block: u64, t: Cycle) {
        let v = vault as usize;
        self.l2_cam[v].insert(block);
        let mut woken = std::mem::take(&mut self.l2_woken);
        self.l2_ldq[v].complete(block, &mut woken);
        for waiter in woken.drain(..) {
            self.respond(v, block, waiter, t);
        }
        self.l2_woken = woken;
    }

    /// X request at the owning vector bank: L1 CAM, then the bank (one
    /// 32-byte block read per batched vector).
    fn bank_x_req(&mut self, bank: u32, block: u64, t: Cycle) {
        let b = bank as usize;
        let vault = self.layout.vault_of_vector_bank(b);
        let t_look = t + self.cfg.l1_cam_latency;
        let t_ready = if self.vec_l1[vault].lookup(block) {
            t_look
        } else {
            let drow = self.layout.dram_row_of_block(block, self.cfg.timing.row_bytes);
            let done =
                self.vector_banks[b].access(t_look, drow, 32 * self.xs.len(), AccessKind::Read);
            self.vec_l1[vault].insert(block);
            done
        };
        let t1 = self.tsv[vault].transfer(t_ready, size::x_response_bytes(self.xs.len()));
        self.q.schedule(t1, Ev::VaultXResp { vault: vault as u32, block });
    }

    /// X response at a product bank group: fill L1 CAM, satisfy waiters.
    fn l1_fill(&mut self, bg: u32, block: u64, t: Cycle) {
        let g = bg as usize;
        self.prod_l1[g].insert(block);
        let k = self.k();
        let mut woken = std::mem::take(&mut self.l1_woken);
        self.l1_ldq[g].complete(block, &mut woken);
        for PeWaiter { pe, entry } in woken.drain(..) {
            self.rf.writes += k;
            let state = &mut self.pes[pe as usize];
            state.pending -= 1;
            state.ready.push_back(entry);
            self.wake(pe, t);
        }
        self.l1_woken = woken;
    }

    /// Type III at the home vault: forward down the TSV to the vector bank.
    fn y_at_vault(&mut self, vault: u32, row: u32, t: Cycle) {
        let v = vault as usize;
        let block = self.layout.block_of_element(row as usize);
        let bank = self.layout.home_bank_of_block(block);
        let t1 = self.tsv[v].transfer(t, size::y_partial_bytes(self.xs.len()));
        self.q.schedule(t1, Ev::YAtBank { bank: bank as u32, row });
    }

    /// Accumulation-PE: merge the stashed per-vector partials into the
    /// update buffer. Each matrix row arrives here exactly once (whole rows
    /// belong to one PE), so the stash flag is consumed on delivery; a
    /// clear flag means the packet was lost to an injected fault and the
    /// run surfaces as a diagnosed deadlock instead.
    fn y_at_bank(&mut self, bank: u32, row: u32, t: Cycle) {
        let n = self.accum_updates;
        self.accum_updates += 1;
        let r = row as usize;
        if !std::mem::replace(&mut self.y_ready[r], false) {
            return;
        }
        let base = r * self.xs.len();
        if self.cfg.faults.flip_accum_update == Some(n) {
            // Injected corruption: large enough that the output oracle in
            // `finish` must catch it — never a silently wrong result.
            for val in &mut self.y_stash[base..base + self.xs.len()] {
                *val += 1.0;
            }
        }
        let b = bank as usize;
        let start = t.max(self.accum_busy[b]);
        let drow = self.layout.dram_row_of_y(r, self.cfg.timing.row_bytes);
        let k = self.xs.len() as u64;
        self.queue_sram.reads += k;
        let mut t_ready = start;
        match self.update_buf[b].touch(drow) {
            UpdateOutcome::Hit => {}
            UpdateOutcome::Miss { writeback } => {
                if let Some(victim) = writeback {
                    t_ready = self.vector_banks[b].access(
                        t_ready,
                        victim,
                        self.cfg.timing.row_bytes,
                        AccessKind::Write,
                    );
                }
                t_ready = self.vector_banks[b].access(
                    t_ready,
                    drow,
                    self.cfg.timing.row_bytes,
                    AccessKind::Read,
                );
            }
        }
        let done = t_ready + self.cfg.fpu_latency;
        self.queue_sram.writes += k;
        self.fpu_ops += k;
        // Direct assignment, not `+=`: each row lands exactly once, and
        // adding into a 0.0 initializer would turn a computed -0.0 into
        // +0.0, breaking bitwise equality with the oracle.
        for v in 0..self.xs.len() {
            self.ys[v][r] = self.y_stash[base + v];
        }
        self.accum_busy[b] = done;
        self.end_time = self.end_time.max(done);
        self.y_left -= 1;
    }

    /// Final accounting, oracle validation and report assembly. Returns the
    /// report (with an empty `output` field) plus one output vector per
    /// batched input vector, each validated against the software oracle.
    fn finish(mut self, a: &Csr) -> Result<(SimReport, Vec<Vec<f64>>), SimError> {
        // Write back dirty update-buffer rows (counted for energy; by then
        // the critical path is over, so time is not extended). Evictions
        // during the run already wrote back `writebacks()` rows; residents
        // are the remainder.
        for b in 0..self.update_buf.len() {
            let resident: Vec<u64> = self.update_buf[b].resident_rows().collect();
            debug_assert!(
                resident.len() as u64 + self.update_buf[b].writebacks()
                    == self.update_buf[b].misses(),
                "every missed row is either resident or was written back"
            );
            for drow in resident {
                self.vector_banks[b].access(
                    self.end_time,
                    drow,
                    self.cfg.timing.row_bytes,
                    AccessKind::Write,
                );
            }
        }

        let mut activity = ActivitySummary {
            cycles: self.end_time,
            fpu_ops: self.fpu_ops,
            pe_queue: self.queue_sram,
            register_file: self.rf,
            ..Default::default()
        };
        for bank in self.matrix_banks.iter().chain(self.vector_banks.iter()) {
            let c = bank.counters();
            activity.dram_activates += c.activates;
            activity.dram_read_beats += c.read_beats;
            activity.dram_write_beats += c.write_beats;
        }
        for cam in self.prod_l1.iter().chain(self.vec_l1.iter()) {
            activity.l1_cam += *cam.counters();
        }
        for cam in &self.l2_cam {
            activity.l2_cam += *cam.counters();
        }
        for ldq in &self.l1_ldq {
            activity.l1_ldq += *ldq.counters();
        }
        for ldq in &self.l2_ldq {
            activity.l2_ldq += *ldq.counters();
        }
        for link in &self.tsv {
            activity.tsv_bytes += link.bytes_total();
        }
        for noc in &self.nocs {
            activity.noc_byte_hops += noc.byte_hops();
        }
        if let Some(s) = &self.serdes {
            activity.noc_byte_hops += s.byte_hops();
        }

        // L1 hit rate over *product* bank groups only (the Figure 6(b)
        // metric is about input-vector reuse at the Product-PEs).
        let mut prod_l1_counters = spacea_sim::stats::CamCounters::default();
        for cam in &self.prod_l1 {
            prod_l1_counters += *cam.counters();
        }
        let mut l2_counters = spacea_sim::stats::CamCounters::default();
        for cam in &self.l2_cam {
            l2_counters += *cam.counters();
        }

        let pe_work: Vec<u64> = self.pes.iter().map(|p| p.work).collect();
        let normalized_workload = SimReport::normalized_workload_of(&pe_work);
        let elapsed = self.end_time.max(1) as f64;
        let pe_busy_fraction = spacea_matrix::reduce::sum_f64(
            self.pes.iter().map(|p| (p.steps * self.cfg.l_p) as f64 / elapsed),
        ) / self.pes.len() as f64;
        let matrix_bank_busy_fraction = spacea_matrix::reduce::sum_f64(
            self.matrix_banks.iter().map(|b| b.busy_cycles() as f64 / elapsed),
        ) / self.matrix_banks.len() as f64;
        let vector_bank_busy_fraction = spacea_matrix::reduce::sum_f64(
            self.vector_banks.iter().map(|b| b.busy_cycles() as f64 / elapsed),
        ) / self.vector_banks.len() as f64;
        let (ub_hits, ub_misses) =
            self.update_buf.iter().fold((0u64, 0u64), |(h, m), b| (h + b.hits(), m + b.misses()));
        let update_buffer_hit_rate = if ub_hits + ub_misses == 0 {
            0.0
        } else {
            ub_hits as f64 / (ub_hits + ub_misses) as f64
        };

        // Oracle validation (Section V-A), once per batched vector.
        let validated = true;
        for (v, ys) in self.ys.iter().enumerate() {
            let expected = a.spmv(self.xs[v]);
            for (i, (&sim, &exp)) in ys.iter().zip(expected.iter()).enumerate() {
                let tol = 1e-9 * exp.abs().max(1.0);
                if (sim - exp).abs() > tol {
                    return Err(SimError::ValidationFailed {
                        index: i,
                        simulated: sim,
                        expected: exp,
                    });
                }
            }
        }

        // The engine's documented counter invariant: on a drained queue,
        // every scheduled event was processed exactly once. The telemetry
        // counters below are only meaningful because this holds.
        self.q.try_check_counters().map_err(SimError::CounterInvariant)?;
        debug_assert!(self.q.is_empty(), "simulation finished with pending events");

        let report = SimReport {
            cycles: self.end_time,
            seconds: self.end_time as f64 * 1e-9,
            events_scheduled: self.q.scheduled_count(),
            events_processed: self.q.processed_count(),
            l1_hit_rate: prod_l1_counters.hit_rate(),
            l2_hit_rate: l2_counters.hit_rate(),
            tsv_bytes: activity.tsv_bytes,
            noc_byte_hops: activity.noc_byte_hops,
            pe_work,
            normalized_workload,
            update_buffer_hit_rate,
            pe_busy_fraction,
            matrix_bank_busy_fraction,
            vector_bank_busy_fraction,
            output: Vec::new(),
            validated,
            activity,
        };
        Ok((report, self.ys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacea_mapping::{LocalityMapping, MappingStrategy, NaiveMapping};
    use spacea_matrix::gen::{
        banded, rmat, uniform_random, BandedConfig, RmatConfig, UniformConfig,
    };

    fn run(a: &Csr, cfg: HwConfig) -> SimReport {
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mapping = LocalityMapping::default().map(a, &cfg.shape);
        Machine::new(cfg)
            .run(RunSpec::spmv(a, &x, &mapping))
            .expect("simulation must validate")
            .into_report()
    }

    #[test]
    fn banded_matrix_validates() {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let r = run(&a, HwConfig::tiny());
        assert!(r.validated);
        assert!(r.cycles > 0);
        assert_eq!(r.activity.fpu_ops as usize, a.nnz() + count_nonempty_rows(&a));
    }

    #[test]
    fn power_law_matrix_validates() {
        let a = rmat(&RmatConfig { n: 300, edges: 1500, ..Default::default() });
        let r = run(&a, HwConfig::tiny());
        assert!(r.validated);
    }

    #[test]
    fn uniform_matrix_validates_with_naive_mapping() {
        let a = uniform_random(&UniformConfig { rows: 150, cols: 150, row_nnz: 6, seed: 9 });
        let cfg = HwConfig::tiny();
        let x = vec![1.0; a.cols()];
        let mapping = NaiveMapping::default().map(&a, &cfg.shape);
        let r = Machine::new(cfg).run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();
        assert!(r.validated);
    }

    #[test]
    fn fused_spmm_matches_sequential_spmv_bitwise() {
        let a = rmat(&RmatConfig { n: 200, edges: 900, ..Default::default() });
        let cfg = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|v| (0..a.cols()).map(|i| ((i * 7 + v * 13) % 11) as f64 - 5.0).collect())
            .collect();
        let m = Machine::new(cfg);
        let fused = m.run(RunSpec::spmm(&a, &xs, &mapping)).unwrap().into_spmm();
        assert_eq!(fused.batch(), 4);
        for (v, x) in xs.iter().enumerate() {
            let solo = m.run(RunSpec::spmv(&a, x, &mapping)).unwrap().into_report();
            let same = fused.outputs[v]
                .iter()
                .zip(solo.output.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "fused output {v} must be bitwise-identical to the solo run");
        }
    }

    #[test]
    fn fused_spmm_amortizes_cycles_per_vector() {
        let a = banded(&BandedConfig { n: 300, ..Default::default() });
        let cfg = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let m = Machine::new(cfg);
        let solo = m.run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();
        let xs = vec![x; 8];
        let fused = m.run(RunSpec::spmm(&a, &xs, &mapping)).unwrap().into_spmm();
        assert!(
            fused.cycles_per_vector() < solo.cycles as f64,
            "8-wide batch must cost fewer cycles per vector ({} vs {})",
            fused.cycles_per_vector(),
            solo.cycles
        );
        // The single fused pass streams the matrix once, so it is cheaper
        // in total DRAM activations than 8 separate passes would be.
        assert!(fused.report.activity.dram_activates < 8 * solo.activity.dram_activates);
    }

    #[test]
    fn empty_batch_rejected() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let cfg = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let err = Machine::new(cfg).run(RunSpec::spmm(&a, &[], &mapping)).unwrap_err();
        assert!(matches!(err, SimError::EmptyBatch));
    }

    #[test]
    fn k1_spmm_timing_equals_spmv() {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let cfg = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let m = Machine::new(cfg);
        let solo = m.run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();
        let fused =
            m.run(RunSpec::spmm(&a, std::slice::from_ref(&x), &mapping)).unwrap().into_spmm();
        assert_eq!(fused.report.cycles, solo.cycles);
        assert_eq!(fused.report.tsv_bytes, solo.tsv_bytes);
        assert_eq!(fused.report.activity.fpu_ops, solo.activity.fpu_ops);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let a = banded(&BandedConfig { n: 128, ..Default::default() });
        let r1 = run(&a, HwConfig::tiny());
        let r2 = run(&a, HwConfig::tiny());
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.tsv_bytes, r2.tsv_bytes);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let cfg = HwConfig::tiny();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let err = Machine::new(cfg).run(RunSpec::spmv(&a, &[1.0; 3], &mapping)).unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));
    }

    #[test]
    fn mapping_mismatch_rejected() {
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let cfg = HwConfig::tiny();
        let other_shape = spacea_mapping::MachineShape {
            cubes: 1,
            vaults_per_cube: 2,
            product_bgs_per_vault: 2,
            banks_per_bg: 2,
        };
        let mapping = LocalityMapping::default().map(&a, &other_shape);
        let x = vec![1.0; a.cols()];
        let err = Machine::new(cfg).run(RunSpec::spmv(&a, &x, &mapping)).unwrap_err();
        assert!(matches!(err, SimError::MappingMismatch(_)));
    }

    #[test]
    fn multi_cube_machine_validates() {
        let a = banded(&BandedConfig { n: 256, ..Default::default() });
        let shape = spacea_mapping::MachineShape {
            cubes: 2,
            vaults_per_cube: 4,
            product_bgs_per_vault: 2,
            banks_per_bg: 2,
        };
        let r = run(&a, HwConfig::with_shape(shape));
        assert!(r.validated);
        assert!(r.noc_byte_hops > 0, "multi-cube run must use the network");
    }

    #[test]
    fn l1_hits_occur_on_banded_input() {
        let a = banded(&BandedConfig { n: 400, ..Default::default() });
        let r = run(&a, HwConfig::tiny());
        assert!(r.l1_hit_rate > 0.1, "banded locality must produce L1 hits, got {}", r.l1_hit_rate);
    }

    #[test]
    fn proposed_mapping_beats_naive_on_traffic() {
        let a = banded(&BandedConfig { n: 600, ..Default::default() });
        let cfg = HwConfig::tiny();
        let x = vec![1.0; a.cols()];
        let prop = LocalityMapping::default().map(&a, &cfg.shape);
        let naive = NaiveMapping::default().map(&a, &cfg.shape);
        let rp = Machine::new(cfg.clone()).run(RunSpec::spmv(&a, &x, &prop)).unwrap().into_report();
        let rn = Machine::new(cfg).run(RunSpec::spmv(&a, &x, &naive)).unwrap().into_report();
        assert!(
            rp.tsv_bytes < rn.tsv_bytes,
            "proposed mapping TSV {} must beat naive {}",
            rp.tsv_bytes,
            rn.tsv_bytes
        );
    }

    #[test]
    fn tsv_latency_slowdown() {
        let a = banded(&BandedConfig { n: 300, ..Default::default() });
        let mut fast = HwConfig::tiny();
        fast.tsv_latency = 1;
        let mut slow = HwConfig::tiny();
        slow.tsv_latency = 16;
        let rf = run(&a, fast);
        let rs = run(&a, slow);
        assert!(
            rs.cycles > rf.cycles,
            "16-cycle TSV ({}) must be slower than 1 ({})",
            rs.cycles,
            rf.cycles
        );
    }

    #[test]
    fn traced_run_matches_untraced() {
        let a = banded(&BandedConfig { n: 128, ..Default::default() });
        let cfg = HwConfig::tiny();
        let x = vec![1.0; a.cols()];
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let machine = Machine::new(cfg);
        let plain = machine.run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();
        let out = machine.run(RunSpec::spmv(&a, &x, &mapping).traced(500)).unwrap();
        let log = out.trace.expect("a traced spec must yield a trace");
        assert_eq!(plain.cycles, out.report.cycles, "tracing must not perturb timing");
        assert_eq!(log.records().len(), 500);
        assert!(log.dropped() > 0, "a real run has more than 500 events");
        // Cycles in the trace are non-decreasing (event order).
        for w in log.records().windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
        // The trace starts with the first row loads.
        assert!(matches!(log.records()[0].event, crate::trace::TraceEvent::RowLoaded { .. }));
    }

    #[test]
    fn observed_run_is_timing_neutral_and_collects_series() {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let cfg = HwConfig::tiny();
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let machine = Machine::new(cfg.clone());
        let plain = machine.run(RunSpec::spmv(&a, &x, &mapping)).unwrap().into_report();
        let obs = SamplerConfig { every: 64, capacity: 32 };
        let out = machine.run(RunSpec::spmv(&a, &x, &mapping).observed(obs)).unwrap();
        let timeline = out.timeline.expect("an observed spec must yield a timeline");
        assert_eq!(plain.cycles, out.report.cycles, "observation must not perturb timing");
        assert_eq!(plain.tsv_bytes, out.report.tsv_bytes);

        // Every vault has counter series, each bounded by the capacity.
        assert_eq!(timeline.vaults().len(), cfg.shape.vaults());
        for (key, series) in &timeline.series {
            assert!(series.windows().len() <= 32, "{key}: unbounded series");
            assert!(!series.is_empty(), "{key}: the final snapshot guarantees a sample");
        }
        // The busy parts of the machine saw real occupancy and traffic.
        let tsv_total: f64 = (0..cfg.shape.vaults())
            .map(|v| {
                timeline.series(&spacea_obs::MetricKey::vault("tsv", v, "bytes")).unwrap().peak()
            })
            .sum();
        assert!(tsv_total > 0.0, "TSVs moved bytes");
        assert!(
            !timeline.slices.is_empty(),
            "the trace prefix must pair into at least one duration slice"
        );
        // The export round-trips through the validator.
        let summary = spacea_obs::json::validate_chrome_trace(&timeline.to_chrome_trace())
            .expect("export must be valid Chrome trace JSON");
        assert!(summary.counter_tracks.len() >= cfg.shape.vaults());
        assert_eq!(summary.duration_events, timeline.slices.len());
    }

    #[test]
    fn empty_matrix_completes() {
        let a = Csr::from_parts(8, 8, vec![0; 9], vec![], vec![]).unwrap();
        let r = run(&a, HwConfig::tiny());
        assert!(r.validated);
        assert_eq!(r.output, vec![0.0; 8]);
    }

    /// Runs the banded test matrix on `cfg`, returning the error.
    fn run_err(cfg: HwConfig) -> SimError {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        Machine::new(cfg).run(RunSpec::spmv(&a, &x, &mapping)).unwrap_err()
    }

    #[test]
    fn dropped_noc_packet_is_a_diagnosed_deadlock() {
        let mut cfg = HwConfig::tiny();
        cfg.faults.drop_noc_packet = Some(5);
        let err = run_err(cfg);
        assert!(err.is_hang(), "{err}");
        let SimError::Deadlock(d) = &err else { panic!("expected Deadlock, got {err}") };
        assert!(d.entries_left > 0 || d.y_left > 0, "{d}");
        assert!(d.suspect_vault.is_some(), "a lost packet must strand waiters somewhere: {d}");
    }

    #[test]
    fn stalled_vault_trips_the_stall_window_naming_the_vault() {
        let mut cfg = HwConfig::tiny();
        cfg.faults.stall_vault = Some((2, 500));
        cfg.watchdog.stall_window = Some(20_000);
        let err = run_err(cfg);
        assert!(err.is_hang(), "{err}");
        let SimError::NoProgress { window, diagnosis } = &err else {
            panic!("expected NoProgress, got {err}")
        };
        assert_eq!(*window, 20_000);
        assert_eq!(diagnosis.suspect_vault, Some(2), "{diagnosis}");
        assert!(err.to_string().contains("vault 2"), "{err}");
        assert!(
            diagnosis.pending_events > 0,
            "the bounced events keep the queue alive: {diagnosis}"
        );
        // The diagnosis carries the stalled vault's occupancy *time series*,
        // not just the abort-cycle snapshot.
        let history = diagnosis
            .history
            .iter()
            .find(|h| h.vault == 2)
            .expect("suspect vault must have an occupancy history");
        assert!(history.samples.len() > 1, "{diagnosis}");
        assert!(history.peak() > 0, "{diagnosis}");
        for w in history.samples.windows(2) {
            assert!(w[0].cycle <= w[1].cycle, "history must be in cycle order");
        }
        assert!(err.to_string().contains("occupancy history"), "{err}");
    }

    #[test]
    fn flipped_accumulator_update_fails_validation_loudly() {
        let mut cfg = HwConfig::tiny();
        cfg.faults.flip_accum_update = Some(0);
        let err = run_err(cfg);
        assert!(matches!(err, SimError::ValidationFailed { .. }), "{err}");
        assert!(!err.is_hang());
    }

    #[test]
    fn delayed_noc_packets_still_validate() {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let mut cfg = HwConfig::tiny();
        cfg.faults.delay_noc = Some((0, 50));
        let r = run(&a, cfg);
        assert!(r.validated, "a pure delay must not corrupt the result");
    }

    #[test]
    fn cycle_budget_exceeded_aborts_with_diagnosis() {
        let mut cfg = HwConfig::tiny();
        cfg.watchdog.max_cycles = Some(100);
        let err = run_err(cfg);
        let SimError::CycleBudgetExceeded { budget, diagnosis } = &err else {
            panic!("expected CycleBudgetExceeded, got {err}")
        };
        assert_eq!(*budget, 100);
        assert!(diagnosis.entries_left > 0, "{diagnosis}");
        assert!(err.is_hang());
    }

    #[test]
    fn injected_panic_fires_at_run_start() {
        let mut cfg = HwConfig::tiny();
        cfg.faults.panic_on_run = true;
        let a = banded(&BandedConfig { n: 64, ..Default::default() });
        let x = vec![1.0; a.cols()];
        let mapping = LocalityMapping::default().map(&a, &cfg.shape);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Machine::new(cfg).run(RunSpec::spmv(&a, &x, &mapping));
        }))
        .unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn watchdog_budgets_do_not_perturb_healthy_runs() {
        let a = banded(&BandedConfig { n: 200, ..Default::default() });
        let base = run(&a, HwConfig::tiny());
        let mut cfg = HwConfig::tiny();
        cfg.watchdog.max_cycles = Some(u64::MAX);
        cfg.watchdog.stall_window = Some(10_000);
        let r = run(&a, cfg);
        assert_eq!(r.cycles, base.cycles, "watchdog accounting must be timing-neutral");
    }

    fn count_nonempty_rows(a: &Csr) -> usize {
        (0..a.rows()).filter(|&i| a.row_nnz(i) > 0).count()
    }
}
