//! The storage under a facade: a plain in-memory [`Warehouse`] or a
//! crash-safe [`DurableWarehouse`] directory.
//!
//! The local `Zoom` facade holds one [`Backing`]; the `zoomd`
//! [`ShardRouter`](crate::wire::ShardRouter) holds one per shard behind
//! that shard's mutex. Either way, every mutation goes through the same
//! delegation here, durable failures map into the warehouse error space
//! through the one `durability_err`, and online repair runs the same
//! fsck → reopen → checkpoint-probe [`Rebuild`].

use crate::durable::{fsck_with, DurableError, DurableOptions, DurableWarehouse, FsckReport};
use crate::io::StorageIo;
use crate::metrics::MetricsRegistry;
use crate::resilience::HealthReport;
use crate::schema::{RunId, SpecId, ViewId, WarehouseStats};
use crate::store::{Result, Warehouse, WarehouseError};
use crate::stream::PushOutcome;
use crate::trace::{TraceOp, TraceTarget};
use std::path::PathBuf;
use std::sync::Arc;
use zoom_model::{EventLog, LogEvent, UserView, WorkflowRun, WorkflowSpec};

/// Maps a durable-store error back into the warehouse error space:
/// warehouse-level rejections surface identically to the in-memory path
/// (so remote renderings match in-process ones digest-for-digest), while
/// genuine durability failures (io, torn snapshots, bad manifests) come
/// through as [`WarehouseError::Durability`].
fn durability_err(e: DurableError) -> WarehouseError {
    match e {
        DurableError::Warehouse(we) => we,
        other => WarehouseError::Durability(Box::new(other)),
    }
}

/// The storage behind one facade or one shard.
#[derive(Debug)]
pub enum Backing {
    /// In-memory warehouse.
    Memory(Box<Warehouse>),
    /// Durable warehouse directory.
    Durable(Box<DurableWarehouse>),
}

impl Default for Backing {
    fn default() -> Self {
        Backing::Memory(Box::default())
    }
}

/// Applies one mutation to whichever store backs `$self`, mapping durable
/// errors through [`durability_err`].
macro_rules! delegate_write {
    ($self:expr, |$w:ident| $call:expr) => {
        match $self {
            Backing::Memory($w) => $call,
            Backing::Durable($w) => $call.map_err(durability_err),
        }
    };
}

impl Backing {
    /// The query warehouse (the durable store's recovered image, when
    /// durable).
    pub fn warehouse(&self) -> &Warehouse {
        match self {
            Backing::Memory(w) => w,
            Backing::Durable(dw) => dw.warehouse(),
        }
    }

    /// Direct mutable access for bulk operations that bypass durability;
    /// `None` when durable, where it would diverge memory from disk.
    pub fn warehouse_mut(&mut self) -> Option<&mut Warehouse> {
        match self {
            Backing::Memory(w) => Some(w),
            Backing::Durable(_) => None,
        }
    }

    /// Whether this backing is a durable directory.
    pub fn is_durable(&self) -> bool {
        matches!(self, Backing::Durable(_))
    }

    /// Registers a specification (journaled when durable).
    pub fn register_spec(&mut self, spec: WorkflowSpec) -> Result<SpecId> {
        delegate_write!(self, |w| w.register_spec(spec))
    }

    /// Registers a view (journaled when durable).
    pub fn register_view(&mut self, spec: SpecId, view: UserView) -> Result<ViewId> {
        delegate_write!(self, |w| w.register_view(spec, view))
    }

    /// Loads a validated run (journaled when durable).
    pub fn load_run(&mut self, spec: SpecId, run: WorkflowRun) -> Result<RunId> {
        delegate_write!(self, |w| w.load_run(spec, run))
    }

    /// Ingests an event log as a run (journaled when durable).
    pub fn load_log(&mut self, spec: SpecId, log: &EventLog) -> Result<RunId> {
        delegate_write!(self, |w| w.load_log(spec, log))
    }

    /// Opens a streaming run (journaled when durable).
    pub fn begin_stream(&mut self, spec: SpecId) -> Result<RunId> {
        delegate_write!(self, |w| w.begin_stream(spec))
    }

    /// Pushes one event into a live stream (journaled when durable).
    pub fn stream_push(&mut self, run: RunId, event: &LogEvent) -> Result<PushOutcome> {
        delegate_write!(self, |w| w.stream_push(run, event))
    }

    /// Seals a live stream (journaled when durable).
    pub fn stream_seal(&mut self, run: RunId) -> Result<()> {
        delegate_write!(self, |w| w.stream_seal(run))
    }

    /// Compacts a durable store (snapshot, fresh journal, manifest
    /// swing). Returns `false` and does nothing when in memory.
    pub fn checkpoint(&mut self) -> Result<bool> {
        match self {
            Backing::Memory(_) => Ok(false),
            Backing::Durable(dw) => dw.checkpoint().map(|()| true).map_err(durability_err),
        }
    }

    /// Table counters; durable stores fill in journal and compaction
    /// counters.
    pub fn stats(&self) -> WarehouseStats {
        match self {
            Backing::Memory(w) => w.stats(),
            Backing::Durable(dw) => dw.stats(),
        }
    }

    /// Write-availability and breaker state. In-memory stores are always
    /// healthy and writable.
    pub fn health(&self) -> HealthReport {
        match self {
            Backing::Memory(_) => HealthReport::in_memory(),
            Backing::Durable(dw) => dw.health(),
        }
    }

    /// Whether the write breaker has a durable store in degraded
    /// read-only mode (never, in memory).
    pub fn degraded(&self) -> bool {
        matches!(self, Backing::Durable(dw) if dw.degraded())
    }

    /// Rebuilds the warehouse's admission control with new limits.
    pub fn set_admission_limits(&mut self, max_in_flight: usize, max_queue: usize) {
        match self {
            Backing::Memory(w) => w.set_admission_limits(max_in_flight, max_queue),
            Backing::Durable(dw) => dw.set_admission_limits(max_in_flight, max_queue),
        }
    }

    /// What a repair would reopen this backing from; `None` in memory,
    /// where there is nothing on disk to rebuild from. Cheap, so a caller
    /// can take it under a lock and run the [`Rebuild`] outside it.
    pub fn rebuild_source(&self) -> Option<Rebuild> {
        match self {
            Backing::Memory(_) => None,
            Backing::Durable(dw) => Some(Rebuild {
                io: dw.io(),
                dir: dw.dir().to_path_buf(),
                options: dw.options(),
            }),
        }
    }
}

/// The storage backend, directory and options a durable backing opened
/// with: everything online repair needs to rebuild it.
pub struct Rebuild {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    options: DurableOptions,
}

impl Rebuild {
    /// Fscks the directory, replays manifest + snapshot + journal into a
    /// fresh [`DurableWarehouse`] on the *same* storage backend (fresh
    /// breaker, fresh retry state), and proves the disk writable with a
    /// checkpoint — recovery alone may need no writes, and a repair must
    /// not declare a dead disk healthy. The caller swaps the result in.
    pub fn run(self) -> std::result::Result<(FsckReport, Backing), DurableError> {
        let report = fsck_with(&*self.io, &self.dir)?;
        let mut fresh = DurableWarehouse::open_with(self.io, &self.dir, self.options)?;
        fresh.checkpoint()?;
        Ok((report, Backing::Durable(Box::new(fresh))))
    }
}

impl TraceTarget for Backing {
    fn apply_trace_op(&mut self, op: &TraceOp) -> u64 {
        // Each store's own impl, so durable mutations take the journaled
        // path and digests stay canonical.
        match self {
            Backing::Memory(w) => w.apply_trace_op(op),
            Backing::Durable(dw) => dw.apply_trace_op(op),
        }
    }

    fn replay_metrics(&self) -> Option<&MetricsRegistry> {
        Some(self.warehouse().metrics_registry())
    }
}
