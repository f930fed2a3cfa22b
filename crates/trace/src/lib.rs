//! # dpm-trace — compiler-side I/O trace generation
//!
//! Executes a loop-nest `Program` (in original or
//! compiler-restructured order, on one or several processors) and produces
//! the disk I/O request trace that the paper's simulator consumes (§7.1).
//!
//! The model:
//!
//! * each processor has a virtual clock advanced by per-statement compute
//!   cycles (the stand-in for the paper's measured UltraSPARC-III cycle
//!   estimates) and by the nominal service time of the I/O it issues
//!   (applications block on disk I/O — the paper's codes spend 75–82 % of
//!   their time in it);
//! * a per-processor window of recently touched stripes models the on-disk
//!   cache / OS page cache, so re-touching a just-used block issues no new
//!   request;
//! * consecutive accesses to adjacent volume bytes coalesce into larger
//!   requests (up to a cap), the way readahead/collective I/O batches
//!   requests in a real system.
//!
//! There is one generator: [`TraceGenerator::stream`] yields the trace
//! lazily as a [`GenStream`], merging the processors' requests by arrival,
//! and [`TraceGenerator::generate`] collects that stream into a [`Trace`].
//! Orders reach it through [`ExecutionOrder`] cursors.
//!
//! ```
//! use dpm_trace::{TraceGenerator, TraceGenOptions, OriginalOrder};
//! use dpm_layout::{LayoutMap, Striping};
//!
//! let p = dpm_ir::parse_program(
//!     "program t; array A[512][64] : f64;
//!      nest L { for i = 0 .. 511 { for j = 0 .. 63 { A[i][j] = A[i][j] + 1; } } }",
//! ).unwrap();
//! let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
//! let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
//! let (trace, stats) = gen.generate(&OriginalOrder::new(&p));
//! assert!(trace.len() > 0);
//! assert_eq!(stats.element_accesses, 2 * 512 * 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpm_disksim::{DiskParams, IoRequest, RequestKind, Trace};
use dpm_ir::{AccessKind, NestId, Program};
use dpm_layout::LayoutMap;
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

mod codec;
mod order;
mod stream;

pub use codec::{TraceReader, TraceWriter, TRACE_MAGIC};
pub use dpm_disksim::RequestStream;
pub use order::{walk_nest, ExecutionOrder, IterCursor, NestCursor, OriginalOrder, SetOrder};
pub use stream::GenStream;

/// Options controlling trace generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceGenOptions {
    /// Processor clock rate; default 750 MHz (the paper's SUN Blade1000,
    /// UltraSPARC-III, §7.1).
    pub cpu_hz: f64,
    /// Page-block size: disk-resident data is accessed in whole blocks of
    /// this many bytes (§7.1, "page block granularity").
    pub block_bytes: u64,
    /// Maximum size of one coalesced request.
    pub max_request_bytes: u64,
    /// Per-processor count of recently-touched blocks that hit in cache.
    pub reuse_window_blocks: usize,
    /// Concurrent request-assembly streams per processor (a loop body that
    /// walks several arrays at once keeps one readahead stream per array,
    /// as an OS per-file readahead would).
    pub streams: usize,
    /// Whether processors block for the nominal service time of each
    /// request they issue (keeps the compute/I/O balance realistic).
    pub block_on_io: bool,
}

impl Default for TraceGenOptions {
    fn default() -> Self {
        TraceGenOptions {
            cpu_hz: 750.0e6,
            block_bytes: 4096,
            max_request_bytes: 1024 * 1024,
            reuse_window_blocks: 128,
            streams: 8,
            block_on_io: true,
        }
    }
}

/// Summary statistics of a generated trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Array-element accesses executed.
    pub element_accesses: u64,
    /// Accesses absorbed by the reuse window (no request issued).
    pub cache_hits: u64,
    /// I/O requests emitted.
    pub requests: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Pure compute time accumulated over all processors (ms).
    pub compute_ms: f64,
    /// Nominal I/O blocking time accumulated over all processors (ms).
    pub io_block_ms: f64,
}

impl TraceStats {
    /// Fraction of virtual execution time spent blocked on I/O.
    pub fn io_fraction(&self) -> f64 {
        let total = self.compute_ms + self.io_block_ms;
        if total == 0.0 {
            0.0
        } else {
            self.io_block_ms / total
        }
    }

    /// Folds one processor's per-phase deltas into this total. The
    /// generator merges the deltas at each barrier in processor order, so
    /// the float association (and hence the result) is fixed by the order
    /// alone.
    fn merge(&mut self, other: &TraceStats) {
        self.element_accesses += other.element_accesses;
        self.cache_hits += other.cache_hits;
        self.requests += other.requests;
        self.bytes += other.bytes;
        self.compute_ms += other.compute_ms;
        self.io_block_ms += other.io_block_ms;
    }
}

/// A request under assembly in one readahead stream.
#[derive(Clone, Copy, Debug)]
struct Pending {
    offset: u64,
    len: u64,
    kind: RequestKind,
    first_ms: f64,
}

/// The per-processor reuse window: the last `cap` missed blocks, evicted
/// FIFO. A `VecDeque` keeps the eviction order and a hash set answers
/// membership, probed once per block of every access. The set hashes with
/// [`BlockHasher`], a deterministic multiply-fold of the block id, rather
/// than the default SipHash, and a touch costs one set operation on a hit
/// and two on a miss. Entries are unique — a block is only inserted after
/// a miss — so the FIFO and the set stay in lockstep and the hit/miss
/// sequence is that of a FIFO with a linear `contains`.
struct ReuseWindow {
    fifo: VecDeque<u64>,
    set: HashSet<u64, BuildHasherDefault<BlockHasher>>,
}

impl ReuseWindow {
    fn with_capacity(cap: usize) -> ReuseWindow {
        ReuseWindow {
            fifo: VecDeque::with_capacity(cap),
            set: HashSet::with_capacity_and_hasher(cap + 1, BuildHasherDefault::default()),
        }
    }

    /// Whether `block` is in the window; a missed block is recorded,
    /// evicting the oldest once the window holds `cap` blocks.
    fn hit_or_insert(&mut self, block: u64, cap: usize) -> bool {
        if !self.set.insert(block) {
            return true;
        }
        if self.fifo.len() == cap {
            if let Some(old) = self.fifo.pop_front() {
                self.set.remove(&old);
            }
        }
        self.fifo.push_back(block);
        false
    }
}

/// Hasher for block ids: one 64×64→128-bit multiply by an odd constant,
/// folded to 64 bits, so both the low bits (bucket index) and the high
/// bits (control tag) of the hash depend on every bit of the id. Block ids
/// come from the program's own layout, not from outside input, so the
/// flooding resistance of SipHash buys nothing here.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-processor execution state during generation.
struct ProcState {
    clock_ms: f64,
    /// Requests under assembly, one per active stream.
    pending: Vec<Pending>,
    /// Recently-touched blocks (FIFO eviction).
    recent: ReuseWindow,
    /// Per-disk recent sequential-stream end positions, mirroring the disk
    /// firmware's detector, for the nominal blocking estimate.
    disk_streams: Vec<VecDeque<u64>>,
    /// Scratch for per-disk request splitting in the blocking estimate
    /// (reused across requests to avoid a per-request allocation).
    split_buf: Vec<(usize, u64, u64)>,
    /// Scratch for subscript evaluation (reused across accesses).
    coords_buf: Vec<i64>,
    /// Emitted requests not yet taken by the merge, in emission order
    /// (which is non-decreasing arrival order; see the `stream` module).
    requests: VecDeque<IoRequest>,
}

impl ProcState {
    fn new(options: &TraceGenOptions, num_disks: usize) -> ProcState {
        ProcState {
            clock_ms: 0.0,
            pending: Vec::new(),
            recent: ReuseWindow::with_capacity(options.reuse_window_blocks),
            disk_streams: vec![VecDeque::new(); num_disks],
            split_buf: Vec::new(),
            coords_buf: Vec::new(),
            requests: VecDeque::new(),
        }
    }

    /// Lower bound on the arrival of this processor's next emission: a
    /// pending request emits at its `first_ms`, and a request opened later
    /// starts at the clock, which never moves backwards.
    fn watermark_ms(&self) -> f64 {
        self.pending
            .iter()
            .fold(self.clock_ms, |w, p| w.min(p.first_ms))
    }
}

/// Generates traces for a program under a given layout.
#[derive(Debug)]
pub struct TraceGenerator<'p> {
    program: &'p Program,
    layout: &'p LayoutMap,
    options: TraceGenOptions,
    params: DiskParams,
}

impl<'p> TraceGenerator<'p> {
    /// Creates a generator.
    pub fn new(program: &'p Program, layout: &'p LayoutMap, options: TraceGenOptions) -> Self {
        TraceGenerator {
            program,
            layout,
            options,
            params: DiskParams::default(),
        }
    }

    /// Uses non-default disk parameters for the nominal-service estimate.
    #[must_use]
    pub fn with_disk_params(mut self, params: DiskParams) -> Self {
        self.params = params;
        self
    }

    /// Runs the program in the given order, returning the whole trace and
    /// the generation statistics: [`stream`](Self::stream) collected into a
    /// [`Trace`]. Phase boundaries act as barriers: every processor's
    /// clock advances to the slowest one's before the next phase starts,
    /// and pending requests are flushed.
    pub fn generate(&self, order: &dyn ExecutionOrder) -> (Trace, TraceStats) {
        let _prof = dpm_prof::scope("trace_gen");
        let mut stream = self.stream(order);
        let requests = std::iter::from_fn(|| stream.next_request()).collect();
        (Trace::from_requests(requests), stream.stats())
    }

    /// Disk footprint (bitmask) of each processor within one phase, for
    /// the device-sharing estimate: a processor's I/O blocking scales with
    /// the number of processors whose disk footprints overlap its own (a
    /// disk time-shares its bandwidth among the processors driving it). A
    /// layout-aware partition with disjoint per-processor disk groups
    /// therefore pays no contention, while a naive parallelization in
    /// which every processor sweeps every disk pays the full factor.
    fn phase_disk_masks(&self, order: &dyn ExecutionOrder, phase: usize) -> Vec<u64> {
        let nprocs = order.num_procs();
        if nprocs == 1 {
            return vec![0u64];
        }
        let mut point = Vec::new();
        let mut coords = Vec::new();
        (0..nprocs)
            .map(|proc| {
                let mut mask = 0u64;
                let mut cursor = order.cursor(phase, proc);
                while let Some(nest) = cursor.next(&mut point) {
                    for stmt in &self.program.nests[nest].body {
                        for r in &stmt.refs {
                            r.element_at_into(&point, &mut coords);
                            let d = self.layout.disk_of_element(self.program, r.array, &coords);
                            mask |= 1 << (d as u64 % 64);
                        }
                    }
                }
                mask
            })
            .collect()
    }

    fn execute_iteration(
        &self,
        nest: NestId,
        iter: &[i64],
        proc: u32,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        let n = &self.program.nests[nest];
        let mut coords = std::mem::take(&mut st.coords_buf);
        for stmt in &n.body {
            for r in &stmt.refs {
                stats.element_accesses += 1;
                r.element_at_into(iter, &mut coords);
                let offset = self.layout.element_offset(self.program, r.array, &coords);
                let len = u64::from(self.program.arrays[r.array].elem_bytes);
                let kind = match r.kind {
                    AccessKind::Read => RequestKind::Read,
                    AccessKind::Write => RequestKind::Write,
                };
                self.access(proc, offset, len, kind, contention, st, stats);
            }
            let ms = self.cycles_ms(stmt.cost_cycles);
            stats.compute_ms += ms;
            st.clock_ms += ms;
        }
        st.coords_buf = coords;
    }

    fn cycles_ms(&self, cycles: u64) -> f64 {
        (cycles as f64) / self.options.cpu_hz * 1000.0
    }

    /// One element access: disk data moves in whole page blocks, so the
    /// access touches every block overlapping `[offset, offset+len)`. A
    /// block in the reuse window (or already covered by the pending
    /// request) costs nothing; a missing block is fetched whole, coalescing
    /// with the pending request when adjacent.
    #[allow(clippy::too_many_arguments)] // hot path; grouping would box per-access state
    fn access(
        &self,
        proc: u32,
        offset: u64,
        len: u64,
        kind: RequestKind,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        let bs = self.options.block_bytes;
        let first_block = offset / bs;
        let last_block = (offset + len - 1) / bs;
        let mut any_miss = false;
        for b in first_block..=last_block {
            let bo = b * bs;
            // The block at the tail of some stream's pending request is
            // still "in hand" (write-then-read of the same element is
            // free); older coverage must come from the reuse window, so a
            // large pending request does not double as an unbounded cache.
            if st
                .pending
                .iter()
                .any(|p| p.len >= bs && bo == p.offset + p.len - bs)
            {
                continue;
            }
            // In the reuse window?
            if self.options.reuse_window_blocks > 0
                && st.recent.hit_or_insert(b, self.options.reuse_window_blocks)
            {
                continue;
            }
            any_miss = true;
            // Extend a stream whose pending request ends exactly here.
            if let Some(p) = st.pending.iter_mut().find(|p| {
                p.kind == kind
                    && p.offset + p.len == bo
                    && p.len + bs <= self.options.max_request_bytes
            }) {
                p.len += bs;
                continue;
            }
            // Open a new stream, evicting the oldest when full.
            if st.pending.len() >= self.options.streams.max(1) {
                let oldest = st
                    .pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.first_ms.total_cmp(&b.first_ms))
                    .map(|(i, _)| i)
                    .expect("pending is non-empty: len >= streams.max(1) >= 1");
                let p = st.pending.swap_remove(oldest);
                self.emit(proc, p, contention, st, stats);
            }
            st.pending.push(Pending {
                offset: bo,
                len: bs,
                kind,
                first_ms: st.clock_ms,
            });
        }
        if !any_miss {
            stats.cache_hits += 1;
            // Per-element events are voluminous; they are only emitted in
            // verbose mode, and otherwise summarized by the
            // `trace_generate` span's cache_hits counter.
            if dpm_obs::verbose() {
                dpm_obs::emit(
                    dpm_obs::kind::CACHE_HIT,
                    "reuse_window",
                    &[("proc", proc.into()), ("block", first_block.into())],
                );
            }
        }
    }

    /// Flushes every stream (phase boundary / end of run), oldest first.
    fn flush_all(&self, proc: u32, contention: f64, st: &mut ProcState, stats: &mut TraceStats) {
        let mut drained: Vec<Pending> = st.pending.drain(..).collect();
        drained.sort_by(|a, b| a.first_ms.total_cmp(&b.first_ms));
        for p in drained {
            self.emit(proc, p, contention, st, stats);
        }
    }

    fn emit(
        &self,
        proc: u32,
        p: Pending,
        contention: f64,
        st: &mut ProcState,
        stats: &mut TraceStats,
    ) {
        if dpm_obs::enabled() {
            dpm_obs::emit(
                dpm_obs::kind::REQUEST,
                "io_request",
                &[
                    ("proc", proc.into()),
                    ("at_ms", p.first_ms.into()),
                    ("offset", p.offset.into()),
                    ("len", p.len.into()),
                    (
                        "op",
                        match p.kind {
                            RequestKind::Read => "read",
                            RequestKind::Write => "write",
                        }
                        .into(),
                    ),
                ],
            );
        }
        st.requests.push_back(IoRequest {
            arrival_ms: p.first_ms,
            offset: p.offset,
            len: p.len,
            kind: p.kind,
            proc_id: proc,
        });
        stats.requests += 1;
        stats.bytes += p.len;
        if self.options.block_on_io {
            // Blocking estimate: the request's per-disk pieces are serviced
            // in parallel, so the processor waits for the slowest piece;
            // positioning is charged only when a piece does not continue a
            // sequential stream on its disk. A device-sharing factor
            // models p processors hammering the same disks.
            let mut worst = 0.0_f64;
            let mut pieces = std::mem::take(&mut st.split_buf);
            self.layout
                .striping()
                .split_range_into(p.offset, p.len, &mut pieces);
            for &(disk, local_byte, len) in &pieces {
                let streams = &mut st.disk_streams[disk];
                let sequential = if let Some(slot) = streams.iter_mut().find(|e| **e == local_byte)
                {
                    *slot = local_byte + len;
                    true
                } else {
                    if streams.len() == 32 {
                        streams.pop_front();
                    }
                    streams.push_back(local_byte + len);
                    false
                };
                let svc = self.params.service_ms(len, self.params.max_rpm, sequential);
                worst = worst.max(svc);
            }
            st.split_buf = pieces;
            let block = worst * contention;
            st.clock_ms += block;
            stats.io_block_ms += block;
        }
    }
}

/// Device-sharing factor for `proc`: the largest number of processors
/// (including `proc`) that drive some disk in `proc`'s phase footprint.
fn contention_factor(masks: &[u64], proc: usize) -> f64 {
    let mine = masks[proc];
    if mine == 0 || masks.len() == 1 {
        return 1.0;
    }
    let mut worst = 1u32;
    for d in 0..64u64 {
        let bit = 1u64 << d;
        if mine & bit == 0 {
            continue;
        }
        let sharers = masks.iter().filter(|m| *m & bit != 0).count() as u32;
        worst = worst.max(sharers);
    }
    f64::from(worst)
}

/// Number of times consecutive requests in the trace land on different
/// disks — a simple clustering (disk-reuse) metric: lower is better.
pub fn disk_switch_count(trace: &Trace, striping: &dpm_layout::Striping) -> u64 {
    let mut switches = 0;
    let mut last: Option<usize> = None;
    for r in trace.requests() {
        let d = striping.disk_of_offset(r.offset);
        if let Some(prev) = last {
            if prev != d {
                switches += 1;
            }
        }
        last = Some(d);
    }
    switches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::tests::VecOrder;
    use dpm_layout::Striping;

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    fn sequential_program() -> Program {
        program(
            "program t; array A[256][128] : f64;
             nest L { for i = 0 .. 255 { for j = 0 .. 127 { A[i][j] = A[i][j] + 1 @ 750; } } }",
        )
    }

    #[test]
    fn sequential_sweep_coalesces() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = gen.generate(&OriginalOrder::new(&p));
        // 256*128 elements * 8 B = 256 KiB of data; block-granularity
        // fetches coalesce into a handful of large requests.
        assert!(trace.len() < 8, "{} requests", trace.len());
        assert_eq!(stats.bytes, 256 * 128 * 8);
        // Writes after reads of the same stripe hit the reuse window.
        assert!(stats.cache_hits > 0);
    }

    /// A `SetOrder` whose single set is exactly the nest's iteration space
    /// must generate the same trace, byte for byte, as `OriginalOrder` —
    /// the polyhedral route into the generator changes nothing.
    #[test]
    fn set_order_over_full_space_matches_original_order() {
        let p = program(
            "program t; array A[64][8] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 7 { A[i][j] = A[i][j] + 1; } } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let space = dpm_poly::Polyhedron::universe(2)
            .with_range(0, 0, 63)
            .with_range(1, 0, 7);
        let mut order = SetOrder::new(0);
        order.push(0, dpm_poly::Set::from(space));
        assert_eq!(order.len(), 1);
        assert!(!order.is_empty());
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, stats) = gen.generate(&order);
        let (base_trace, base_stats) = gen.generate(&OriginalOrder::new(&p));
        assert_eq!(trace.requests(), base_trace.requests());
        assert_eq!(stats, base_stats);
    }

    #[test]
    fn arrivals_are_monotone_per_processor() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
        let mut last = f64::NEG_INFINITY;
        for r in trace.requests() {
            assert!(r.arrival_ms >= last);
            last = r.arrival_ms;
        }
    }

    #[test]
    fn io_fraction_reported() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, stats) = gen.generate(&OriginalOrder::new(&p));
        let f = stats.io_fraction();
        assert!(f > 0.05 && f < 0.98, "io fraction {f}");
    }

    #[test]
    fn cache_window_absorbs_rereads() {
        let p = program(
            "program t; array A[64] : f64;
             nest L1 { for i = 0 .. 63 { A[i] = A[i] + A[i] + A[i]; } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(512, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let (_, stats) = gen.generate(&OriginalOrder::new(&p));
        assert_eq!(stats.element_accesses, 4 * 64);
        assert!(stats.cache_hits >= 3 * 64 - 8, "hits {}", stats.cache_hits);
    }

    #[test]
    fn zero_reuse_window_disables_cache() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            reuse_window_blocks: 0,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
        // Without the reuse window every block fetch is visible, but the
        // pending-request coverage check still absorbs same-block rereads,
        // so the trace stays finite and block-aligned.
        assert!(trace.requests().iter().all(|r| r.len % 4096 == 0));
    }

    #[test]
    fn max_request_size_caps_coalescing() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            max_request_bytes: 8192,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        let (trace, _) = gen.generate(&OriginalOrder::new(&p));
        assert!(trace.requests().iter().all(|r| r.len <= 8192));
        assert!(!trace.is_empty());
    }

    #[test]
    fn transposed_access_refetches_blocks() {
        // A column-major traversal of a row-major array revisits every
        // block once per column; with a small reuse window it re-fetches
        // the whole array over and over, while the row sweep reads each
        // block exactly once.
        let row = program(
            "program t; array A[64][64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[i][j] = 1; } } }",
        );
        let col = program(
            "program t; array A[64][64] : f64;
             nest L { for i = 0 .. 63 { for j = 0 .. 63 { A[j][i] = 1; } } }",
        );
        let striping = Striping::new(512, 4, 0);
        let opts = TraceGenOptions {
            block_bytes: 512,
            reuse_window_blocks: 4,
            ..TraceGenOptions::default()
        };
        let lr = LayoutMap::new(&row, striping);
        let lc = LayoutMap::new(&col, striping);
        let (tr, sr) = TraceGenerator::new(&row, &lr, opts).generate(&OriginalOrder::new(&row));
        let (tc, sc) = TraceGenerator::new(&col, &lc, opts).generate(&OriginalOrder::new(&col));
        assert!(
            sc.bytes > 16 * sr.bytes,
            "row {} col {} bytes",
            sr.bytes,
            sc.bytes
        );
        assert!(
            tc.len() >= tr.len(),
            "row {} col {} reqs",
            tr.len(),
            tc.len()
        );
    }

    #[test]
    fn phase_barriers_synchronize_clocks() {
        // Two phases; proc 1 does nothing in phase 0. Its phase-1 requests
        // must still start no earlier than proc 0's phase-0 finish.
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let opts = TraceGenOptions {
            reuse_window_blocks: 0,
            ..TraceGenOptions::default()
        };
        let gen = TraceGenerator::new(&p, &layout, opts);
        // Phase 0: proc 0 runs the whole nest; phase 1: proc 1 does.
        let mut order = VecOrder::split(&p, 2, 2, |_| (0, 0));
        order.lanes[1][1] = order.lanes[0][0].clone();
        let (trace, _) = gen.generate(&order);
        let p0_last = trace
            .requests()
            .iter()
            .filter(|r| r.proc_id == 0)
            .map(|r| r.arrival_ms)
            .fold(0.0, f64::max);
        let p1_first = trace
            .requests()
            .iter()
            .filter(|r| r.proc_id == 1)
            .map(|r| r.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        assert!(
            p1_first >= p0_last,
            "phase barrier violated: proc1 at {p1_first} before proc0 done at {p0_last}"
        );
    }

    #[test]
    fn contention_scales_blocking_for_overlapping_footprints() {
        // Two procs sweeping the SAME data: each must be paced ~2x slower
        // than a single proc doing half the work.
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        let shared = |n: u32| VecOrder::split(&p, n, 1, |pt| (0, pt[1] as u32 % n));
        let (_, one) = gen.generate(&shared(1));
        let (_, two) = gen.generate(&shared(2));
        // Same bytes moved, but the two-proc run blocks ~2x per request.
        let per_req_1 = one.io_block_ms / one.requests.max(1) as f64;
        let per_req_2 = two.io_block_ms / two.requests.max(1) as f64;
        assert!(
            per_req_2 > 1.5 * per_req_1,
            "contention not applied: {per_req_2} vs {per_req_1}"
        );
    }

    #[test]
    fn multi_proc_order_merges_by_time() {
        let p = sequential_program();
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let gen = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        // Processor p executes the half of nest 0 with i % 2 == p.
        let (trace, _) = gen.generate(&VecOrder::split(&p, 2, 1, |pt| (0, pt[0] as u32 % 2)));
        let procs: std::collections::HashSet<u32> =
            trace.requests().iter().map(|r| r.proc_id).collect();
        assert_eq!(procs.len(), 2);
        // Sorted by arrival despite two independent streams.
        let mut last = f64::NEG_INFINITY;
        for r in trace.requests() {
            assert!(r.arrival_ms >= last);
            last = r.arrival_ms;
        }
    }

    /// The window's hit/miss sequence equals that of a plain FIFO with a
    /// linear `contains`, at small and default capacities, on seeded block
    /// streams with repeats and working sets just under, at and over the
    /// capacity.
    #[test]
    fn reuse_window_matches_linear_fifo() {
        let mut rng = dpm_obs::XorShift64Star::new(0xb10c4);
        for cap in [1usize, 2, 16, 128] {
            for working_set in [cap.saturating_sub(1).max(1), cap, cap + 1, 2 * cap + 3] {
                let mut window = ReuseWindow::with_capacity(cap);
                let mut fifo: VecDeque<u64> = VecDeque::new();
                let base = rng.next_u64() >> 8;
                let mut hits = 0;
                for step in 0..20_000u64 {
                    let block = match rng.range_i64(0, 3) {
                        // Sequential sweep over the working set.
                        0 => base + step % working_set as u64,
                        // Immediate repeat of the newest block.
                        1 => fifo.back().copied().unwrap_or(base),
                        // Random block, far-apart ids included.
                        2 => base + rng.range_i64(0, working_set as i64 - 1) as u64 * 4099,
                        _ => base + rng.range_i64(0, working_set as i64 - 1) as u64,
                    };
                    let want = fifo.contains(&block);
                    if !want {
                        if fifo.len() == cap {
                            fifo.pop_front();
                        }
                        fifo.push_back(block);
                    }
                    assert_eq!(
                        window.hit_or_insert(block, cap),
                        want,
                        "cap {cap}, working set {working_set}, step {step}, block {block}"
                    );
                    hits += usize::from(want);
                }
                assert!(hits > 0, "cap {cap}: the stream never hit");
            }
        }
    }
}
