//! The trace generator: [`GenStream`] runs each processor's lane of an
//! [`ExecutionOrder`] and merges the lanes' requests by arrival, one
//! request at a time.
//!
//! **The order.** By definition the trace is every lane of each phase run
//! to completion, the requests concatenated in processor order and
//! stable-sorted by `arrival_ms` (`total_cmp`): a sort by the key
//! `(arrival, proc, seq)`. The tests check the stream against exactly
//! that reference.
//!
//! **Why a FIFO merge is exact.** A lane emits in non-decreasing arrival
//! order. A request arrives at its `first_ms`, the lane clock when it
//! opened, and clocks never move backwards. Eviction takes the oldest
//! pending request, a phase-end flush sorts by `first_ms`, and a request
//! opened later starts at the clock, which is at least every pending
//! `first_ms`. So a lane's buffer is already in key order, and a running
//! lane's future emissions are at least its watermark
//! `W = min(min pending first_ms, clock)`. A lane done with the phase
//! emits next at the barrier, at no less than the largest clock any lane
//! has reached, and after the last phase it emits nothing. The lane with
//! the least `(head or bound, proc)` holds the merge back; if it has a
//! head, nothing anywhere can precede it, so it is released.
//!
//! **Cost and memory.** Lanes are independent within a phase, so running
//! one ahead changes only buffering. The lane holding the merge back, when
//! it has nothing buffered, is driven for [`RUN_AHEAD`] emissions (or to
//! its phase end) and its watermark recomputed once, not per iteration.
//! Only that lane is driven, so resident memory is
//! O(processors × ([`RUN_AHEAD`] + pending streams + reuse window)).

use crate::{contention_factor, ExecutionOrder, IterCursor, ProcState, TraceGenerator, TraceStats};
use dpm_disksim::{IoRequest, RequestStream};

/// Emissions a lane is run ahead by when it holds the merge back.
const RUN_AHEAD: usize = 256;

/// One processor's lane of the merge.
struct Lane<'g> {
    st: ProcState,
    /// `Some` while the lane still has iterations (or its end-of-phase
    /// flush) in the current phase; `None` once the phase's emissions are
    /// complete.
    cursor: Option<Box<dyn IterCursor + 'g>>,
    /// Cached [`ProcState::watermark_ms`] bits, refreshed whenever the
    /// lane is driven and at each barrier.
    watermark: u64,
    /// This phase's stat deltas, merged at the barrier in processor order.
    delta: TraceStats,
}

/// A [`RequestStream`] that *generates* the trace on demand. Create with
/// [`TraceGenerator::stream`]; feed it to `Simulator::run_stream`, spill
/// it through the codec, or collect it with [`TraceGenerator::generate`].
/// [`stats`](GenStream::stats) is complete after exhaustion. Generation is
/// serial; parallelism lives in the experiment matrix and the simulator.
pub struct GenStream<'g> {
    generator: &'g TraceGenerator<'g>,
    order: &'g dyn ExecutionOrder,
    lanes: Vec<Lane<'g>>,
    phase: usize,
    num_phases: usize,
    /// Largest clock any lane has reached: the next barrier's clock is at
    /// least this.
    max_clock: f64,
    contention: Vec<f64>,
    stats: TraceStats,
    point: Vec<i64>,
    span: Option<dpm_obs::SpanGuard>,
}

impl<'p> TraceGenerator<'p> {
    /// Streams the program's trace in the given order, one request at a
    /// time, in the order described in the [`GenStream`] docs.
    pub fn stream<'g>(&'g self, order: &'g dyn ExecutionOrder) -> GenStream<'g> {
        let mut sp = dpm_obs::span("trace_generate");
        let nprocs = order.num_procs();
        sp.add("procs", u64::from(nprocs));
        sp.add("phases", order.num_phases() as u64);
        let num_disks = self.layout.striping().num_disks();
        let lanes = (0..nprocs)
            .map(|_| Lane {
                st: ProcState::new(&self.options, num_disks),
                cursor: None,
                watermark: 0,
                delta: TraceStats::default(),
            })
            .collect();
        let mut s = GenStream {
            generator: self,
            order,
            lanes,
            phase: 0,
            num_phases: order.num_phases(),
            max_clock: 0.0,
            contention: Vec::new(),
            stats: TraceStats::default(),
            point: Vec::new(),
            span: Some(sp),
        };
        s.open_phase();
        s
    }
}

impl GenStream<'_> {
    /// Generation statistics. Complete once the stream has been
    /// exhausted; partial before that.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Whether every request has been yielded.
    pub fn is_finished(&self) -> bool {
        self.phase >= self.num_phases && self.lanes.iter().all(|l| l.st.requests.is_empty())
    }

    /// Opens the current phase, or closes the generation span once every
    /// phase has run.
    fn open_phase(&mut self) {
        if self.phase >= self.num_phases {
            if let Some(mut sp) = self.span.take() {
                sp.add("requests", self.stats.requests);
                sp.add("cache_hits", self.stats.cache_hits);
                sp.add("element_accesses", self.stats.element_accesses);
            }
            return;
        }
        let masks = self.generator.phase_disk_masks(self.order, self.phase);
        self.contention = (0..self.lanes.len())
            .map(|p| contention_factor(&masks, p))
            .collect();
        for (proc, lane) in self.lanes.iter_mut().enumerate() {
            lane.cursor = Some(self.order.cursor(self.phase, proc as u32));
            lane.watermark = lane.st.watermark_ms().to_bits();
        }
    }

    /// Lower bound (as arrival bits) on the next request lane `lane` can
    /// yield. Arrivals are finite and non-negative, so their IEEE-754 bit
    /// patterns order exactly like `total_cmp`.
    fn bound(&self, lane: &Lane<'_>) -> u64 {
        match lane.st.requests.front() {
            Some(r) => r.arrival_ms.to_bits(),
            None if lane.cursor.is_some() => lane.watermark,
            None if self.phase + 1 < self.num_phases => self.max_clock.to_bits(),
            None => f64::INFINITY.to_bits(),
        }
    }

    /// The lane with the least `(bound, proc)` among those `keep` admits.
    fn least(&self, keep: impl Fn(&Lane<'_>) -> bool) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| keep(l))
            .map(|(q, l)| (self.bound(l), q))
            .min()
            .map(|(_, q)| q)
    }

    /// Runs lane `q` until it has emitted [`RUN_AHEAD`] more requests or
    /// finished the phase (flushing its pending requests).
    fn drive(&mut self, q: usize) {
        let lane = &mut self.lanes[q];
        let contention = self.contention[q];
        let target = lane.st.requests.len() + RUN_AHEAD;
        while let Some(cursor) = lane.cursor.as_mut() {
            if let Some(nest) = cursor.next(&mut self.point) {
                self.generator.execute_iteration(
                    nest,
                    &self.point,
                    q as u32,
                    contention,
                    &mut lane.st,
                    &mut lane.delta,
                );
                if lane.st.requests.len() >= target {
                    break;
                }
            } else {
                self.generator
                    .flush_all(q as u32, contention, &mut lane.st, &mut lane.delta);
                lane.cursor = None;
            }
        }
        lane.watermark = lane.st.watermark_ms().to_bits();
        self.max_clock = self.max_clock.max(lane.st.clock_ms);
    }

    /// All lanes done with the current phase: merge stats in processor
    /// order, synchronize clocks to the laggard, and open the next phase.
    fn barrier(&mut self) {
        for lane in &mut self.lanes {
            self.stats.merge(&lane.delta);
            lane.delta = TraceStats::default();
            lane.st.clock_ms = self.max_clock;
        }
        self.phase += 1;
        self.open_phase();
    }
}

impl RequestStream for GenStream<'_> {
    fn next_request(&mut self) -> Option<IoRequest> {
        loop {
            let m = self.least(|_| true)?;
            if let Some(r) = self.lanes[m].st.requests.pop_front() {
                return Some(r);
            }
            if self.phase >= self.num_phases {
                // Every bound is infinite, so the least lane holding
                // nothing means every lane holds nothing.
                return None;
            }
            // Lane m holds the merge back with nothing buffered: run it
            // ahead, or, once it has finished the phase, the least lane
            // still running; when none is, the phase is over.
            let next = if self.lanes[m].cursor.is_some() {
                Some(m)
            } else {
                self.least(|l| l.cursor.is_some())
            };
            match next {
                Some(q) => self.drive(q),
                None => self.barrier(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::tests::VecOrder;
    use crate::{contention_factor, OriginalOrder, SetOrder, TraceGenOptions};
    use dpm_ir::Program;
    use dpm_layout::{LayoutMap, Striping};
    use dpm_obs::XorShift64Star;

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    /// The definition of the trace order: every lane of each phase run to
    /// completion, barriers between phases, then a stable sort by arrival
    /// over the requests concatenated in processor order.
    fn reference(
        generator: &TraceGenerator<'_>,
        order: &dyn ExecutionOrder,
    ) -> (Vec<IoRequest>, TraceStats) {
        let num_disks = generator.layout.striping().num_disks();
        let mut states: Vec<ProcState> = (0..order.num_procs())
            .map(|_| ProcState::new(&generator.options, num_disks))
            .collect();
        let mut stats = TraceStats::default();
        let mut point = Vec::new();
        for phase in 0..order.num_phases() {
            let masks = generator.phase_disk_masks(order, phase);
            for (proc, st) in states.iter_mut().enumerate() {
                let contention = contention_factor(&masks, proc);
                let mut delta = TraceStats::default();
                let mut cursor = order.cursor(phase, proc as u32);
                while let Some(nest) = cursor.next(&mut point) {
                    generator.execute_iteration(
                        nest,
                        &point,
                        proc as u32,
                        contention,
                        st,
                        &mut delta,
                    );
                }
                generator.flush_all(proc as u32, contention, st, &mut delta);
                stats.merge(&delta);
            }
            let clock = states.iter().map(|s| s.clock_ms).fold(0.0_f64, f64::max);
            for st in &mut states {
                st.clock_ms = clock;
            }
        }
        let mut all: Vec<IoRequest> = states.into_iter().flat_map(|s| s.requests).collect();
        all.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
        (all, stats)
    }

    /// Streams `order` and asserts it equals the reference request for
    /// request with identical stats, and that `generate` collects the same
    /// sequence. `Debug` renders floats injectively (shortest round-trip,
    /// sign included), so equal renderings mean equal bit patterns.
    fn assert_matches_reference(generator: &TraceGenerator<'_>, order: &dyn ExecutionOrder) {
        let (want, want_stats) = reference(generator, order);
        let mut stream = generator.stream(order);
        let got: Vec<IoRequest> = std::iter::from_fn(|| stream.next_request()).collect();
        assert!(stream.is_finished());
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "request {i}");
        }
        let want_stats = format!("{want_stats:?}");
        assert_eq!(format!("{:?}", stream.stats()), want_stats);
        let (trace, stats) = generator.generate(order);
        assert_eq!(trace.requests(), &got[..]);
        assert_eq!(format!("{stats:?}"), want_stats);
    }

    #[test]
    fn original_order_matches_reference() {
        let p = program(
            "program t; array A[256][128] : f64;
             nest L { for i = 0 .. 255 { for j = 0 .. 127 { A[i][j] = A[i][j] + 1 @ 750; } } }",
        );
        let layout = LayoutMap::new(&p, Striping::new(4096, 4, 0));
        let generator = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        assert_matches_reference(&generator, &OriginalOrder::new(&p));
    }

    #[test]
    fn set_order_matches_reference() {
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
        let generator = TraceGenerator::new(&p, &layout, TraceGenOptions::default());
        assert_matches_reference(&generator, &order);
    }

    /// A program with two nests plus a depth-0 nest (one iteration, no
    /// loops) appended by hand, since the parser requires a loop.
    fn random_program(rng: &mut XorShift64Star) -> Program {
        let cost = [0, 1, 750][rng.range_i64(0, 2) as usize];
        let mut p = program(&format!(
            "program t; array A[64][16] : f64; array B[256] : f64;
             nest L1 {{ for i = 0 .. 63 {{ for j = 0 .. 15 {{ A[i][j] = A[i][j] + B[4*i] @ {cost}; }} }} }}
             nest L2 {{ for i = 0 .. 15 {{ for k = 0 .. 63 {{ B[4*i] = A[k][i] @ {cost}; }} }} }}"
        ));
        let mut z = p.nests[0].clone();
        z.name = "Z".into();
        z.loops.clear();
        for stmt in &mut z.body {
            for r in &mut stmt.refs {
                for e in &mut r.indices {
                    *e = dpm_poly::LinExpr::constant(0, rng.range_i64(0, 15));
                }
            }
        }
        p.add_nest(z);
        p
    }

    /// Deals every iteration of `p` (several times over, in program order)
    /// to random lanes; some lanes, phases and whole orders stay empty.
    fn random_order(rng: &mut XorShift64Star, p: &Program) -> VecOrder {
        let procs = rng.range_i64(1, 4) as u32;
        let phases = rng.range_i64(0, 3) as usize;
        let mut order = VecOrder::new(procs, phases);
        if phases == 0 {
            return order;
        }
        let idle_phase = rng.range_i64(0, phases as i64 - 1) as usize;
        let idle_proc = rng.range_i64(0, i64::from(procs) - 1) as usize;
        let empty_middle_phase = phases == 3 && rng.range_i64(0, 1) == 1;
        for _ in 0..rng.range_i64(1, 2) {
            for (ni, nest) in p.nests.iter().enumerate() {
                crate::walk_nest(nest, &mut |pt| {
                    let phase = rng.range_i64(0, phases as i64 - 1) as usize;
                    let proc = rng.range_i64(0, i64::from(procs) - 1) as usize;
                    let idle = (phase == idle_phase && proc == idle_proc)
                        || (empty_middle_phase && phase == 1);
                    if !idle && rng.range_i64(0, 9) > 0 {
                        order.lanes[phase][proc].push((ni, pt.to_vec()));
                    }
                });
            }
        }
        order
    }

    /// Seeded random multi-processor, multi-phase orders, including empty
    /// lanes, empty phases, zero phases, a depth-0 nest and zero-cost
    /// statements (arrival ties across lanes): the stream must equal the
    /// reference request for request and stats bit for bit.
    #[test]
    fn random_orders_match_reference() {
        let mut rng = XorShift64Star::new(0x0bde_2006);
        for _ in 0..60 {
            let p = random_program(&mut rng);
            let order = random_order(&mut rng, &p);
            let opts = TraceGenOptions {
                block_bytes: [512, 4096][rng.range_i64(0, 1) as usize],
                max_request_bytes: [8192, 1024 * 1024][rng.range_i64(0, 1) as usize],
                reuse_window_blocks: rng.range_i64(0, 16) as usize,
                streams: rng.range_i64(1, 8) as usize,
                block_on_io: rng.range_i64(0, 1) == 1,
                ..TraceGenOptions::default()
            };
            let stripe = [512, 2048][rng.range_i64(0, 1) as usize];
            let disks = rng.range_i64(1, 6) as usize;
            let layout = LayoutMap::new(&p, Striping::new(stripe, disks, 0));
            let generator = TraceGenerator::new(&p, &layout, opts);
            assert_matches_reference(&generator, &order);
        }
    }
}
