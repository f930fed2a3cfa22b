//! Execution orders: which iterations run on which processor, in what
//! sequence, handed to the generator as lazy per-`(phase, proc)` cursors.

use dpm_ir::{LoopNest, NestId, Program};

/// A lazy walk over `(nest, iteration)` pairs.
pub trait IterCursor {
    /// Writes the next iteration's coordinates into `point` and returns
    /// its nest, or `None` when the walk is exhausted.
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId>;
}

/// An execution order: which iterations run on which processor, in what
/// sequence. Implemented by the original program order here and by the
/// restructurer's schedules in `dpm-core`.
///
/// Execution proceeds in *phases* separated by barriers: within a phase
/// each processor runs its iteration stream independently; at a phase
/// boundary all processors synchronize (their virtual clocks advance to
/// the laggard's). Single-processor orders normally use one phase;
/// multi-processor parallelizations use one phase per loop nest.
pub trait ExecutionOrder {
    /// Number of processors.
    fn num_procs(&self) -> u32;
    /// Number of barrier-separated phases (default 1).
    fn num_phases(&self) -> usize {
        1
    }
    /// A cursor over processor `proc`'s iterations within `phase`, in
    /// execution order. Every call starts a fresh walk.
    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_>;
}

/// The untransformed order: one processor, nests in program order,
/// iterations lexicographic.
#[derive(Debug)]
pub struct OriginalOrder<'p> {
    program: &'p Program,
}

impl<'p> OriginalOrder<'p> {
    /// Wraps a program.
    pub fn new(program: &'p Program) -> Self {
        OriginalOrder { program }
    }
}

impl ExecutionOrder for OriginalOrder<'_> {
    fn num_procs(&self) -> u32 {
        1
    }

    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_> {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        Box::new(OriginalCursor {
            program: self.program,
            nest: 0,
            cur: None,
        })
    }
}

/// Cursor over a whole program: nests in program order, iterations
/// lexicographic.
struct OriginalCursor<'a> {
    program: &'a Program,
    nest: usize,
    cur: Option<NestCursor<'a>>,
}

impl IterCursor for OriginalCursor<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        loop {
            let nest = self.program.nests.get(self.nest)?;
            let cur = self.cur.get_or_insert_with(|| NestCursor::new(nest));
            if let Some(pt) = cur.next_point() {
                point.clear();
                point.extend_from_slice(pt);
                return Some(self.nest);
            }
            self.cur = None;
            self.nest += 1;
        }
    }
}

/// An [`ExecutionOrder`] over explicit polyhedral iteration sets — the
/// trace-generation consumer for per-disk affinity footprints such as
/// `dpm_core::disk_iteration_sets`. Pieces are visited in insertion order
/// (push them disk-major for the perfect-reuse order); each piece's points
/// are streamed lazily through [`dpm_poly::Set::cursor`] in lexicographic
/// order, with `skip` leading auxiliary variables (e.g. the stripe-row
/// counter `t` of the symbolic restructurer) stripped before the iteration
/// reaches the generator.
#[derive(Debug, Default)]
pub struct SetOrder {
    pieces: Vec<(NestId, dpm_poly::Set)>,
    skip: usize,
}

impl SetOrder {
    /// An empty order whose sets carry `skip` leading auxiliary variables.
    pub fn new(skip: usize) -> Self {
        SetOrder {
            pieces: Vec::new(),
            skip,
        }
    }

    /// Appends a piece: all points of `set` (sorted lexicographically)
    /// attributed to `nest`.
    pub fn push(&mut self, nest: NestId, set: dpm_poly::Set) {
        assert!(
            set.dim() > self.skip || (set.dim() == 0 && self.skip == 0),
            "set dimension {} leaves no iteration variables after skipping {}",
            set.dim(),
            self.skip
        );
        self.pieces.push((nest, set));
    }

    /// Number of pieces pushed so far.
    pub fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether no pieces have been pushed.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }
}

impl ExecutionOrder for SetOrder {
    fn num_procs(&self) -> u32 {
        1
    }

    fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_> {
        debug_assert_eq!(phase, 0);
        debug_assert_eq!(proc, 0);
        Box::new(SetOrderCursor {
            order: self,
            piece: 0,
            cur: None,
        })
    }
}

/// Cursor over a [`SetOrder`]: pieces in insertion order, the auxiliary
/// `skip` prefix stripped.
struct SetOrderCursor<'a> {
    order: &'a SetOrder,
    piece: usize,
    cur: Option<dpm_poly::SetCursor<'a>>,
}

impl IterCursor for SetOrderCursor<'_> {
    fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
        loop {
            let (nest, set) = self.order.pieces.get(self.piece)?;
            let cur = self.cur.get_or_insert_with(|| set.cursor());
            if let Some(pt) = cur.next_point() {
                point.clear();
                point.extend_from_slice(&pt[self.order.skip..]);
                return Some(*nest);
            }
            self.cur = None;
            self.piece += 1;
        }
    }
}

/// Enumerates a nest's iterations lexicographically without materializing
/// them.
pub fn walk_nest(nest: &LoopNest, f: &mut dyn FnMut(&[i64])) {
    let mut cur = NestCursor::new(nest);
    while let Some(pt) = cur.next_point() {
        f(pt);
    }
}

/// Lexicographic odometer over one loop nest, handling dynamic
/// (prefix-dependent) bounds and empty ranges at any level.
pub struct NestCursor<'a> {
    nest: &'a LoopNest,
    point: Vec<i64>,
    his: Vec<i64>,
    started: bool,
    done: bool,
}

impl<'a> NestCursor<'a> {
    /// A cursor positioned before the nest's first iteration.
    pub fn new(nest: &'a LoopNest) -> NestCursor<'a> {
        let d = nest.depth();
        NestCursor {
            nest,
            point: vec![0; d],
            his: vec![0; d],
            started: false,
            done: false,
        }
    }

    /// The next iteration point in lexicographic order.
    pub fn next_point(&mut self) -> Option<&[i64]> {
        if self.done {
            return None;
        }
        let dim = self.nest.depth();
        if dim == 0 {
            // A depth-0 nest has exactly one (empty) iteration.
            if self.started {
                self.done = true;
                return None;
            }
            self.started = true;
            return Some(&self.point);
        }
        let (mut level, mut entering) = if self.started {
            (dim - 1, false)
        } else {
            self.started = true;
            (0, true)
        };
        loop {
            if entering {
                let lo = self.nest.loops[level].lo.eval_prefix(&self.point[..level]);
                let hi = self.nest.loops[level].hi.eval_prefix(&self.point[..level]);
                if lo > hi {
                    if level == 0 {
                        self.done = true;
                        return None;
                    }
                    level -= 1;
                    entering = false;
                    continue;
                }
                self.point[level] = lo;
                self.his[level] = hi;
            } else {
                if self.point[level] >= self.his[level] {
                    if level == 0 {
                        self.done = true;
                        return None;
                    }
                    level -= 1;
                    continue;
                }
                self.point[level] += 1;
            }
            if level + 1 == dim {
                return Some(&self.point);
            }
            level += 1;
            entering = true;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One lane's explicit iteration list.
    type IterList = Vec<(NestId, Vec<i64>)>;

    /// Test-only order with explicit per-`(phase, proc)` iteration lists.
    pub(crate) struct VecOrder {
        /// `lanes[phase][proc]` is that lane's iteration list.
        pub(crate) lanes: Vec<Vec<IterList>>,
        procs: u32,
    }

    impl VecOrder {
        /// An order with every lane empty.
        pub(crate) fn new(procs: u32, phases: usize) -> VecOrder {
            VecOrder {
                lanes: vec![vec![Vec::new(); procs as usize]; phases],
                procs,
            }
        }

        /// Splits nest 0 of `program` over lanes: `place` maps each
        /// iteration to its `(phase, proc)`.
        pub(crate) fn split(
            program: &Program,
            procs: u32,
            phases: usize,
            place: impl Fn(&[i64]) -> (usize, u32),
        ) -> VecOrder {
            let mut order = VecOrder::new(procs, phases);
            walk_nest(&program.nests[0], &mut |pt| {
                let (phase, proc) = place(pt);
                order.lanes[phase][proc as usize].push((0, pt.to_vec()));
            });
            order
        }
    }

    impl ExecutionOrder for VecOrder {
        fn num_procs(&self) -> u32 {
            self.procs
        }

        fn num_phases(&self) -> usize {
            self.lanes.len()
        }

        fn cursor(&self, phase: usize, proc: u32) -> Box<dyn IterCursor + '_> {
            Box::new(VecCursor(self.lanes[phase][proc as usize].iter()))
        }
    }

    struct VecCursor<'a>(std::slice::Iter<'a, (NestId, Vec<i64>)>);

    impl IterCursor for VecCursor<'_> {
        fn next(&mut self, point: &mut Vec<i64>) -> Option<NestId> {
            let (nest, pt) = self.0.next()?;
            point.clear();
            point.extend_from_slice(pt);
            Some(*nest)
        }
    }

    fn program(src: &str) -> Program {
        dpm_ir::parse_program(src).unwrap()
    }

    #[test]
    fn nest_cursor_walks_triangular_space() {
        let p = program(
            "program t; array A[8][4] : f64;
             nest L { for i = 0 .. 7 { for j = 0 .. i { A[i][j] = 1; } } }",
        );
        let mut expect = Vec::new();
        for i in 0..8 {
            for j in 0..=i {
                expect.push(vec![i, j]);
            }
        }
        let mut cur = NestCursor::new(&p.nests[0]);
        let mut got = Vec::new();
        while let Some(pt) = cur.next_point() {
            got.push(pt.to_vec());
        }
        assert_eq!(got, expect);
        assert!(cur.next_point().is_none());
    }

    /// The `skip` prefix strips auxiliary variables (the symbolic
    /// restructurer's stripe-row counter `t`) before iterations reach the
    /// generator.
    #[test]
    fn set_order_strips_auxiliary_prefix() {
        // (t, i) with i = 4t .. 4t+3, t in 0..=3: i sweeps 0..=15 in order.
        let t = dpm_poly::LinExpr::var(2, 0);
        let i = dpm_poly::LinExpr::var(2, 1);
        let piece = dpm_poly::Polyhedron::universe(2)
            .with_range(0, 0, 3)
            .with(dpm_poly::Constraint::geq(&i, &t.scaled(4)))
            .with(dpm_poly::Constraint::leq(&i, &t.scaled(4).plus_const(3)));
        let mut order = SetOrder::new(1);
        order.push(0, dpm_poly::Set::from(piece));
        let mut cursor = order.cursor(0, 0);
        let mut pt = Vec::new();
        let mut seen = Vec::new();
        while let Some(ni) = cursor.next(&mut pt) {
            assert_eq!(ni, 0);
            assert_eq!(pt.len(), 1);
            seen.push(pt[0]);
        }
        assert_eq!(seen, (0..16).collect::<Vec<i64>>());
    }
}
