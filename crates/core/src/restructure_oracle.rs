//! Randomized check of [`restructure_single`] against an independent
//! oracle: a literal Figure 3 engine whose dependence readiness check keeps
//! predecessor points as owned `Vec<i64>` and looks them up by `Vec`
//! lexicographic order. It shares no scheduling code with the crate, so a
//! bug in the shared readiness check (which both of the crate's engines
//! call) shows up here as a schedule mismatch.

use crate::schedule::{iteration_disk_mask, CompactIter};
use crate::single::restructure_single;
use dpm_ir::{CrossDep, DependenceInfo, IterMap, Program};
use dpm_layout::{LayoutMap, Striping};
use dpm_obs::XorShift64Star;

/// One nest as the oracle sees it: points in original (lexicographic)
/// order and the dependences that gate them.
struct OracleNest {
    base: usize,
    points: Vec<Vec<i64>>,
    distances: Vec<Vec<i64>>,
    serial: bool,
    exact: Vec<(usize, IterMap)>,
    barriers: Vec<usize>,
}

fn oracle_nests(program: &Program, deps: &DependenceInfo) -> Vec<OracleNest> {
    let mut base = 0;
    let mut out = Vec::new();
    for (ni, nest) in program.nests.iter().enumerate() {
        let mut points = Vec::new();
        dpm_trace::walk_nest(nest, &mut |pt| points.push(pt.to_vec()));
        let mut exact = Vec::new();
        let mut barriers = Vec::new();
        for c in &deps.cross {
            match c {
                CrossDep::Exact {
                    src_nest,
                    dst_nest,
                    map,
                } if *dst_nest == ni => exact.push((*src_nest, map.clone())),
                CrossDep::Barrier { src_nest, dst_nest } if *dst_nest == ni => {
                    barriers.push(*src_nest);
                }
                _ => {}
            }
        }
        let len = points.len();
        out.push(OracleNest {
            base,
            points,
            distances: deps.nest_exact_distances(ni),
            serial: deps.nest_requires_original_order(ni),
            exact,
            barriers,
        });
        base += len;
    }
    out
}

/// The allocating lookup: binary search by `Vec<i64>` order.
fn oracle_find(nest: &OracleNest, pt: &[i64]) -> Option<usize> {
    nest.points
        .binary_search_by(|probe| probe.as_slice().cmp(pt))
        .ok()
        .map(|idx| nest.base + idx)
}

fn oracle_ready(
    nests: &[OracleNest],
    ni: usize,
    idx: usize,
    scheduled: &[bool],
    done: &[usize],
) -> bool {
    let t = &nests[ni];
    if t.barriers.iter().any(|&s| done[s] < nests[s].points.len()) {
        return false;
    }
    if t.serial && idx > 0 && !scheduled[t.base + idx - 1] {
        return false;
    }
    let pt = t.points[idx].clone();
    for d in &t.distances {
        let pred: Vec<i64> = pt.iter().zip(d).map(|(a, b)| a - b).collect();
        if oracle_find(t, &pred).is_some_and(|pid| !scheduled[pid]) {
            return false;
        }
    }
    for (src, map) in &t.exact {
        let pred = map.apply(&pt);
        if oracle_find(&nests[*src], &pred).is_some_and(|pid| !scheduled[pid]) {
            return false;
        }
    }
    true
}

/// Figure 3 verbatim: per round, per disk, every unscheduled iteration
/// touching the disk (iterations touching none go with disk 0) is
/// scheduled if ready; a round that schedules nothing takes the first
/// unscheduled iteration in original order.
fn oracle_schedule(
    program: &Program,
    layout: &LayoutMap,
    deps: &DependenceInfo,
) -> Vec<CompactIter> {
    let nests = oracle_nests(program, deps);
    let total: usize = nests.iter().map(|n| n.points.len()).sum();
    let masks: Vec<u64> = nests
        .iter()
        .enumerate()
        .flat_map(|(ni, n)| {
            n.points
                .iter()
                .map(move |pt| iteration_disk_mask(program, layout, ni, pt))
        })
        .collect();
    let num_disks = layout.striping().num_disks();
    let mut scheduled = vec![false; total];
    let mut done = vec![0usize; nests.len()];
    let mut out = Vec::with_capacity(total);
    let mut take = |ni: usize, idx: usize, scheduled: &mut [bool], done: &mut [usize]| {
        scheduled[nests[ni].base + idx] = true;
        done[ni] += 1;
        out.push(CompactIter::new(ni, &nests[ni].points[idx]));
    };
    let mut remaining = total;
    while remaining > 0 {
        let before = remaining;
        for d in 0..num_disks {
            for ni in 0..nests.len() {
                for idx in 0..nests[ni].points.len() {
                    let id = nests[ni].base + idx;
                    let m = masks[id];
                    let mine = m & (1 << d) != 0 || (m == 0 && d == 0);
                    if !scheduled[id] && mine && oracle_ready(&nests, ni, idx, &scheduled, &done) {
                        take(ni, idx, &mut scheduled, &mut done);
                        remaining -= 1;
                    }
                }
            }
        }
        if remaining == before {
            let id = scheduled.iter().position(|s| !s).expect("remaining > 0");
            let ni = nests
                .iter()
                .rposition(|n| n.base <= id)
                .expect("id in a nest");
            assert!(oracle_ready(
                &nests,
                ni,
                id - nests[ni].base,
                &scheduled,
                &done
            ));
            take(ni, id - nests[ni].base, &mut scheduled, &mut done);
            remaining -= 1;
        }
    }
    out
}

/// A random program over `N × N` arrays whose nests draw from: intra-nest
/// exact distances with components in `{-1, 0, 1}` (so `(1, -1)` occurs),
/// transposed and shifted reads of arrays written by earlier nests (exact
/// cross-nest maps), strided `2*i` writes (barriers), and a 1-D
/// accumulator in a 2-deep nest (a `*` dependence, so a serial nest).
fn random_program(rng: &mut XorShift64Star) -> String {
    let n = rng.range_i64(6, 12);
    let mut src = format!("program r; const N = {n};\n");
    for a in ["A", "B", "C"] {
        let elem = ["f64", "bytes(256)", "bytes(1024)"][rng.range_i64(0, 2) as usize];
        src += &format!("array {a}[N][N] : {elem};\n");
    }
    src += "array V[N] : bytes(512);\n";
    let arrays = ["A", "B", "C"];
    let pick = |rng: &mut XorShift64Star| arrays[rng.range_i64(0, 2) as usize];
    let off = |rng: &mut XorShift64Star| match rng.range_i64(-1, 1) {
        -1 => " - 1",
        0 => "",
        _ => " + 1",
    };
    for k in 0..rng.range_i64(1, 4) {
        let inner = if rng.range_i64(0, 3) == 0 { "i" } else { "N-2" };
        let (head, body) = match rng.range_i64(0, 5) {
            // Intra-nest stencil: X[i][j] = X[i±1][j±1] (+ another array).
            0 | 1 => {
                let x = pick(rng);
                let y = pick(rng);
                let (o1, o2) = (off(rng), off(rng));
                (
                    format!("for i = 1 .. N-2 {{ for j = 1 .. {inner} {{"),
                    format!("{x}[i][j] = {x}[i{o1}][j{o2}] + {y}[i][j];"),
                )
            }
            // Cross-nest: transposed or shifted read of another array.
            2 | 3 => {
                let x = pick(rng);
                let y = pick(rng);
                let read = if rng.range_i64(0, 1) == 0 {
                    format!("{y}[j][i]")
                } else {
                    format!("{y}[i{}][j{}]", off(rng), off(rng))
                };
                (
                    format!("for i = 1 .. N-2 {{ for j = 1 .. {inner} {{"),
                    format!("{x}[i][j] = {read};"),
                )
            }
            // Strided write: a barrier against earlier writers of X.
            4 => {
                let x = pick(rng);
                (
                    format!("for i = 0 .. {} {{ for j = 0 .. N-1 {{", (n - 1) / 2),
                    format!("{x}[2*i][j] = {x}[2*i][j] + 1;"),
                )
            }
            // Serial nest: the accumulator is rewritten for every j.
            _ => (
                "for i = 0 .. N-1 { for j = 0 .. N-1 {".to_string(),
                format!("V[i] = V[i] + {}[i][j];", pick(rng)),
            ),
        };
        src += &format!("nest L{k} {{ {head} {body} }} }} }}\n");
    }
    src
}

#[test]
fn restructure_single_matches_allocating_oracle() {
    let mut rng = XorShift64Star::new(0x5eed_f1e5);
    let (mut exact_cross, mut barriers, mut serial, mut negative) = (0, 0, 0, 0);
    for case in 0..120 {
        let src = random_program(&mut rng);
        let p = dpm_ir::parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let disks = rng.range_i64(1, 8);
        let striping = Striping::new(
            [256, 512, 1024, 4096][rng.range_i64(0, 3) as usize],
            disks as usize,
            rng.range_i64(0, disks - 1) as usize,
        );
        let layout = LayoutMap::new(&p, striping);
        let deps = dpm_ir::analyze(&p);
        for c in &deps.cross {
            match c {
                CrossDep::Exact { .. } => exact_cross += 1,
                CrossDep::Barrier { .. } => barriers += 1,
            }
        }
        for ni in 0..p.nests.len() {
            serial += usize::from(deps.nest_requires_original_order(ni));
            negative += deps
                .nest_exact_distances(ni)
                .iter()
                .filter(|d| d.iter().any(|&c| c < 0))
                .count();
        }
        let got = restructure_single(&p, &layout, &deps);
        let want = oracle_schedule(&p, &layout, &deps);
        assert_eq!(got.iters(0, 0), want.as_slice(), "case {case}\n{src}");
    }
    // The generator must actually reach every dependence kind it claims.
    assert!(exact_cross > 0, "no exact cross-nest map generated");
    assert!(barriers > 0, "no barrier generated");
    assert!(serial > 0, "no serial nest generated");
    assert!(
        negative > 0,
        "no distance with a negative component generated"
    );
}

#[test]
fn cmp_coords_is_vec_lexicographic_order() {
    let mut rng = XorShift64Star::new(0xc00d5);
    let edge = [i64::from(i32::MIN), i64::from(i32::MAX), -1, 0, 1];
    for _ in 0..20_000 {
        let depth = rng.range_i64(0, CompactIter::MAX_DEPTH as i64) as usize;
        let mut point = || -> Vec<i64> {
            (0..depth)
                .map(|_| match rng.range_i64(0, 3) {
                    0 => edge[rng.range_i64(0, 4) as usize],
                    1 => rng.range_i64(-3, 3),
                    _ => rng.range_i64(i64::from(i32::MIN), i64::from(i32::MAX)),
                })
                .collect()
        };
        let (a, b) = (point(), point());
        let (ca, cb) = (CompactIter::new(0, &a), CompactIter::new(0, &b));
        assert_eq!(ca.cmp_coords(&cb), a.cmp(&b), "{a:?} vs {b:?}");
        assert_eq!(ca.cmp_coords(&ca), std::cmp::Ordering::Equal);
    }
}
