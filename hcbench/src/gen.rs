//! Seeded inputs for the three workloads. Everything here is a pure
//! function of the seed: the same seed gives byte-identical bodies,
//! schedules and matrices.

use hc_core::ecs::{Ecs, Etc};
use hc_gen::rng::{Rng, SplitMix64, StdRng};
use hc_gen::{cvb, range_based, targeted, CvbParams, RangeParams, TargetSpec};
use hc_linalg::Matrix;
use hc_sinkhorn::balance::{balance_with, standardize, BalanceOptions};

/// An independent generator for one purpose (`tag`) of one seed.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    let mut sm = SplitMix64::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    StdRng::seed_from_u64(sm.next_u64())
}

/// `n` arrival instants of a Poisson process over `[0, span_ns)` conditioned
/// on its count: sorted uniform draws. Fixing the count keeps the offered
/// load of every seed the same.
pub fn poisson_times(rng: &mut StdRng, n: usize, span_ns: u64) -> Vec<u64> {
    let mut t: Vec<u64> = (0..n)
        .map(|_| (rng.next_f64() * span_ns as f64) as u64)
        .collect();
    t.sort_unstable();
    t
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

fn pick<T: Copy>(rng: &mut StdRng, v: &[T]) -> T {
    v[rng.gen_range(0..v.len())]
}

// ---------------------------------------------------------------- measure_small

/// Offered rate of `measure_small`, requests per second. At 1,500 req/s the
/// load itself drove this two-vCPU host into 10–25% hypervisor steal and
/// the median swung fivefold between identical runs; at 600 req/s it holds.
pub const MEASURE_RATE: f64 = 600.0;
/// Share of requests that re-post a recent body.
pub const REPOST_SHARE: f64 = 0.3;
/// A re-post picks one of this many most recent distinct bodies.
pub const REPOST_WINDOW: usize = 50;
/// Keep-alive connections of the serving workloads.
pub const CONNS: usize = 2;
/// Shapes of the generated paper-scale matrices.
const SMALL_SHAPES: [(usize, usize); 6] = [(8, 4), (12, 6), (16, 8), (20, 10), (24, 12), (32, 16)];
/// Distinct targeted matrices per run, two per shape; bodies derive from them.
const TARGETED_POOL: usize = 2 * SMALL_SHAPES.len();

/// One planned `POST /measure`.
#[derive(Debug, Clone, PartialEq)]
pub struct Post {
    pub at_ns: u64,
    pub conn: usize,
    pub body: usize,
    pub repost: bool,
}

/// The inputs of one `measure_small` run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurePlan {
    /// Distinct CSV bodies, in first-use order.
    pub bodies: Vec<String>,
    /// Requests in schedule order.
    pub posts: Vec<Post>,
}

/// Rows permuted and every entry scaled by one factor: a distinct body whose
/// MPH, TDH and TMA are those of `etc` (all three are invariant under both).
fn disguise(rng: &mut StdRng, etc: &Etc) -> Etc {
    let (t, m) = (etc.num_tasks(), etc.num_machines());
    let mut order: Vec<usize> = (0..t).collect();
    shuffle(rng, &mut order);
    let scale = (rng.next_f64() * 4.0 - 2.0).exp();
    let src = etc.matrix();
    let matrix = Matrix::from_fn(t, m, |i, j| src[(order[i], j)] * scale);
    let names = order.iter().map(|&i| etc.task_names()[i].clone()).collect();
    Etc::with_names(matrix, names, etc.machine_names().to_vec())
        .expect("a rescaled valid ETC is valid")
}

fn targeted_pool(seed: u64) -> Vec<Etc> {
    let mut rng = stream(seed, 11);
    let mut pool = Vec::with_capacity(TARGETED_POOL);
    while pool.len() < TARGETED_POOL {
        // Two of each shape: a seed changes the matrices, not the sizes.
        let (t, m) = SMALL_SHAPES[pool.len() % SMALL_SHAPES.len()];
        let spec = TargetSpec {
            tasks: t,
            machines: m,
            mph: rng.gen_range(0.3..0.95),
            tdh: rng.gen_range(0.3..0.95),
            tma: rng.gen_range(0.02..0.45),
            jitter: 0.3,
        };
        let gen_seed = rng.next_u64();
        if let Ok(ecs) = targeted(&spec, gen_seed) {
            pool.push(ecs.to_etc());
        }
    }
    pool
}

/// A fresh body: SPEC CINT/CFP (disguised), range-based, CVB, or a disguised
/// member of the run's targeted pool.
fn measure_body(rng: &mut StdRng, spec: &[Etc; 2], pool: &[Etc]) -> String {
    let roll = rng.next_f64();
    let etc = if roll < 0.15 {
        disguise(rng, &spec[0])
    } else if roll < 0.30 {
        disguise(rng, &spec[1])
    } else if roll < 0.55 {
        let (t, m) = pick(rng, &SMALL_SHAPES);
        let p = match rng.gen_range(0..4usize) {
            0 => RangeParams::lo_lo(t, m),
            1 => RangeParams::lo_hi(t, m),
            2 => RangeParams::hi_lo(t, m),
            _ => RangeParams::hi_hi(t, m),
        };
        range_based(&p, rng.next_u64()).expect("range-based parameters are valid")
    } else if roll < 0.80 {
        let (t, m) = pick(rng, &SMALL_SHAPES);
        let v_task = pick(rng, &[0.1, 0.3, 0.6]);
        let v_mach = pick(rng, &[0.1, 0.3, 0.6]);
        cvb(&CvbParams::new(t, m, v_task, v_mach), rng.next_u64())
            .expect("CVB parameters are valid")
    } else {
        let base = &pool[rng.gen_range(0..pool.len())];
        disguise(rng, base)
    };
    hc_spec::csv::to_csv(&etc)
}

/// The bodies and schedule of one `measure_small` run of `seconds`.
pub fn measure_plan(seed: u64, seconds: f64) -> MeasurePlan {
    let n = (MEASURE_RATE * seconds).round() as usize;
    let times = poisson_times(&mut stream(seed, 1), n, (seconds * 1e9) as u64);
    let spec = [hc_spec::cint2006().etc, hc_spec::cfp2006().etc];
    let pool = targeted_pool(seed);
    let mut rng = stream(seed, 2);
    let mut bodies = Vec::new();
    let mut owner = Vec::new();
    let mut posts = Vec::with_capacity(n);
    for at_ns in times {
        if !bodies.is_empty() && rng.gen_bool(REPOST_SHARE) {
            let lo = bodies.len().saturating_sub(REPOST_WINDOW);
            let body = rng.gen_range(lo..bodies.len());
            posts.push(Post {
                at_ns,
                conn: owner[body],
                body,
                repost: true,
            });
        } else {
            let conn = rng.gen_range(0..CONNS);
            bodies.push(measure_body(&mut rng, &spec, &pool));
            owner.push(conn);
            posts.push(Post {
                at_ns,
                conn,
                body: bodies.len() - 1,
                repost: false,
            });
        }
    }
    MeasurePlan { bodies, posts }
}

// --------------------------------------------------------------- ensemble_large

/// One pass over the ensemble: per shape, how many members and how many of
/// those have zero entries (machines that cannot run a task; 7 of 57, about
/// one in eight). The composition is the same for every seed, so a seed
/// changes values, not the mix of costs. Members rotate through the
/// generators. One matrix's cost varies by ±25% around its shape's, so the
/// two shapes whose medians are reported (64×64 and 128×128) get many members.
pub const ENSEMBLE_PASS: [((usize, usize), usize, usize); 7] = [
    ((64, 64), 16, 2),
    ((128, 64), 4, 0),
    ((128, 128), 24, 4),
    ((256, 64), 4, 0),
    ((256, 256), 4, 1),
    ((512, 128), 4, 0),
    ((512, 512), 1, 0),
];
/// The ensemble's generators.
pub const GENERATORS: [&str; 4] = ["range", "cvb", "targeted_lo", "targeted_hi"];

/// One ensemble matrix.
#[derive(Debug, Clone)]
pub struct Member {
    pub shape: (usize, usize),
    pub zeros: bool,
    pub ecs: Ecs,
}

fn balance_opts() -> BalanceOptions {
    BalanceOptions {
        tol: 1e-11,
        max_iters: 50_000,
        ..Default::default()
    }
}

/// Geometric marginals of length `n` with adjacent-ratio homogeneity `h`.
fn geometric(n: usize, h: f64, total: f64) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|k| h.powi((n - 1 - k) as i32)).collect();
    let s: f64 = raw.iter().sum();
    raw.iter().map(|v| v * total / s).collect()
}

/// `hc_gen::targeted`'s construction with a fixed blend weight in place of
/// its TMA bisection (which runs dozens of Jacobi SVDs and would take minutes
/// at 512×512): a jittered uniform base blended toward the specialised
/// anchor (task `i` on machine `i mod M`), then balanced to geometric
/// MPH/TDH marginals. `weight` near 0 gives low TMA, near 1 high TMA.
fn targeted_blend(rng: &mut StdRng, t: usize, m: usize, weight: f64) -> Matrix {
    let total = ((t * m) as f64).sqrt();
    let special = Matrix::from_fn(t, m, |i, j| if j == i % m { 1.0 } else { 1e-9 });
    let special = standardize(&special, &balance_opts())
        .expect("positive")
        .matrix;
    let random = Matrix::from_fn(t, m, |_, _| rng.gen_range(0.2..5.0));
    let random = standardize(&random, &balance_opts())
        .expect("positive")
        .matrix;
    let u = 1.0 / total;
    let blend = Matrix::from_fn(t, m, |i, j| {
        let base = 0.7 * u + 0.3 * random[(i, j)];
        (1.0 - weight) * base + weight * special[(i, j)]
    });
    let rows = geometric(t, rng.gen_range(0.3..0.95), total);
    let cols = geometric(m, rng.gen_range(0.3..0.95), total);
    balance_with(&blend, &rows, &cols, &balance_opts())
        .expect("positive blend balances")
        .matrix
}

/// An ETC matrix of one generator, as execution times.
fn ensemble_etc(rng: &mut StdRng, generator: &str, (t, m): (usize, usize)) -> Matrix {
    match generator {
        "range" => {
            let p = match rng.gen_range(0..4usize) {
                0 => RangeParams::lo_lo(t, m),
                1 => RangeParams::lo_hi(t, m),
                2 => RangeParams::hi_lo(t, m),
                _ => RangeParams::hi_hi(t, m),
            };
            range_based(&p, rng.next_u64())
                .expect("valid parameters")
                .matrix()
                .clone()
        }
        "cvb" => {
            let v_task = pick(rng, &[0.1, 0.3, 0.6]);
            let v_mach = pick(rng, &[0.1, 0.3, 0.6]);
            cvb(&CvbParams::new(t, m, v_task, v_mach), rng.next_u64())
                .expect("valid parameters")
                .matrix()
                .clone()
        }
        _ => {
            let weight = if generator == "targeted_lo" {
                rng.gen_range(0.02..0.15)
            } else {
                rng.gen_range(0.6..0.9)
            };
            // The blend is a speed (ECS) matrix; times are its reciprocals.
            targeted_blend(rng, t, m, weight).map(|v| 1.0 / v)
        }
    }
}

/// Marks ~3% of cells "cannot run" (+∞ seconds, ECS 0), keeping at least one
/// runnable machine per task and one task per machine.
fn knock_out(rng: &mut StdRng, etc: &mut Matrix) {
    let (t, m) = (etc.rows(), etc.cols());
    let target = (t * m) * 3 / 100;
    let mut done = 0;
    while done < target {
        let (i, j) = (rng.gen_range(0..t), rng.gen_range(0..m));
        if etc[(i, j)].is_infinite() {
            continue;
        }
        let row_live = (0..m).filter(|&c| etc[(i, c)].is_finite()).count();
        let col_live = (0..t).filter(|&r| etc[(r, j)].is_finite()).count();
        if row_live > 1 && col_live > 1 {
            etc[(i, j)] = f64::INFINITY;
            done += 1;
        }
    }
}

/// The ensemble of one seed, with the given composition, in a seeded order.
///
/// Zero entries are only ever asked of square shapes: `total_support_core`
/// leaves rectangular zero patterns above 2048 cells undecided, and
/// `characterize` refuses them.
pub fn ensemble_with(seed: u64, pass: &[((usize, usize), usize, usize)]) -> Vec<Member> {
    let mut rng = stream(seed, 3);
    let mut plan: Vec<((usize, usize), &'static str, bool)> = Vec::new();
    for &(shape, count, zeros) in pass {
        assert!(
            zeros == 0 || shape.0 == shape.1,
            "zero entries need a square shape"
        );
        for k in 0..count {
            plan.push((shape, GENERATORS[k % GENERATORS.len()], k < zeros));
        }
    }
    shuffle(&mut rng, &mut plan);
    plan.into_iter()
        .map(|(shape, generator, zeros)| {
            let mut etc = ensemble_etc(&mut rng, generator, shape);
            if zeros {
                knock_out(&mut rng, &mut etc);
            }
            let ecs = Etc::new(etc).expect("generated ETC is valid").to_ecs();
            Member { shape, zeros, ecs }
        })
        .collect()
}

/// The `ensemble_large` ensemble of one seed.
pub fn ensemble(seed: u64) -> Vec<Member> {
    ensemble_with(seed, &ENSEMBLE_PASS)
}

// ---------------------------------------------------------------- session_edits

/// Session sizes of `session_edits`: two 64×64 and two 128×128, all CVB.
pub const SESSION_SHAPES: [(usize, usize); 4] = [(64, 64), (64, 64), (128, 128), (128, 128)];
/// Which session each PATCH of a block of sixteen edits, before the block
/// is shuffled: the 64×64 sessions take seven in eight, so the PATCH median
/// sits well inside the 64×64 cluster, and every seed has the same mix.
const PATCH_BLOCK: [usize; 16] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 3];
/// `PATCH /session/{id}/etc` rate, per second.
pub const PATCH_RATE: f64 = 8.0;
/// `GET /session/{id}` rate, per second.
pub const GET_RATE: f64 = 30.0;

/// One planned edit document.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    pub at_ns: u64,
    pub session: usize,
    /// The session version this PATCH expects (`If-Match`); the response
    /// must carry `version + 1`.
    pub version: u64,
    pub body: String,
}

/// One planned read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Get {
    pub at_ns: u64,
    pub session: usize,
}

/// The inputs of one `session_edits` run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// CSV body of each session's `POST /session`.
    pub creates: Vec<String>,
    pub patches: Vec<Patch>,
    pub gets: Vec<Get>,
    /// Each session's ETC matrix after all its edits, as the server must hold it.
    pub finals: Vec<Matrix>,
}

fn edit_value(rng: &mut StdRng, old: f64) -> f64 {
    old * (rng.next_f64() - 0.5).exp()
}

/// The `k`-th edit document of a session against `etc` (ETC seconds),
/// applied to `etc` too: single cells, except every tenth edit rewrites a
/// row and every twentieth a column.
fn edit_doc(rng: &mut StdRng, etc: &mut Matrix, k: usize) -> String {
    let (t, m) = (etc.rows(), etc.cols());
    let fmt = |vals: &[f64]| {
        vals.iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    if k % 10 != 9 && k % 20 != 4 {
        let (i, j) = (rng.gen_range(0..t), rng.gen_range(0..m));
        let v = edit_value(rng, etc[(i, j)]);
        etc[(i, j)] = v;
        format!("cell,{},{},{v}\n", i + 1, j + 1)
    } else if k % 10 == 9 {
        let i = rng.gen_range(0..t);
        let vals: Vec<f64> = (0..m).map(|j| edit_value(rng, etc[(i, j)])).collect();
        for (j, &v) in vals.iter().enumerate() {
            etc[(i, j)] = v;
        }
        format!("row,{},{}\n", i + 1, fmt(&vals))
    } else {
        let j = rng.gen_range(0..m);
        let vals: Vec<f64> = (0..t).map(|i| edit_value(rng, etc[(i, j)])).collect();
        for (i, &v) in vals.iter().enumerate() {
            etc[(i, j)] = v;
        }
        format!("col,{},{}\n", j + 1, fmt(&vals))
    }
}

/// The sessions, edits and reads of one `session_edits` run of `seconds`.
pub fn session_plan(seed: u64, seconds: f64) -> SessionPlan {
    let mut rng = stream(seed, 4);
    let mut creates = Vec::new();
    let mut mats = Vec::new();
    for &(t, m) in &SESSION_SHAPES {
        let etc = cvb(&CvbParams::new(t, m, 0.3, 0.3), rng.next_u64()).expect("valid parameters");
        let csv = hc_spec::csv::to_csv(&etc);
        // The server holds what it parsed; edit from the same bits.
        mats.push(
            hc_spec::csv::from_csv(&csv)
                .expect("own CSV parses")
                .matrix()
                .clone(),
        );
        creates.push(csv);
    }
    let span = (seconds * 1e9) as u64;
    let n_patch = (PATCH_RATE * seconds).round() as usize;
    let n_get = (GET_RATE * seconds).round() as usize;
    let mut order = Vec::with_capacity(n_patch + PATCH_BLOCK.len());
    while order.len() < n_patch {
        let mut block = PATCH_BLOCK;
        shuffle(&mut rng, &mut block);
        order.extend(block);
    }
    let mut versions = [1u64; 4];
    let patches = poisson_times(&mut stream(seed, 5), n_patch, span)
        .into_iter()
        .zip(order)
        .map(|(at_ns, session)| {
            let body = edit_doc(
                &mut rng,
                &mut mats[session],
                (versions[session] - 1) as usize,
            );
            let version = versions[session];
            versions[session] += 1;
            Patch {
                at_ns,
                session,
                version,
                body,
            }
        })
        .collect();
    let gets = poisson_times(&mut stream(seed, 6), n_get, span)
        .into_iter()
        .map(|at_ns| Get {
            at_ns,
            session: rng.gen_range(0..SESSION_SHAPES.len()),
        })
        .collect();
    SessionPlan {
        creates,
        patches,
        gets,
        finals: mats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn measure_plan_is_byte_identical_per_seed() {
        let a = measure_plan(7, 0.5);
        assert_eq!(a, measure_plan(7, 0.5));
        assert_ne!(a.bodies, measure_plan(8, 0.5).bodies);
        assert_eq!(a.posts.len(), (MEASURE_RATE * 0.5) as usize);
        let reposts = a.posts.iter().filter(|p| p.repost).count() as f64;
        let expect = REPOST_SHARE * a.posts.len() as f64;
        assert!(
            (reposts - expect).abs() < 0.25 * expect,
            "{reposts} re-posts"
        );
        // A re-post goes on the connection of its original, inside the window.
        for (k, p) in a.posts.iter().enumerate() {
            let first = a.posts.iter().position(|q| q.body == p.body).unwrap();
            assert_eq!(a.posts[first].conn, p.conn);
            assert_eq!(p.repost, first != k);
        }
        let mut seen = a.bodies.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), a.bodies.len(), "fresh bodies are distinct");
    }

    #[test]
    fn ensemble_is_byte_identical_per_seed() {
        let small = [((16, 16), 4, 2), ((24, 8), 4, 0), ((32, 32), 1, 0)];
        let a = ensemble_with(3, &small);
        let b = ensemble_with(3, &small);
        let c = ensemble_with(4, &small);
        assert_eq!(a.len(), 9);
        assert_eq!(a.iter().filter(|m| m.zeros).count(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.shape, x.zeros), (y.shape, y.zeros));
            assert_eq!(fingerprint(x.ecs.matrix()), fingerprint(y.ecs.matrix()));
        }
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| fingerprint(x.ecs.matrix()) != fingerprint(y.ecs.matrix())));
        for m in a.iter().filter(|m| m.zeros) {
            assert!(!m.ecs.is_positive());
            assert_eq!(
                m.shape,
                (16, 16),
                "zeros go where the composition puts them"
            );
        }
    }

    #[test]
    fn session_plan_is_byte_identical_per_seed_and_versions_chain() {
        let a = session_plan(5, 2.0);
        assert_eq!(a, session_plan(5, 2.0));
        assert_ne!(a.patches, session_plan(6, 2.0).patches);
        assert_eq!((a.patches.len(), a.gets.len()), (16, 60));
        for s in 0..SESSION_SHAPES.len() {
            let versions: Vec<u64> = a
                .patches
                .iter()
                .filter(|p| p.session == s)
                .map(|p| p.version)
                .collect();
            assert_eq!(versions, (1..=versions.len() as u64).collect::<Vec<_>>());
        }
    }
}
