//! Pooled (multi-threaded) protected executors.
//!
//! [`PooledFtFft`] wraps an [`FtFftPlan`] and uses the persistent
//! [`ThreadPool`] to exploit the independence the online scheme already
//! has:
//!
//! * **Part 1 across workers** — the `k` first-part m-point sub-FFTs of
//!   the computational online schemes (`OnlineComp`/`OnlineCompOpt`) only
//!   *read* the shared input and write disjoint rows of the intermediate
//!   matrix, so [`execute`](PooledFtFft::execute) fans them out with one
//!   lane of scratch per worker.
//! * **Part 2 across workers** — the `m` second-part k-point columns are
//!   equally independent: each reads the shared intermediate matrix and
//!   finishes one column. Workers land their columns in a staging buffer
//!   (disjoint contiguous chunks, pre-split like part 1's rows) and a
//!   serial pass scatters them into the caller's output in natural column
//!   order, so the strided output writes never cross threads. Outputs are
//!   **bitwise identical** to the single-threaded executor at any worker
//!   count, and so is the [`FtReport`] (counts are sums, residual maxima
//!   are maxima — both order-free).
//! * **Batch items across workers** —
//!   [`execute_batch`](PooledFtFft::execute_batch) runs whole independent
//!   transforms of a batch concurrently under any scheme.
//!
//! Fault-injection determinism: sites that carry their own index
//! (`SubFftCompute { index, .. }`) are visited in a deterministic per-row
//! (per-column) order, so scripted faults strike identically however rows
//! and columns are scheduled across workers. Sites shared between rows or
//! columns (`TwiddleDmrPass` — which the *unoptimized* scheme also visits
//! once per part-2 column) or between batch items (`InputMemory`, …) have
//! *global occurrence counters*: under threading, which row/column/item a
//! given occurrence lands on depends on scheduling, though every scripted
//! fault still fires exactly once and the merged report totals are
//! unchanged.

use ftfft_core::dmr::dmr_generate_ra_into;
use ftfft_core::online::{part1_row, part2_col};
use ftfft_core::{FtFftPlan, FtReport, Scheme, Workspace};
use ftfft_fault::{FaultInjector, InjectionCtx, Site};
use ftfft_numeric::{simd, Complex64};
use parking_lot::Mutex;

use crate::pool::{chunk_range, resolve_threads, ThreadPool};

/// A protected FFT plan bound to a persistent worker pool.
///
/// Worker count: `FtConfig::threads` if set, else the `FTFFT_THREADS`
/// environment variable, else the machine's available parallelism
/// (see [`resolve_threads`]).
pub struct PooledFtFft {
    plan: FtFftPlan,
    pool: ThreadPool,
    obs_part1: std::sync::Arc<ftfft_obs::Histogram>,
    obs_part2: std::sync::Arc<ftfft_obs::Histogram>,
}

/// Per-worker scratch for the part-1 fan-out — just the three lane-sized
/// buffers [`part1_row`] touches, not a full (n-sized) [`Workspace`].
pub struct LaneScratch {
    /// Gather/result buffer (`max(k, m)` long).
    pub buf: Vec<Complex64>,
    /// DMR scratch (`max(k, m)` long).
    pub buf2: Vec<Complex64>,
    /// Sub-plan FFT scratch.
    pub fft: Vec<Complex64>,
}

/// Workspaces for [`PooledFtFft::execute`]: the main (serial-phase)
/// workspace plus lane-sized scratch per worker. The batched executor
/// needs full per-worker workspaces instead — see
/// [`PooledFtFft::make_batch_workspace`].
pub struct PooledWorkspace {
    /// Workspace for the serial phases (and the single-threaded fallback).
    pub main: Workspace,
    /// Per-worker lane scratch, indexed by pool worker id.
    pub lanes: Vec<LaneScratch>,
    /// Column staging for the part-2 fan-out (`k·m = n` elements): worker
    /// `w` writes its columns back-to-back into its pre-split chunk, and
    /// the serial scatter pass reads column `j2` at `j2·k`.
    pub cols: Vec<Complex64>,
}

impl PooledFtFft {
    /// Wraps `plan`, spawning the plan's worker pool.
    pub fn new(plan: FtFftPlan) -> Self {
        let pool = ThreadPool::new(resolve_threads(plan.cfg().threads));
        let reg = ftfft_obs::global();
        PooledFtFft {
            plan,
            pool,
            obs_part1: reg.histogram("ftfft_parallel_part1_ns"),
            obs_part2: reg.histogram("ftfft_parallel_part2_ns"),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &FtFftPlan {
        &self.plan
    }

    /// Worker count in force (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    /// Allocates the workspace for [`execute`](Self::execute): one full
    /// main workspace, lane-sized scratch per worker (workers never need
    /// the n-sized buffers), and the n-sized part-2 column staging.
    pub fn make_workspace(&self) -> PooledWorkspace {
        let two = self.plan.two();
        let lane = two.k().max(two.m());
        let fft_len = two.inner_plan().scratch_len().max(two.outer_plan().scratch_len());
        PooledWorkspace {
            main: self.plan.make_workspace(),
            lanes: (0..self.pool.size())
                .map(|_| LaneScratch {
                    buf: vec![Complex64::ZERO; lane],
                    buf2: vec![Complex64::ZERO; lane],
                    fft: vec![Complex64::ZERO; fft_len],
                })
                .collect(),
            cols: vec![Complex64::ZERO; two.k() * two.m()],
        }
    }

    /// Allocates one full workspace per worker for
    /// [`execute_batch`](Self::execute_batch), where every worker runs
    /// whole transforms.
    pub fn make_batch_workspace(&self) -> Vec<Workspace> {
        (0..self.pool.size()).map(|_| self.plan.make_workspace()).collect()
    }

    /// Executes the protected transform with part 1 (rows) and part 2
    /// (columns) each fanned across the pool. Supported for the
    /// computational online schemes (`OnlineComp`, `OnlineCompOpt`),
    /// whose sub-FFT units never mutate shared state; every other scheme
    /// (and a pool of size 1) falls back to the serial
    /// [`FtFftPlan::execute`]. Output and report are bitwise identical to
    /// the serial executor at any worker count.
    pub fn execute(
        &self,
        x: &mut [Complex64],
        out: &mut [Complex64],
        injector: &dyn FaultInjector,
        ws: &mut PooledWorkspace,
    ) -> FtReport {
        let plan = &self.plan;
        let optimized = match plan.cfg().scheme {
            Scheme::OnlineCompOpt => true,
            Scheme::OnlineComp => false,
            _ => return plan.execute(x, out, injector, &mut ws.main),
        };
        if self.pool.size() == 1 {
            return plan.execute(x, out, injector, &mut ws.main);
        }
        assert_eq!(x.len(), plan.n(), "input length mismatch");
        assert_eq!(out.len(), plan.n(), "output length mismatch");

        let ctx = InjectionCtx::default();
        let mut rep = FtReport::new();
        let two = plan.two();
        let (k, m) = (two.k(), two.m());

        // σ̂ pre-pass, exactly as the serial executor takes it.
        let Some(th) = plan.thresholds_for_energy(simd::energy(x)) else {
            return FtReport::unverifiable(out);
        };

        dmr_generate_ra_into(
            m,
            plan.dir(),
            false,
            injector,
            ctx,
            &mut rep,
            &mut ws.main.ra_m,
            &mut ws.main.ra_tmp,
        );
        dmr_generate_ra_into(
            k,
            plan.dir(),
            false,
            injector,
            ctx,
            &mut rep,
            &mut ws.main.ra_k,
            &mut ws.main.ra_tmp,
        );

        injector.inject(ctx, Site::InputMemory, x);

        // ---- part 1: k m-point FFTs across the pool ---------------------
        {
            let timer = ftfft_obs::Timer::start();
            let t = self.pool.size().min(k).max(1);
            let ra_m = &ws.main.ra_m[..m];
            let x_shared: &[Complex64] = x;
            // Pre-split the intermediate matrix into each worker's rows
            // (the same contiguous chunks run_chunks hands out).
            let mut slots = Vec::with_capacity(t);
            let mut rest = &mut ws.main.y[..k * m];
            for (w, lane) in ws.lanes.iter_mut().take(t).enumerate() {
                let rows = chunk_range(k, t, w);
                let (chunk, tail) = rest.split_at_mut(rows.len() * m);
                rest = tail;
                slots.push(Mutex::new((chunk, lane, FtReport::new())));
            }
            self.pool.run_chunks(k, |w, rows| {
                let mut slot = slots[w].lock();
                let (y_rows, lane, local_rep) = &mut *slot;
                for n1 in rows.clone() {
                    let off = (n1 - rows.start) * m;
                    part1_row(
                        plan,
                        x_shared,
                        ra_m,
                        th.eta1,
                        n1,
                        optimized,
                        &mut y_rows[off..off + m],
                        &mut lane.buf,
                        &mut lane.buf2,
                        &mut lane.fft,
                        injector,
                        ctx,
                        local_rep,
                    );
                }
            });
            for slot in slots {
                rep.merge(&slot.into_inner().2);
            }
            timer.stop(&self.obs_part1);
        }

        injector.inject(ctx, Site::IntermediateMemory, &mut ws.main.y);

        // ---- part 2: m k-point FFTs across the pool ---------------------
        {
            let timer = ftfft_obs::Timer::start();
            let t = self.pool.size().min(m).max(1);
            let ra_k = &ws.main.ra_k[..k];
            let y_shared: &[Complex64] = &ws.main.y[..k * m];
            // Pre-split the column staging into each worker's chunk (the
            // same contiguous column ranges run_chunks hands out).
            let mut slots = Vec::with_capacity(t);
            let mut rest = &mut ws.cols[..k * m];
            for (w, lane) in ws.lanes.iter_mut().take(t).enumerate() {
                let cols = chunk_range(m, t, w);
                let (chunk, tail) = rest.split_at_mut(cols.len() * k);
                rest = tail;
                slots.push(Mutex::new((chunk, lane, FtReport::new())));
            }
            self.pool.run_chunks(m, |w, cols| {
                let mut slot = slots[w].lock();
                let (col_chunk, lane, local_rep) = &mut *slot;
                for j2 in cols.clone() {
                    part2_col(
                        plan,
                        y_shared,
                        ra_k,
                        th.eta2,
                        j2,
                        optimized,
                        &mut lane.buf,
                        &mut lane.buf2,
                        &mut lane.fft,
                        injector,
                        ctx,
                        local_rep,
                    );
                    let off = (j2 - cols.start) * k;
                    col_chunk[off..off + k].copy_from_slice(&lane.buf[..k]);
                }
            });
            for slot in slots {
                rep.merge(&slot.into_inner().2);
            }
            timer.stop(&self.obs_part2);
        }

        // Serial scatter: column j2 lands on the strided output positions
        // in natural order, so the interleaved writes stay on one thread.
        for (j2, col) in ws.cols[..k * m].chunks_exact(k).enumerate() {
            two.scatter_output(out, j2, col);
        }

        injector.inject(ctx, Site::OutputMemory, out);
        rep
    }

    /// Batched protected transform with whole batch items fanned across
    /// the pool — any scheme. `xs`/`outs` hold `xs.len() / n` back-to-back
    /// signals; each worker transforms its contiguous chunk of items
    /// against its own workspace from `workers` (allocate with
    /// [`make_batch_workspace`](Self::make_batch_workspace)). Returns the
    /// merged report (worker order), identical in totals to the serial
    /// [`FtFftPlan::execute_batch`].
    ///
    /// # Panics
    /// Panics if `xs.len() != outs.len()`, the length is not a multiple
    /// of the plan size, or `workers` has fewer workspaces than the pool
    /// has workers.
    pub fn execute_batch(
        &self,
        xs: &mut [Complex64],
        outs: &mut [Complex64],
        injector: &dyn FaultInjector,
        workers: &mut [Workspace],
    ) -> FtReport {
        let plan = &self.plan;
        let n = plan.n();
        assert_eq!(xs.len(), outs.len(), "batch input/output length mismatch");
        assert!(
            xs.len().is_multiple_of(n),
            "batch length {} is not a multiple of plan size {n}",
            xs.len()
        );
        let items = xs.len() / n;
        let t = self.pool.size().min(items).max(1);
        assert!(workers.len() >= t, "need {t} worker workspaces, got {}", workers.len());
        if t == 1 {
            return plan.execute_batch(xs, outs, injector, &mut workers[0]);
        }

        let mut slots = Vec::with_capacity(t);
        let mut xs_rest = &mut xs[..];
        let mut outs_rest = &mut outs[..];
        for (w, wws) in workers.iter_mut().take(t).enumerate() {
            let chunk_items = chunk_range(items, t, w).len();
            let (x_chunk, x_tail) = xs_rest.split_at_mut(chunk_items * n);
            let (o_chunk, o_tail) = outs_rest.split_at_mut(chunk_items * n);
            xs_rest = x_tail;
            outs_rest = o_tail;
            slots.push(Mutex::new((x_chunk, o_chunk, wws, FtReport::new())));
        }
        self.pool.run_chunks(items, |w, _range| {
            let mut slot = slots[w].lock();
            let (x_chunk, o_chunk, wws, local_rep) = &mut *slot;
            for (x, out) in x_chunk.chunks_exact_mut(n).zip(o_chunk.chunks_exact_mut(n)) {
                local_rep.merge(&plan.execute(x, out, injector, wws));
            }
        });
        let mut rep = FtReport::new();
        for slot in slots {
            rep.merge(&slot.into_inner().3);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftfft_core::FtConfig;
    use ftfft_fault::{FaultKind, NoFaults, Part, ScriptedFault, ScriptedInjector};
    use ftfft_fft::Direction;
    use ftfft_numeric::uniform_signal;

    fn serial_run(scheme: Scheme, n: usize, inj: &dyn FaultInjector) -> (Vec<Complex64>, FtReport) {
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let mut x = uniform_signal(n, 5);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let rep = plan.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    fn pooled_run(
        scheme: Scheme,
        n: usize,
        threads: usize,
        inj: &dyn FaultInjector,
    ) -> (Vec<Complex64>, FtReport) {
        let plan =
            FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme).with_threads(threads));
        let pooled = PooledFtFft::new(plan);
        assert_eq!(pooled.threads(), threads);
        let mut x = uniform_signal(n, 5);
        let mut out = vec![Complex64::ZERO; n];
        let mut ws = pooled.make_workspace();
        let rep = pooled.execute(&mut x, &mut out, inj, &mut ws);
        (out, rep)
    }

    #[test]
    fn pooled_matches_serial_bitwise_clean() {
        for scheme in [Scheme::OnlineComp, Scheme::OnlineCompOpt] {
            for threads in [1usize, 2, 3, 7, 8] {
                let (want, want_rep) = serial_run(scheme, 1 << 10, &NoFaults);
                let (got, got_rep) = pooled_run(scheme, 1 << 10, threads, &NoFaults);
                assert_eq!(got, want, "{scheme:?} threads={threads}");
                assert_eq!(got_rep, want_rep, "{scheme:?} threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_part1_faults_detected_identically() {
        // Per-index sites strike the same row at any worker count.
        let faults = || {
            vec![
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::First, index: 3 },
                    7,
                    FaultKind::AddDelta { re: 1e-3, im: 0.0 },
                ),
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::First, index: 30 },
                    1,
                    FaultKind::AddDelta { re: 0.0, im: -2.0 },
                ),
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: 5 },
                    2,
                    FaultKind::AddDelta { re: 2.0, im: 2.0 },
                ),
            ]
        };
        let serial_inj = ScriptedInjector::new(faults());
        let (want, want_rep) = serial_run(Scheme::OnlineCompOpt, 1 << 10, &serial_inj);
        for threads in [2usize, 4, 8] {
            let inj = ScriptedInjector::new(faults());
            let (got, got_rep) = pooled_run(Scheme::OnlineCompOpt, 1 << 10, threads, &inj);
            assert!(inj.exhausted(), "threads={threads}");
            assert_eq!(got_rep, want_rep, "threads={threads}");
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn pooled_part2_faults_detected_identically_unoptimized() {
        // Second-part columns carry their own site index, so scripted
        // faults strike the same column at any worker count — including
        // under the unoptimized scheme, whose part-2 path also runs the
        // per-column twiddle DMR.
        let faults = || {
            vec![
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: 0 },
                    1,
                    FaultKind::AddDelta { re: -3e-2, im: 0.0 },
                ),
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: 14 },
                    2,
                    FaultKind::AddDelta { re: 0.0, im: 4.0 },
                ),
            ]
        };
        let serial_inj = ScriptedInjector::new(faults());
        let (want, want_rep) = serial_run(Scheme::OnlineComp, 1 << 10, &serial_inj);
        for threads in [2usize, 3, 5, 8] {
            let inj = ScriptedInjector::new(faults());
            let (got, got_rep) = pooled_run(Scheme::OnlineComp, 1 << 10, threads, &inj);
            assert!(inj.exhausted(), "threads={threads}");
            assert_eq!(got_rep, want_rep, "threads={threads}");
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn non_comp_schemes_fall_back_to_serial() {
        let (want, want_rep) = serial_run(Scheme::OnlineMemOpt, 1 << 9, &NoFaults);
        let (got, got_rep) = pooled_run(Scheme::OnlineMemOpt, 1 << 9, 4, &NoFaults);
        assert_eq!(got, want);
        assert_eq!(got_rep, want_rep);
    }

    #[test]
    fn pooled_batch_matches_serial_clean() {
        let n = 1 << 8;
        let batch = 5;
        let src = uniform_signal(n * batch, 9);
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let mut ws = plan.make_workspace();
        let mut xs = src.clone();
        let mut want = vec![Complex64::ZERO; n * batch];
        let want_rep = plan.execute_batch(&mut xs, &mut want, &NoFaults, &mut ws);

        for threads in [2usize, 3, 8] {
            let plan = FtFftPlan::new(
                n,
                Direction::Forward,
                FtConfig::new(Scheme::OnlineMemOpt).with_threads(threads),
            );
            let pooled = PooledFtFft::new(plan);
            let mut pws = pooled.make_batch_workspace();
            let mut xs = src.clone();
            let mut got = vec![Complex64::ZERO; n * batch];
            let got_rep = pooled.execute_batch(&mut xs, &mut got, &NoFaults, &mut pws);
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(got_rep, want_rep, "threads={threads}");
        }
    }

    #[test]
    fn pooled_batch_corrects_faults_with_identical_totals() {
        let n = 1 << 8;
        let batch = 4;
        let src = uniform_signal(n * batch, 11);
        let faults = || {
            vec![ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: 2 },
                3,
                FaultKind::AddDelta { re: 5e-2, im: 0.0 },
            )]
        };
        let plan = FtFftPlan::new(
            n,
            Direction::Forward,
            FtConfig::new(Scheme::OnlineMemOpt).with_threads(3),
        );
        let pooled = PooledFtFft::new(plan);
        let mut pws = pooled.make_batch_workspace();
        let mut xs = src.clone();
        let mut got = vec![Complex64::ZERO; n * batch];
        let inj = ScriptedInjector::new(faults());
        let rep = pooled.execute_batch(&mut xs, &mut got, &inj, &mut pws);
        assert!(inj.exhausted());
        assert_eq!(rep.comp_detected, 1, "{rep:?}");
        assert_eq!(rep.uncorrectable, 0);
        // Every item matches the clean transform — whichever item took the
        // fault, it was corrected.
        for (x, out) in src.chunks_exact(n).zip(got.chunks_exact(n)) {
            let want = ftfft_fft::fft(x);
            let err = ftfft_numeric::max_abs_diff(out, &want);
            assert!(err < 1e-8 * n as f64, "err={err}");
        }
    }
}
