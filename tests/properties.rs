//! Property-based tests (proptest) on the core invariants.

use ftfft::checksum::{
    combined_checksum, combined_sum1, combined_verify, gather_combined, gather_sum1,
    input_checksum_vector, mem_checksum, verify_and_correct, weighted_sum, MemVerdict,
};
use ftfft::fft::strided::gather;
use ftfft::fft::TwoLayerPlan;
use ftfft::numeric::max_abs_diff;
use ftfft::numeric::simd;
use ftfft::prelude::*;
use ftfft::stream::pipeline::report::SyncStats;
use ftfft::stream::{encode_stream, FrameSync};
use proptest::prelude::*;
use proptest::Strategy;

fn arb_signal(max_log2: u32) -> impl proptest::Strategy<Value = Vec<Complex64>> {
    (1u32..=max_log2).prop_flat_map(|log2n| {
        let n = 1usize << log2n;
        (prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n))
            .prop_map(|v| v.into_iter().map(|(re, im)| Complex64::new(re, im)).collect())
    })
}

/// A plan with the kernel pinned and the layout left to the env/heuristic
/// tiers.
fn kernel_plan(n: usize, kernel: Pow2Kernel) -> FftPlan {
    FftPlan::from_spec(&FftSpec::new(n, Direction::Forward).with_kernel(kernel))
}

/// A plan with the kernel and layout pinned.
fn pinned_plan(n: usize, dir: Direction, kernel: Pow2Kernel, layout: Layout) -> FftPlan {
    FftPlan::from_spec(&FftSpec::new(n, dir).with_kernel(kernel).with_layout(layout))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// fft then inverse fft recovers the input (after normalization).
    #[test]
    fn fft_round_trip(x in arb_signal(10)) {
        let y = fft(&x);
        let mut z = ifft(&y);
        normalize(&mut z);
        let err = ftfft::numeric::max_abs_diff(&z, &x);
        prop_assert!(err < 1e-9, "err {err}");
    }

    /// Linearity: FFT(a·x + y) == a·FFT(x) + FFT(y).
    #[test]
    fn fft_linearity(x in arb_signal(9), scale in -3.0f64..3.0) {
        let n = x.len();
        let y = uniform_signal(n, 999);
        let lhs: Vec<Complex64> = {
            let combo: Vec<Complex64> = x.iter().zip(&y).map(|(&a, &b)| a.scale(scale) + b).collect();
            fft(&combo)
        };
        let fx = fft(&x);
        let fy = fft(&y);
        for j in 0..n {
            let rhs = fx[j].scale(scale) + fy[j];
            prop_assert!(lhs[j].approx_eq(rhs, 1e-8 * n as f64), "bin {j}");
        }
    }

    /// Parseval: energy is preserved up to the 1/N convention.
    #[test]
    fn fft_parseval(x in arb_signal(10)) {
        let n = x.len() as f64;
        let y = fft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((ey - n * ex).abs() <= 1e-7 * (ey.abs() + 1.0));
    }

    /// The ABFT invariant r·FFT(x) == (rA)·x for random inputs.
    #[test]
    fn abft_invariant(x in arb_signal(10)) {
        let n = x.len();
        let ra = input_checksum_vector(n, Direction::Forward);
        let cx = combined_sum1(&x, &ra);
        let y = fft(&x);
        let rx = weighted_sum(&y);
        prop_assert!((rx - cx).norm() < 1e-7 * n as f64, "residual {}", (rx - cx).norm());
    }

    /// Memory checksum locate/correct round-trips for any position and a
    /// detectable magnitude.
    #[test]
    fn memory_locate_correct_round_trip(
        x in arb_signal(9),
        idx_frac in 0.0f64..1.0,
        delta_re in prop::sample::select(vec![0.5f64, -2.0, 10.0, 1e3]),
    ) {
        let n = x.len();
        let idx = ((idx_frac * n as f64) as usize).min(n - 1);
        let ck = mem_checksum(&x);
        let mut corrupted = x.clone();
        corrupted[idx] += Complex64::new(delta_re, -delta_re);
        let v = verify_and_correct(&mut corrupted, ck, 1e-9);
        prop_assert!(matches!(v, MemVerdict::Located { index, .. } if index == idx), "{v:?}");
        for (a, b) in corrupted.iter().zip(&x) {
            prop_assert!(a.approx_eq(*b, 1e-7));
        }
    }

    /// Combined checksums (rA weights) also locate and size faults.
    #[test]
    fn combined_locate_round_trip(
        x in arb_signal(8),
        idx_frac in 0.0f64..1.0,
    ) {
        let n = x.len();
        let idx = ((idx_frac * n as f64) as usize).min(n - 1);
        let ra = input_checksum_vector(n, Direction::Forward);
        let ck = combined_checksum(&x, &ra);
        let mut corrupted = x.clone();
        corrupted[idx] += Complex64::new(3.0, 1.0);
        match combined_verify(&corrupted, &ra, ck, 1e-8) {
            MemVerdict::Located { index, delta } => {
                prop_assert_eq!(index, idx);
                prop_assert!(delta.approx_eq(Complex64::new(3.0, 1.0), 1e-5));
            }
            v => prop_assert!(false, "expected Located, got {:?}", v),
        }
    }

    /// The protected transform equals the plain transform bit-for-bit in
    /// fault-free runs (protection must not perturb results).
    #[test]
    fn protected_equals_plain_when_fault_free(x in arb_signal(9)) {
        let n = x.len();
        let plain = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::Plain));
        let prot = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let mut a = x.clone();
        let mut out_a = vec![Complex64::ZERO; n];
        plain.execute_alloc(&mut a, &mut out_a, &NoFaults);
        let mut b = x.clone();
        let mut out_b = vec![Complex64::ZERO; n];
        let rep = prot.execute_alloc(&mut b, &mut out_b, &NoFaults);
        prop_assert!(rep.is_clean());
        prop_assert_eq!(out_a, out_b);
    }

    /// A random computational fault of visible size is always detected and
    /// the final output still matches the clean transform.
    #[test]
    fn injected_subfft_fault_always_detected(
        x in arb_signal(9),
        element in 0usize..64,
        magnitude in prop::sample::select(vec![1e-3f64, 1e-1, 1.0, 100.0]),
    ) {
        let n = x.len();
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
        let k = plan.two().k();
        let idx = element % k;
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            Site::SubFftCompute { part: Part::First, index: idx },
            element,
            FaultKind::AddDelta { re: magnitude, im: 0.0 },
        )]);
        let mut a = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute_alloc(&mut a, &mut out, &inj);
        prop_assert_eq!(rep.comp_detected, 1, "{:?}", rep);
        let want = fft(&x);
        prop_assert!(ftfft::numeric::max_abs_diff(&out, &want) < 1e-8 * n as f64);
    }

    /// The planner's FFT agrees with the O(n²) reference DFT for *any*
    /// size (radix-2, mixed-radix, and Bluestein paths) and for both of
    /// the paper's input distributions.
    #[test]
    fn fft_matches_dft_naive(
        n in 2usize..=96,
        dist in prop::sample::select(vec![SignalDist::Uniform, SignalDist::Normal]),
        seed in 0u64..1024,
    ) {
        let x = dist.generate(n, seed);
        let got = fft(&x);
        let want = dft_naive(&x, Direction::Forward);
        let err = ftfft::numeric::max_abs_diff(&got, &want);
        prop_assert!(err < 1e-9 * (n as f64).powi(2), "n={n} {dist:?} err={err}");
    }

    /// Round trip holds off the power-of-two fast path too (mixed-radix
    /// and Bluestein sizes, both distributions).
    #[test]
    fn fft_round_trip_any_size(
        n in 2usize..=257,
        dist in prop::sample::select(vec![SignalDist::Uniform, SignalDist::Normal]),
        seed in 0u64..1024,
    ) {
        let x = dist.generate(n, seed);
        let mut z = ifft(&fft(&x));
        normalize(&mut z);
        let err = ftfft::numeric::max_abs_diff(&z, &x);
        prop_assert!(err < 1e-8, "n={n} {dist:?} err={err}");
    }

    /// A visible scripted fault at *any* site the OnlineMemOpt scheme
    /// claims to cover (input/intermediate/output memory, sub-FFT compute)
    /// is detected, and the delivered output still matches the clean
    /// transform.
    #[test]
    fn scripted_fault_at_covered_site_detected(
        log2n in 6u32..10,
        site_sel in 0usize..4,
        idx_frac in 0.0f64..1.0,
        magnitude in prop::sample::select(vec![0.5f64, 3.0, 50.0]),
    ) {
        let n = 1usize << log2n;
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let element = ((idx_frac * n as f64) as usize).min(n - 1);
        let site = match site_sel {
            0 => Site::InputMemory,
            1 => Site::IntermediateMemory,
            2 => Site::OutputMemory,
            _ => Site::SubFftCompute { part: Part::First, index: element % plan.two().k() },
        };
        let inj = ScriptedInjector::new(vec![ScriptedFault::new(
            site,
            element,
            FaultKind::AddDelta { re: magnitude, im: -magnitude },
        )]);
        let x = uniform_signal(n, log2n as u64 * 1009 + site_sel as u64);
        let mut xin = x.clone();
        let mut out = vec![Complex64::ZERO; n];
        let rep = plan.execute_alloc(&mut xin, &mut out, &inj);
        prop_assert!(inj.unfired().is_empty(), "fault never fired: {site:?}");
        match site {
            Site::SubFftCompute { .. } => {
                prop_assert!(rep.comp_detected >= 1, "{site:?} el={element}: {rep:?}")
            }
            _ => prop_assert!(rep.mem_detected >= 1, "{site:?} el={element}: {rep:?}"),
        }
        let want = fft(&x);
        let err = ftfft::numeric::max_abs_diff(&out, &want);
        prop_assert!(err < 1e-8 * n as f64, "{site:?} el={element} err={err}");
    }

    /// Parallel == sequential for random power-of-two sizes and rank counts.
    #[test]
    fn parallel_matches_sequential(log2n in 8u32..12, logp in 0u32..3) {
        let n = 1usize << log2n;
        let p = 1usize << logp;
        let x = uniform_signal(n, log2n as u64 * 31 + logp as u64);
        let want = fft(&x);
        let plan = ParallelFft::new(n, p, ParallelScheme::OptFtFftw, None, 3);
        let (out, rep) = plan.run(&x, &NoFaults);
        prop_assert!(rep.is_clean(), "{:?}", rep);
        prop_assert!(relative_error_inf(&out, &want) < 1e-9);
    }

    /// Every power-of-two kernel (radix-2, radix-4, split-radix) agrees
    /// with the O(n²) reference DFT at sizes 2¹–2¹² on seeded signals.
    #[test]
    fn pow2_kernels_match_dft_naive(
        log2n in 1u32..=12,
        dist in prop::sample::select(vec![SignalDist::Uniform, SignalDist::Normal]),
        seed in 0u64..1024,
    ) {
        let n = 1usize << log2n;
        let x = dist.generate(n, seed);
        let want = dft_naive(&x, Direction::Forward);
        for kernel in Pow2Kernel::ALL {
            let plan = kernel_plan(n, kernel);
            let mut got = vec![Complex64::ZERO; n];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute(&x, &mut got, &mut scratch);
            let err = ftfft::numeric::max_abs_diff(&got, &want);
            prop_assert!(err < 1e-9 * n as f64, "{} n={n} err={err}", kernel.name());
        }
    }

    /// Fused gather+checksum equals the separate gather-then-checksum
    /// passes **bitwise**, for any count/stride/offset — both the sum1
    /// and the full combined-pair routines, clean and corrupted inputs.
    #[test]
    fn fused_gather_checksum_bitwise_equals_separate(
        count in 1usize..300,
        stride in 1usize..20,
        offset_frac in 0.0f64..1.0,
        corrupt in 0usize..2,
    ) {
        let offset = ((offset_frac * stride as f64) as usize).min(stride - 1);
        let mut src = uniform_signal(offset + count * stride, count as u64 * 31 + stride as u64);
        if corrupt == 1 {
            // A corrupted source must flow through both paths identically.
            let idx = (count / 2) * stride + offset;
            src[idx] = Complex64::new(1e9, -1e9);
        }
        let ra = input_checksum_vector(count, Direction::Forward);

        let mut fused_buf = vec![Complex64::ZERO; count];
        let fused1 = gather_sum1(&src, offset, stride, &ra, &mut fused_buf);
        let mut sep_buf = vec![Complex64::ZERO; count];
        gather(&src, offset, stride, &mut sep_buf);
        prop_assert_eq!(&fused_buf, &sep_buf);
        prop_assert_eq!(fused1, combined_sum1(&sep_buf, &ra));

        let pair = gather_combined(&src, offset, stride, &ra, &mut fused_buf);
        prop_assert_eq!(&fused_buf, &sep_buf);
        prop_assert_eq!(pair, combined_checksum(&sep_buf, &ra));
    }

    /// The SIMD micro-kernels equal the scalar fallback **bitwise** at
    /// every size and alignment (slices starting at odd offsets force
    /// unaligned vector loads). This is the dispatch-level reproducibility
    /// contract the checksum thresholds rely on.
    #[test]
    fn simd_kernels_bitwise_equal_scalar_fallback(
        n in 1usize..260,
        off in 0usize..4,
        seed in 0u64..512,
    ) {
        let x = uniform_signal(n + off, seed);
        let w = uniform_signal(n + off, seed + 7);
        let xs = &x[off..];
        let ws_ = &w[off..];
        let at = |level: SimdLevel| {
            ftfft::numeric::force_level(Some(level));
            let d = simd::dot(xs, ws_);
            let p = simd::dot_pair(xs, ws_);
            let s = simd::weighted_sum3(xs, Complex64::I, -Complex64::ONE);
            let mut a = xs.to_vec();
            simd::cmul_inplace(&mut a, ws_);
            let mut acc1 = ws_.to_vec();
            let mut acc2 = xs.to_vec();
            simd::axpy2(&mut acc1, &mut acc2, xs, Complex64::I, Complex64::ONE);
            (d, p, s, a, acc1, acc2)
        };
        let scalar = at(SimdLevel::Scalar);
        let hw = {
            ftfft::numeric::force_level(None);
            simd_level()
        };
        if hw == SimdLevel::Avx {
            let avx = at(SimdLevel::Avx);
            ftfft::numeric::force_level(None);
            prop_assert_eq!(scalar, avx);
        }
    }

    /// Threaded part-1 (PooledFtFft) detects and corrects scripted faults
    /// identically to the single-threaded executor: same outputs bitwise,
    /// same report, at any worker count.
    #[test]
    fn pooled_part1_equals_serial_under_faults(
        log2n in 6u32..10,
        threads in 2usize..6,
        element in 0usize..64,
        magnitude in prop::sample::select(vec![1e-3f64, 0.5, 10.0]),
    ) {
        let n = 1usize << log2n;
        let mk_faults = |k: usize| vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: element % k },
                element,
                FaultKind::AddDelta { re: magnitude, im: -magnitude },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: (element / 2) % k },
                element / 3,
                FaultKind::AddDelta { re: 0.0, im: magnitude },
            ),
        ];
        let x0 = uniform_signal(n, 5);

        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineCompOpt));
        let k = plan.two().k();
        let inj = ScriptedInjector::new(mk_faults(k));
        let mut xs = x0.clone();
        let mut want = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let want_rep = plan.execute(&mut xs, &mut want, &inj, &mut ws);

        let pooled = PooledFtFft::new(FtFftPlan::new(
            n,
            Direction::Forward,
            FtConfig::new(Scheme::OnlineCompOpt).with_threads(threads),
        ));
        let inj2 = ScriptedInjector::new(mk_faults(k));
        let mut xp = x0.clone();
        let mut got = vec![Complex64::ZERO; n];
        let mut pws = pooled.make_workspace();
        let got_rep = pooled.execute(&mut xp, &mut got, &inj2, &mut pws);

        prop_assert!(inj2.exhausted(), "threads={threads}");
        prop_assert_eq!(got_rep, want_rep, "threads={}", threads);
        prop_assert_eq!(got, want, "threads={}", threads);
    }

    /// Radix-4 and split-radix agree with the radix-2 kernel on the same
    /// seeded input at sizes 2¹–2¹² (tight tolerance: all three compute
    /// the same decimation, only the operation grouping differs).
    #[test]
    fn pow2_kernels_agree_with_radix2(log2n in 1u32..=12, seed in 0u64..1024) {
        let n = 1usize << log2n;
        let x = uniform_signal(n, seed);
        let r2 = kernel_plan(n, Pow2Kernel::Radix2);
        let mut want = vec![Complex64::ZERO; n];
        let mut r2_scratch = vec![Complex64::ZERO; r2.scratch_len()];
        r2.execute(&x, &mut want, &mut r2_scratch);
        for kernel in [Pow2Kernel::Radix4, Pow2Kernel::SplitRadix] {
            let plan = kernel_plan(n, kernel);
            let mut got = vec![Complex64::ZERO; n];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute(&x, &mut got, &mut scratch);
            let err = ftfft::numeric::max_abs_diff(&got, &want);
            prop_assert!(err < 1e-11 * n as f64, "{} n={n} err={err}", kernel.name());
        }
    }

    /// `FtFftPlan::execute_batch` produces exactly the outputs and report
    /// of a hand-written loop over `execute` — fault-free.
    #[test]
    fn ft_batch_equals_looped_execute_clean(
        log2n in 4u32..9,
        batch in 1usize..5,
        seed in 0u64..512,
    ) {
        let n = 1usize << log2n;
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let src = uniform_signal(n * batch, seed);

        let mut xs = src.clone();
        let mut outs = vec![Complex64::ZERO; n * batch];
        let mut ws = plan.make_workspace();
        let rep_batch = plan.execute_batch(&mut xs, &mut outs, &NoFaults, &mut ws);

        let mut looped = vec![Complex64::ZERO; n * batch];
        let mut rep_loop = FtReport::new();
        let mut ws2 = plan.make_workspace();
        let mut xs2 = src.clone();
        for (x, out) in xs2.chunks_exact_mut(n).zip(looped.chunks_exact_mut(n)) {
            rep_loop.merge(&plan.execute(x, out, &NoFaults, &mut ws2));
        }
        prop_assert!(rep_batch.is_clean(), "{:?}", rep_batch);
        prop_assert_eq!(rep_batch, rep_loop);
        prop_assert_eq!(outs, looped);
    }

    /// Batch ≡ loop also under scripted faults: identical injectors see
    /// identical site-visit sequences, so detection counters, corrections,
    /// and outputs all line up, and every transform is still correct.
    #[test]
    fn ft_batch_equals_looped_execute_under_faults(
        log2n in 6u32..9,
        batch in 2usize..4,
        element in 0usize..64,
        magnitude in prop::sample::select(vec![0.5f64, 3.0, 50.0]),
    ) {
        let n = 1usize << log2n;
        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(Scheme::OnlineMemOpt));
        let faults = vec![
            ScriptedFault::new(
                Site::InputMemory,
                element % n,
                FaultKind::AddDelta { re: magnitude, im: -magnitude },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: element % plan.two().k() },
                element,
                FaultKind::AddDelta { re: magnitude, im: 0.0 },
            ),
        ];
        let src = uniform_signal(n * batch, 77 + element as u64);

        let mut xs = src.clone();
        let mut outs = vec![Complex64::ZERO; n * batch];
        let mut ws = plan.make_workspace();
        let inj_batch = ScriptedInjector::new(faults.clone());
        let rep_batch = plan.execute_batch(&mut xs, &mut outs, &inj_batch, &mut ws);

        let mut looped = vec![Complex64::ZERO; n * batch];
        let mut rep_loop = FtReport::new();
        let mut ws2 = plan.make_workspace();
        let mut xs2 = src.clone();
        let inj_loop = ScriptedInjector::new(faults);
        for (x, out) in xs2.chunks_exact_mut(n).zip(looped.chunks_exact_mut(n)) {
            rep_loop.merge(&plan.execute(x, out, &inj_loop, &mut ws2));
        }
        prop_assert_eq!(rep_batch, rep_loop);
        prop_assert_eq!(&outs, &looped);
        prop_assert_eq!(rep_batch.uncorrectable, 0, "{:?}", rep_batch);
        // Both faults fired and were repaired: every chunk matches the
        // clean transform.
        for (x, out) in src.chunks_exact(n).zip(outs.chunks_exact(n)) {
            let want = fft(x);
            let err = ftfft::numeric::max_abs_diff(out, &want);
            prop_assert!(err < 1e-8 * n as f64, "err={err}");
        }
    }

    /// The split-complex (SoA) engine is bitwise identical to the AoS
    /// kernels: every power-of-two kernel, 2^1–2^12, forward and inverse,
    /// at both SIMD dispatch levels. Split-radix has no SoA engine, so
    /// its SoA pin must build the AoS plan.
    #[test]
    fn soa_layout_bitwise_equals_aos_all_kernels(
        log2n in 1u32..=12,
        seed in 0u64..512,
        forward in 0u8..2,
    ) {
        let n = 1usize << log2n;
        let dir = if forward == 1 { Direction::Forward } else { Direction::Inverse };
        let x = uniform_signal(n, seed);
        let run = |kernel: Pow2Kernel, layout: Layout| {
            let plan = pinned_plan(n, dir, kernel, layout);
            let want = if kernel == Pow2Kernel::SplitRadix { Layout::Aos } else { layout };
            assert_eq!(plan.layout(), want, "{} pinned {}", kernel.name(), layout.name());
            let mut dst = vec![Complex64::ZERO; n];
            let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
            plan.execute(&x, &mut dst, &mut scratch);
            dst
        };
        for kernel in Pow2Kernel::ALL {
            let at = |level: SimdLevel| {
                ftfft::numeric::force_level(Some(level));
                let out = (run(kernel, Layout::Aos), run(kernel, Layout::Soa));
                ftfft::numeric::force_level(None);
                out
            };
            let (aos_s, soa_s) = at(SimdLevel::Scalar);
            prop_assert_eq!(&aos_s, &soa_s, "{} scalar layouts differ", kernel.name());
            if simd_level() == SimdLevel::Avx {
                let (aos_v, soa_v) = at(SimdLevel::Avx);
                prop_assert_eq!(&aos_v, &soa_v, "{} avx layouts differ", kernel.name());
                prop_assert_eq!(&aos_s, &aos_v, "{} aos levels differ", kernel.name());
                prop_assert_eq!(&soa_s, &soa_v, "{} soa levels differ", kernel.name());
            }
        }
    }

    /// A scripted fault campaign behaves identically whichever execution
    /// strategy runs it: the serial executor and the pooled executor at
    /// any worker count 1–8 must produce the same outputs bitwise and the
    /// same report, with faults striking both parts — under both the
    /// unoptimized and the optimized computational scheme.
    #[test]
    fn fault_campaign_identical_across_worker_strategies(
        log2n in 6u32..10,
        threads in 1usize..=8,
        element in 0usize..64,
        magnitude in prop::sample::select(vec![1e-3f64, 0.5, 10.0]),
        scheme in prop::sample::select(vec![Scheme::OnlineComp, Scheme::OnlineCompOpt]),
    ) {
        let n = 1usize << log2n;
        let mk_faults = |k: usize, m: usize| vec![
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::First, index: element % k },
                element % m,
                FaultKind::AddDelta { re: magnitude, im: -magnitude },
            ),
            ScriptedFault::new(
                Site::SubFftCompute { part: Part::Second, index: element % m },
                element % k,
                FaultKind::AddDelta { re: 0.0, im: magnitude },
            ),
        ];
        let x0 = uniform_signal(n, 13 + element as u64);

        let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
        let (k, m) = (plan.two().k(), plan.two().m());
        let inj = ScriptedInjector::new(mk_faults(k, m));
        let mut xs = x0.clone();
        let mut want = vec![Complex64::ZERO; n];
        let mut ws = plan.make_workspace();
        let want_rep = plan.execute(&mut xs, &mut want, &inj, &mut ws);
        prop_assert!(inj.exhausted());

        let pooled = PooledFtFft::new(FtFftPlan::new(
            n,
            Direction::Forward,
            FtConfig::new(scheme).with_threads(threads),
        ));
        let inj2 = ScriptedInjector::new(mk_faults(k, m));
        let mut xp = x0.clone();
        let mut got = vec![Complex64::ZERO; n];
        let mut pws = pooled.make_workspace();
        let got_rep = pooled.execute(&mut xp, &mut got, &inj2, &mut pws);

        prop_assert!(inj2.exhausted(), "threads={threads}");
        prop_assert_eq!(got_rep, want_rep, "{:?} threads={}", scheme, threads);
        prop_assert_eq!(got, want, "{:?} threads={}", scheme, threads);
        prop_assert_eq!(want_rep.uncorrectable, 0, "{:?}", want_rep);
    }

    /// A scripted fault campaign behaves identically whichever layout the
    /// protected executors' sub-plans run: same outputs bitwise, same
    /// report, and the correction lands on the right element even though
    /// the SoA path detects it through the split-plane gather+checksum.
    #[test]
    fn fault_campaign_identical_across_layouts(
        log2n in 6u32..10,
        element in 0usize..64,
        magnitude in prop::sample::select(vec![1e-3f64, 0.5, 20.0]),
        scheme in prop::sample::select(vec![Scheme::OnlineCompOpt, Scheme::OnlineMemOpt]),
    ) {
        let n = 1usize << log2n;
        let src = uniform_signal(n, 31 + element as u64);
        // Memory faults are only correctable by the memory hierarchy;
        // the computational scheme gets a second compute fault instead.
        let mk_faults = |k: usize| {
            let m = n / k;
            let first = if scheme.protects_memory() {
                ScriptedFault::new(
                    Site::InputMemory,
                    element % n,
                    FaultKind::SetValue { re: 4.0 + magnitude, im: -3.0 },
                )
            } else {
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::Second, index: element % m },
                    element % k,
                    FaultKind::AddDelta { re: magnitude, im: magnitude },
                )
            };
            vec![
                first,
                ScriptedFault::new(
                    Site::SubFftCompute { part: Part::First, index: element % k },
                    element % m,
                    FaultKind::AddDelta { re: 0.0, im: magnitude },
                ),
            ]
        };
        let run = |layout: Layout| {
            force_layout(Some(layout));
            let plan = FtFftPlan::new(n, Direction::Forward, FtConfig::new(scheme));
            force_layout(None);
            let inj = ScriptedInjector::new(mk_faults(plan.two().k()));
            let mut x = src.clone();
            let mut out = vec![Complex64::ZERO; n];
            let mut ws = plan.make_workspace();
            let rep = plan.execute(&mut x, &mut out, &inj, &mut ws);
            prop_assert!(inj.exhausted(), "not every fault fired");
            Ok((out, rep))
        };
        let (out_aos, rep_aos) = run(Layout::Aos)?;
        let (out_soa, rep_soa) = run(Layout::Soa)?;
        prop_assert_eq!(&out_aos, &out_soa, "layouts disagree after correction");
        prop_assert_eq!(rep_aos, rep_soa);
        prop_assert_eq!(rep_soa.uncorrectable, 0, "{:?}", rep_soa);
        // The corrections landed: the output matches the clean transform.
        let want = fft(&src);
        let err = ftfft::numeric::max_abs_diff(&out_soa, &want);
        prop_assert!(err < 1e-8 * n as f64, "err={err}");
    }
}

/// Feeds `stream` to a fresh synchronizer in chunks whose sizes cycle
/// through `sizes`, collecting every emitted frame and the final stats.
fn sync_in_chunks(stream: &[u8], frame_len: usize, sizes: &[usize]) -> (Vec<Vec<f64>>, SyncStats) {
    let mut sync = FrameSync::new(frame_len);
    let mut frames = Vec::new();
    let (mut rest, mut sizes) = (stream, sizes.iter().copied().cycle());
    while !rest.is_empty() {
        let size = sizes.next().expect("cycle over a non-empty slice").min(rest.len());
        let (head, tail) = rest.split_at(size);
        sync.push(head, &mut |f| frames.push(f));
        rest = tail;
    }
    (frames, sync.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The `FrameSync` byte parser fails closed on hostile input: encoded
    /// frames each preceded by random garbage, then random bit flips and
    /// a truncated tail, fed under a random chunking. It must not panic,
    /// must emit exactly the frames and stats of one push of the same
    /// bytes, and must account for every byte — what it has neither
    /// skipped nor decoded is less than one frame.
    #[test]
    fn frame_sync_is_chunking_invariant_and_conserves_bytes(
        frame_len in 1usize..=24,
        frames in prop::collection::vec(
            (prop::collection::vec(0u8..=255, 0..=12), prop::collection::vec(-1.0f64..1.0, 24)),
            0..=6,
        ),
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..=4),
        keep_permille in 0usize..=1500,
        chunks in prop::collection::vec(1usize..=64, 1..=8),
    ) {
        let mut stream = Vec::new();
        for (garbage, samples) in &frames {
            stream.extend_from_slice(garbage);
            stream.extend(encode_stream(&samples[..frame_len], frame_len));
        }
        if !stream.is_empty() {
            for &(pos, bit) in &flips {
                let i = pos % stream.len();
                stream[i] ^= 1 << bit;
            }
        }
        stream.truncate(stream.len() * keep_permille.min(1000) / 1000);

        let (want_frames, want_stats) = sync_in_chunks(&stream, frame_len, &[usize::MAX]);
        let (got_frames, got_stats) = sync_in_chunks(&stream, frame_len, &chunks);
        prop_assert_eq!(&got_frames, &want_frames, "chunks {:?}", chunks);
        prop_assert_eq!(got_stats, want_stats, "chunks {:?}", chunks);

        let frame_bytes = (4 + 2 * frame_len) as u64;
        prop_assert_eq!(got_stats.bytes_in, stream.len() as u64);
        prop_assert_eq!(got_stats.frames_synced, got_frames.len() as u64);
        let accounted = got_stats.bytes_skipped + got_stats.frames_synced * frame_bytes;
        let pending = got_stats.bytes_in.checked_sub(accounted);
        prop_assert!(
            matches!(pending, Some(p) if p < frame_bytes),
            "{:?} leaves {:?} bytes pending with {}-byte frames",
            got_stats,
            pending,
            frame_bytes
        );
    }
}

/// One bin of the DFT of `x`, summed directly (`O(n)`) — the `dft_naive`
/// oracle for transforms too large to evaluate in full.
fn naive_bin(x: &[Complex64], j: usize, dir: Direction) -> Complex64 {
    let n = x.len();
    let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
    let mut acc = Complex64::ZERO;
    for (t, &v) in x.iter().enumerate() {
        let ang = sign * 2.0 * std::f64::consts::PI * ((t * j) % n) as f64 / n as f64;
        acc += v * Complex64::new(ang.cos(), ang.sin());
    }
    acc
}

/// The column-batched two-layer kernel at every power-of-two split from
/// 2^2 to 2^16, both directions: every block width (1, 3 and the plan's
/// own) gives each sub-FFT column exactly the bits of the single-column
/// primitive, in both parts, and the whole transform and its columns
/// match the direct DFT within 1e-9·n (every bin up to 2^10, 16 sampled
/// bins above).
#[test]
fn column_batched_two_layer_equals_width_one_and_naive() {
    let bits = |v: &[Complex64]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    let planner = Planner::new();
    for log2n in 2..=16u32 {
        let n = 1usize << log2n;
        for dir in [Direction::Forward, Direction::Inverse] {
            let x = uniform_signal(n, 7 + log2n as u64);
            let bins: Vec<usize> = if n <= 1 << 10 {
                (0..n).collect()
            } else {
                (0..16).map(|i| (i * 40_503) % n).collect()
            };
            let want: Vec<Complex64> = if n <= 1 << 10 {
                dft_naive(&x, dir)
            } else {
                bins.iter().map(|&j| naive_bin(&x, j, dir)).collect()
            };
            // Every split k = 2^a; above 2^12 the balanced half of them,
            // which still covers odd and even log₂ of both sub-sizes.
            let splits: Vec<u32> = if log2n <= 12 {
                (0..=log2n).collect()
            } else {
                (log2n / 2 - 2..=log2n / 2 + 2).collect()
            };
            for a in splits {
                let two = TwoLayerPlan::with_split(&planner, n, 1 << a, dir);
                let (k, m) = (two.k(), two.m());
                let what = format!("n=2^{log2n} k={k} {dir:?}");
                let mut s = two.make_scratch();
                let mut out = vec![Complex64::ZERO; n];
                two.execute(&x, &mut out, &mut s);
                let tol = 1e-9 * n as f64;
                for (&j, w) in bins.iter().zip(&want) {
                    assert!(out[j].approx_eq(*w, tol), "{what} bin {j}");
                }

                let mut block = vec![Complex64::ZERO; two.block_len()];
                let mut fft = vec![Complex64::ZERO; two.scratch_len()];
                let mut one = vec![Complex64::ZERO; k.max(m)];
                let mut col = vec![Complex64::ZERO; k.max(m)];
                for w in [1, 3, two.first_block_width()] {
                    let w = w.min(two.first_block_width());
                    for c0 in (0..k).step_by(w) {
                        let w = w.min(k - c0);
                        two.first_block(&x, c0, w, &mut block, |_, _| {});
                        for c in 0..w {
                            two.first_block_column(&mut block, w, c, &mut col);
                            two.first_fft(&x, c0 + c, &mut one, &mut fft);
                            assert_eq!(
                                bits(&col[..m]),
                                bits(&one[..m]),
                                "{what} part 1 w={w} col {}",
                                c0 + c
                            );
                        }
                    }
                }
                // Part 2 over an arbitrary k × m matrix.
                let y = uniform_signal(n, 99 + a as u64);
                for w in [1, 3, two.second_block_width()] {
                    let w = w.min(two.second_block_width());
                    for c0 in (0..m).step_by(w) {
                        let w = w.min(m - c0);
                        two.second_block(&y, c0, w, &mut block, |_, _| {});
                        for c in 0..w {
                            two.second_block_column(&mut block, w, c, &mut col);
                            two.second_fft(&y, c0 + c, &mut one, &mut fft);
                            assert_eq!(
                                bits(&col[..k]),
                                bits(&one[..k]),
                                "{what} part 2 w={w} col {}",
                                c0 + c
                            );
                        }
                    }
                }
                // One first-part column against the direct DFT of its input.
                if m <= 1 << 10 {
                    let n1 = k / 2;
                    let mut input = vec![Complex64::ZERO; m];
                    two.gather_first(&x, n1, &mut input);
                    two.first_fft(&x, n1, &mut one, &mut fft);
                    let want_col = dft_naive(&input, dir);
                    assert!(
                        max_abs_diff(&one[..m], &want_col) < 1e-9 * m as f64,
                        "{what} column {n1} vs naive"
                    );
                }
            }
        }
    }
}
