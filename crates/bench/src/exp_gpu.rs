//! The GPU evaluation: Tables VII–XI, Figs. 14–17.
//!
//! CPU columns come in two flavours (README, *Substitutions*):
//! *measured* wall time of this repo's lean Rust Hogwild engine on the
//! host that runs it, and *modeled* time of the paper's odgi baseline
//! (32-thread Xeon, succinct structures, full memory hierarchy) from the
//! CPU cache simulation. GPU columns are modeled from simulator-counted
//! events. Speedup columns compare modeled-to-modeled, the
//! apples-to-apples pairing.

use crate::common::{build, catalog_run, emit, geomean, hms, layout_cfg, secs, Ctx};
use draw::rasterize;
use gpu_sim::cpusim::{characterize_cpu, cpu_model, modeled_cpu_time_s};
use gpu_sim::{GpuEngine, GpuSpec, KernelConfig};
use layout_core::batch::BatchEngine;
use layout_core::coords::DataLayout;
use layout_core::cpu::CpuEngine;
use layout_core::LayoutConfig;
use pangraph::lean::LeanGraph;
use pgio::Table;
use pgmetrics::{sampled_path_stress, SampledStress, SamplingConfig};
use workloads::hprc_catalog;

/// Table VII: run time and speedup over the 24 chromosomes.
pub fn table7(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let run = catalog_run(ctx);
    let mut t = Table::new(&[
        "Pan.",
        "CPU modeled",
        "CPU measured(lean)",
        "A6000",
        "Speedup",
        "A100",
        "Speedup",
        "paper: CPU",
        "paper: A6000 x",
        "paper: A100 x",
    ]);
    let mut sp6 = Vec::new();
    let mut sp1 = Vec::new();
    for c in &run.chroms {
        let s6 = c.cpu_modeled_s / c.a6000.0;
        let s1 = c.cpu_modeled_s / c.a100.0;
        sp6.push(s6);
        sp1.push(s1);
        t.row(vec![
            c.entry.name.to_string(),
            hms(c.cpu_modeled_s),
            hms(c.cpu_measured_s),
            hms(c.a6000.0),
            format!("{s6:.1}x"),
            hms(c.a100.0),
            format!("{s1:.1}x"),
            hms(c.entry.cpu_paper_s),
            format!("{:.1}x", c.entry.a6000_paper_speedup()),
            format!("{:.1}x", c.entry.a100_paper_speedup()),
        ]);
    }
    let g6 = geomean(&sp6);
    let g1 = geomean(&sp1);
    t.row(vec![
        "GeoMean".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{g6:.1}x"),
        String::new(),
        format!("{g1:.1}x"),
        String::new(),
        "27.7x".into(),
        "57.3x".into(),
    ]);
    emit(ctx, "table7", &t);

    if !(8.0..120.0).contains(&g6) {
        fails.push(format!(
            "A6000 geomean speedup {g6:.1}x outside the paper's band"
        ));
    }
    if g1 <= g6 {
        fails.push(format!("A100 ({g1:.1}x) must beat A6000 ({g6:.1}x)"));
    }
    let max_cpu = run
        .chroms
        .iter()
        .max_by(|a, b| a.cpu_modeled_s.total_cmp(&b.cpu_modeled_s))
        .unwrap();
    if max_cpu.entry.name != "chr1" && max_cpu.entry.name != "chr16" {
        fails.push(format!(
            "largest modeled CPU time on {}, expected chr1/chr16",
            max_cpu.entry.name
        ));
    }
    fails
}

/// Table VIII: layout quality (sampled path stress) CPU vs GPU.
pub fn table8(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let run = catalog_run(ctx);
    let cfg = SamplingConfig::default();
    let mut t = Table::new(&[
        "Pan.",
        "CPU CI95",
        "A6000 CI95",
        "SPS ratio",
        "A100 CI95",
        "SPS ratio",
    ]);
    let fmt_ci = |s: &SampledStress| format!("[{:.3}, {:.3}]", s.ci_lo, s.ci_hi);
    let mut r6 = Vec::new();
    let mut r1 = Vec::new();
    for c in &run.chroms {
        let cpu = sampled_path_stress(&c.cpu_layout, &c.lean, cfg);
        let a6000 = sampled_path_stress(&c.a6000.1, &c.lean, cfg);
        let a100 = sampled_path_stress(&c.a100.1, &c.lean, cfg);
        let ratio6 = a6000.mean / cpu.mean.max(1e-12);
        let ratio1 = a100.mean / cpu.mean.max(1e-12);
        r6.push(ratio6);
        r1.push(ratio1);
        t.row(vec![
            c.entry.name.to_string(),
            fmt_ci(&cpu),
            fmt_ci(&a6000),
            format!("{ratio6:.2}"),
            fmt_ci(&a100),
            format!("{ratio1:.2}"),
        ]);
        if !c.a6000.1.all_finite() || !c.a100.1.all_finite() {
            fails.push(format!("{}: non-finite GPU layout", c.entry.name));
        }
    }
    let g6 = geomean(&r6);
    let g1 = geomean(&r1);
    t.row(vec![
        "GeoMean".into(),
        String::new(),
        String::new(),
        format!("{g6:.2} (paper 1.08)"),
        String::new(),
        format!("{g1:.2} (paper 1.03)"),
    ]);
    emit(ctx, "table8", &t);

    // The paper's per-chromosome ratios span 0.47–2.31; at the scaled
    // near-converged stress levels the ratio is noisier, so gate the
    // geomean generously: "no quality loss" = same order of magnitude.
    for (name, g) in [("A6000", g6), ("A100", g1)] {
        if !(0.25..6.0).contains(&g) {
            fails.push(format!("{name} geomean SPS ratio {g:.2} out of band"));
        }
    }
    fails
}

/// Fig. 14: side-by-side CPU and GPU renders of Chr.7.
pub fn fig14(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let run = catalog_run(ctx);
    let c = run
        .chroms
        .iter()
        .find(|c| c.entry.name == "chr7")
        .expect("chr7 in catalog");
    for (label, layout) in [("cpu", &c.cpu_layout), ("gpu", &c.a6000.1)] {
        let img = rasterize(layout, &c.lean, 1400);
        let path = ctx.out_dir.join(format!("fig14_chr7_{label}.ppm"));
        if img.write_ppm(&path).is_err() {
            fails.push(format!("could not write {}", path.display()));
            continue;
        }
        println!(
            "wrote {} (ink {:.3}%)",
            path.display(),
            img.ink_fraction() * 100.0
        );
        if img.ink_fraction() < 1e-4 {
            fails.push(format!("{label} render is blank"));
        }
    }
    fails
}

/// Fig. 15: run time is linear in total path length, on CPU and GPU.
pub fn fig15(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let lcfg = layout_cfg();
    let mut xs = Vec::new();
    let mut cpu_t = Vec::new();
    let mut gpu_t = Vec::new();
    let mut t = Table::new(&["total path length", "CPU measured (s)", "A6000 modeled (s)"]);
    for mult in [0.25, 0.5, 0.75, 1.0, 1.5] {
        let spec = hprc_catalog()[0].spec(ctx.scale * mult);
        let (_, lean) = build(&spec);
        let x = lean.total_path_nuc_len() as f64;
        let (_, rep) = CpuEngine::new(lcfg.clone()).run(&lean);
        let (_, gpu) = GpuEngine::new(
            GpuSpec::a6000(),
            lcfg.clone(),
            KernelConfig::optimized(ctx.scale * mult),
        )
        .run(&lean);
        xs.push(x);
        cpu_t.push(secs(rep.wall));
        gpu_t.push(gpu.modeled_s());
        t.row(vec![
            format!("{x:.3e}"),
            format!("{:.3}", secs(rep.wall)),
            format!("{:.3}", gpu.modeled_s()),
        ]);
    }
    emit(ctx, "fig15", &t);

    let r_cpu = pgmetrics::pearson(&xs, &cpu_t);
    let r_gpu = pgmetrics::pearson(&xs, &gpu_t);
    println!("linearity: pearson r CPU = {r_cpu:.4}, GPU = {r_gpu:.4}");
    if r_cpu < 0.9 {
        fails.push(format!(
            "CPU time not linear in path length (r = {r_cpu:.3})"
        ));
    }
    if r_gpu < 0.97 {
        fails.push(format!(
            "GPU modeled time not linear in path length (r = {r_gpu:.3})"
        ));
    }
    fails
}

/// Fig. 16: the speedup waterfall across successive optimizations.
pub fn fig16(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let spec = hprc_catalog()[0].spec(ctx.scale);
    let (_, lean) = build(&spec);
    let lcfg = layout_cfg();

    // CPU baseline and CPU+CDL: modeled odgi-style times from the cache
    // simulation (SoA vs AoS trace).
    let base_trace = characterize_cpu(&lean, &lcfg, DataLayout::OriginalSoa, ctx.scale, 120_000);
    let cdl_trace = characterize_cpu(
        &lean,
        &lcfg,
        DataLayout::CacheFriendlyAos,
        ctx.scale,
        120_000,
    );
    let cpu_base = modeled_cpu_time_s(&lean, &lcfg, &base_trace, cpu_model::THREADS);
    let cpu_cdl = modeled_cpu_time_s(&lean, &lcfg, &cdl_trace, cpu_model::THREADS);

    // Lean-port measured walls for the same two layouts (reported, not
    // part of the modeled chain).
    let wall = |layout: DataLayout| {
        let cfg = LayoutConfig {
            data_layout: layout,
            ..lcfg.clone()
        };
        secs(CpuEngine::new(cfg).run(&lean).1.wall)
    };
    let lean_soa = wall(DataLayout::OriginalSoa);
    let lean_aos = wall(DataLayout::CacheFriendlyAos);

    // PyTorch-style batch engine: measured on host, with its modeled
    // launch overhead included (reported with a caveat).
    let steps = lcfg.steps_per_iter(lean.total_steps() as u64) as usize;
    let (_, batch_rep) = BatchEngine::new(lcfg.clone(), (steps / 200).max(64)).run(&lean);
    let batch_s = batch_rep.modeled_total_s();

    // GPU kernels.
    let gpu = |kcfg: KernelConfig| {
        GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg)
            .run(&lean)
            .1
            .modeled_s()
    };
    let gpu_base = gpu(KernelConfig::base(ctx.scale));
    let gpu_opt = gpu(KernelConfig::optimized(ctx.scale));

    let mut t = Table::new(&["stage", "time (s)", "speedup", "paper speedup", "basis"]);
    let stage = |t: &mut Table, name: &str, s: f64, paper: &str, basis: &str| {
        t.row(vec![
            name.to_string(),
            format!("{s:.3}"),
            format!("{:.1}x", cpu_base / s),
            paper.to_string(),
            basis.to_string(),
        ]);
    };
    stage(
        &mut t,
        "CPU baseline (odgi model)",
        cpu_base,
        "1.0x",
        "modeled",
    );
    stage(
        &mut t,
        "CPU w/ CDL (odgi model)",
        cpu_cdl,
        "3.1x",
        "modeled",
    );
    stage(
        &mut t,
        "PyTorch-style batch",
        batch_s,
        "6.8x",
        "measured on host CPU",
    );
    stage(&mut t, "base CUDA kernel", gpu_base, "14.6x", "modeled");
    stage(
        &mut t,
        "optimized (CDL+CRS+WM)",
        gpu_opt,
        "27.7x",
        "modeled",
    );
    t.row(vec![
        "lean Rust port (this repo)".into(),
        format!("{lean_soa:.3} (SoA) / {lean_aos:.3} (AoS)"),
        String::new(),
        String::new(),
        "measured".into(),
    ]);
    emit(ctx, "fig16", &t);

    // Shape: every modeled stage strictly improves.
    if cpu_cdl >= cpu_base {
        fails.push(format!(
            "CDL must speed up the CPU model ({cpu_cdl:.3} vs {cpu_base:.3})"
        ));
    }
    if gpu_base >= cpu_cdl {
        fails.push(format!(
            "base CUDA ({gpu_base:.3}) must beat CPU+CDL ({cpu_cdl:.3})"
        ));
    }
    if gpu_opt >= gpu_base {
        fails.push(format!(
            "optimized ({gpu_opt:.3}) must beat base ({gpu_base:.3})"
        ));
    }
    if cpu_base / gpu_opt < 8.0 {
        fails.push(format!(
            "end-to-end speedup only {:.1}x",
            cpu_base / gpu_opt
        ));
    }
    fails
}

/// Table IX: cache-friendly data layout, CPU and GPU effects.
pub fn table9(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let spec = hprc_catalog()[0].spec(ctx.scale);
    let (_, lean) = build(&spec);
    let lcfg = layout_cfg();

    let soa = characterize_cpu(&lean, &lcfg, DataLayout::OriginalSoa, ctx.scale, 120_000);
    let aos = characterize_cpu(
        &lean,
        &lcfg,
        DataLayout::CacheFriendlyAos,
        ctx.scale,
        120_000,
    );
    let cpu_soa_t = modeled_cpu_time_s(&lean, &lcfg, &soa, cpu_model::THREADS);
    let cpu_aos_t = modeled_cpu_time_s(&lean, &lcfg, &aos, cpu_model::THREADS);

    let gpu = |kcfg: KernelConfig| {
        GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg)
            .run(&lean)
            .1
    };
    let g_base = gpu(KernelConfig::base(ctx.scale));
    let g_cdl = gpu(KernelConfig::base(ctx.scale).with_cdl());

    let mut t = Table::new(&["metric", "w/o CDL", "w/ CDL", "improv.", "paper improv."]);
    let ratio = |a: f64, b: f64| format!("{:.1}x", a / b.max(1e-12));
    t.row(vec![
        "CPU LLC-loads (#, traced)".into(),
        soa.llc_loads.to_string(),
        aos.llc_loads.to_string(),
        ratio(soa.llc_loads as f64, aos.llc_loads as f64),
        "3.2x".into(),
    ]);
    t.row(vec![
        "CPU LLC-load-misses (#)".into(),
        soa.llc_misses.to_string(),
        aos.llc_misses.to_string(),
        ratio(soa.llc_misses as f64, aos.llc_misses as f64),
        "3.3x".into(),
    ]);
    t.row(vec![
        "CPU run time (s, modeled)".into(),
        format!("{cpu_soa_t:.2}"),
        format!("{cpu_aos_t:.2}"),
        ratio(cpu_soa_t, cpu_aos_t),
        "3.1x".into(),
    ]);
    t.row(vec![
        "GPU DRAM access (MB)".into(),
        format!("{:.1}", g_base.mem.dram_bytes() as f64 / 1e6),
        format!("{:.1}", g_cdl.mem.dram_bytes() as f64 / 1e6),
        ratio(
            g_base.mem.dram_bytes() as f64,
            g_cdl.mem.dram_bytes() as f64,
        ),
        "1.3x".into(),
    ]);
    t.row(vec![
        "GPU run time (s, modeled)".into(),
        format!("{:.3}", g_base.modeled_s()),
        format!("{:.3}", g_cdl.modeled_s()),
        ratio(g_base.modeled_s(), g_cdl.modeled_s()),
        "1.4x".into(),
    ]);
    emit(ctx, "table9", &t);

    if (soa.llc_loads as f64) < 1.5 * aos.llc_loads as f64 {
        fails.push("CDL should cut CPU LLC loads by >1.5x".into());
    }
    if cpu_aos_t >= cpu_soa_t {
        fails.push("CDL must improve modeled CPU time".into());
    }
    if g_cdl.mem.dram_bytes() >= g_base.mem.dram_bytes() {
        fails.push("CDL must cut GPU DRAM traffic".into());
    }
    if g_cdl.modeled_s() >= g_base.modeled_s() {
        fails.push("CDL must improve modeled GPU time".into());
    }
    fails
}

/// Table X: coalesced random states.
pub fn table10(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let spec = hprc_catalog()[0].spec(ctx.scale);
    let (_, lean) = build(&spec);
    let lcfg = layout_cfg();
    let gpu = |kcfg: KernelConfig| {
        GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg)
            .run(&lean)
            .1
    };
    let base = gpu(KernelConfig::base(ctx.scale));
    let crs = gpu(KernelConfig::base(ctx.scale).with_crs());

    let mut t = Table::new(&["metric", "w/o CRS", "w/ CRS", "improv.", "paper improv."]);
    let ratio = |a: f64, b: f64| format!("{:.1}x", a / b.max(1e-12));
    t.row(vec![
        "L1 sectors / req (#)".into(),
        format!("{:.1}", base.mem.sectors_per_request()),
        format!("{:.1}", crs.mem.sectors_per_request()),
        ratio(
            base.mem.sectors_per_request(),
            crs.mem.sectors_per_request(),
        ),
        "2.7x".into(),
    ]);
    t.row(vec![
        "L1 cache access (MB)".into(),
        format!("{:.1}", base.mem.l1_bytes() as f64 / 1e6),
        format!("{:.1}", crs.mem.l1_bytes() as f64 / 1e6),
        ratio(base.mem.l1_bytes() as f64, crs.mem.l1_bytes() as f64),
        "1.8x".into(),
    ]);
    t.row(vec![
        "L2 cache access (MB)".into(),
        format!("{:.1}", base.mem.l2_bytes() as f64 / 1e6),
        format!("{:.1}", crs.mem.l2_bytes() as f64 / 1e6),
        ratio(base.mem.l2_bytes() as f64, crs.mem.l2_bytes() as f64),
        "1.7x".into(),
    ]);
    t.row(vec![
        "DRAM access (MB)".into(),
        format!("{:.1}", base.mem.dram_bytes() as f64 / 1e6),
        format!("{:.1}", crs.mem.dram_bytes() as f64 / 1e6),
        ratio(base.mem.dram_bytes() as f64, crs.mem.dram_bytes() as f64),
        "1.3x".into(),
    ]);
    t.row(vec![
        "GPU run time (s, modeled)".into(),
        format!("{:.3}", base.modeled_s()),
        format!("{:.3}", crs.modeled_s()),
        ratio(base.modeled_s(), crs.modeled_s()),
        "1.2x".into(),
    ]);
    emit(ctx, "table10", &t);

    // The base kernel's sectors/request lands right on the paper's 26.8;
    // the post-CRS value improves by ~1.5x here vs the paper's 2.7x
    // because the sectored model keeps graph-data requests at their full
    // per-lane width (see EXPERIMENTS.md). Gate on the direction and on
    // the modeled-time improvement.
    if base.mem.sectors_per_request() < 1.35 * crs.mem.sectors_per_request() {
        fails.push("CRS should cut sectors/request by >1.35x".into());
    }
    if !(20.0..35.0).contains(&base.mem.sectors_per_request()) {
        fails.push(format!(
            "base sectors/request {:.1} should sit near the paper's 26.8",
            base.mem.sectors_per_request()
        ));
    }
    if crs.modeled_s() >= base.modeled_s() {
        fails.push("CRS must improve modeled GPU time".into());
    }
    fails
}

/// Table XI: warp merging.
pub fn table11(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    let spec = hprc_catalog()[0].spec(ctx.scale);
    let (_, lean) = build(&spec);
    let lcfg = layout_cfg();
    let gpu = |kcfg: KernelConfig| {
        GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg)
            .run(&lean)
            .1
    };
    let base = gpu(KernelConfig::base(ctx.scale));
    let wm = gpu(KernelConfig::base(ctx.scale).with_wm());

    let mut t = Table::new(&["metric", "w/o WM", "w/ WM", "improv.", "paper improv."]);
    t.row(vec![
        "executed warp instructions (#)".into(),
        base.warp.warp_instructions.to_string(),
        wm.warp.warp_instructions.to_string(),
        format!(
            "{:.2}x",
            base.warp.warp_instructions as f64 / wm.warp.warp_instructions as f64
        ),
        "1.5x".into(),
    ]);
    t.row(vec![
        "avg active threads / warp (#)".into(),
        format!("{:.1}", base.warp.avg_active_threads()),
        format!("{:.1}", wm.warp.avg_active_threads()),
        format!(
            "{:.2}x",
            wm.warp.avg_active_threads() / base.warp.avg_active_threads()
        ),
        "1.4x (20.5 → 27.9)".into(),
    ]);
    t.row(vec![
        "GPU run time (s, modeled)".into(),
        format!("{:.3}", base.modeled_s()),
        format!("{:.3}", wm.modeled_s()),
        format!("{:.2}x", base.modeled_s() / wm.modeled_s()),
        "1.1x".into(),
    ]);
    emit(ctx, "table11", &t);

    if wm.warp.warp_instructions >= base.warp.warp_instructions {
        fails.push("WM must reduce issued instructions".into());
    }
    if wm.warp.avg_active_threads() <= base.warp.avg_active_threads() {
        fails.push("WM must raise active threads per warp".into());
    }
    fails
}

/// Extension experiment: project the optimized Chr.1 kernel onto 1–8
/// GPUs over NVLink and PCIe (the paper's Sec. IX future work).
pub fn ext_multigpu(ctx: &Ctx) -> Vec<String> {
    use gpu_sim::multigpu::{scaling_curve, Interconnect};
    let mut fails = Vec::new();
    let spec = hprc_catalog()[0].spec(ctx.scale);
    let (_, lean) = build(&spec);
    let lcfg = layout_cfg();
    let (_, report) =
        GpuEngine::new(GpuSpec::a100(), lcfg, KernelConfig::optimized(ctx.scale)).run(&lean);

    let mut t = Table::new(&[
        "GPUs",
        "NVLink total (s)",
        "NVLink speedup",
        "NVLink eff.",
        "PCIe total (s)",
        "PCIe speedup",
    ]);
    let gspec = GpuSpec::a100();
    let nv = scaling_curve(&report, &gspec, &Interconnect::nvlink3(), 8);
    let pcie = scaling_curve(&report, &gspec, &Interconnect::pcie4(), 8);
    for (a, b) in nv.iter().zip(&pcie) {
        t.row(vec![
            a.gpus.to_string(),
            format!("{:.4}", a.total_s),
            format!("{:.2}x", a.speedup),
            format!("{:.0}%", a.efficiency * 100.0),
            format!("{:.4}", b.total_s),
            format!("{:.2}x", b.speedup),
        ]);
    }
    emit(ctx, "ext1", &t);

    if nv[7].speedup < 1.5 {
        fails.push(format!("8-GPU NVLink speedup only {:.2}x", nv[7].speedup));
    }
    if pcie[7].speedup >= nv[7].speedup {
        fails.push("PCIe must saturate earlier than NVLink".into());
    }
    fails
}

/// Fig. 17: the DRF/SRF data-reuse design-space exploration.
pub fn fig17(ctx: &Ctx) -> Vec<String> {
    let mut fails = Vec::new();
    const SCHEMES: [(u32, f64); 7] = [
        (1, 1.0),
        (2, 1.5),
        (4, 1.5),
        (2, 1.75),
        (4, 2.0),
        (8, 2.0),
        (8, 2.5),
    ];
    let lcfg = layout_cfg();
    let mut t = Table::new(&["Pan.", "(DRF,SRF)", "norm. speedup", "SPS", "verdict"]);

    for chrom_idx in [0usize, 1] {
        let entry = &hprc_catalog()[chrom_idx];
        let spec = entry.spec(ctx.scale * 0.6);
        let (_, lean): (_, LeanGraph) = build(&spec);
        let mut base: Option<(f64, f64)> = None;
        let mut speedups = Vec::new();
        let mut stresses = Vec::new();
        for (drf, srf) in SCHEMES {
            let kcfg = if drf == 1 {
                KernelConfig::optimized(ctx.scale * 0.6)
            } else {
                KernelConfig::optimized(ctx.scale * 0.6).with_reuse(drf, srf)
            };
            let (layout, rep) = GpuEngine::new(GpuSpec::a6000(), lcfg.clone(), kcfg).run(&lean);
            let sps = sampled_path_stress(&layout, &lean, SamplingConfig::default()).mean;
            let (bt, bq) = *base.get_or_insert((rep.modeled_s(), sps));
            let speedup = bt / rep.modeled_s();
            let verdict = if sps < 2.0 * bq.max(1e-9) {
                "good"
            } else if sps < 10.0 * bq.max(1e-9) {
                "satisfying"
            } else {
                "poor"
            };
            t.row(vec![
                entry.name.to_string(),
                format!("({drf},{srf})"),
                format!("{speedup:.2}x"),
                format!("{sps:.4}"),
                verdict.to_string(),
            ]);
            speedups.push(speedup);
            stresses.push(sps);
        }
        // Shape: the most aggressive scheme is the fastest, and
        // aggressive reuse costs quality.
        let max_speedup = speedups.iter().cloned().fold(0.0f64, f64::max);
        if max_speedup < 1.2 {
            fails.push(format!(
                "{}: best reuse speedup only {max_speedup:.2}x",
                entry.name
            ));
        }
        let q0 = stresses[0];
        let worst = stresses.iter().cloned().fold(0.0f64, f64::max);
        if worst < 1.5 * q0 {
            fails.push(format!(
                "{}: aggressive reuse should degrade stress (base {q0:.4}, worst {worst:.4})",
                entry.name
            ));
        }
    }
    emit(ctx, "fig17", &t);
    fails
}
