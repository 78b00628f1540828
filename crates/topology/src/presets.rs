//! The four experimental platforms of Table I, with calibrated simulator
//! parameters.
//!
//! Hardware rows are transcribed from Table I of the paper. The
//! [`PerfParams`] constants are *fits* to the numbers the paper reports in
//! its text and figures; each fit target is cited next to the constant.
//! EXPERIMENTS.md records the residuals of these fits.

use crate::cache::CacheSpec;
use crate::platform::{PerfParams, Platform};

/// GiB → bytes.
const GIB: u64 = 1024 * 1024 * 1024;

/// Sandy Bridge node: 2 × Intel Xeon E5 2690, 16 cores, 2.9 GHz
/// (3.8 turbo), 20 MB shared cache, 64 GB RAM (Table I).
pub fn sandy_bridge() -> Platform {
    Platform {
        name: "Sandy Bridge".to_owned(),
        processors: "Intel Xeon E5 2690".to_owned(),
        microarchitecture: "Sandy Bridge (SB)".to_owned(),
        clock_ghz: 2.9,
        turbo_ghz: 3.8,
        hw_threads_per_core: 2,
        hw_threads_active: false,
        cores: 16,
        usable_cores: 16,
        sockets: 2,
        cache: CacheSpec::new(32, 256, 20),
        ram_bytes: 64 * GIB,
        perf: PerfParams {
            // Fig. 3a: 1-core flat region ≈ 5 s for 5·10⁹ updates.
            task_fixed_ns: 220.0,
            ns_per_point: 0.92,
            ns_per_point_cached: 0.40,
            // Fig. 3a: ≥8-core valley ≈ 1.9 s ⇒ ≈ 2.6 Gpt/s saturated.
            aggregate_rate_pts_per_ns: 2.65,
            stripe_factor: 1.2,
            bytes_per_point: 16.0,
            queue_probe_ns: 32.0,
            convert_ns: 65.0,
            dispatch_ns: 95.0,
            spawn_ns: 65.0,
            steal_local_extra_ns: 100.0,
            steal_remote_extra_ns: 280.0,
            // Fig. 3a fine-grain blow-up at 16 cores (exec ≈ 6.5 s @ 10³).
            contention_alpha: 4.0,
            contention_gamma: 1.0,
            jitter_sigma: 0.03,
        },
    }
}

/// Ivy Bridge node: 2 × Intel Xeon E5-2679 v3, 20 cores, 2.3 GHz
/// (3.3 turbo), 35 MB shared cache, 128 GB RAM (Table I).
pub fn ivy_bridge() -> Platform {
    Platform {
        name: "Ivy Bridge".to_owned(),
        processors: "Intel Xeon E5-2679 v3".to_owned(),
        microarchitecture: "Ivy Bridge (IB)".to_owned(),
        clock_ghz: 2.3,
        turbo_ghz: 3.3,
        hw_threads_per_core: 2,
        hw_threads_active: false,
        cores: 20,
        usable_cores: 20,
        sockets: 2,
        cache: CacheSpec::new(32, 256, 35),
        ram_bytes: 128 * GIB,
        perf: PerfParams {
            // Fig. 3b: 1-core flat region ≈ 5 s; valley ≈ 1.8 s.
            task_fixed_ns: 210.0,
            ns_per_point: 0.95,
            ns_per_point_cached: 0.45,
            aggregate_rate_pts_per_ns: 2.80,
            stripe_factor: 1.2,
            bytes_per_point: 16.0,
            queue_probe_ns: 30.0,
            convert_ns: 62.0,
            dispatch_ns: 92.0,
            spawn_ns: 62.0,
            steal_local_extra_ns: 95.0,
            steal_remote_extra_ns: 270.0,
            // Fig. 3b fine-grain blow-up at 20 cores (exec ≈ 6 s @ 10³).
            contention_alpha: 4.0,
            contention_gamma: 1.0,
            jitter_sigma: 0.03,
        },
    }
}

/// Haswell node: 2 × Intel Xeon E5-2695 v3, 28 cores, 2.3 GHz (3.3 turbo),
/// 35 MB shared cache, 128 GB RAM (Table I). The paper's most thoroughly
/// reported platform (Figs. 4, 6, 7, 9 and the §IV threshold numbers).
pub fn haswell() -> Platform {
    Platform {
        name: "Haswell".to_owned(),
        processors: "Intel Xeon E5-2695 v3".to_owned(),
        microarchitecture: "Haswell (HW)".to_owned(),
        clock_ghz: 2.3,
        turbo_ghz: 3.3,
        hw_threads_per_core: 2,
        hw_threads_active: false,
        cores: 28,
        usable_cores: 28,
        sockets: 2,
        cache: CacheSpec::new(32, 256, 35),
        ram_bytes: 128 * GIB,
        perf: PerfParams {
            // Fits:
            //  · 1-core flat region ≈ 4.7–6 s (Fig. 3c) ⇒ 0.95 ns/pt;
            //  · t_d1(12 500) ≈ 21 µs, t_d1(78 125) ≈ 99 µs (§IV-A) —
            //    reproduced within ~1.6× by 0.95 ns/pt + fixed cost;
            //  · 28-core valley 1.71 s @ 40 000 pts (§IV-A)
            //    ⇒ 2.92 Gpt/s saturated;
            //  · wait time ≈ 700 µs per task @ 90 000 pts, 28 cores
            //    (Fig. 6) — emerges from the saturating-rate model.
            task_fixed_ns: 200.0,
            ns_per_point: 0.95,
            ns_per_point_cached: 0.45,
            aggregate_rate_pts_per_ns: 2.92,
            stripe_factor: 1.2,
            bytes_per_point: 16.0,
            queue_probe_ns: 30.0,
            convert_ns: 60.0,
            dispatch_ns: 90.0,
            spawn_ns: 60.0,
            steal_local_extra_ns: 90.0,
            steal_remote_extra_ns: 260.0,
            // Fig. 4c: idle-rate ≈ 85–90 % at partitions ≤ 10³–10⁴ on 28
            // cores ⇒ per-task management ≈ 20 µs under full 28-way
            // contention over a ~300 ns uncontended base.
            contention_alpha: 2.4,
            contention_gamma: 1.0,
            jitter_sigma: 0.03,
        },
    }
}

/// Xeon Phi coprocessor: 61 cores (60 used), 1.2 GHz, 4-way hardware
/// threading (study used 1 thread/core), 512 KB L2 per core, no shared
/// cache, 8 GB RAM (Table I). The paper computes 5 time steps here
/// instead of 50.
pub fn xeon_phi() -> Platform {
    Platform {
        name: "Xeon Phi".to_owned(),
        processors: "Intel Xeon Phi".to_owned(),
        microarchitecture: "Xeon Phi".to_owned(),
        clock_ghz: 1.2,
        turbo_ghz: 1.2,
        hw_threads_per_core: 4,
        hw_threads_active: true,
        cores: 61,
        usable_cores: 60,
        sockets: 1,
        cache: CacheSpec::new(32, 512, 0),
        ram_bytes: 8 * GIB,
        perf: PerfParams {
            // Fits:
            //  · t_d1(12 500) ≈ 1.1 ms (§IV-A) ⇒ ≈ 88 ns/pt in-order
            //    scalar + 2 µs fixed;
            //  · Fig. 3d: 1-core ≈ 45 s for 5·10⁸ updates, 60-core valley
            //    ≈ 1.4 s ⇒ saturated ≈ 0.45 Gpt/s (ring/GDDR limit);
            //  · Fig. 5: idle-rate ≈ 85–90 % at fine grain on 60 cores ⇒
            //    strongly superlinear queue-contention growth on the slow
            //    in-order ring (γ ≈ 1.8).
            task_fixed_ns: 2_000.0,
            ns_per_point: 87.0,
            ns_per_point_cached: 60.0,
            aggregate_rate_pts_per_ns: 0.45,
            stripe_factor: 1.2,
            bytes_per_point: 16.0,
            queue_probe_ns: 120.0,
            convert_ns: 240.0,
            dispatch_ns: 360.0,
            spawn_ns: 240.0,
            steal_local_extra_ns: 360.0,
            steal_remote_extra_ns: 360.0,
            // Fig. 5c: idle-rate ≈ 85–90 % at fine grain on 60 slow
            // in-order cores ⇒ strongly superlinear contention growth.
            contention_alpha: 0.31,
            contention_gamma: 1.8,
            jitter_sigma: 0.06,
        },
    }
}

/// All four Table I platforms, in the paper's column order.
pub fn table1() -> Vec<Platform> {
    vec![haswell(), xeon_phi(), ivy_bridge(), sandy_bridge()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_hardware_rows_match_paper() {
        let hw = haswell();
        assert_eq!(hw.cores, 28);
        assert_eq!(hw.clock_ghz, 2.3);
        assert_eq!(hw.turbo_ghz, 3.3);
        assert_eq!(hw.cache.llc_bytes_per_socket, 35 * 1024 * 1024);
        assert_eq!(hw.ram_bytes, 128 * GIB);
        assert!(!hw.hw_threads_active);

        let phi = xeon_phi();
        assert_eq!(phi.cores, 61);
        assert_eq!(phi.usable_cores, 60);
        assert_eq!(phi.clock_ghz, 1.2);
        assert_eq!(phi.cache.l2_bytes, 512 * 1024);
        assert_eq!(phi.cache.llc_bytes_per_socket, 0);
        assert_eq!(phi.ram_bytes, 8 * GIB);
        assert!(phi.hw_threads_active);

        let sb = sandy_bridge();
        assert_eq!(sb.cores, 16);
        assert_eq!(sb.clock_ghz, 2.9);
        assert_eq!(sb.cache.llc_bytes_per_socket, 20 * 1024 * 1024);
        assert_eq!(sb.ram_bytes, 64 * GIB);

        let ib = ivy_bridge();
        assert_eq!(ib.cores, 20);
        assert_eq!(ib.cache.llc_bytes_per_socket, 35 * 1024 * 1024);
    }

    #[test]
    fn calibration_haswell_task_duration_scale() {
        // §IV-A: t_d(12 500 pts) on one Haswell core ≈ 21 µs; our model
        // must land within 2× (the paper's own COV plus our simplified
        // linear kernel).
        let p = haswell().perf;
        let td1 = p.task_fixed_ns + 12_500.0 * p.per_point_ns(1, 1, false);
        assert!(
            (10_000.0..42_000.0).contains(&td1),
            "t_d1(12500) = {td1} ns out of range"
        );
    }

    #[test]
    fn calibration_haswell_valley() {
        // §IV-A: minimum 28-core execution time ≈ 1.71 s for 5e9 updates.
        let p = haswell().perf;
        let t = 5e9 / p.aggregate_rate(28) * 1e-9;
        assert!((1.5..2.0).contains(&t), "28-core valley = {t} s");
    }

    #[test]
    fn calibration_phi_task_duration() {
        // §IV-A: t_d(12 500 pts) on one Phi core ≈ 1.1 ms.
        let p = xeon_phi().perf;
        let td1 = p.task_fixed_ns + 12_500.0 * p.per_point_ns(1, 1, false);
        assert!(
            (0.8e6..1.4e6).contains(&td1),
            "Phi t_d1(12500) = {td1} ns out of range"
        );
    }

    #[test]
    fn calibration_serial_runs() {
        // Fig. 3c: Haswell 1-core flat region ≈ 4.5–6 s for 100 M × 50.
        let p = haswell().perf;
        let t = 5e9 * p.per_point_ns(1, 1, false) * 1e-9;
        assert!((4.0..6.5).contains(&t), "HW serial = {t} s");
        // Fig. 3d: Phi 1-core ≈ 45–60 s for 100 M × 5.
        let p = xeon_phi().perf;
        let t = 5e8 * p.per_point_ns(1, 1, false) * 1e-9;
        assert!((35.0..65.0).contains(&t), "Phi serial = {t} s");
    }
}
