//! The analytical performance model of Sec. II-B.
//!
//! `T_total = Td + Tc + Tw` where
//!
//! - `Td = S_d / B_d` — input samples over PCIe, multiplied by a
//!   contention factor when multiple replicas share one server's PCIe
//!   (Sec. III-C1 calls this out when projecting to AllReduce-Local:
//!   "slow-down of input data I/O, due to the competition for PCIe
//!   bandwidth");
//! - `Tc = #FLOPs / peak_FLOPs + S_mem / B_mem` — compute-bound plus
//!   memory-bound operation time (Eq. 1);
//! - `Tw = Σ_medium S_w / B_medium` — the weight volume crossing each
//!   medium on its class's path (Table II). For PS/Worker this is
//!   exactly the numerator of the paper's Eq. 3:
//!   `S_w/(Ethernet×eff) + S_w/(PCIe×eff)`.
//!
//! Every denominator is derated by the [`Efficiency`] assumption
//! (70 % by default).

use std::ops::Add;

use pai_hw::{Bandwidth, Efficiency, FlopsRate, HardwareConfig, LinkKind, Seconds, SweepAxis};
use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::features::WorkloadFeatures;
use crate::overlap::OverlapMode;

/// Number of GPUs per server assumed when packing cluster-mode
/// AllReduce replicas onto servers (both Fig. 1 server flavors host 8).
pub const GPUS_PER_SERVER: usize = 8;

/// The analytical performance model: a hardware configuration, an
/// efficiency assumption (carried inside the configuration) and an
/// overlap mode.
///
/// The Eq. 1 denominators — each medium's `B × eff` and the derated
/// peak `peak_FLOPs × eff_compute` — are derived once, when the model
/// is built, so pricing a job is five divisions ([`PerfModel::terms`])
/// and a combine ([`PerfModel::combine`]).
///
/// # Examples
///
/// ```
/// use pai_core::{Architecture, PerfModel, WorkloadFeatures};
/// use pai_hw::{Bytes, Flops};
///
/// // Validate the paper's ResNet50 example (Sec. IV-B): 1.56 TFLOPs on a
/// // 15 TFLOP V100 at 70 % efficiency -> 0.149 s of compute-bound time.
/// let model = PerfModel::testbed_default();
/// let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
///     .flops(Flops::from_tera(1.56))
///     .build();
/// let ct = model.component_times(&job);
/// assert!((ct.compute_bound.as_f64() - 0.1486).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    config: HardwareConfig,
    overlap: OverlapMode,
    rates: Rates,
}

/// The effective rates every Eq. 1 term divides by, derived from a
/// configuration by the same products a [`pai_hw::LinkModel`] and
/// [`FlopsRate::scale`] form: `B × eff` for PCIe (`Td`), HBM and each
/// weight medium, and `peak_FLOPs × eff_compute`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rates {
    pcie: Bandwidth,
    hbm: Bandwidth,
    compute: FlopsRate,
    /// Each class's Table II weight media, in path order, as effective
    /// bytes/s by [`Architecture::index`]. Classes crossing fewer than
    /// two media are padded with `+∞`: `S_w / +∞` is a zero, and adding
    /// it to the `+0.0`-seeded fold leaves every bit of the sum as is.
    weight: [[f64; 2]; Architecture::ALL.len()],
}

impl Rates {
    fn of(config: &HardwareConfig) -> Rates {
        let link = |kind: LinkKind| config.link(kind).effective_bandwidth();
        let weight = Architecture::ALL.map(|arch| {
            let mut media = [f64::INFINITY; 2];
            for (rate, &kind) in media.iter_mut().zip(arch.weight_media()) {
                *rate = link(kind).as_bytes_per_sec();
            }
            media
        });
        Rates {
            pcie: link(LinkKind::Pcie),
            hbm: link(LinkKind::HbmMemory),
            compute: config
                .gpu()
                .peak_flops()
                .scale(config.efficiency().compute()),
            weight,
        }
    }
}

impl PerfModel {
    /// A model over an explicit configuration and overlap mode.
    pub fn new(config: HardwareConfig, overlap: OverlapMode) -> Self {
        PerfModel {
            config,
            overlap,
            rates: Rates::of(&config),
        }
    }

    /// Table I hardware, 70 % efficiency, no overlap — the setting of
    /// the entire Sec. III collective analysis.
    pub fn paper_default() -> Self {
        PerfModel::new(HardwareConfig::pai_default(), OverlapMode::Serialized)
    }

    /// Sec. IV testbed hardware (V100 GPUs), 70 % efficiency, no overlap.
    pub fn testbed_default() -> Self {
        PerfModel::new(HardwareConfig::testbed_default(), OverlapMode::Serialized)
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HardwareConfig {
        &self.config
    }

    /// The overlap assumption.
    pub fn overlap(&self) -> OverlapMode {
        self.overlap
    }

    /// A copy over different hardware (Table III sweeps, projections).
    pub fn with_config(&self, config: HardwareConfig) -> PerfModel {
        PerfModel::new(config, self.overlap)
    }

    /// A copy under a different efficiency assumption (Sec. V-A).
    pub fn with_efficiency(&self, efficiency: Efficiency) -> PerfModel {
        PerfModel::new(self.config.with_efficiency(efficiency), self.overlap)
    }

    /// A copy under a different overlap assumption (Sec. V-B).
    pub fn with_overlap(&self, overlap: OverlapMode) -> PerfModel {
        PerfModel { overlap, ..*self }
    }

    /// `Td`: input-data I/O time over PCIe, including the local
    /// PCIe-sharing contention factor for multi-GPU-per-server classes.
    #[inline]
    pub fn data_io_time(&self, job: &WorkloadFeatures) -> Seconds {
        Seconds::from_f64(self.data_io_secs(job.arch(), job.cnodes(), job.input_bytes().as_f64()))
    }

    /// The compute-bound half of `Tc`: `#FLOPs / (peak_FLOPs × eff)`.
    #[inline]
    pub fn compute_bound_time(&self, job: &WorkloadFeatures) -> Seconds {
        Seconds::from_f64(self.compute_bound_secs(job.flops().as_f64()))
    }

    /// The memory-bound half of `Tc`: `S_mem / (B_mem × eff)`.
    #[inline]
    pub fn memory_bound_time(&self, job: &WorkloadFeatures) -> Seconds {
        Seconds::from_f64(self.memory_bound_secs(job.mem_access_bytes().as_f64()))
    }

    /// Total `Tw`: the weight volume crosses every medium on its
    /// class's Table II path once per step (1w1g communicates nothing
    /// regardless of the recorded weight volume), and the per-medium
    /// times add in path order to a `+0.0` seed.
    #[inline]
    pub fn weight_traffic_time(&self, job: &WorkloadFeatures) -> Seconds {
        let legs = self.weight_secs(job.arch(), job.weight_bytes().as_f64());
        Seconds::from_f64(weight_traffic(legs))
    }

    /// The job's Eq. 1 terms under this model's configuration: the
    /// five divisions of [`PerfModel::component_times`], uncombined.
    #[inline]
    pub fn terms(&self, job: &WorkloadFeatures) -> Eq1Terms {
        let volumes = [
            job.input_bytes().as_f64(),
            job.weight_bytes().as_f64(),
            job.flops().as_f64(),
            job.mem_access_bytes().as_f64(),
        ];
        let secs = self.term_secs(job.arch(), job.cnodes(), volumes);
        Eq1Terms {
            data_io: Seconds::from_f64(secs.data_io),
            compute_bound: Seconds::from_f64(secs.compute_bound),
            memory_bound: Seconds::from_f64(secs.memory_bound),
            weight: secs.weight.map(Seconds::from_f64),
        }
    }

    /// The scalar core of Eq. 1: the five quotients of a record of
    /// class `arch` with `cnodes` replicas and per-step volumes
    /// `[S_d, S_w, #FLOPs, S_mem]`, as raw seconds.
    ///
    /// [`PerfModel::terms`] checks each quotient into an [`Eq1Terms`];
    /// the column pass of [`crate::accumulate`] checks a whole chunk's
    /// quotients at once.
    #[inline]
    pub(crate) fn term_secs(
        &self,
        arch: Architecture,
        cnodes: usize,
        [input, weight, flops, mem]: [f64; 4],
    ) -> TermSecs {
        TermSecs {
            data_io: self.data_io_secs(arch, cnodes, input),
            compute_bound: self.compute_bound_secs(flops),
            memory_bound: self.memory_bound_secs(mem),
            weight: self.weight_secs(arch, weight),
        }
    }

    /// `Td` in seconds: `S_d × contention / (B_pcie × eff)`.
    #[inline]
    pub(crate) fn data_io_secs(&self, arch: Architecture, cnodes: usize, input: f64) -> f64 {
        let contention = arch.input_contention_factor(cnodes, GPUS_PER_SERVER);
        input * contention as f64 / self.rates.pcie.as_bytes_per_sec()
    }

    #[inline]
    fn compute_bound_secs(&self, flops: f64) -> f64 {
        flops / self.rates.compute.as_flops_per_sec()
    }

    #[inline]
    fn memory_bound_secs(&self, mem: f64) -> f64 {
        mem / self.rates.hbm.as_bytes_per_sec()
    }

    /// `S_w / (B × eff)` on each slot of the padded Table II media row
    /// of `arch`, in seconds.
    #[inline]
    pub(crate) fn weight_secs(&self, arch: Architecture, weight: f64) -> [f64; 2] {
        self.rates.weight[arch.index()].map(|rate| weight / rate)
    }

    /// `T_total` of raw terms under the model's overlap mode: the
    /// combination [`PerfModel::combine`] makes.
    #[inline]
    pub(crate) fn total_secs(&self, terms: &TermSecs) -> f64 {
        let parts = [
            terms.data_io,
            terms.compute_bound + terms.memory_bound,
            weight_traffic(terms.weight),
        ];
        self.overlap.combine(&parts)
    }

    /// `terms` with every term that divides by `axis`'s rate derived
    /// again under this model, the others kept: the PCIe axis moves `Td`
    /// and any PCIe weight leg, Ethernet its weight leg, GPU FLOPs the
    /// compute-bound half of `Tc` and GPU memory the memory-bound half.
    ///
    /// Each re-derived term is the division [`PerfModel::terms`] makes,
    /// so when `terms` came from a model that differs from this one only
    /// in `axis`'s rate, the result is bitwise `self.terms(job)`.
    #[inline]
    pub(crate) fn rederive(
        &self,
        axis: SweepAxis,
        job: &WorkloadFeatures,
        mut terms: Eq1Terms,
    ) -> Eq1Terms {
        let medium = match axis {
            SweepAxis::Ethernet => LinkKind::Ethernet,
            SweepAxis::Pcie => {
                terms.data_io = self.data_io_time(job);
                LinkKind::Pcie
            }
            SweepAxis::GpuFlops => {
                terms.compute_bound = self.compute_bound_time(job);
                return terms;
            }
            SweepAxis::GpuMemory => {
                terms.memory_bound = self.memory_bound_time(job);
                return terms;
            }
        };
        let legs = self.weight_secs(job.arch(), job.weight_bytes().as_f64());
        for ((leg, secs), &kind) in terms
            .weight
            .iter_mut()
            .zip(legs)
            .zip(job.arch().weight_media())
        {
            if kind == medium {
                *leg = Seconds::from_f64(secs);
            }
        }
        terms
    }

    /// The job's per-step Eq. 1 decomposition — the kernel every
    /// pricing path in this crate reduces to, called once per job at
    /// population scale with no heap allocation.
    ///
    /// One straight-line evaluation over the rates derived in
    /// [`PerfModel::new`]: five divisions ([`PerfModel::terms`]), each
    /// with the operands `S / (B × eff)` or `#FLOPs / (peak × eff)` it
    /// always had, then [`PerfModel::combine`].
    #[inline]
    pub fn component_times(&self, job: &WorkloadFeatures) -> ComponentTimes {
        self.combine(&self.terms(job))
    }

    /// Combines Eq. 1 terms under the model's overlap mode: `Tw` is the
    /// weight legs folded in path order, and the total combines
    /// `[Td, Tcc + Tcm, Tw]`.
    #[inline]
    pub fn combine(&self, terms: &Eq1Terms) -> ComponentTimes {
        let secs = TermSecs::of(terms);
        ComponentTimes {
            data_io: terms.data_io,
            compute_bound: terms.compute_bound,
            memory_bound: terms.memory_bound,
            weight_traffic: weight_traffic(terms.weight),
            total: Seconds::from_f64(self.total_secs(&secs)),
        }
    }

    /// `T_total` under the model's overlap mode.
    #[inline]
    pub fn total_time(&self, job: &WorkloadFeatures) -> Seconds {
        self.component_times(job).total
    }

    /// Job throughput in samples per second (Eq. 2):
    /// `#cNode / T_total × batch_size`.
    pub fn throughput(&self, job: &WorkloadFeatures) -> f64 {
        crate::throughput::throughput(job.cnodes(), self.total_time(job), job.batch_size())
    }
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel::paper_default()
    }
}

/// One job's Eq. 1 terms under one configuration, before any backend
/// combines them: `Td`, both halves of `Tc`, and `Tw` per medium.
///
/// [`PerfModel::terms`] derives them; [`PerfModel::combine`] prices a
/// job from them. A Table III sweep point moves one rate, so it derives
/// again only the terms that divide by that rate and keeps the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eq1Terms {
    /// `Td`: input data I/O time.
    pub data_io: Seconds,
    /// The compute-bound half of `Tc`.
    pub compute_bound: Seconds,
    /// The memory-bound half of `Tc`.
    pub memory_bound: Seconds,
    /// `S_w / (B × eff)` on each Table II weight medium of the job's
    /// class, in path order. A class crossing fewer than two media
    /// divides by `+∞` in the unused slots, which leaves a zero there.
    pub weight: [Seconds; 2],
}

/// One record's Eq. 1 terms as raw seconds, in [`Eq1Terms`] field
/// order: the quotients before `Seconds::from_f64` checks them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermSecs {
    pub(crate) data_io: f64,
    pub(crate) compute_bound: f64,
    pub(crate) memory_bound: f64,
    pub(crate) weight: [f64; 2],
}

impl TermSecs {
    /// The values of checked terms.
    #[inline]
    pub(crate) fn of(terms: &Eq1Terms) -> TermSecs {
        TermSecs {
            data_io: terms.data_io.as_f64(),
            compute_bound: terms.compute_bound.as_f64(),
            memory_bound: terms.memory_bound.as_f64(),
            weight: terms.weight.map(Seconds::as_f64),
        }
    }
}

/// Total `Tw`: the weight legs added in path order to a `+0.0` seed,
/// as `Seconds` or as raw seconds.
#[inline]
pub(crate) fn weight_traffic<T: Add<Output = T> + Default>([first, second]: [T; 2]) -> T {
    T::default() + first + second
}

/// `part / total`, or zero when the total is zero: each share
/// [`ComponentTimes::fractions`] reports.
#[inline]
pub(crate) fn share(part: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        part / total
    }
}

/// The per-step Eq. 1 decomposition of one job (Fig. 7, Fig. 8): `Td`,
/// both halves of `Tc`, `Tw` and the total under the model's overlap
/// mode. [`crate::HardwareBreakdown`] gives the per-hardware view from
/// the same job's [`Eq1Terms`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComponentTimes {
    /// `Td`: input data I/O time.
    pub data_io: Seconds,
    /// The compute-bound half of `Tc`.
    pub compute_bound: Seconds,
    /// The memory-bound half of `Tc`.
    pub memory_bound: Seconds,
    /// `Tw`: weight/gradient communication time.
    pub weight_traffic: Seconds,
    /// `T_total` under the model's overlap mode.
    pub total: Seconds,
}

impl ComponentTimes {
    /// `Tc = compute_bound + memory_bound`.
    pub fn computation(&self) -> Seconds {
        self.compute_bound + self.memory_bound
    }

    fn fraction(&self, part: Seconds) -> f64 {
        share(part.as_f64(), self.total.as_f64())
    }

    /// Share of weight/gradient traffic in the total — the Fig. 8 /
    /// Fig. 15 quantity.
    pub fn weight_fraction(&self) -> f64 {
        self.fraction(self.weight_traffic)
    }

    /// The four shares in Fig. 7's legend order:
    /// `[data, weights, compute-bound, memory-bound]`; all zero when the
    /// total is zero. Under ideal overlap they may sum to more than 1.
    pub fn fractions(&self) -> [f64; 4] {
        [
            self.fraction(self.data_io),
            self.fraction(self.weight_traffic),
            self.fraction(self.compute_bound),
            self.fraction(self.memory_bound),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::HardwareBreakdown;
    use pai_hw::{Bytes, Flops, SweepAxis, SweepPoint};
    use proptest::prelude::*;

    fn ps_job(weight_gb: f64) -> WorkloadFeatures {
        WorkloadFeatures::builder(Architecture::PsWorker)
            .cnodes(16)
            .batch_size(256)
            .input_bytes(Bytes::from_mb(10.0))
            .weight_bytes(Bytes::from_gb(weight_gb))
            .flops(Flops::from_tera(0.5))
            .mem_access_bytes(Bytes::from_gb(20.0))
            .build()
    }

    #[test]
    fn ps_weight_time_matches_eq3_numerator() {
        // Eq. 3 numerator: Sw/(25Gb x 70%) + Sw/(10GB x 70%).
        let m = PerfModel::paper_default();
        let job = ps_job(1.0);
        let tw = m.weight_traffic_time(&job).as_f64();
        let expected = 1e9 / (3.125e9 * 0.7) + 1e9 / (10e9 * 0.7);
        assert!((tw - expected).abs() < 1e-9);
    }

    #[test]
    fn allreduce_local_weight_time_uses_nvlink() {
        let m = PerfModel::paper_default();
        let job = ps_job(1.0).remapped(Architecture::AllReduceLocal, 8);
        let tw = m.weight_traffic_time(&job).as_f64();
        assert!((tw - 1e9 / (50e9 * 0.7)).abs() < 1e-12);
        assert_eq!(job.arch().weight_media(), [LinkKind::NvLink]);
        assert_eq!(m.terms(&job).weight[1], Seconds::ZERO);
    }

    #[test]
    fn one_w_one_g_never_communicates() {
        let m = PerfModel::paper_default();
        let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .weight_bytes(Bytes::from_gb(5.0))
            .build();
        assert!(m.weight_traffic_time(&job).is_zero());
        assert_eq!(m.terms(&job).weight, [Seconds::ZERO; 2]);
    }

    #[test]
    fn data_io_contention_scales_local_classes() {
        let m = PerfModel::paper_default();
        let base = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .input_bytes(Bytes::from_mb(70.0))
            .build();
        // 70 MB over 10 GB/s x 0.7 = 10 ms.
        assert!((m.data_io_time(&base).as_f64() - 0.01).abs() < 1e-9);
        let local8 = base.remapped(Architecture::AllReduceLocal, 8);
        assert!((m.data_io_time(&local8).as_f64() - 0.08).abs() < 1e-9);
        // PS workers sit on separate servers: no contention at any scale.
        let ps = base.remapped(Architecture::PsWorker, 128);
        assert!((m.data_io_time(&ps).as_f64() - 0.01).abs() < 1e-9);
        // Cluster AllReduce contends within an 8-GPU server only.
        let arc = base.remapped(Architecture::AllReduceCluster, 128);
        assert!((m.data_io_time(&arc).as_f64() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn eq1_computation_terms() {
        let m = PerfModel::paper_default(); // 11 TFLOPs, 1 TB/s, 70 %
        let job = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu)
            .flops(Flops::from_tera(7.7))
            .mem_access_bytes(Bytes::from_gb(700.0))
            .build();
        assert!((m.compute_bound_time(&job).as_f64() - 1.0).abs() < 1e-9);
        assert!((m.memory_bound_time(&job).as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_total_is_component_sum() {
        let m = PerfModel::paper_default();
        let job = ps_job(2.0);
        let ct = m.component_times(&job);
        let sum = ct.data_io + ct.computation() + ct.weight_traffic;
        assert!((ct.total.as_f64() - sum.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn ideal_overlap_takes_max() {
        let m = PerfModel::paper_default().with_overlap(OverlapMode::Ideal);
        let job = ps_job(10.0); // Tw dominates massively
        let ct = m.component_times(&job);
        assert!((ct.total.as_f64() - ct.weight_traffic.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn efficiency_override_shifts_weight_time() {
        let base = PerfModel::paper_default();
        let slow_comm = base.with_efficiency(Efficiency::paper_default().with_communication(0.35));
        let job = ps_job(1.0);
        let ratio = slow_comm
            .weight_traffic_time(&job)
            .ratio(base.weight_traffic_time(&job));
        assert!((ratio - 2.0).abs() < 1e-9);
        // Compute time untouched.
        assert_eq!(
            slow_comm.compute_bound_time(&job),
            base.compute_bound_time(&job)
        );
    }

    #[test]
    fn throughput_eq2() {
        let m = PerfModel::paper_default();
        let job = ps_job(1.0);
        let t = m.total_time(&job).as_f64();
        let expected = 16.0 / t * 256.0;
        assert!((m.throughput(&job) - expected).abs() < 1e-6);
    }

    #[test]
    fn component_times_zero_total_guards_fractions() {
        let m = PerfModel::paper_default();
        let empty = WorkloadFeatures::builder(Architecture::OneWorkerOneGpu).build();
        let ct = m.component_times(&empty);
        assert!(ct.total.is_zero());
        assert_eq!(ct.fractions(), [0.0; 4]);
        assert_eq!(ct.weight_fraction(), 0.0);
    }

    /// Eq. 1 composed term by term, the way the model priced a job
    /// before it cached its rates: a `LinkModel` per medium, FLOPs over
    /// the derated peak, `Seconds` folds and `OverlapMode::combine`.
    fn reference(model: &PerfModel, job: &WorkloadFeatures) -> ComponentTimes {
        let cfg = model.config();
        let contention = job
            .arch()
            .input_contention_factor(job.cnodes(), GPUS_PER_SERVER);
        let td = cfg
            .link(LinkKind::Pcie)
            .transfer_time(job.input_bytes().scale(contention as f64));
        let tcc = job.flops() / cfg.gpu().peak_flops().scale(cfg.efficiency().compute());
        let tcm = cfg
            .link(LinkKind::HbmMemory)
            .transfer_time(job.mem_access_bytes());
        let tw: Seconds = job
            .arch()
            .weight_media()
            .iter()
            .map(|&kind| cfg.link(kind).transfer_time(job.weight_bytes()))
            .sum();
        let parts = [td.as_f64(), (tcc + tcm).as_f64(), tw.as_f64()];
        ComponentTimes {
            data_io: td,
            compute_bound: tcc,
            memory_bound: tcm,
            weight_traffic: tw,
            total: Seconds::from_f64(model.overlap().combine(&parts)),
        }
    }

    fn decades(exponents: std::ops::RangeInclusive<f64>) -> impl Strategy<Value = f64> {
        exponents.prop_map(|e| 10f64.powf(e))
    }

    /// A volume from 0 to 1e15: either signed zero (both pass ingest
    /// validation), uniform, or log-uniform from 1.
    fn volume() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            0.0..=1e15,
            decades(0.0..=15.0),
            decades(0.0..=15.0)
        ]
    }

    /// A record of any class, with cNode counts on both sides of the
    /// 8-GPU server that bounds input contention.
    fn any_job() -> impl Strategy<Value = WorkloadFeatures> {
        (
            0..Architecture::ALL.len(),
            prop_oneof![2..=16usize, 2..=4096usize],
            (volume(), volume(), volume(), volume()),
        )
            .prop_map(|(arch, cnodes, (input, weight, flops, mem))| {
                let arch = Architecture::ALL[arch];
                let cnodes = if arch == Architecture::OneWorkerOneGpu {
                    1
                } else {
                    cnodes
                };
                WorkloadFeatures::builder(arch)
                    .cnodes(cnodes)
                    .input_bytes(Bytes::from_f64(input))
                    .weight_bytes(Bytes::from_f64(weight))
                    .flops(Flops::from_f64(flops))
                    .mem_access_bytes(Bytes::from_f64(mem))
                    .build()
            })
    }

    /// Either base configuration, with no Table III point or any one of
    /// them applied, at the default, a uniform or a per-component
    /// efficiency, under either overlap bound.
    fn any_model() -> impl Strategy<Value = PerfModel> {
        let points: Vec<SweepPoint> = SweepAxis::ALL.iter().flat_map(|a| a.points()).collect();
        let eff = || 0.05..=1.0f64;
        (
            any::<bool>(),
            0..=points.len(),
            0..3u8,
            (eff(), eff(), eff(), eff(), eff()),
            any::<bool>(),
        )
            .prop_map(move |(testbed, point, mode, effs, ideal)| {
                let mut config = if testbed {
                    HardwareConfig::testbed_default()
                } else {
                    HardwareConfig::pai_default()
                };
                if let Some(&point) = points.get(point) {
                    config = config.with_resource(point);
                }
                let (compute, memory, pcie, ethernet, nvlink) = effs;
                let overlap = if ideal {
                    OverlapMode::Ideal
                } else {
                    OverlapMode::Serialized
                };
                let model = PerfModel::new(config, overlap);
                match mode {
                    0 => model,
                    1 => model.with_efficiency(Efficiency::uniform(compute)),
                    _ => model.with_efficiency(Efficiency::per_component(
                        compute, memory, pcie, ethernet, nvlink,
                    )),
                }
            })
    }

    /// The kernel and its per-medium weight legs against the
    /// term-by-term reference, every field compared by its bits.
    fn kernel_matches_reference(
        model: &PerfModel,
        job: &WorkloadFeatures,
    ) -> Result<(), TestCaseError> {
        let got = model.component_times(job);
        let want = reference(model, job);
        for (term, a, b) in [
            ("data_io", got.data_io, want.data_io),
            ("compute_bound", got.compute_bound, want.compute_bound),
            ("memory_bound", got.memory_bound, want.memory_bound),
            ("weight_traffic", got.weight_traffic, want.weight_traffic),
            ("total", got.total, want.total),
        ] {
            prop_assert_eq!(
                a.as_f64().to_bits(),
                b.as_f64().to_bits(),
                "{}: kernel {:?} vs reference {:?} for {:?} under {:?}",
                term,
                a,
                b,
                job,
                model
            );
        }
        let legs = model.terms(job).weight;
        for (&t, &medium) in legs.iter().zip(job.arch().weight_media()) {
            let want = model
                .config()
                .link(medium)
                .transfer_time(job.weight_bytes());
            prop_assert_eq!(t.as_f64().to_bits(), want.as_f64().to_bits());
        }
        for t in &legs[job.arch().weight_media().len()..] {
            prop_assert!(t.is_zero(), "padded leg {:?} for {:?}", t, job);
        }
        Ok(())
    }

    /// The per-hardware view as `Breakdown::by_hardware` built it: each
    /// medium's `LinkModel` transfer time, folded onto its component
    /// from `Td` and zero seeds, with the reference total.
    fn by_hardware_reference(model: &PerfModel, job: &WorkloadFeatures) -> HardwareBreakdown {
        let want = reference(model, job);
        let mut pcie = want.data_io;
        let mut ethernet = Seconds::ZERO;
        let mut nvlink = Seconds::ZERO;
        let mut hbm = Seconds::ZERO;
        for &kind in job.arch().weight_media() {
            let t = model.config().link(kind).transfer_time(job.weight_bytes());
            match kind {
                LinkKind::Pcie => pcie += t,
                LinkKind::Ethernet => ethernet += t,
                LinkKind::NvLink => nvlink += t,
                LinkKind::HbmMemory => hbm += t,
            }
        }
        HardwareBreakdown {
            gpu_flops: want.compute_bound,
            gpu_memory: want.memory_bound + hbm,
            pcie,
            ethernet,
            nvlink,
            total: want.total,
        }
    }

    proptest! {
        /// Every class, volumes from 0 to 1e15, both base
        /// configurations, every Table III point, efficiency overrides
        /// and both overlap bounds.
        #[test]
        fn kernel_is_bitwise_the_term_by_term_reference(
            model in any_model(),
            job in any_job(),
        ) {
            kernel_matches_reference(&model, &job)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        /// The same property over 20 000 cases; run with
        /// `cargo test --release -p pai-core -- --ignored`.
        #[test]
        #[ignore = "20 000 cases: run in release with --ignored"]
        fn kernel_is_bitwise_the_term_by_term_reference_deep(
            model in any_model(),
            job in any_job(),
        ) {
            kernel_matches_reference(&model, &job)?;
        }
    }

    proptest! {
        /// The per-hardware view built from one job's terms and total
        /// against the `by_hardware` reference, every field and every
        /// share by its bits (signed zeros included).
        #[test]
        fn hardware_breakdown_is_bitwise_the_by_hardware_reference(
            model in any_model(),
            job in any_job(),
        ) {
            let terms = model.terms(&job);
            let got = HardwareBreakdown::new(job.arch(), &terms, model.combine(&terms).total);
            let want = by_hardware_reference(&model, &job);
            for (field, a, b) in [
                ("gpu_flops", got.gpu_flops, want.gpu_flops),
                ("gpu_memory", got.gpu_memory, want.gpu_memory),
                ("pcie", got.pcie, want.pcie),
                ("ethernet", got.ethernet, want.ethernet),
                ("nvlink", got.nvlink, want.nvlink),
                ("total", got.total, want.total),
            ] {
                prop_assert_eq!(
                    a.as_f64().to_bits(),
                    b.as_f64().to_bits(),
                    "{}: {:?} vs reference {:?} for {:?} under {:?}",
                    field,
                    a,
                    b,
                    job,
                    model
                );
            }
            for kind in [LinkKind::Pcie, LinkKind::Ethernet, LinkKind::NvLink, LinkKind::HbmMemory] {
                prop_assert_eq!(got.fraction(kind).to_bits(), want.fraction(kind).to_bits());
            }
            prop_assert_eq!(
                got.gpu_flops_fraction().to_bits(),
                want.gpu_flops_fraction().to_bits()
            );
        }
    }

    proptest! {
        /// Any base model, moved to any Table III point: deriving again
        /// only the terms the point's rate moves lands bitwise on the
        /// point model's own terms.
        #[test]
        fn rederiving_a_point_is_bitwise_its_own_terms(
            base in any_model(),
            job in any_job(),
        ) {
            let terms = base.terms(&job);
            for point in SweepAxis::ALL.iter().flat_map(|a| a.points()) {
                let varied = base.with_config(base.config().with_resource(point));
                let got = varied.rederive(point.axis, &job, terms);
                let want = varied.terms(&job);
                for (term, a, b) in [
                    ("data_io", got.data_io, want.data_io),
                    ("compute_bound", got.compute_bound, want.compute_bound),
                    ("memory_bound", got.memory_bound, want.memory_bound),
                    ("weight[0]", got.weight[0], want.weight[0]),
                    ("weight[1]", got.weight[1], want.weight[1]),
                ] {
                    prop_assert_eq!(
                        a.as_f64().to_bits(),
                        b.as_f64().to_bits(),
                        "{} at {:?} for {:?}",
                        term,
                        point,
                        job
                    );
                }
            }
        }
    }

    #[test]
    fn with_config_and_with_efficiency_rederive_the_rates() {
        let base = PerfModel::paper_default();
        let fast = base.with_config(base.config().with_resource(SweepPoint {
            axis: SweepAxis::Ethernet,
            value: 100.0,
        }));
        assert_eq!(fast, PerfModel::new(*fast.config(), base.overlap()));
        let slow = base.with_efficiency(Efficiency::uniform(0.35));
        assert_eq!(slow, PerfModel::new(*slow.config(), base.overlap()));
        let job = ps_job(1.0);
        assert!(fast.weight_traffic_time(&job) < base.weight_traffic_time(&job));
        assert!(slow.total_time(&job) > base.total_time(&job));
    }
}
