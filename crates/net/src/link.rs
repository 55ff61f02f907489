//! Link cost model.
//!
//! A link is characterised by a propagation latency and a bandwidth; the
//! time to move a message of `bytes` over it is `latency + bytes / bw`.
//! The paper's Network Monitor never measures links directly — it infers
//! them from iteration times (§III-A) — but the *simulator* needs ground
//! truth to generate those iteration times.


/// Quality of a (directed) link: propagation latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// One-way propagation latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkQuality {
    /// Creates a link quality.
    ///
    /// # Panics
    /// Panics unless latency ≥ 0 and bandwidth > 0.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && latency_s.is_finite(), "latency must be ≥ 0");
        assert!(bandwidth_bps > 0.0 && bandwidth_bps.is_finite(), "bandwidth must be > 0");
        Self { latency_s, bandwidth_bps }
    }

    /// Intra-machine link (NVLink/PCIe-class: ~10 GB/s, negligible latency).
    pub fn intra_machine() -> Self {
        Self::new(50e-6, 10e9)
    }

    /// Inter-machine 1000 Mbps Ethernet link, the paper's cluster fabric.
    ///
    /// The *effective* bandwidth is set to 50 MB/s rather than the raw
    /// 125 MB/s line rate: the paper's cluster is multi-tenant ("network
    /// contention among distributed learning jobs can easily cause
    /// network congestion", §I) and its measured Fig. 3 shows inter-
    /// machine iterations up to 4× the intra-machine ones — which this
    /// calibration reproduces for the ResNet18 profile.
    pub fn gbit_ethernet() -> Self {
        Self::new(1e-3, 50e6)
    }

    /// 10 Gbps virtual-switch link (the paper's homogeneous setting uses a
    /// reserved server with a 10 Gbps virtual switch, §V-A).
    pub fn virtual_switch_10g() -> Self {
        Self::new(100e-6, 1.25e9)
    }

    /// Time in seconds to transfer `bytes` over this link.
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// Returns this link slowed down by `factor` (both latency stretched
    /// and bandwidth divided) — the paper's 2×–100× artificial slowdown.
    pub fn slowed(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "slowdown factor must be ≥ 1");
        Self { latency_s: self.latency_s * factor, bandwidth_bps: self.bandwidth_bps / factor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = LinkQuality::new(0.001, 1_000_000.0);
        assert!((l.transfer_time(0) - 0.001).abs() < 1e-12);
        assert!((l.transfer_time(1_000_000) - 1.001).abs() < 1e-12);
        assert!(l.transfer_time(2_000_000) > l.transfer_time(1_000_000));
    }

    #[test]
    fn slowdown_multiplies_cost() {
        let l = LinkQuality::gbit_ethernet();
        let s = l.slowed(10.0);
        let bytes = 50_000_000;
        let ratio = s.transfer_time(bytes) / l.transfer_time(bytes);
        assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let b = 46_800_000; // ResNet18 fp32 parameter bytes
        let intra = LinkQuality::intra_machine().transfer_time(b);
        let vs10 = LinkQuality::virtual_switch_10g().transfer_time(b);
        let eth = LinkQuality::gbit_ethernet().transfer_time(b);
        assert!(intra < vs10 && vs10 < eth);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = LinkQuality::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_speedup_as_slowdown() {
        let _ = LinkQuality::gbit_ethernet().slowed(0.5);
    }
}
