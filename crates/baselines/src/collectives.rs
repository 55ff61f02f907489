//! Timing model of the ring allreduce.
//!
//! The cost model is the standard one from the collective-communication
//! literature: a ring allreduce over `g` members moves `2(g−1)` chunks of
//! `bytes/g` per member, with every step paced by the slowest link in the
//! ring. (The parameter-server star is timed inside `param_server`.)

use netmax_net::ElasticNetwork;

/// Simulated time for a ring allreduce of `bytes` across `members`,
/// starting at `now`.
///
/// The ring visits members in the order given; each of the `2(g−1)` steps
/// transfers `bytes/g` between every adjacent pair simultaneously, so each
/// step is paced by the slowest adjacent pair.
///
/// `bandwidth_share` models congestion from other collectives running
/// concurrently on the same fabric (1.0 = exclusive use; 0.5 = half the
/// bandwidth, i.e. transfer times double).
///
/// # Panics
/// Panics if fewer than 2 members or `bandwidth_share` is not in (0, 1].
pub fn ring_allreduce_time(
    net: &ElasticNetwork,
    members: &[usize],
    bytes: u64,
    now: f64,
    bandwidth_share: f64,
) -> f64 {
    assert!(members.len() >= 2, "ring allreduce needs at least 2 members");
    assert!(
        bandwidth_share > 0.0 && bandwidth_share <= 1.0,
        "bandwidth share must be in (0, 1]"
    );
    let g = members.len();
    let chunk = (bytes / g as u64).max(1);
    // Slowest adjacent pair paces every step.
    let mut step = 0.0f64;
    for w in 0..g {
        let a = members[w];
        let b = members[(w + 1) % g];
        step = step.max(net.comm_time(a, b, chunk, now));
    }
    2.0 * (g as f64 - 1.0) * step / bandwidth_share
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmax_net::LinkQuality;

    fn net(n: usize) -> ElasticNetwork {
        ElasticNetwork::uniform(n, LinkQuality::new(0.001, 1e9))
    }

    #[test]
    fn ring_time_scales_with_members_and_bytes() {
        let n = net(8);
        let t4 = ring_allreduce_time(&n, &[0, 1, 2, 3], 100_000_000, 0.0, 1.0);
        let t8 = ring_allreduce_time(&n, &(0..8).collect::<Vec<_>>(), 100_000_000, 0.0, 1.0);
        // Total bytes moved per member ≈ 2 · bytes · (g−1)/g — nearly flat
        // in g, but latency terms add per step; t8 ≥ t4 on equal links.
        assert!(t8 > t4 * 0.9);
        let t_small = ring_allreduce_time(&n, &[0, 1, 2, 3], 1_000_000, 0.0, 1.0);
        assert!(t_small < t4);
    }

    #[test]
    fn contention_divides_bandwidth() {
        let n = net(4);
        let exclusive = ring_allreduce_time(&n, &[0, 1], 10_000_000, 0.0, 1.0);
        let contended = ring_allreduce_time(&n, &[0, 1], 10_000_000, 0.0, 0.5);
        assert!((contended / exclusive - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn ring_needs_two() {
        let n = net(2);
        let _ = ring_allreduce_time(&n, &[0], 1000, 0.0, 1.0);
    }
}
