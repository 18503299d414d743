//! The network model.

use std::time::Duration;

/// A simple latency + bandwidth model of the cluster interconnect.
///
/// The paper's cluster used 100 Mbps Ethernet; the default model matches it.
/// The cluster advances a sender's virtual clock by the modelled transfer
/// time of each send; nothing ever sleeps for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Link bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency in microseconds (includes the TCP setup the paper
    /// mentions, amortised per message).
    pub latency_us: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        // The paper's testbed: 100 Mbps, LAN latency.
        NetworkModel {
            bandwidth_mbps: 100.0,
            latency_us: 200,
        }
    }
}

impl NetworkModel {
    /// A model of the paper's 100 Mbps cluster network.
    pub fn paper_testbed() -> Self {
        NetworkModel::default()
    }

    /// Time to move `bytes` across one link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let serialisation_us = if self.bandwidth_mbps.is_finite() && self.bandwidth_mbps > 0.0 {
            (bytes as f64 * 8.0) / self.bandwidth_mbps
        } else {
            0.0
        };
        Duration::from_micros(self.latency_us) + Duration::from_secs_f64(serialisation_us / 1e6)
    }

    /// Transfer time in microseconds (convenience for reports).
    pub fn transfer_time_us(&self, bytes: usize) -> f64 {
        self.transfer_time(bytes).as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_mbps_moves_a_megabyte_in_about_84_ms() {
        let net = NetworkModel::paper_testbed();
        let t = net.transfer_time(1 << 20);
        let ms = t.as_secs_f64() * 1e3;
        assert!((83.0..90.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn latency_dominates_small_messages() {
        let net = NetworkModel::paper_testbed();
        let t = net.transfer_time(64);
        assert!(t >= Duration::from_micros(200));
        assert!(t < Duration::from_micros(300));
    }

    #[test]
    fn transfer_scales_linearly_with_size() {
        let net = NetworkModel::paper_testbed();
        let one = net.transfer_time_us(100_000);
        let two = net.transfer_time_us(200_000);
        assert!(two > one);
        let ratio = (two - net.latency_us as f64) / (one - net.latency_us as f64);
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }
}
