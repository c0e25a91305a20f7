//! Deployment configuration of a UDR NF: the topology knobs of §2.3/§3.4
//! on top of the FRASH behaviour knobs from `udr-model`.

use udr_dls::Location;
use udr_model::config::FrashConfig;
use udr_model::error::{UdrError, UdrResult};
use udr_model::tenant::TenantDirectory;
use udr_qos::QosConfig;
use udr_replication::ShipBatchConfig;
use udr_trace::TraceConfig;

/// Full configuration of one simulated UDR deployment.
#[derive(Debug, Clone)]
pub struct UdrConfig {
    /// Behavioural knobs (§3 design decisions).
    pub frash: FrashConfig,
    /// QoS admission control and overload protection (disabled by
    /// default — the front door admits everything, as the paper's first
    /// realization does).
    pub qos: QosConfig,
    /// Geographic sites (regions); FE populations and home regions map 1:1
    /// onto sites.
    pub sites: u32,
    /// Blade clusters per site (each with a PoA, LDAP servers and a
    /// data-location stage instance).
    pub clusters_per_site: u32,
    /// Storage elements per cluster (§3.5 caps this at 16 per cluster).
    pub ses_per_cluster: u32,
    /// LDAP server processes per cluster (§3.5 caps this at 32).
    pub ldap_servers_per_cluster: u32,
    /// Subscriber-data partitions. Defaults to one per SE (each SE masters
    /// exactly one partition, the Figure 2 layout).
    pub partitions: u32,
    /// De-rated LDAP server throughput for simulation (ops/s). The paper's
    /// blades do 10⁶; simulations usually run smaller populations and keep
    /// the ratio meaningful rather than the absolute.
    pub ldap_ops_per_sec: f64,
    /// Capacity of cached-locator stages (entries), when used.
    pub dls_cache_capacity: usize,
    /// Replication log-shipping coalescing. Every commit ships through a
    /// channel's open batch; the default cap of one ships each commit at
    /// once as a batch of one (one message per commit, the paper's
    /// baseline). The scale campaign raises the cap to amortise the
    /// per-message cost.
    pub ship_batch: ShipBatchConfig,
    /// Structured tracing (flight recorder + slow-op exemplars). Disabled
    /// by default; enabling it must never change simulated behaviour,
    /// only record it.
    pub trace: TraceConfig,
    /// Operators sharing this UDR: per-tenant capability masks and rate
    /// budgets. Defaults to one tenant entitled to everything — the
    /// single-operator deployment every earlier experiment models.
    pub tenants: TenantDirectory,
    /// RNG seed: same seed ⇒ identical run.
    pub seed: u64,
}

impl Default for UdrConfig {
    fn default() -> Self {
        UdrConfig {
            frash: FrashConfig::default(),
            qos: QosConfig::disabled(),
            sites: 3,
            clusters_per_site: 1,
            ses_per_cluster: 1,
            ldap_servers_per_cluster: 2,
            partitions: 3,
            ldap_ops_per_sec: 1_000_000.0,
            dls_cache_capacity: 65_536,
            ship_batch: ShipBatchConfig::per_record(),
            trace: TraceConfig::disabled(),
            tenants: TenantDirectory::single_tenant(),
            seed: 0xC0FFEE,
        }
    }
}

impl UdrConfig {
    /// Total clusters times `per_cluster`, `None` past `u32::MAX`. The
    /// totals below saturate there, and [`Self::validate`] rejects it.
    fn checked_total(&self, per_cluster: u32) -> Option<u32> {
        self.sites
            .checked_mul(self.clusters_per_site)?
            .checked_mul(per_cluster)
    }

    /// Total storage elements.
    pub fn total_ses(&self) -> u32 {
        self.checked_total(self.ses_per_cluster).unwrap_or(u32::MAX)
    }

    /// Total LDAP servers.
    pub fn total_ldap_servers(&self) -> u32 {
        self.checked_total(self.ldap_servers_per_cluster)
            .unwrap_or(u32::MAX)
    }

    /// Validate the deployment shape.
    pub fn validate(&self) -> UdrResult<()> {
        self.frash.validate()?;
        self.qos.validate()?;
        self.tenants.validate()?;
        if self.sites == 0 {
            return Err(UdrError::Config("at least one site required".into()));
        }
        if self.clusters_per_site == 0 || self.ses_per_cluster == 0 {
            return Err(UdrError::Config(
                "clusters and SEs per cluster must be ≥ 1".into(),
            ));
        }
        if self.ldap_servers_per_cluster == 0 {
            return Err(UdrError::Config("each cluster needs an LDAP server".into()));
        }
        let per_cluster = self.ses_per_cluster.max(self.ldap_servers_per_cluster);
        if self.checked_total(per_cluster).is_none() {
            let msg = "the topology has more SEs or LDAP servers than a u32 counts";
            return Err(UdrError::Config(msg.into()));
        }
        if self.partitions == 0 {
            return Err(UdrError::Config("at least one partition required".into()));
        }
        if self.partitions > Location::MAX_PARTITIONS {
            return Err(UdrError::Config(format!(
                "{} partitions exceed the {} a data-location table addresses",
                self.partitions,
                Location::MAX_PARTITIONS
            )));
        }
        if self.partitions > self.total_ses() {
            return Err(UdrError::Config(format!(
                "{} partitions cannot each have a master among {} SEs",
                self.partitions,
                self.total_ses()
            )));
        }
        let rf = u32::from(self.frash.replication_factor);
        if rf > self.total_ses() {
            return Err(UdrError::Config(format!(
                "replication factor {rf} exceeds {} SEs",
                self.total_ses()
            )));
        }
        if !(self.ldap_ops_per_sec.is_finite() && self.ldap_ops_per_sec > 0.0) {
            return Err(UdrError::Config(
                "ldap_ops_per_sec must be finite and positive".into(),
            ));
        }
        Ok(())
    }

    /// The paper's Figure 2 example: three sites, one cluster each, one SE
    /// per cluster, three partitions, RF 3 — every SE masters one partition
    /// and holds secondaries of the other two.
    pub fn figure2() -> Self {
        UdrConfig::default()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // knob-by-knob mutation reads clearer here
mod tests {
    use super::*;
    use udr_model::config::ReplicationMode;

    #[test]
    fn default_is_valid_figure2() {
        let c = UdrConfig::figure2();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_ses(), 3);
        assert_eq!(c.checked_total(1), Some(3));
        assert_eq!(c.total_ldap_servers(), 6);
    }

    #[test]
    fn an_overflowing_topology_is_a_config_error() {
        let mut c = UdrConfig::default();
        c.sites = 70_000;
        c.clusters_per_site = 70_000;
        assert!(matches!(c.validate(), Err(UdrError::Config(_))));
        // Per cluster, the larger of the SE and LDAP-server counts decides.
        let mut c = UdrConfig::default();
        c.sites = 65_536;
        c.ldap_servers_per_cluster = 65_536;
        assert!(matches!(c.validate(), Err(UdrError::Config(_))));
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let mut c = UdrConfig::default();
        c.sites = 0;
        assert!(c.validate().is_err());

        let mut c = UdrConfig::default();
        c.partitions = 0;
        assert!(c.validate().is_err());

        let mut c = UdrConfig::default();
        c.partitions = 99;
        assert!(c.validate().is_err());

        let mut c = UdrConfig::default();
        c.frash.replication_factor = 200;
        assert!(c.validate().is_err());

        // The data-location tables address 2^16 partitions, however many
        // SEs could master more.
        let mut c = UdrConfig::default();
        (c.sites, c.clusters_per_site, c.ses_per_cluster) = (1, 1, 70_000);
        c.partitions = 65_536;
        assert!(c.validate().is_ok());
        c.partitions = 65_537;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("65537 partitions exceed the 65536"), "{err}");

        for rate in [0.0, f64::NAN, f64::INFINITY] {
            let mut c = UdrConfig::default();
            c.ldap_ops_per_sec = rate;
            assert!(c.validate().is_err(), "ldap_ops_per_sec = {rate}");
        }
    }

    #[test]
    fn qos_knobs_are_validated_when_enabled() {
        let mut c = UdrConfig::default();
        c.qos = udr_qos::QosConfig::protective();
        assert!(c.validate().is_ok());
        c.qos.shed_interval = udr_model::time::SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tenant_directory_is_validated() {
        let mut c = UdrConfig::default();
        c.tenants = udr_model::tenant::TenantDirectory::empty();
        assert!(c.validate().is_err());
    }

    #[test]
    fn consensus_must_match_rf() {
        let mut c = UdrConfig::default();
        c.frash.replication = ReplicationMode::Consensus { n: 3 };
        c.frash.replication_factor = 3;
        assert!(c.validate().is_ok());
        c.frash.replication_factor = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn quorum_must_match_rf() {
        let mut c = UdrConfig::default();
        c.frash.replication = ReplicationMode::Quorum { n: 3, w: 2, r: 2 };
        c.frash.replication_factor = 3;
        assert!(c.validate().is_ok());
        c.frash.replication_factor = 2;
        assert!(c.validate().is_err());
    }
}
