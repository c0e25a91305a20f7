//! op_cost — what an operation costs the host, as a count of retired
//! user-space instructions rather than a time.
//!
//! Host time on a shared or frequency-scaling machine moves by more than a
//! small change to a hot path costs; the instructions the CPU retires for a
//! fixed stream of operations barely move at all. This binary builds
//! `fe_read`'s and `ps_modify`'s deployment (figure 2, async master/slave,
//! `coalesce(64, 5 ms)` shipping, nearest-copy front-end reads, a lossless
//! backbone, 50 000 subscribers, seed 11), lets it settle, warms it with a
//! stream of searches and modifies, and then counts the instructions of:
//!
//! * `search`: a fixed stream of searches through `Udr::execute`;
//! * `modify`: a fixed stream of one-attribute modifies, the pump's
//!   shipping and slave applies between them included;
//! * `store.get`: one `RecordStore::get` of every record of one store of
//!   the deployment, the storage engine's uid lookup alone.
//!
//! The count comes from Linux's `perf_event_open` (hardware instructions,
//! kernel and hypervisor excluded, this thread only). Where the kernel
//! denies it (`/proc/sys/kernel/perf_event_paranoid` above 2, a container
//! without the permission, a machine with no counter), the binary says why
//! and prints no number.
//!
//! ```sh
//! cargo run --release -p udr-bench --bin op_cost
//! ```

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{FromRawFd, RawFd};

use udr_core::{OpRequest, Udr, UdrConfig};
use udr_ldap::{Dn, LdapOp};
use udr_model::attrs::{AttrId, AttrMod, AttrValue};
use udr_model::config::{ReadPolicy, ReplicationMode};
use udr_model::identity::Identity;
use udr_model::ids::{PartitionId, SeId, SiteId};
use udr_model::time::{SimDuration, SimTime};
use udr_replication::ShipBatchConfig;
use udr_sim::net::LinkProfile;
use udr_sim::SimRng;
use udr_workload::PopulationBuilder;

const SEED: u64 = 11;
const SUBSCRIBERS: u64 = 50_000;
/// Operations of each kind run before counting, and counted.
const WARM_OPS: usize = 5_000;
const COUNTED_OPS: usize = 20_000;
/// The benchmark's pacing: provisions 2 ms apart, operations 500 µs apart,
/// 5 s of settling after the last provision.
const PROVISION_GAP: SimDuration = SimDuration::from_millis(2);
const OP_GAP: SimDuration = SimDuration::from_micros(500);
const SETTLE: SimDuration = SimDuration::from_secs(5);

/// `struct perf_event_attr` up to `config2` (`PERF_ATTR_SIZE_VER1`).
#[repr(C)]
#[derive(Default)]
struct PerfEventAttr {
    kind: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    /// The bit fields: `disabled`, `inherit`, `pinned`, `exclusive`,
    /// `exclude_user`, `exclude_kernel`, `exclude_hv`, … from bit 0.
    flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
}

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
const EXCLUDE_KERNEL: u64 = 1 << 5;
const EXCLUDE_HV: u64 = 1 << 6;
const PERF_FLAG_FD_CLOEXEC: u64 = 1 << 3;
/// `perf_event_open`'s system-call number, where this binary knows it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SYS_PERF_EVENT_OPEN: Option<i64> = Some(298);
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SYS_PERF_EVENT_OPEN: Option<i64> = Some(241);
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const SYS_PERF_EVENT_OPEN: Option<i64> = None;

extern "C" {
    /// libc's system-call entry: the call number, then its arguments.
    fn syscall(number: i64, ...) -> i64;
}

/// A running count of the user-space instructions this thread retires.
struct Instructions(File);

impl Instructions {
    /// Open an enabled counter, or the reason the kernel gave for not.
    fn open() -> io::Result<Instructions> {
        let number = SYS_PERF_EVENT_OPEN.ok_or(io::ErrorKind::Unsupported)?;
        let attr = PerfEventAttr {
            kind: PERF_TYPE_HARDWARE,
            size: size_of::<PerfEventAttr>() as u32,
            config: PERF_COUNT_HW_INSTRUCTIONS,
            flags: EXCLUDE_KERNEL | EXCLUDE_HV,
            ..PerfEventAttr::default()
        };
        // SAFETY: `perf_event_open(attr, pid, cpu, group_fd, flags)` reads
        // `size` bytes of `attr`, which outlives the call and is exactly
        // that large; pid 0 and cpu -1 name this thread on any CPU, group
        // -1 makes it a group of its own. It writes no memory of ours.
        let fd = unsafe {
            syscall(
                number,
                &attr as *const PerfEventAttr,
                0i32,
                -1i32,
                -1i32,
                PERF_FLAG_FD_CLOEXEC,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the call returned a new file descriptor that nothing else
        // owns, so the `File` may close it.
        Ok(Instructions(unsafe { File::from_raw_fd(fd as RawFd) }))
    }

    /// The count so far: a read of the counter is its 8-byte value.
    fn read(&mut self) -> u64 {
        let mut value = [0u8; 8];
        self.0
            .read_exact(&mut value)
            .expect("read of an instruction counter");
        u64::from_ne_bytes(value)
    }

    /// Instructions retired while `f` ran.
    fn count(&mut self, f: impl FnOnce()) -> u64 {
        let before = self.read();
        f();
        self.read() - before
    }
}

/// The benchmark's deployment for `fe_read` and `ps_modify`.
fn deployment() -> Udr {
    let mut cfg = UdrConfig::figure2();
    cfg.frash.replication = ReplicationMode::AsyncMasterSlave;
    cfg.frash.fe_read_policy = ReadPolicy::NearestCopy;
    cfg.ship_batch = ShipBatchConfig::coalesce(64, SimDuration::from_millis(5));
    cfg.seed = SEED;
    let mut udr = Udr::build(cfg).expect("valid deployment");
    let sites = udr.config().sites;
    for a in 0..sites {
        for b in a + 1..sites {
            let (a, b) = (SiteId(a), SiteId(b));
            let latency = udr.net.topology().link(a, b).latency.clone();
            udr.net
                .topology_mut()
                .set_link(a, b, LinkProfile::lossless(latency));
        }
    }
    udr
}

/// One generated operation and the site it enters at.
struct Op {
    ldap: LdapOp,
    site: SiteId,
}

fn main() {
    let mut counter = match Instructions::open() {
        Ok(counter) => counter,
        Err(e) => {
            let paranoid = std::fs::read_to_string("/proc/sys/kernel/perf_event_paranoid")
                .map_or_else(|_| "unreadable".to_owned(), |s| s.trim().to_owned());
            println!(
                "op_cost: no instruction counter: perf_event_open failed: {e} \
                 (kernel.perf_event_paranoid {paranoid}); no count printed"
            );
            return;
        }
    };

    let mut udr = deployment();
    let subs =
        PopulationBuilder::new(3).build(SUBSCRIBERS, &mut SimRng::seed_from_u64(SEED ^ 0x717e));
    let mut now = SimTime::ZERO + SETTLE;
    for sub in &subs {
        now += PROVISION_GAP;
        let out = udr.provision_subscriber(&sub.ids, sub.home_region, SiteId(0), now);
        assert!(out.is_ok(), "provisioning: {:?}", out.op.result);
    }
    now += SETTLE;
    udr.advance_to(now);

    let mut rng = SimRng::seed_from_u64(SEED ^ 0x0b5);
    let mut value = 0u64;
    let mut stream = |modify: bool, n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| {
                let sub = &subs[rng.below(SUBSCRIBERS) as usize];
                let site = SiteId(rng.below(3) as u32);
                let dn = Dn::for_identity(Identity::Imsi(sub.ids.imsi));
                let ldap = if modify {
                    value += 1;
                    let set = AttrMod::Set(AttrId::OdbMask, AttrValue::U64(value));
                    LdapOp::Modify {
                        dn,
                        mods: vec![set],
                    }
                } else {
                    LdapOp::Search {
                        base: dn,
                        attrs: vec![AttrId::OdbMask],
                    }
                };
                Op { ldap, site }
            })
            .collect()
    };
    let warm = [stream(false, WARM_OPS), stream(true, WARM_OPS)];
    let counted = [stream(false, COUNTED_OPS), stream(true, COUNTED_OPS)];

    let mut run = |udr: &mut Udr, ops: &[Op]| {
        for op in ops {
            now += OP_GAP;
            let out = udr
                .execute(OpRequest::new(&op.ldap).site(op.site).at(now))
                .into_op();
            assert!(out.is_ok(), "{:?}", out.result);
        }
    };
    for ops in &warm {
        run(&mut udr, ops);
    }
    let search = counter.count(|| run(&mut udr, &counted[0]));
    let modify = counter.count(|| run(&mut udr, &counted[1]));

    let store = udr
        .se(SeId(0))
        .engine(PartitionId(0))
        .expect("SE 0 holds partition 0")
        .store();
    let uids: Vec<_> = store.iter().map(|v| v.uid).collect();
    let get = counter.count(|| {
        for &uid in &uids {
            std::hint::black_box(store.get(std::hint::black_box(uid)));
        }
    });

    println!(
        "op_cost: figure 2, async master/slave, {SUBSCRIBERS} subscribers, seed {SEED}; \
         user-space instructions retired"
    );
    println!("{:<10}  {:>8}  {:>16}", "row", "ops", "instructions/op");
    for (row, ops, total) in [
        ("search", COUNTED_OPS, search),
        ("modify", COUNTED_OPS, modify),
        ("store.get", uids.len(), get),
    ] {
        println!("{row:<10}  {ops:>8}  {:>16.1}", total as f64 / ops as f64);
    }
}
