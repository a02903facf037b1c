//! End-to-end property tests: for *arbitrary* core bindings (not just the
//! four standard layouts), every scheme must produce a functionally correct,
//! order-preserving allgather, and the asynchronous fluid executor must agree
//! with the analytic model to within a factor bound.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tarr::core::{Mapper, Scheme, Session, SessionConfig};
use tarr::mapping::{InitialMapping, OrderFix};
use tarr::mpi::{time_schedule, time_schedule_async};
use tarr::netsim::{NetParams, StageModel};
use tarr::topo::{Cluster, CoreId};

fn shuffled_session(nodes: usize, seed: u64) -> Session {
    let cluster = Cluster::gpc(nodes);
    let mut cores: Vec<CoreId> = cluster.cores().collect();
    cores.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    Session::new(cluster, cores, SessionConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random bindings: all schemes verify, all timings positive/finite.
    #[test]
    fn random_bindings_all_schemes_correct(ln in 0usize..4, seed in any::<u64>(), msg in 1u64..100_000) {
        let mut s = shuffled_session(1 << ln, seed);
        for scheme in [
            Scheme::Default,
            Scheme::hrstc(OrderFix::InitComm),
            Scheme::hrstc(OrderFix::EndShuffle),
            Scheme::Reordered { mapper: Mapper::ScotchTuned, fix: OrderFix::InitComm },
        ] {
            prop_assert!(s.verify_allgather(msg, scheme).is_ok());
            let t = s.allgather_time(msg, scheme);
            prop_assert!(t.is_finite() && t > 0.0);
        }
    }

    /// Reordering never makes the ring slower than the default by more than
    /// rounding, for any random binding (the heuristic either helps or
    /// leaves it alone — ring has no fix overhead).
    #[test]
    fn ring_reordering_never_hurts_random_bindings(ln in 1usize..4, seed in any::<u64>()) {
        let mut s = shuffled_session(1 << ln, seed);
        let before = s.allgather_time(65536, Scheme::Default);
        let after = s.allgather_time(65536, Scheme::hrstc(OrderFix::InitComm));
        prop_assert!(after <= before * 1.0001, "before {} after {}", before, after);
    }

    /// The async fluid executor and the analytic stage model agree within a
    /// factor of 2 on real collective schedules (same contention physics;
    /// async can only be faster by overlap, slower never by more than the
    /// barrier slack).
    #[test]
    fn fluid_and_analytic_agree_on_collectives(ln in 0usize..3, msg in 64u64..65536) {
        let cluster = Cluster::gpc(1 << ln);
        let p = cluster.total_cores() as u32;
        let comm = tarr::mpi::Communicator::new(cluster.cores().collect());
        let params = NetParams::default();
        let model = StageModel::new(&cluster, params.clone());
        for sched in [
            tarr::collectives::allgather::recursive_doubling(p),
            tarr::collectives::allgather::ring(p),
        ] {
            let sync = time_schedule(&sched, &comm, &model, msg);
            let asyn = time_schedule_async(&sched, &comm, &cluster, &params, msg);
            prop_assert!(asyn <= sync * 1.0001, "async {} sync {}", asyn, sync);
            prop_assert!(asyn >= sync * 0.5, "async {} sync {}", asyn, sync);
        }
    }

    /// Standard layouts are bijections onto the allocated cores and the
    /// session accepts them at any node count.
    #[test]
    fn layouts_always_valid(nodes in 1usize..20, which in 0usize..4) {
        let layout = InitialMapping::ALL[which];
        let cluster = Cluster::gpc(nodes);
        let p = cluster.total_cores();
        let cores = layout.layout(&cluster, p);
        let mut ids: Vec<u32> = cores.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        prop_assert!(ids.windows(2).all(|w| w[0] + 1 == w[1]));
    }
}

/// The async fluid executor's result, pinned to the bit over a grid of
/// collective schedules, sizes and communicators. Each row is
/// `(label, f64::to_bits)`; regenerate with `ASYNC_PIN_PRINT=1 cargo test
/// --test properties_e2e async_pricing_is_pinned -- --nocapture` only when
/// the pricing model changes on purpose.
fn async_pin_grid() -> Vec<(String, u64)> {
    use tarr::collectives::allgather::{
        bruck, hierarchical, recursive_doubling, ring, HierarchicalConfig, InterAlg, IntraPattern,
    };
    use tarr::collectives::bcast::binomial_bcast;
    use tarr::collectives::gather::binomial_gather;
    use tarr::topo::Rank;

    let params = NetParams::default();
    let mut out = Vec::new();
    for nodes in [3usize, 8] {
        let cluster = Cluster::gpc(nodes);
        let p = cluster.total_cores() as u32;
        let initial = tarr::mpi::Communicator::new(cluster.cores().collect());
        let perm: Vec<u32> = (0..p).map(|i| (i * 7 + 3) % p).collect();
        let reordered = initial.reordered(&perm);
        let groups: Vec<(u32, u32)> = (0..p / 8).map(|g| (g * 8, 8)).collect();
        let hier = HierarchicalConfig {
            intra: IntraPattern::Binomial,
            inter: InterAlg::Ring,
        };
        for msg in [1u64, 4096, 1 << 20] {
            let mut scheds = vec![
                ("ring", ring(p)),
                ("bruck", bruck(p)),
                ("bcast", binomial_bcast(p, Rank(0), msg)),
                ("gather", binomial_gather(p, Rank(0))),
                ("hier", hierarchical(p, &groups, hier)),
            ];
            if p.is_power_of_two() {
                scheds.push(("rd", recursive_doubling(p)));
            }
            for (name, sched) in &scheds {
                for (cname, comm) in [("init", &initial), ("reord", &reordered)] {
                    let t = time_schedule_async(sched, comm, &cluster, &params, msg);
                    out.push((format!("{name}/p{p}/{msg}/{cname}"), t.to_bits()));
                }
            }
        }
    }
    out
}

#[test]
fn async_pricing_is_pinned() {
    let got = async_pin_grid();
    if std::env::var_os("ASYNC_PIN_PRINT").is_some() {
        for (label, bits) in &got {
            println!("    (\"{label}\", 0x{bits:016x}),");
        }
    }
    assert_eq!(got.len(), ASYNC_PIN.len());
    for ((label, bits), (want_label, want)) in got.iter().zip(ASYNC_PIN) {
        assert_eq!(label, want_label);
        assert_eq!(
            *bits,
            *want,
            "{label}: {} vs pinned {}",
            f64::from_bits(*bits),
            f64::from_bits(*want)
        );
    }
}

#[rustfmt::skip]
const ASYNC_PIN: &[(&str, u64)] = &[
    ("ring/p24/1/init", 0x3f021779ef2f4d4c),
    ("ring/p24/1/reord", 0x3f021d43b2b24461),
    ("bruck/p24/1/init", 0x3edf8d24706bb0a6),
    ("bruck/p24/1/reord", 0x3edfad197e2b5416),
    ("bcast/p24/1/init", 0x3ed8c05d812427b3),
    ("bcast/p24/1/reord", 0x3edf784c5f2c9fec),
    ("gather/p24/1/init", 0x3ed27b3a85785499),
    ("gather/p24/1/reord", 0x3ed9335ceda48547),
    ("hier/p24/1/init", 0x3ee27f415042bdb4),
    ("hier/p24/1/reord", 0x3ee949a4a51597a7),
    ("ring/p24/4096/init", 0x3f10c2f0d5eb8476),
    ("ring/p24/4096/reord", 0x3f2f888676d21969),
    ("bruck/p24/4096/init", 0x3f295a249a1eb025),
    ("bruck/p24/4096/reord", 0x3f2d0040ed85ffe0),
    ("bcast/p24/4096/init", 0x3ee6ae5dc503dff1),
    ("bcast/p24/4096/reord", 0x3ef4cd8b715f5429),
    ("gather/p24/4096/init", 0x3effac0a0d08cce4),
    ("gather/p24/4096/reord", 0x3f04f84795640192),
    ("hier/p24/4096/init", 0x3f17e39a9b569b08),
    ("hier/p24/4096/reord", 0x3f3061ed9de22f88),
    ("ring/p24/1048576/init", 0x3f88b96a74ac1773),
    ("ring/p24/1048576/reord", 0x3fab076b593f616b),
    ("bruck/p24/1048576/init", 0x3fa91986445db36f),
    ("bruck/p24/1048576/reord", 0x3fac0594139dc19d),
    ("bcast/p24/1048576/init", 0x3f54b666f708743d),
    ("bcast/p24/1048576/reord", 0x3f6ccd04f4ea1ed8),
    ("gather/p24/1048576/init", 0x3f7b13897822f732),
    ("gather/p24/1048576/reord", 0x3f81d61e75b00724),
    ("hier/p24/1048576/init", 0x3f95975a50e3b02e),
    ("hier/p24/1048576/reord", 0x3faf32c6abea61da),
    ("ring/p64/1/init", 0x3f18c71bddd70b37),
    ("ring/p64/1/reord", 0x3f18cf093d158a29),
    ("bruck/p64/1/init", 0x3ee3068a3638f1f0),
    ("bruck/p64/1/reord", 0x3ee3343a44498605),
    ("bcast/p64/1/init", 0x3edf0b5043a3e98a),
    ("bcast/p64/1/reord", 0x3ee2e18413f65709),
    ("gather/p64/1/init", 0x3edf1de0374e251b),
    ("gather/p64/1/reord", 0x3ee2eb3f28b4d50a),
    ("hier/p64/1/init", 0x3ef1266c46116bc1),
    ("hier/p64/1/reord", 0x3ef49dc6cfdda360),
    ("rd/p64/1/init", 0x3edfa5eb3f314bdb),
    ("rd/p64/1/reord", 0x3ee3346537674a66),
    ("ring/p64/4096/init", 0x3f26f4b924fa3563),
    ("ring/p64/4096/reord", 0x3f4597ecc63c64e2),
    ("bruck/p64/4096/init", 0x3f43c28273e603ad),
    ("bruck/p64/4096/reord", 0x3f45646b3989e470),
    ("bcast/p64/4096/init", 0x3eec82de0f6c0e04),
    ("bcast/p64/4096/reord", 0x3ef6dbe497c4ad44),
    ("gather/p64/4096/init", 0x3f16204f6c291200),
    ("gather/p64/4096/reord", 0x3f192d22a2ed2a66),
    ("hier/p64/4096/init", 0x3f2ffc8b05a10c7c),
    ("hier/p64/4096/reord", 0x3f464815ee53db1e),
    ("rd/p64/4096/init", 0x3f43c56ae9e9fa40),
    ("rd/p64/4096/reord", 0x3f456f2800fafcb6),
    ("ring/p64/1048576/init", 0x3fa0ee6b274a3c68),
    ("ring/p64/1048576/reord", 0x3fc2824c4b073a61),
    ("bruck/p64/1048576/init", 0x3fc3b25ade75c480),
    ("bruck/p64/1048576/reord", 0x3fc519375e9104f6),
    ("bcast/p64/1048576/init", 0x3f5a1b154c70db84),
    ("bcast/p64/1048576/reord", 0x3f6aead271517bf4),
    ("gather/p64/1048576/init", 0x3f9431a4ff029df8),
    ("gather/p64/1048576/reord", 0x3f96d383cb262e92),
    ("hier/p64/1048576/init", 0x3faddbbe067f58ce),
    ("hier/p64/1048576/reord", 0x3fc5a52593e34c40),
    ("rd/p64/1048576/init", 0x3fc387959c452bc0),
    ("rd/p64/1048576/reord", 0x3fc523f426021d3c),
];
