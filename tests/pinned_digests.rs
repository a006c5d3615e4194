//! Pinned GFlink result digests for every app and Nexmark query.
//!
//! The engine-agreement tests in `end_to_end.rs` compare the GPU digests
//! against the CPU engine within a tolerance, which a reordered float
//! accumulation inside a kernel slips under. These tests pin the exact bits
//! of each GPU-path digest at the same small points, so any change to a
//! kernel body, a record codec or the block lowering that moves a single
//! ulp fails here. A deliberate change of results must update the pins and
//! say why.

use gflink::apps::nexmark::{self, NexmarkConfig};
use gflink::apps::{concomp, kmeans, linreg, pagerank, pointadd, spmv, wordcount, Setup};
use gflink::core::{FabricConfig, GpuFabric, StreamEnv};
use gflink::sim::SimTime;

const WORKERS: usize = 3;

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest bits {got:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn kmeans_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = kmeans::Params {
        n_logical: 60_000_000,
        n_actual: 4_000,
        iterations: 4,
        parallelism: s.default_parallelism(),
        seed: 1,
    };
    let run = kmeans::run_gpu(&s, &p);
    assert_pinned("kmeans", run.digest.to_bits(), 0x40b1_e068_c7c6_2f00);
}

#[test]
fn linreg_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = linreg::Params {
        n_logical: 60_000_000,
        n_actual: 4_000,
        iterations: 4,
        parallelism: s.default_parallelism(),
        seed: 2,
    };
    let run = linreg::run_gpu(&s, &p);
    assert_pinned("linreg", run.digest.to_bits(), 0xc006_fdac_a292_1775);
}

#[test]
fn spmv_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = spmv::Params {
        rows_logical: 40_000_000,
        rows_actual: 4_000,
        iterations: 4,
        parallelism: s.default_parallelism(),
        seed: 3,
    };
    let run = spmv::run_gpu(&s, &p);
    assert_pinned("spmv", run.digest.to_bits(), 0x405d_e429_0c46_dc80);
}

#[test]
fn pagerank_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = pagerank::Params {
        n_logical: 4_000_000,
        n_actual: 2_000,
        iterations: 4,
        parallelism: s.default_parallelism(),
        seed: 4,
    };
    let run = pagerank::run_gpu(&s, &p);
    assert_pinned("pagerank", run.digest.to_bits(), 0x3f63_019c_58b1_3c74);
}

#[test]
fn concomp_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = concomp::Params {
        n_logical: 4_000_000,
        n_actual: 2_000,
        iterations: 4,
        parallelism: s.default_parallelism(),
        seed: 5,
    };
    let run = concomp::run_gpu(&s, &p);
    assert_pinned("concomp", run.digest.to_bits(), 0x40ea_aa00_0000_0000);
}

#[test]
fn wordcount_digest_is_pinned() {
    let s = Setup::standard(WORKERS);
    let p = wordcount::Params {
        bytes_logical: 4_000_000_000,
        words_actual: 4_000,
        parallelism: s.default_parallelism(),
        seed: 6,
    };
    let run = wordcount::run_gpu(&s, &p);
    assert_pinned("wordcount", run.digest.to_bits(), 0x40cb_960d_39b3_7180);
}

#[test]
fn pointadd_digest_is_pinned() {
    let s = Setup::standard(1);
    let p = pointadd::Params {
        n_logical: 5_000_000,
        n_actual: 2_000,
        iterations: 2,
        parallelism: 4,
        delta: (3.0, -1.0),
    };
    let run = pointadd::run_gpu(&s, &p);
    assert_pinned("pointadd", run.digest.to_bits(), 0xc110_5204_0000_0000);
}

fn nexmark_config() -> NexmarkConfig {
    let mut cfg = NexmarkConfig::standard(7);
    cfg.duration = SimTime::from_secs(1);
    cfg
}

fn nexmark_env() -> StreamEnv {
    let fabric = GpuFabric::new(2, FabricConfig::default());
    nexmark::register_kernels(&fabric);
    StreamEnv::gpu(&fabric)
}

#[test]
fn nexmark_digests_are_pinned() {
    let cfg = nexmark_config();
    let q3 = nexmark::q3(&nexmark_env(), &cfg).expect("q3");
    assert_pinned("nexmark q3", q3.digest, 0xbdbe_4258_7521_5642);
    let q6 = nexmark::q6(&nexmark_env(), &cfg).expect("q6");
    assert_pinned("nexmark q6", q6.digest(), 0x6b5b_7c11_59e7_8828);
    let q13 = nexmark::q13(&nexmark_env(), &cfg, None).expect("q13");
    assert_pinned("nexmark q13", q13.digest, 0xe5c2_d30f_7c3f_304b);
}
