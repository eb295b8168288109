//! The seeded workloads are pinned byte for byte: the `fnv1a64` digest
//! of each encoded v2 graph below was computed once and must never
//! move. A change to the generator's stream, to a draw rule, or to a
//! workload's use of them shifts a digest and fails here, before it
//! silently changes the benchmark's input graphs.

use lipstick::core::obs::fnv1a64;
use lipstick::core::{GraphTracker, ProvGraph};
use lipstick::storage::encode_graph_v2;
use lipstick::workflowgen::arctic::{self, ArcticParams, Topology};
use lipstick::workflowgen::dealers::{self, DealersParams};

fn digest(graph: &ProvGraph) -> u64 {
    fnv1a64(&encode_graph_v2(graph).expect("encode v2"))
}

fn dealers_digests(seed: u64) -> (u64, u64) {
    let params = DealersParams {
        num_cars: 64,
        num_exec: 12,
        seed,
    };
    let mut declining = GraphTracker::new();
    dealers::run_declining(&params, &mut declining).expect("declining run");
    let mut buying = GraphTracker::new();
    dealers::run(&params, &mut buying).expect("run");
    (digest(&declining.finish()), digest(&buying.finish()))
}

#[test]
fn dealers_graphs_are_pinned() {
    for (seed, want) in [
        (1, (0x7f22_0a3f_0227_a689, 0xf45d_172e_4044_7a9c)),
        (11, (0x1119_6775_a592_3183, 0x9334_f7d9_5e6b_e610)),
        (23, (0x5060_4b72_9546_68b0, 0x71e2_77c2_8439_0d53)),
    ] {
        let got = dealers_digests(seed);
        assert_eq!(got, want, "dealers seed {seed}: got {got:#018x?}");
    }
}

#[test]
fn arctic_graphs_are_pinned() {
    for (topology, want) in [
        (Topology::Serial, 0x5bac_1fcd_4620_55d3),
        (Topology::Parallel, 0xf04c_74c8_54d7_3ab7),
        (Topology::Dense { fanout: 2 }, 0x4532_2a37_9568_5c7a),
    ] {
        let params = ArcticParams {
            topology,
            ..ArcticParams::default()
        };
        let mut tracker = GraphTracker::new();
        arctic::run(&params, &mut tracker).expect("arctic run");
        let got = digest(&tracker.finish());
        assert_eq!(got, want, "arctic {topology}: got {got:#018x}");
    }
}
