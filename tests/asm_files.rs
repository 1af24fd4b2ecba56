//! The shipped assembly files parse, run, and behave as documented.

use mds::analysis::{DepProfile, StrideProfile};
use mds::core::{CoreConfig, Policy, Simulator};
use mds::isa::{parse_program, Interpreter};

#[test]
fn figure7_asm_file_round_trips_through_the_whole_stack() {
    let source =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure7.s"))
            .expect("example file present");
    let program = parse_program(&source).expect("parses");
    let trace = Interpreter::new(program).run(1_000_000).expect("runs");
    assert!(trace.completed());
    assert_eq!(trace.counts().loads, 511);
    assert_eq!(trace.counts().stores, 511);

    // Its dependence profile: one static pair, all loads dependent but
    // the first.
    let profile = DepProfile::build(&trace);
    assert_eq!(profile.static_pairs, 1);
    assert_eq!(profile.dependent_loads, 510);
    assert!(profile.window_resident_fraction(128) > 0.9);

    // And the documented policy behaviour: naive speculation trips over
    // the recurrence; synchronization learns it.
    let nav = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasNaive)).run(&trace);
    let sync = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasSync)).run(&trace);
    assert!(nav.stats.misspeculations > 100);
    assert!(sync.stats.misspeculations <= 3);
    assert!(sync.ipc() > nav.ipc());
}

#[test]
fn listing_of_a_parsed_file_reparses() {
    let source =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure7.s"))
            .expect("example file present");
    let program = parse_program(&source).expect("parses");
    let listing = program.listing();
    let again = parse_program(&listing).expect("listing reparses");
    assert_eq!(program.insts(), again.insts());
}

#[test]
fn a_load_that_wraps_the_address_space_runs_through_profile() {
    // `-4(r1)` with r1 = 0 reads 8 bytes from 2^64 - 4: the access wraps
    // past the top of memory, as the effective address itself does.
    let source = "main:\n    li r1, 0\n    ldc1 f2, -4(r1)\n    halt\n";
    let program = parse_program(source).expect("parses");
    let trace = Interpreter::new(program).run(100).expect("runs");
    assert!(trace.completed());
    let load = trace
        .records()
        .iter()
        .find(|r| r.size == 8)
        .expect("the load");
    assert_eq!(load.effaddr, u64::MAX - 3);
    assert_eq!(load.value, 0, "untouched memory reads as zero");

    // Everything `profile --asm --policies` runs on the trace.
    DepProfile::build(&trace).render();
    StrideProfile::build(&trace).render(8);
    for policy in Policy::ALL {
        let r = Simulator::new(CoreConfig::paper_128().with_policy(policy)).run(&trace);
        assert_eq!(r.stats.committed_loads, 1);
    }
}
