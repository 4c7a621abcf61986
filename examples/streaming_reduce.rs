//! The paper's streaming reduce mode: "The reducer will adopt a streaming
//! mode to process the data for saving memory space."
//!
//! This example runs the same aggregation twice — once with the grouped
//! `MPI_D_Recv` (ingest everything, then iterate keys in order) and once
//! with the same receiver in its streaming drain state (fold groups as
//! frames arrive, bounded memory) — and shows they agree while the
//! streaming side observes keys multiple times (once per mapper spill that
//! carried them).
//!
//! ```sh
//! cargo run --example streaming_reduce
//! ```

use mpid_suite::mpi_rt::Universe;
use mpid_suite::mpid::{MpidConfig, MpidWorld, Role};
use std::collections::BTreeMap;

fn run(streaming: bool) -> (BTreeMap<String, u64>, u64) {
    let cfg = MpidConfig {
        n_mappers: 3,
        n_reducers: 1,
        // Tiny spill buffer: every key crosses many frames, which is what
        // makes the streaming/grouped distinction visible.
        spill_threshold_bytes: 96,
        ..Default::default()
    };
    let splits: Vec<u64> = (0..9).collect();
    let results = Universe::run(cfg.required_ranks(), move |comm| {
        let world = MpidWorld::init(comm, cfg.clone()).unwrap();
        match world.role() {
            Role::Master => {
                world.run_master(splits.clone()).unwrap();
                None
            }
            Role::Mapper(_) => {
                let mut send = world.sender::<String, u64>();
                while let Some(split) = world.next_split::<u64>().unwrap() {
                    for i in 0..40u64 {
                        let key = format!("sensor-{:02}", (split * 7 + i) % 10);
                        send.send(key, i).unwrap();
                    }
                }
                send.finish().unwrap();
                None
            }
            Role::Reducer(_) => {
                let mut acc: BTreeMap<String, u64> = BTreeMap::new();
                let mut yields = 0u64;
                if streaming {
                    let mut stream = world.receiver::<String, u64>().into_streaming();
                    while let Some((k, vs)) = stream.recv().unwrap() {
                        yields += 1;
                        *acc.entry(k).or_insert(0) += vs.iter().sum::<u64>();
                    }
                } else {
                    let mut recv = world.receiver::<String, u64>();
                    while let Some((k, vs)) = recv.recv().unwrap() {
                        yields += 1;
                        acc.insert(k, vs.iter().sum::<u64>());
                    }
                }
                Some((acc, yields))
            }
        }
    });
    results.into_iter().flatten().next().unwrap()
}

fn main() {
    let (grouped, grouped_yields) = run(false);
    let (streamed, streamed_yields) = run(true);

    println!("totals per key (both modes):");
    for (k, v) in &grouped {
        println!("  {k}: {v}");
    }
    println!();
    println!(
        "grouped MPI_D_Recv:   {grouped_yields} groups delivered ({} distinct keys)",
        grouped.len()
    );
    println!(
        "streaming receiver:   {streamed_yields} partial groups folded (same {} keys)",
        streamed.len()
    );

    assert_eq!(grouped, streamed, "both modes must agree");
    assert_eq!(grouped_yields as usize, grouped.len());
    assert!(
        streamed_yields > grouped_yields,
        "tiny spills must fragment keys across frames"
    );
    println!();
    println!(
        "streaming folded {}x more (partial) groups while holding at most one \
         frame in memory instead of the whole key table",
        streamed_yields / grouped_yields.max(1)
    );
}
