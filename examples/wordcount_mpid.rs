//! WordCount written *directly* against the MPI-D interfaces — the Rust
//! rendition of the paper's Figure 5 listing:
//!
//! ```c
//! void map (MAP_KEY mk, MAP_VALUE mv) {
//!     REDUCE_KEY[] kt = parse(mv);
//!     for (i = 0; i < kt.length; i++) MPI_D_Send(kt[i], 1);
//! }
//! void reduce (REDUCE_KEY rk, REDUCE_VALUE rv) {
//!     MPI_D_Recv(rk, rv);
//!     increment(rk, rv);
//! }
//! ```
//!
//! Unlike the `quickstart` example (which goes through the `mapred` engine,
//! the "context collector" route the paper describes for legacy Hadoop
//! apps), here every rank drives the MPI-D calls itself: `MPI_D_Init`,
//! `MPI_D_Send`, `MPI_D_Recv`, `MPI_D_Finalize`. Each mapper's sender runs
//! in two stages (`threads = 2`): the mapping thread encodes the pairs and
//! a table thread combines them.

use mpid_suite::mpi_rt::Universe;
use mpid_suite::mpid::{MpidConfig, MpidWorld, Role, SumCombiner};

fn main() {
    // 3 mappers, 2 reducers, 1 master — 6 MPI ranks; two sender threads a
    // mapper.
    let cfg = MpidConfig {
        threads: 2,
        ..MpidConfig::with_workers(3, 2)
    };

    // Input splits: one document each, served by the rank-0 master.
    let documents: Vec<String> = vec![
        "mpi can benefit hadoop and mapreduce applications".into(),
        "hadoop rpc is slow and jetty is fast".into(),
        "mpi is fast and mpi is smooth".into(),
        "can mpi benefit hadoop".into(),
    ];

    let results = Universe::run(cfg.required_ranks(), move |comm| {
        // MPI_D_Init: bind this rank's role.
        let world = MpidWorld::init(comm, cfg.clone()).expect("MPI_D_Init");
        let output = match world.role() {
            Role::Master => {
                let stats = world.run_master(documents.clone()).expect("master");
                println!(
                    "[master ] assigned {} splits over {} requests",
                    stats.splits_assigned, stats.requests_served
                );
                Vec::new()
            }
            Role::Mapper(id) => {
                let mut send = world.sender::<String, u64>().with_combiner(SumCombiner);
                let mut docs = 0;
                while let Some(doc) = world.next_split::<String>().expect("split") {
                    docs += 1;
                    // --- the map function of Figure 5 ---
                    for word in doc.split_whitespace() {
                        send.send(word.to_string(), 1).expect("MPI_D_Send");
                    }
                }
                let stats = send.finish().expect("flush");
                println!(
                    "[map   {id}] {docs} docs, {} pairs sent, {} combined locally",
                    stats.pairs_in, stats.pairs_combined
                );
                Vec::new()
            }
            Role::Reducer(id) => {
                let mut recv = world.receiver::<String, u64>();
                let mut out = Vec::new();
                // --- the reduce function of Figure 5 ---
                while let Some((word, counts)) = recv.recv().expect("MPI_D_Recv") {
                    out.push((word, counts.iter().sum::<u64>()));
                }
                println!("[reduce{id}] {} distinct words", out.len());
                out
            }
        };
        // MPI_D_Finalize: synchronize before teardown.
        world.finalize().expect("MPI_D_Finalize");
        output
    });

    let mut all: Vec<(String, u64)> = results.into_iter().flatten().collect();
    all.sort();
    println!();
    println!("global counts:");
    for (word, n) in &all {
        println!("  {word:>12}: {n}");
    }
    let mpi = all.iter().find(|(w, _)| w == "mpi").unwrap().1;
    assert_eq!(mpi, 4, "'mpi' appears 4 times in the corpus");
}
