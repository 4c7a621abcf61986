//! The rank-0 master: dynamic split assignment.
//!
//! The paper uses "rank 0 process in the simulation system to simulate the
//! master process, like the jobtracker process in Hadoop", and lists
//! "dynamic process management of mapper and reducer processes" as future
//! work. This module implements the jobtracker-style piece that MPI-D needs:
//! mappers pull input splits from the master one at a time, which gives
//! dynamic load balancing across mappers for free (fast mappers process more
//! splits).

use crate::config::{tags, MpidConfig};
use crate::error::{MpidError, MpidResult};
use crate::kv::{CodecError, Kv};
use crate::stats::MasterStats;
use bytes::BytesMut;
use mpi_rt::Comm;

const MARK_SPLIT: u8 = 1;
const MARK_DONE: u8 = 0;

/// Run the master loop on rank 0: serve split requests until every mapper
/// has been told there is no more work.
pub fn run_master<S: Kv>(comm: &Comm, cfg: &MpidConfig, splits: Vec<S>) -> MpidResult<MasterStats> {
    let mut stats = MasterStats::default();
    let mut next = 0usize;
    let mut done_mappers = 0usize;
    while done_mappers < cfg.n_mappers {
        let (_, status) = comm.recv::<u8>(None, Some(tags::REQ))?;
        stats.requests_served += 1;
        let mut reply = BytesMut::new();
        if next < splits.len() {
            reply.extend_from_slice(&[MARK_SPLIT]);
            splits[next].encode(&mut reply);
            next += 1;
            stats.splits_assigned += 1;
        } else {
            reply.extend_from_slice(&[MARK_DONE]);
            done_mappers += 1;
        }
        comm.send(status.source, tags::ASSIGN, &reply[..])?;
    }
    Ok(stats)
}

/// Mapper side: request the next split from the master. `None` means the
/// input is exhausted and the mapper should finish.
pub fn next_split<S: Kv>(comm: &Comm) -> MpidResult<Option<S>> {
    comm.send::<u8>(0, tags::REQ, &[])?;
    let (reply, _) = comm.recv::<u8>(Some(0), Some(tags::ASSIGN))?;
    let from_master = |err| MpidError::Codec {
        source_rank: 0,
        err,
    };
    match reply.split_first() {
        Some((&MARK_DONE, _)) => Ok(None),
        Some((&MARK_SPLIT, mut rest)) => S::decode(&mut rest).map(Some).map_err(from_master),
        Some(_) => Err(from_master(CodecError::Corrupt(
            "unknown assignment marker",
        ))),
        None => Err(from_master(CodecError::Corrupt("empty assignment reply"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_rt::{MpiConfig, Universe};

    /// Rank 0 answers rank 1's one request with `reply`; rank 1's
    /// `next_split` result comes back, and the run must leave no message
    /// behind.
    fn split_from_reply(reply: Vec<u8>) -> MpidResult<Option<u64>> {
        let (mut results, report) = Universe::run_verified(MpiConfig::default(), 2, |comm| {
            if comm.rank() == 0 {
                let (_, status) = comm.recv::<u8>(None, Some(tags::REQ)).unwrap();
                comm.send(status.source, tags::ASSIGN, &reply[..]).unwrap();
                None
            } else {
                Some(next_split::<u64>(comm))
            }
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        results.pop().flatten().unwrap()
    }

    fn assert_codec_from_master(got: MpidResult<Option<u64>>, err: CodecError) {
        assert_eq!(
            got,
            Err(MpidError::Codec {
                source_rank: 0,
                err
            })
        );
    }

    #[test]
    fn empty_reply_is_a_codec_error() {
        assert_codec_from_master(
            split_from_reply(Vec::new()),
            CodecError::Corrupt("empty assignment reply"),
        );
    }

    #[test]
    fn unknown_marker_is_a_codec_error() {
        assert_codec_from_master(
            split_from_reply(vec![7, 0, 0, 0, 0, 0, 0, 0, 0]),
            CodecError::Corrupt("unknown assignment marker"),
        );
    }

    #[test]
    fn truncated_split_is_a_codec_error() {
        let mut split = vec![MARK_SPLIT];
        split.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(split_from_reply(split.clone()), Ok(Some(7)));
        split.truncate(4);
        assert_codec_from_master(split_from_reply(split), CodecError::Truncated);
    }

    #[test]
    fn more_mappers_than_splits_each_split_once_one_done_each() {
        let (mappers, splits) = (4usize, 2u64);
        let cfg = MpidConfig::with_workers(mappers, 1);
        let (results, report) = Universe::run_verified(MpiConfig::default(), 1 + mappers, |comm| {
            if comm.rank() == 0 {
                let stats = run_master(comm, &cfg, (0..splits).collect()).unwrap();
                (Some(stats), Vec::new())
            } else {
                // The loop ends at the first done marker; a second one
                // would stay in the mailbox and fail the leak audit.
                let mut got = Vec::new();
                while let Some(s) = next_split::<u64>(comm).unwrap() {
                    got.push(s);
                }
                (None, got)
            }
        })
        .unwrap();
        assert!(report.is_clean(), "{report}");
        let stats = results[0].0.clone().unwrap();
        assert_eq!(
            stats,
            MasterStats {
                splits_assigned: splits,
                requests_served: splits + mappers as u64,
            }
        );
        let mut handed: Vec<u64> = results.iter().flat_map(|(_, got)| got.clone()).collect();
        handed.sort_unstable();
        assert_eq!(handed, (0..splits).collect::<Vec<_>>());
    }
}
