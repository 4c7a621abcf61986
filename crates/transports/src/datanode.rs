//! The HDFS datanode block-streaming protocol (`DataXceiver`), simplified
//! but mechanism-faithful — Hadoop's *third* data path, used for block
//! transfers between datanodes and for client reads/writes. The paper's
//! future work item (1) is "to compare the primitives between MPI and
//! Socket over Java NIO, which is mainly used to transfer data blocks
//! between datanodes in Hadoop"; this module is that primitive, real, so
//! the comparison can actually run (see `netsim::protocol::NioSocketModel`
//! for the projected GbE figure).
//!
//! Wire format (one op per connection, like `DataXceiver`):
//!
//! ```text
//! request  := u8 op (0x51 = READ_BLOCK) , u64 block_id
//! response := u8 status (0 = OK, 1 = missing, 2 = corrupt)
//!             u64 block_len
//!             packet*            -- only when status == 0
//! packet   := u32 data_len , u32 crc32(data) , data
//! ```
//!
//! Packets carry at most [`CHUNK_BYTES`] of data; every packet is CRC32-
//! checked end to end (Hadoop checksums each 512-byte chunk; we checksum
//! each packet — same mechanism, fewer CRCs).

use crate::crc::crc32;
use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// Streaming packet payload size (64 KiB, Hadoop's packet default).
pub const CHUNK_BYTES: usize = 64 * 1024;

const OP_READ_BLOCK: u8 = 0x51;
const STATUS_OK: u8 = 0;
const STATUS_MISSING: u8 = 1;

/// In-memory block store (the datanode's disk).
#[derive(Default)]
pub struct BlockStore {
    blocks: RwLock<HashMap<u64, Bytes>>,
}

impl BlockStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
    /// Store a block.
    pub fn put(&self, id: u64, data: Bytes) {
        self.blocks
            .write()
            .expect("block store lock poisoned")
            .insert(id, data);
    }
    /// Fetch a block.
    pub fn get(&self, id: u64) -> Option<Bytes> {
        self.blocks
            .read()
            .expect("block store lock poisoned")
            .get(&id)
            .cloned()
    }
    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.read().expect("block store lock poisoned").len()
    }
    /// True when no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks
            .read()
            .expect("block store lock poisoned")
            .is_empty()
    }
}

/// Errors on the block-streaming path.
#[derive(Debug)]
pub enum BlockError {
    /// Transport failure.
    Io(io::Error),
    /// The serving datanode does not have the block.
    Missing(u64),
    /// A packet failed its CRC check.
    CrcMismatch {
        /// Block being transferred.
        block: u64,
        /// Offset of the offending packet.
        offset: u64,
    },
    /// Malformed response framing.
    Protocol(String),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Io(e) => write!(f, "block i/o error: {e}"),
            BlockError::Missing(b) => write!(f, "block {b} not found"),
            BlockError::CrcMismatch { block, offset } => {
                write!(f, "crc mismatch in block {block} at offset {offset}")
            }
            BlockError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}
impl std::error::Error for BlockError {}
impl From<io::Error> for BlockError {
    fn from(e: io::Error) -> Self {
        BlockError::Io(e)
    }
}

/// A datanode: serves `READ_BLOCK` requests over TCP.
pub struct DataNode {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    store: Arc<BlockStore>,
}

impl DataNode {
    /// Bind and serve `store`.
    pub fn start(addr: &str, store: Arc<BlockStore>) -> io::Result<DataNode> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = shutdown.clone();
        let st = store.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if sd.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let st2 = st.clone();
                std::thread::spawn(move || {
                    let _ = serve(stream, &st2);
                });
            }
        });
        Ok(DataNode {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
            store,
        })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served block store.
    pub fn store(&self) -> &Arc<BlockStore> {
        &self.store
    }

    /// Stop accepting and join.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DataNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(stream: TcpStream, store: &BlockStore) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // One op per connection, like DataXceiver.
    let mut op = [0u8; 1];
    if reader.read_exact(&mut op).is_err() {
        return Ok(());
    }
    if op[0] != OP_READ_BLOCK {
        return Ok(());
    }
    let mut id_buf = [0u8; 8];
    reader.read_exact(&mut id_buf)?;
    let block_id = u64::from_be_bytes(id_buf);
    match store.get(block_id) {
        None => {
            writer.write_all(&[STATUS_MISSING])?;
            writer.write_all(&0u64.to_be_bytes())?;
            writer.flush()?;
        }
        Some(block) => {
            writer.write_all(&[STATUS_OK])?;
            writer.write_all(&(block.len() as u64).to_be_bytes())?;
            for chunk in block.chunks(CHUNK_BYTES) {
                writer.write_all(&(chunk.len() as u32).to_be_bytes())?;
                writer.write_all(&crc32(chunk).to_be_bytes())?;
                writer.write_all(chunk)?;
            }
            writer.flush()?;
        }
    }
    Ok(())
}

/// Read a block from a datanode, verifying every packet's CRC.
pub fn read_block(addr: SocketAddr, block_id: u64) -> Result<Vec<u8>, BlockError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);

    writer.write_all(&[OP_READ_BLOCK])?;
    writer.write_all(&block_id.to_be_bytes())?;
    writer.flush()?;

    let mut status = [0u8; 1];
    reader.read_exact(&mut status)?;
    let mut len_buf = [0u8; 8];
    reader.read_exact(&mut len_buf)?;
    let total = u64::from_be_bytes(len_buf);
    match status[0] {
        STATUS_OK => {}
        STATUS_MISSING => return Err(BlockError::Missing(block_id)),
        other => return Err(BlockError::Protocol(format!("unknown status {other}"))),
    }

    let mut out = Vec::with_capacity(total as usize);
    while (out.len() as u64) < total {
        let mut hdr = [0u8; 8];
        reader.read_exact(&mut hdr)?;
        let data_len = u32::from_be_bytes(hdr[..4].try_into().expect("sized")) as usize;
        let expect_crc = u32::from_be_bytes(hdr[4..].try_into().expect("sized"));
        if data_len > CHUNK_BYTES {
            return Err(BlockError::Protocol(format!(
                "oversized packet: {data_len}"
            )));
        }
        let offset = out.len() as u64;
        let start = out.len();
        out.resize(start + data_len, 0);
        reader.read_exact(&mut out[start..])?;
        if crc32(&out[start..]) != expect_crc {
            return Err(BlockError::CrcMismatch {
                block: block_id,
                offset,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with(blocks: &[(u64, Vec<u8>)]) -> DataNode {
        let store = Arc::new(BlockStore::new());
        for (id, data) in blocks {
            store.put(*id, Bytes::from(data.clone()));
        }
        DataNode::start("127.0.0.1:0", store).unwrap()
    }

    #[test]
    fn block_round_trip_multi_packet() {
        let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
        let node = node_with(&[(7, data.clone())]);
        let got = read_block(node.addr(), 7).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn empty_and_single_byte_blocks() {
        let node = node_with(&[(1, vec![]), (2, vec![0xAA])]);
        assert_eq!(read_block(node.addr(), 1).unwrap(), Vec::<u8>::new());
        assert_eq!(read_block(node.addr(), 2).unwrap(), vec![0xAA]);
    }

    #[test]
    fn missing_block_reported() {
        let node = node_with(&[]);
        match read_block(node.addr(), 99) {
            Err(BlockError::Missing(99)) => {}
            other => panic!("expected missing, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_readers() {
        let data: Vec<u8> = vec![0x5A; 200_000];
        let node = node_with(&[(3, data.clone())]);
        let addr = node.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let expect = data.clone();
                std::thread::spawn(move || {
                    assert_eq!(read_block(addr, 3).unwrap(), expect);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn store_bookkeeping() {
        let store = BlockStore::new();
        assert!(store.is_empty());
        store.put(1, Bytes::from_static(b"x"));
        store.put(1, Bytes::from_static(b"y"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1).unwrap(), Bytes::from_static(b"y"));
    }
}
