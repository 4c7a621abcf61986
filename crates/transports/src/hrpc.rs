//! A real, runnable reimplementation of the Hadoop 0.20 RPC mechanism.
//!
//! Faithful to the properties the paper measures:
//!
//! * **Versioned protocols**: servers host named protocol instances; clients
//!   check the protocol version with a built-in `getProtocolVersion` call
//!   before use (Hadoop's `VersionedProtocol`).
//! * **`ObjectWritable` marshalling**: every parameter and return value is
//!   wrapped, paying the per-value class-name and copy costs (see
//!   [`crate::framing`]).
//! * **Ping-pong**: one outstanding call per client — the next call cannot
//!   start until the previous response arrives, exactly how the paper's
//!   latency/bandwidth tests exercised Hadoop RPC.
//!
//! Transport is a plain TCP connection with u32-length-prefixed frames.

use crate::framing::{frame, DataReader, DataWriter, ObjectWritable};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Errors surfaced by RPC calls.
#[derive(Debug)]
pub enum RpcError {
    /// Transport-level failure.
    Io(io::Error),
    /// Server reported an application error.
    Remote(String),
    /// Response could not be decoded.
    Decode(String),
    /// Protocol version mismatch detected at connect time.
    VersionMismatch {
        /// Protocol name.
        protocol: String,
        /// Version the client asked for.
        wanted: u64,
        /// Version the server exposes.
        got: u64,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "rpc i/o error: {e}"),
            RpcError::Remote(m) => write!(f, "remote error: {m}"),
            RpcError::Decode(m) => write!(f, "decode error: {m}"),
            RpcError::VersionMismatch {
                protocol,
                wanted,
                got,
            } => write!(
                f,
                "protocol {protocol} version mismatch: wanted {wanted}, server has {got}"
            ),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<io::Error> for RpcError {
    fn from(e: io::Error) -> Self {
        RpcError::Io(e)
    }
}

/// A protocol implementation hosted by an [`RpcServer`] — the analog of a
/// class extending `VersionedProtocol`.
pub trait Protocol: Send + Sync {
    /// Version stamp checked by clients.
    fn version(&self) -> u64;
    /// Dispatch a method invocation.
    fn invoke(&self, method: &str, params: &[ObjectWritable]) -> Result<ObjectWritable, String>;
}

/// The echo/ping-pong protocol used by the paper's microbenchmark: a `recv`
/// method that checks the received size and returns the data to the caller.
pub struct EchoProtocol;

impl Protocol for EchoProtocol {
    fn version(&self) -> u64 {
        1
    }
    fn invoke(&self, method: &str, params: &[ObjectWritable]) -> Result<ObjectWritable, String> {
        match method {
            "recv" => match params {
                [ObjectWritable::Bytes(data)] => {
                    // "a simple recv method, which only checks the received
                    // data size ... will return the received data back to the
                    // invoker"
                    let _size = data.len();
                    Ok(ObjectWritable::Bytes(data.clone()))
                }
                _ => Err("recv expects one byte[] parameter".into()),
            },
            "size" => match params {
                [ObjectWritable::Bytes(data)] => Ok(ObjectWritable::Long(data.len() as i64)),
                _ => Err("size expects one byte[] parameter".into()),
            },
            other => Err(format!("no such method {other:?}")),
        }
    }
}

/// Wire call: `{call_id: u32, protocol: utf, method: utf, n_params: i32,
/// params...}`. Response: `{call_id: u32, status: u8, value-or-error}`.
const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Multithreaded RPC server: one accept thread plus one thread per
/// connection (Hadoop 0.20's handler-thread model, simplified).
pub struct RpcServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl RpcServer {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start serving
    /// `protocols` (name → implementation).
    pub fn start(
        addr: &str,
        protocols: HashMap<String, Arc<dyn Protocol>>,
    ) -> io::Result<RpcServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let protocols = Arc::new(protocols);
        let sd = shutdown.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if sd.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let protos = protocols.clone();
                let sd2 = sd.clone();
                std::thread::spawn(move || {
                    let _ = Self::serve_connection(stream, &protos, &sd2);
                });
            }
        });
        Ok(RpcServer {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn serve_connection(
        stream: TcpStream,
        protocols: &HashMap<String, Arc<dyn Protocol>>,
        shutdown: &AtomicBool,
    ) -> io::Result<()> {
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        while !shutdown.load(Ordering::Acquire) {
            let Some(req) = frame::read_frame(&mut reader)? else {
                break; // client closed
            };
            let response = Self::handle_frame(&req, protocols);
            frame::write_frame(&mut writer, &response)?;
        }
        Ok(())
    }

    fn handle_frame(req: &[u8], protocols: &HashMap<String, Arc<dyn Protocol>>) -> Vec<u8> {
        let mut r = DataReader::new(req);
        let parse = (|| -> Result<(u32, String, String, Vec<ObjectWritable>), String> {
            let call_id = r.get_u32().map_err(|e| e.to_string())?;
            let protocol = r.get_utf().map_err(|e| e.to_string())?;
            let method = r.get_utf().map_err(|e| e.to_string())?;
            let n = r.get_i32().map_err(|e| e.to_string())?;
            if n < 0 {
                return Err("negative parameter count".into());
            }
            let mut params = Vec::with_capacity(n as usize);
            for _ in 0..n {
                params.push(ObjectWritable::read(&mut r).map_err(|e| e.to_string())?);
            }
            Ok((call_id, protocol, method, params))
        })();

        let (call_id, result) = match parse {
            Err(e) => (0, Err(format!("malformed request: {e}"))),
            Ok((call_id, protocol, method, params)) => {
                let result = match protocols.get(&protocol) {
                    None => Err(format!("unknown protocol {protocol:?}")),
                    Some(p) => {
                        if method == "getProtocolVersion" {
                            Ok(ObjectWritable::Long(p.version() as i64))
                        } else {
                            p.invoke(&method, &params)
                        }
                    }
                };
                (call_id, result)
            }
        };

        let mut w = DataWriter::new();
        w.put_u32(call_id);
        match result {
            Ok(value) => {
                w.put_u8(STATUS_OK);
                value.write(&mut w);
            }
            Err(msg) => {
                w.put_u8(STATUS_ERR);
                w.put_utf(&msg[..msg.len().min(60000)]);
            }
        }
        w.freeze().to_vec()
    }

    /// Stop accepting connections and join the accept thread. Existing
    /// connection threads exit on their next request.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Nudge the accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// RPC proxy to one protocol on one server — the analog of
/// `RPC.getProxy(...)`. Ping-pong: calls are serialized by an internal lock.
pub struct RpcClient {
    protocol: String,
    reader: Mutex<(BufReader<TcpStream>, BufWriter<TcpStream>)>,
    next_call_id: AtomicU32,
}

impl RpcClient {
    /// Connect to `addr` and validate `protocol` at `wanted_version`.
    pub fn connect(
        addr: SocketAddr,
        protocol: &str,
        wanted_version: u64,
    ) -> Result<RpcClient, RpcError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let client = RpcClient {
            protocol: protocol.to_string(),
            reader: Mutex::new((BufReader::new(stream.try_clone()?), BufWriter::new(stream))),
            next_call_id: AtomicU32::new(1),
        };
        let got = match client.call("getProtocolVersion", &[])? {
            ObjectWritable::Long(v) => v as u64,
            other => {
                return Err(RpcError::Decode(format!(
                    "getProtocolVersion returned {other:?}"
                )))
            }
        };
        if got != wanted_version {
            return Err(RpcError::VersionMismatch {
                protocol: protocol.to_string(),
                wanted: wanted_version,
                got,
            });
        }
        Ok(client)
    }

    /// Invoke `method` with `params`, blocking for the response.
    pub fn call(
        &self,
        method: &str,
        params: &[ObjectWritable],
    ) -> Result<ObjectWritable, RpcError> {
        let call_id = self.next_call_id.fetch_add(1, Ordering::Relaxed);
        let mut w = DataWriter::new();
        w.put_u32(call_id);
        w.put_utf(&self.protocol);
        w.put_utf(method);
        w.put_i32(params.len() as i32);
        for p in params {
            p.write(&mut w);
        }
        let request = w.freeze();

        let mut guard = self.reader.lock().expect("RPC connection lock poisoned");
        let (reader, writer) = &mut *guard;
        frame::write_frame(writer, &request)?;
        let Some(resp) = frame::read_frame(reader)? else {
            return Err(RpcError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection",
            )));
        };
        drop(guard);

        let mut r = DataReader::new(&resp);
        let resp_id = r.get_u32().map_err(|e| RpcError::Decode(e.to_string()))?;
        if resp_id != call_id {
            return Err(RpcError::Decode(format!(
                "response id {resp_id} does not match call id {call_id}"
            )));
        }
        let status = r.get_u8().map_err(|e| RpcError::Decode(e.to_string()))?;
        match status {
            STATUS_OK => ObjectWritable::read(&mut r).map_err(|e| RpcError::Decode(e.to_string())),
            STATUS_ERR => {
                let msg = r.get_utf().map_err(|e| RpcError::Decode(e.to_string()))?;
                Err(RpcError::Remote(msg))
            }
            other => Err(RpcError::Decode(format!("unknown status byte {other}"))),
        }
    }
}

/// Convenience: start a server hosting only [`EchoProtocol`] on an ephemeral
/// loopback port. Returns the server and its address.
pub fn start_echo_server() -> io::Result<(RpcServer, SocketAddr)> {
    let mut protos: HashMap<String, Arc<dyn Protocol>> = HashMap::new();
    protos.insert("echo".to_string(), Arc::new(EchoProtocol));
    let server = RpcServer::start("127.0.0.1:0", protos)?;
    let addr = server.addr();
    Ok((server, addr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let (_server, addr) = start_echo_server().unwrap();
        let client = RpcClient::connect(addr, "echo", 1).unwrap();
        let data = vec![42u8; 10_000];
        let reply = client
            .call("recv", &[ObjectWritable::Bytes(data.clone())])
            .unwrap();
        assert_eq!(reply, ObjectWritable::Bytes(data));
    }

    #[test]
    fn size_method_and_sequential_calls() {
        let (_server, addr) = start_echo_server().unwrap();
        let client = RpcClient::connect(addr, "echo", 1).unwrap();
        for n in [0usize, 1, 100, 4096] {
            let reply = client
                .call("size", &[ObjectWritable::Bytes(vec![0u8; n])])
                .unwrap();
            assert_eq!(reply, ObjectWritable::Long(n as i64));
        }
    }

    #[test]
    fn unknown_method_is_remote_error() {
        let (_server, addr) = start_echo_server().unwrap();
        let client = RpcClient::connect(addr, "echo", 1).unwrap();
        match client.call("frobnicate", &[]) {
            Err(RpcError::Remote(msg)) => assert!(msg.contains("frobnicate")),
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_detected_at_connect() {
        let (_server, addr) = start_echo_server().unwrap();
        match RpcClient::connect(addr, "echo", 99) {
            Err(RpcError::VersionMismatch {
                wanted: 99, got: 1, ..
            }) => {}
            Err(other) => panic!("expected version mismatch, got {other:?}"),
            Ok(_) => panic!("connect unexpectedly succeeded"),
        }
    }

    #[test]
    fn unknown_protocol_is_remote_error() {
        let (_server, addr) = start_echo_server().unwrap();
        // Connect must fail because getProtocolVersion errors.
        match RpcClient::connect(addr, "nope", 1) {
            Err(RpcError::Remote(msg)) => assert!(msg.contains("unknown protocol")),
            Err(other) => panic!("expected remote error, got {other:?}"),
            Ok(_) => panic!("connect unexpectedly succeeded"),
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let (_server, addr) = start_echo_server().unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = RpcClient::connect(addr, "echo", 1).unwrap();
                    for k in 0..20 {
                        let payload = vec![i as u8; 10 + k];
                        let reply = client
                            .call("recv", &[ObjectWritable::Bytes(payload.clone())])
                            .unwrap();
                        assert_eq!(reply, ObjectWritable::Bytes(payload));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let (mut server, addr) = start_echo_server().unwrap();
        let client = RpcClient::connect(addr, "echo", 1).unwrap();
        drop(client);
        server.shutdown();
        server.shutdown();
        // New connections are no longer served.
        assert!(RpcClient::connect(addr, "echo", 1).is_err());
    }
}
