//! A minimal HTTP/1.1 bulk-transfer server and client — the analog of the
//! embedded Jetty server Hadoop uses to move map output during the shuffle
//! copy stage.
//!
//! The paper's bandwidth test "carefully extracted the minimal codes of data
//! transferring logic" from the shuffle servlet and ran it over a standalone
//! Jetty; this module is that minimal transfer path in Rust: a blocking
//! HTTP/1.1 server with keep-alive, serving named byte buffers
//! (`GET /mapOutput?id=<name>`), streaming the response body in configurable
//! write chunks.

use bytes::Bytes;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

/// Serves immutable byte buffers by name, like a tasktracker's map-output
/// directory.
#[derive(Default)]
pub struct ContentStore {
    items: RwLock<HashMap<String, Bytes>>,
}

impl ContentStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
    /// Insert (or replace) a named buffer.
    pub fn put(&self, name: &str, data: Bytes) {
        self.items
            .write()
            .expect("content store lock poisoned")
            .insert(name.to_string(), data);
    }
    /// Fetch a named buffer.
    pub fn get(&self, name: &str) -> Option<Bytes> {
        self.items
            .read()
            .expect("content store lock poisoned")
            .get(name)
            .cloned()
    }
    /// Remove a named buffer.
    pub fn remove(&self, name: &str) -> Option<Bytes> {
        self.items
            .write()
            .expect("content store lock poisoned")
            .remove(name)
    }
}

/// Minimal HTTP/1.1 server over a [`ContentStore`].
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    store: Arc<ContentStore>,
}

impl HttpServer {
    /// Bind to `addr` (port 0 for ephemeral) and serve `store`.
    /// `chunk_bytes` is the unit in which response bodies are written —
    /// the "message packet size" knob of the paper's Figure 3 test.
    pub fn start(
        addr: &str,
        store: Arc<ContentStore>,
        chunk_bytes: usize,
    ) -> io::Result<HttpServer> {
        assert!(chunk_bytes > 0);
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
                let sd2 = sd.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &st2, chunk_bytes, &sd2);
                });
            }
        });
        Ok(HttpServer {
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

    /// The content store served by this server.
    pub fn store(&self) -> &Arc<ContentStore> {
        &self.store
    }

    /// Stop accepting connections and join the accept thread.
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

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    stream: TcpStream,
    store: &ContentStore,
    chunk_bytes: usize,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while !shutdown.load(Ordering::Acquire) {
        // --- request line ---
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break; // client closed
        }
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        // --- headers (collect Connection) ---
        let mut keep_alive = version == "HTTP/1.1";
        loop {
            let mut hline = String::new();
            if reader.read_line(&mut hline)? == 0 {
                return Ok(());
            }
            let h = hline.trim();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.strip_prefix("Connection:") {
                keep_alive = v.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
        if method != "GET" {
            write_simple(&mut writer, 405, "Method Not Allowed", b"")?;
            continue;
        }
        // Target form: /mapOutput?id=<name>
        let name = target.split_once("id=").map(|(_, id)| id).unwrap_or("");
        match store.get(name) {
            None => write_simple(&mut writer, 404, "Not Found", b"missing")?,
            Some(body) => {
                write!(
                    writer,
                    "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )?;
                // Stream the body in `chunk_bytes` writes — the transfer loop
                // the paper extracted from the shuffle servlet.
                for chunk in body.chunks(chunk_bytes) {
                    writer.write_all(chunk)?;
                }
                writer.flush()?;
            }
        }
        if !keep_alive {
            break;
        }
    }
    Ok(())
}

fn write_simple<W: Write>(w: &mut W, code: u16, reason: &str, body: &[u8]) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {code} {reason}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Blocking HTTP client that reuses one keep-alive connection, mirroring a
/// reducer's copier thread.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
}

/// Client-side HTTP errors.
#[derive(Debug)]
pub enum HttpError {
    /// Transport failure.
    Io(io::Error),
    /// Non-200 response.
    Status(u16),
    /// Malformed response.
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http i/o error: {e}"),
            HttpError::Status(c) => write!(f, "http status {c}"),
            HttpError::Malformed(m) => write!(f, "malformed http response: {m}"),
        }
    }
}
impl std::error::Error for HttpError {}
impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpClient {
    /// Connect to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            addr,
        })
    }

    /// Server address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GET /mapOutput?id=<name>`, returning the response body.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>, HttpError> {
        write!(
            self.writer,
            "GET /mapOutput?id={name} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n"
        )?;
        self.writer.flush()?;

        // --- status line ---
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(HttpError::Malformed("connection closed".into()));
        }
        let code: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad status line {line:?}")))?;
        // --- headers ---
        let mut content_length: Option<usize> = None;
        loop {
            let mut hline = String::new();
            if self.reader.read_line(&mut hline)? == 0 {
                return Err(HttpError::Malformed("eof in headers".into()));
            }
            let h = hline.trim();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.strip_prefix("Content-Length:") {
                content_length = v.trim().parse().ok();
            }
        }
        let len =
            content_length.ok_or_else(|| HttpError::Malformed("missing Content-Length".into()))?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        if code != 200 {
            return Err(HttpError::Status(code));
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with(items: &[(&str, usize)]) -> HttpServer {
        let store = Arc::new(ContentStore::new());
        for (name, size) in items {
            store.put(name, Bytes::from(vec![0xabu8; *size]));
        }
        HttpServer::start("127.0.0.1:0", store, 64 * 1024).unwrap()
    }

    #[test]
    fn get_round_trip() {
        let server = server_with(&[("part0", 100_000)]);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = client.get("part0").unwrap();
        assert_eq!(body.len(), 100_000);
        assert!(body.iter().all(|&b| b == 0xab));
    }

    #[test]
    fn keep_alive_serves_sequential_requests() {
        let server = server_with(&[("a", 10), ("b", 20), ("c", 0)]);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.get("a").unwrap().len(), 10);
        assert_eq!(client.get("b").unwrap().len(), 20);
        assert_eq!(client.get("c").unwrap().len(), 0, "empty body works");
        assert_eq!(client.get("a").unwrap().len(), 10);
    }

    #[test]
    fn missing_content_is_404() {
        let server = server_with(&[]);
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.get("nope") {
            Err(HttpError::Status(404)) => {}
            other => panic!("expected 404, got {other:?}"),
        }
    }

    #[test]
    fn small_chunk_size_still_delivers_everything() {
        let store = Arc::new(ContentStore::new());
        store.put(
            "x",
            Bytes::from((0..=255u8).cycle().take(70_000).collect::<Vec<u8>>()),
        );
        let server = HttpServer::start("127.0.0.1:0", store, 7).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let body = client.get("x").unwrap();
        assert_eq!(body.len(), 70_000);
        assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 256) as u8));
    }

    #[test]
    fn concurrent_copiers() {
        let server = server_with(&[("p", 50_000)]);
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    for _ in 0..10 {
                        assert_eq!(c.get("p").unwrap().len(), 50_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn store_remove_and_replace() {
        let store = ContentStore::new();
        store.put("k", Bytes::from_static(b"v1"));
        store.put("k", Bytes::from_static(b"v2"));
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v2"));
        assert_eq!(store.remove("k").unwrap(), Bytes::from_static(b"v2"));
        assert!(store.get("k").is_none());
    }
}
