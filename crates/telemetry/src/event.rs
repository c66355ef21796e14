//! The structured event log: a pluggable line-oriented sink receiving
//! one compact JSON object per event.
//!
//! Two sinks ship with the crate: [`MemorySink`] for tests (snapshot the
//! lines through its [`MemoryHandle`]) and [`FileSink`] for experiment
//! runs. Anything implementing [`EventSink`] plugs in the same way.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use fedl_json::Value;

use crate::metrics::lock;

/// Destination of the JSONL event stream.
pub trait EventSink: Send {
    /// Writes one line (the line terminator is added by the sink).
    fn write_line(&mut self, line: &str) -> io::Result<()>;

    /// Flushes buffered lines to the backing store.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory sink; the paired [`MemoryHandle`] reads the lines back.
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Creates the sink plus the handle that can read what it captured.
    pub fn new() -> (Self, MemoryHandle) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (Self { lines: lines.clone() }, MemoryHandle { lines })
    }
}

impl EventSink for MemorySink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        lock(&self.lines).push(line.to_string());
        Ok(())
    }
}

/// Reader side of a [`MemorySink`].
#[derive(Clone)]
pub struct MemoryHandle {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemoryHandle {
    /// Snapshot of every line written so far.
    pub fn lines(&self) -> Vec<String> {
        lock(&self.lines).clone()
    }

    /// Number of lines written so far.
    pub fn len(&self) -> usize {
        lock(&self.lines).len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every line parsed back into a JSON value.
    pub fn events(&self) -> Result<Vec<Value>, fedl_json::Error> {
        self.lines().iter().map(|l| Value::parse(l)).collect()
    }
}

/// Buffered file sink for experiment run logs.
pub struct FileSink {
    out: BufWriter<File>,
}

impl FileSink {
    /// Creates (truncating) the log file, creating parent directories.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self { out: BufWriter::new(File::create(path)?) })
    }
}

impl EventSink for FileSink {
    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_round_trips() {
        let (mut sink, handle) = MemorySink::new();
        assert!(handle.is_empty());
        sink.write_line(r#"{"kind":"x","n":1}"#).unwrap();
        sink.write_line(r#"{"kind":"y","n":2}"#).unwrap();
        assert_eq!(handle.len(), 2);
        let events = handle.events().unwrap();
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("x"));
        assert_eq!(events[1].get("n").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn file_sink_writes_lines() {
        let dir = crate::scratch_dir("file_sink");
        let path = dir.join("log.jsonl");
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.write_line("{\"a\":1}").unwrap();
            sink.write_line("{\"a\":2}").unwrap();
            sink.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"a\":2}\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
