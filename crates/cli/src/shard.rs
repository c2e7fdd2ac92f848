//! The TCP shard backend for distributed stage execution.
//!
//! [`TcpShardIo`] implements the socket-free core's
//! [`chromata::ShardIo`] seam over the `chromata serve`/`chromata
//! worker` wire protocol: one connection, one request line, one
//! response line per exchange. Together with `crate::serve` this is the
//! only place in the workspace allowed to touch socket types (xtask
//! rule D4); every routing, retry and fallback decision stays in
//! `chromata::stages::remote`, unit-tested without a network.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use chromata::{configure_remote, RemotePolicy, ShardIo, ShardIoError, ShardStep};

use crate::app::CliError;

/// Fallback connect deadline when an exchange carries no deadline.
const DEFAULT_CONNECT_SECS: u64 = 2;

/// Fallback read/write deadline when an exchange carries no deadline.
const DEFAULT_EXCHANGE_SECS: u64 = 10;

/// A pool of worker addresses speaking the newline-delimited JSON wire
/// protocol. Each [`ShardIo::exchange`] opens a fresh connection —
/// stage dispatches are coarse (a whole pipeline tier), so connection
/// reuse buys little and per-exchange connections make shard death
/// visible immediately as a [`ShardStep::Connect`] fault instead of a
/// poisoned kept-alive socket.
#[derive(Debug)]
pub struct TcpShardIo {
    shards: Vec<Vec<SocketAddr>>,
    labels: Vec<String>,
}

impl TcpShardIo {
    /// Resolves each `host:port` in `addrs` to its socket addresses.
    ///
    /// # Errors
    ///
    /// Fails if the list is empty or an address does not resolve —
    /// misconfiguration should surface at startup, not as per-stage
    /// connect faults.
    pub fn new(addrs: &[String]) -> Result<TcpShardIo, CliError> {
        if addrs.is_empty() {
            return Err(CliError("shards: the address list is empty".to_owned()));
        }
        let mut shards = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let resolved: Vec<SocketAddr> = addr
                .to_socket_addrs()
                .map_err(|e| CliError(format!("shards: cannot resolve `{addr}`: {e}")))?
                .collect();
            if resolved.is_empty() {
                return Err(CliError(format!(
                    "shards: `{addr}` resolved to no addresses"
                )));
            }
            shards.push(resolved);
        }
        Ok(TcpShardIo {
            shards,
            labels: addrs.to_vec(),
        })
    }

    /// The configured shard address labels, in pool order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    fn connect(&self, shard: usize, deadline: Option<Duration>) -> Result<TcpStream, ShardIoError> {
        let Some(candidates) = self.shards.get(shard) else {
            return Err(ShardIoError::new(
                ShardStep::Connect,
                std::io::ErrorKind::NotFound,
                format!("shard {shard} is not in the pool"),
            ));
        };
        let connect_deadline = deadline.unwrap_or(Duration::from_secs(DEFAULT_CONNECT_SECS));
        let mut last: Option<std::io::Error> = None;
        for addr in candidates {
            match TcpStream::connect_timeout(addr, connect_deadline) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        let err = last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no candidate address")
        });
        Err(ShardIoError::new(
            ShardStep::Connect,
            err.kind(),
            format!("shard {shard} ({}): {err}", self.labels[shard]),
        ))
    }
}

impl ShardIo for TcpShardIo {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn exchange(
        &self,
        shard: usize,
        line: &str,
        deadline: Option<Duration>,
    ) -> Result<String, ShardIoError> {
        let stream = self.connect(shard, deadline)?;
        let io_deadline = deadline.unwrap_or(Duration::from_secs(DEFAULT_EXCHANGE_SECS));
        let fault = |step: ShardStep, e: &std::io::Error| {
            ShardIoError::new(
                step,
                e.kind(),
                format!("shard {shard} ({}): {e}", self.labels[shard]),
            )
        };
        stream
            .set_write_timeout(Some(io_deadline))
            .and_then(|()| stream.set_read_timeout(Some(io_deadline)))
            .map_err(|e| fault(ShardStep::Connect, &e))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| fault(ShardStep::Connect, &e))?;
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .map_err(|e| fault(ShardStep::Send, &e))?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(|e| fault(ShardStep::Recv, &e))?;
        if response.trim().is_empty() {
            // A mid-response kill shows up as EOF before the newline.
            return Err(ShardIoError::new(
                ShardStep::Recv,
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "shard {shard} ({}): connection closed without a response",
                    self.labels[shard]
                ),
            ));
        }
        Ok(response.trim_end().to_owned())
    }
}

/// Installs a TCP shard pool as this process's remote stage backend:
/// every subsequent analysis routes its stages across `addrs` with the
/// retry/fallback machinery of `chromata::stages::remote`.
///
/// # Errors
///
/// Fails if an address does not resolve (see [`TcpShardIo::new`]).
pub fn configure_shards(addrs: &[String], policy: RemotePolicy) -> Result<(), CliError> {
    let io = TcpShardIo::new(addrs)?;
    configure_remote(Arc::new(io) as Arc<dyn ShardIo>, policy);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_an_empty_or_unresolvable_pool() {
        assert!(TcpShardIo::new(&[]).is_err());
        let err = TcpShardIo::new(&["definitely-not-a-host.invalid:1".to_owned()]).unwrap_err();
        assert!(err.0.contains("cannot resolve"), "{err}");
    }

    #[test]
    fn a_dead_shard_is_a_connect_fault() {
        // Reserve a port, then close the listener so nothing accepts.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let io = TcpShardIo::new(&[addr]).unwrap();
        let err = io
            .exchange(0, r#"{"op":"ping"}"#, Some(Duration::from_millis(300)))
            .unwrap_err();
        assert_eq!(err.step, ShardStep::Connect, "{err}");
    }
}
