//! A reconnecting wrapper around [`ServeClient`]: exponential-backoff
//! retries plus sequence-numbered idempotent replay of unsynced batches.
//!
//! [`RetryingClient`] speaks the binary protocol and tags every ingest
//! batch with a `(writer, seq)` pair. Batches are buffered until a
//! [`RetryingClient::sync`] succeeds; if the connection dies mid-train —
//! the server crashed, restarted, or the socket broke — the next sync
//! reconnects (with exponential backoff) and **resends every unsynced
//! batch**. The blanket resend is safe because the server's per-writer
//! high-water mark turns already-applied sequence numbers into duplicate
//! acks instead of double counts: after a server `SIGKILL` and recovery,
//! no acked batch is lost (the journal holds everything synced) and none
//! is applied twice (the sequence map is journaled and snapshotted with
//! the rest of the state).
//!
//! ```no_run
//! # use cora_serve::retry::RetryingClient;
//! let mut client = RetryingClient::connect("127.0.0.1:9999", 1).unwrap();
//! for chunk in (0..100_000u64).collect::<Vec<_>>().chunks(1_000) {
//!     let batch: Vec<(u64, u64)> = chunk.iter().map(|&i| (i % 700, i % 4096)).collect();
//!     client.ingest_noack(&batch).unwrap(); // buffered + pipelined
//! }
//! client.sync().unwrap(); // durable on the server past this point
//! ```

use crate::client::{ClientError, ClientResult, ServeClient};
use crate::protocol::{Request, Response};
use std::thread;
use std::time::Duration;

/// When and how often to retry a broken connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Connection attempts per operation before giving up.
    pub attempts: u32,
    /// First backoff delay; doubles per failed attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Bound on each TCP connect attempt (see
    /// [`ServeClient::connect_binary_timeout`]) — without it a reconnect
    /// to a black-holed address can block for the OS connect timeout
    /// (minutes), starving the backoff loop.
    pub connect_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 6,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
            connect_timeout: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before attempt `n` (0-based): 0 for the
    /// first, then `base_delay`, `2×`, `4×`, … capped at `max_delay`.
    fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// One buffered, sequence-tagged ingest batch awaiting a successful sync.
struct PendingBatch {
    seq: u64,
    tuples: Vec<(u64, u64)>,
}

/// A self-healing binary-protocol client: reconnects with backoff and
/// replays unsynced sequence-tagged batches (see the module docs).
pub struct RetryingClient {
    target: String,
    policy: RetryPolicy,
    writer: u64,
    next_seq: u64,
    pending: Vec<PendingBatch>,
    /// How many of `pending` were already pipelined on the *current*
    /// connection (reset to 0 whenever the connection is rebuilt), so a
    /// sync over an intact connection does not re-send the whole train.
    sent_on_current: usize,
    conn: Option<ServeClient>,
}

impl RetryingClient {
    /// Connect to `target` (host:port) as logical writer `writer`. The
    /// writer id scopes the sequence numbers — two concurrent clients must
    /// use distinct ids, or the server will mistake one's batches for the
    /// other's duplicates.
    pub fn connect(target: &str, writer: u64) -> ClientResult<Self> {
        Self::connect_with(target, writer, RetryPolicy::default())
    }

    /// [`Self::connect`] with an explicit retry policy.
    pub fn connect_with(target: &str, writer: u64, policy: RetryPolicy) -> ClientResult<Self> {
        let mut client = Self {
            target: target.to_string(),
            policy,
            writer,
            next_seq: 1,
            pending: Vec::new(),
            sent_on_current: 0,
            conn: None,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Point the client at a new address (e.g. a restarted server that came
    /// back on a different port). The current connection is dropped; the
    /// next operation reconnects and replays any unsynced batches.
    pub fn set_target(&mut self, target: &str) {
        self.target = target.to_string();
        self.drop_conn();
    }

    /// Batches buffered but not yet confirmed by a successful
    /// [`Self::sync`].
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.sent_on_current = 0;
    }

    fn ensure_connected(&mut self) -> ClientResult<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..self.policy.attempts {
            thread::sleep(self.policy.delay(attempt));
            match ServeClient::connect_binary_timeout(&self.target, self.policy.connect_timeout) {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.sent_on_current = 0;
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "no attempts made")
        })))
    }

    /// Whether an error means the connection is unusable (reconnect and
    /// retry) rather than a server-side verdict (propagate).
    fn is_connection_error(e: &ClientError) -> bool {
        matches!(e, ClientError::Io(_) | ClientError::Timeout(_))
    }

    /// Buffer one batch and pipeline it without waiting for a response.
    /// Socket failures here are absorbed — the batch stays buffered, and
    /// the next [`Self::sync`] reconnects and resends it.
    pub fn ingest_noack(&mut self, tuples: &[(u64, u64)]) -> ClientResult<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(PendingBatch { seq, tuples: tuples.to_vec() });
        // Only pipeline eagerly while the current connection has the whole
        // buffer in flight; otherwise leave the send to the next sync,
        // which replays in order.
        if self.conn.is_some() && self.sent_on_current == self.pending.len() - 1 {
            let writer = self.writer;
            let conn = self.conn.as_mut().expect("checked above");
            if conn.ingest_noack_seq(tuples, Some((writer, seq))).is_ok() {
                self.sent_on_current += 1;
            } else {
                self.drop_conn();
            }
        }
        Ok(())
    }

    /// Durability barrier: flush the pipelined train and confirm every
    /// buffered batch. On a broken connection this reconnects with backoff
    /// and resends all unconfirmed batches — duplicates are absorbed by
    /// the server's sequence map, so the result is exactly-once
    /// application. Returns how many batches were re-sent.
    ///
    /// A non-connection error (the server rejected a batch) is definitive:
    /// the buffer is cleared and the error propagated — retrying cannot
    /// make a rejected batch acceptable.
    pub fn sync(&mut self) -> ClientResult<u64> {
        let mut resent = 0u64;
        let mut last_error: Option<ClientError> = None;
        for attempt in 0..self.policy.attempts {
            thread::sleep(self.policy.delay(attempt));
            match self.try_sync(&mut resent) {
                Ok(()) => {
                    self.pending.clear();
                    self.sent_on_current = 0;
                    return Ok(resent);
                }
                Err(e) if Self::is_connection_error(&e) => {
                    last_error = Some(e);
                    self.drop_conn();
                }
                Err(e) => {
                    self.pending.clear();
                    self.sent_on_current = 0;
                    return Err(e);
                }
            }
        }
        Err(last_error
            .unwrap_or_else(|| ClientError::Protocol("sync exhausted its retry budget".into())))
    }

    fn try_sync(&mut self, resent: &mut u64) -> ClientResult<()> {
        self.ensure_connected()?;
        let mut conn = self.conn.take().expect("just connected");
        let start = self.sent_on_current;
        let result = (|| {
            for batch in &self.pending[start..] {
                conn.ingest_noack_seq(&batch.tuples, Some((self.writer, batch.seq)))?;
                *resent += 1;
            }
            conn.sync()
        })();
        self.conn = Some(conn);
        self.sent_on_current = self.pending.len();
        result
    }

    /// Run `op` against the connection, reconnecting with backoff on socket
    /// failures. Only safe for idempotent operations, such as the barriers
    /// and queries below.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let mut last_error: Option<ClientError> = None;
        for attempt in 0..self.policy.attempts {
            thread::sleep(self.policy.delay(attempt));
            if let Err(e) = self.ensure_connected() {
                last_error = Some(e);
                continue;
            }
            match op(self.conn.as_mut().expect("just connected")) {
                Ok(value) => return Ok(value),
                Err(e) if Self::is_connection_error(&e) => {
                    last_error = Some(e);
                    self.drop_conn();
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_error.unwrap_or_else(|| {
            ClientError::Protocol("operation exhausted its retry budget".into())
        }))
    }

    /// Read-your-writes barrier (see [`ServeClient::flush`]), with retry.
    pub fn flush(&mut self) -> ClientResult<()> {
        self.with_retry(|conn| conn.flush())
    }

    /// Correlated `F_2` at threshold `c`, with retry.
    pub fn query_f2(&mut self, c: u64) -> ClientResult<f64> {
        self.with_retry(|conn| conn.query_f2(c))
    }

    /// Service statistics, with retry.
    pub fn stats(&mut self) -> ClientResult<Response> {
        self.with_retry(|conn| conn.stats())
    }

    /// Ask the server to stop. Not retried — a dead connection here most
    /// likely means the server already stopped.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("just connected");
        conn.request(&Request::Shutdown).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(5),
        };
        let delays: Vec<u64> = (0..6).map(|a| policy.delay(a).as_millis() as u64).collect();
        assert_eq!(delays, vec![0, 10, 20, 40, 50, 50]);
    }
}
