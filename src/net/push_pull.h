// ZeroMQ-style PUSH/PULL sockets over framed TCP.
//
// Reproduces the transport semantics EMLIO needs from ZMQ (§4.5):
//   * PUSH fan-out over multiple parallel TCP streams,
//   * a per-stream high-water mark (default 16) with *blocking* send, so
//     "storage-side workers naturally back off when compute-side queues are
//     full",
//   * PULL fair-merges all inbound connections into one shared queue.
//
// Unlike ZMQ, streams connect eagerly in the constructor. By default a
// failed connect throws rather than retrying silently — the Planner owns
// endpoint liveness — but `PushPullOptions::connect_retry` opts into a
// bounded backoff window (shared net::RetryPolicy schedule) so a daemon can
// start before its receiver is listening.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "net/channel.h"
#include "net/retry.h"
#include "net/socket.h"

namespace emlio::net {

/// Configuration shared by both ends.
struct PushPullOptions {
  std::size_t high_water_mark = 16;  ///< per-stream queued-message cap (ZMQ HWM)
  std::size_t num_streams = 1;       ///< parallel TCP connections per PUSH socket
  /// Connect-retry window per stream. The default (max_attempts = 1) keeps
  /// the historical fail-fast semantics; callers that tolerate a
  /// not-yet-listening peer raise max_attempts / set a deadline.
  RetryOptions connect_retry{};
};

/// PUSH end: connects `num_streams` TCP streams to a PULL endpoint and
/// round-robins messages across them. send() blocks when the selected
/// stream's queue is at the HWM (infinite-blocking semantics, §4.5).
class PushSocket final : public MessageSink {
 public:
  PushSocket(const std::string& host, std::uint16_t port, PushPullOptions options = {});
  ~PushSocket() override;

  /// Moves the payload into the selected stream's queue; bytes are not
  /// copied until the sender thread writes them to the kernel.
  bool send(Payload message) override;

  /// Drain queues, flush streams, close connections, join sender threads.
  void close() override;

  /// Byte-moving syscalls issued so far: one sendmsg per framed message
  /// (header + payload as two iovecs), more only when the kernel takes a
  /// frame in pieces. The "1 writev per batch" audit of the TCP lane.
  std::uint64_t data_syscalls() const override {
    return syscalls_.load(std::memory_order_relaxed);
  }


 private:
  struct Stream {
    TcpStream tcp;
    std::unique_ptr<BoundedQueue<Payload>> queue;
    std::thread sender;
  };
  void sender_loop(Stream& stream);

  std::vector<Stream> streams_;
  std::atomic<std::size_t> next_stream_{0};
  std::atomic<std::uint64_t> syscalls_{0};
  std::atomic<bool> closed_{false};
};

/// PULL end: accepts any number of PUSH connections and merges their framed
/// messages into one bounded shared queue. Receiver-side backpressure: when
/// the shared queue is full the per-connection reader blocks, the kernel TCP
/// window fills, and the remote PUSH send() stalls.
class PullSocket final : public MessageSource {
 public:
  /// Bind on loopback:port (0 = ephemeral). `queue_capacity` is the shared
  /// in-memory queue depth (the receiver's HWM). `expected_senders`, when
  /// non-zero, is the number of inbound TCP connections after whose clean
  /// EOF the stream ends: recv() drains whatever is queued, then returns
  /// empty — giving TCP the same "sender close ends the stream" semantics
  /// the in-process and shm transports have natively. 0 (the default)
  /// preserves the original behavior: the socket accepts connections
  /// forever and only a local close() ends the stream. Counts connections,
  /// not PushSockets — a PUSH with N streams contributes N.
  explicit PullSocket(std::uint16_t port, std::size_t queue_capacity = 64,
                      std::size_t expected_senders = 0);
  ~PullSocket() override;

  /// Hands out the reader's pooled receive buffer by move; the buffer
  /// recycles into this socket's BufferPool when the consumer (and any
  /// decoded sample views) drop it.
  std::optional<Payload> recv() override;

  void close() override;

  /// kDeadPeer when at least one inbound connection ended with a transport
  /// error (reset, truncated frame) rather than a clean EOF and the socket
  /// was not being closed locally. Note TCP's limits: a kill -9'd peer whose
  /// kernel sends a clean FIN at a frame boundary is indistinguishable from
  /// a deliberate close, and on a muxed socket the error is not attributable
  /// to one sender — callers that need per-sender liveness watch
  /// connection counts (set_peer_callback) or use a transport with a pid
  /// probe (shm).
  SourceEnd end_state() const override {
    return peer_errors_.load(std::memory_order_acquire) > 0 &&
                   !closed_.load(std::memory_order_acquire)
               ? SourceEnd::kDeadPeer
               : SourceEnd::kClean;
  }

  /// Observe connection churn: called with `true` when an inbound connection
  /// is accepted, `false` when one ends (clean or error alike), from the
  /// acceptor/reader threads. Lets a receiver with a known sender population
  /// treat "connections dropped below expected" as a dead sender.
  void set_peer_callback(std::function<void(bool connected)> cb);

  /// The bound port (for connecting PUSH sockets).
  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Receive-buffer pool statistics (observability / tests).
  BufferPool::Stats pool_stats() const { return pool_->stats(); }

 private:
  void accept_loop();
  void reader_loop(TcpStream stream);
  void notify_peer(bool connected);

  TcpListener listener_;
  std::shared_ptr<BufferPool> pool_;
  BoundedQueue<Payload> queue_;
  std::size_t expected_senders_;
  std::atomic<std::size_t> finished_senders_{0};
  std::thread acceptor_;
  std::mutex readers_mutex_;
  std::vector<std::thread> readers_;
  std::mutex peer_cb_mutex_;
  std::function<void(bool)> peer_cb_;
  std::atomic<std::size_t> peer_errors_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace emlio::net
