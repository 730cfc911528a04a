// TcpServer — the epoll-based network front end for the KV service
// (DESIGN.md §13): one acceptor thread plus N event-loop threads, each loop
// owning its connections outright (all per-connection state is touched only
// by the owning loop thread; the single cross-thread structure is a
// mutex-protected completion inbox fed by the KvService workers and drained
// after an eventfd wakeup).
//
// Data path: loop reads → incremental wire::decode_request over the
// connection's in-buffer (partial frames simply wait; protocol errors close
// the connection) → service verbs are submitted to KvService with an
// on_done that encodes the response and posts it to the owning loop's
// inbox → loop appends it to the connection's out-buffer and flushes,
// arming EPOLLOUT only while bytes remain. ping/stats are answered inline
// on the loop thread (they exist so liveness checks don't queue behind STM
// work).
//
// Backpressure sheds, never blocks (the MPMC ring's policy extended to the
// wire): a request arriving while the connection's out-buffer is above
// `write_high_watermark` is not submitted — a kShed response (31 bytes) is
// queued instead; if the buffer grows past 4x the watermark the peer is not
// reading at all and the connection is closed (slow-consumer policy). A
// full service ring likewise turns into a kShed response.
//
// Lifecycle: accept (with a max_connections cap — excess accepts are closed
// immediately), per-connection idle timeout (loop tick scans last-activity
// stamps), abrupt-disconnect reclamation (EOF/ECONNRESET closes and frees
// the slot; responses still in flight for a dead connection are dropped by
// generation-checked connection ids — an fd number is reusable, an id never
// is), and graceful drain on stop(): stop accepting, stop *parsing* (bytes
// already buffered stay buffered), wait until every submitted request has
// come back and every response byte that can be flushed has been flushed
// (bounded by drain_timeout for peers that stopped reading), then close.
//
// Failpoint sites (§13.4): net.accept (drop fresh connection), net.read
// (short read), net.write (short write), net.conn_kill (hard-close at
// request parse). All four have ordinary recovery paths; the chaos net
// suite runs the full client battery with them armed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/kv_service.hpp"

namespace zstm::net {

struct NetConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see TcpServer::port()
  int io_threads = 1;
  /// 0 disables idle closing.
  std::chrono::milliseconds idle_timeout{0};
  /// Above this many buffered out-bytes, new requests on the connection are
  /// shed; above 4x, the connection is closed (slow consumer).
  std::size_t write_high_watermark = 1 << 18;
  /// Cap on concurrently open connections; excess accepts close at once.
  std::size_t max_connections = 1024;
  /// stop() waits at most this long for out-buffers to flush to peers.
  std::chrono::milliseconds drain_timeout{2000};
  int listen_backlog = 128;
};

/// Monotonic counters (relaxed; exact after stop()).
struct NetStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;       ///< all causes below + client EOF
  std::uint64_t conns_active = 0;       ///< gauge
  std::uint64_t conns_rejected = 0;     ///< max_connections cap
  std::uint64_t idle_closed = 0;
  std::uint64_t protocol_errors = 0;    ///< bad frame -> connection closed
  std::uint64_t slow_consumer_closed = 0;
  std::uint64_t killed_by_failpoint = 0;
  std::uint64_t requests = 0;           ///< well-formed frames parsed
  std::uint64_t responses = 0;          ///< response frames fully written
  std::uint64_t shed_backpressure = 0;  ///< out-buffer over high watermark
  std::uint64_t shed_service = 0;       ///< KvService ring shed
  std::uint64_t accept_failures = 0;    ///< accept() errors + failpoint drops
};

class TcpServer {
 public:
  TcpServer(server::KvService& svc, NetConfig cfg);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn acceptor and io threads. False on bind/listen
  /// failure (errno on stderr). The service must already be start()ed.
  bool start();

  /// Graceful drain (see header comment). Idempotent. Must be called
  /// BEFORE KvService::stop() — in-flight service requests complete into
  /// live event loops.
  void stop();

  bool running() const { return running_; }
  /// The bound port (resolves an ephemeral request after start()).
  std::uint16_t port() const { return port_; }
  NetStats stats() const;

 private:
  struct IoLoop;

  void acceptor_loop();
  IoLoop& pick_loop(std::size_t n);

  server::KvService& svc_;
  NetConfig cfg_;
  int listen_fd_ = -1;
  int stop_event_fd_ = -1;  ///< wakes the acceptor's poll
  std::uint16_t port_ = 0;
  bool running_ = false;
  std::atomic<bool> accepting_{false};

  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::thread acceptor_;

  /// Per-loop counters folded in by stop() before the loops are destroyed,
  /// so stats() stays truthful after shutdown (the bench reads it then).
  NetStats retired_{};

  /// Requests submitted to the service whose responses have not yet been
  /// appended to an out-buffer (or dropped for a dead connection).
  std::atomic<std::uint64_t> pending_responses_{0};

  // Shared counters (per-loop hot ones live in the loops; these are the
  // cross-thread ones).
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> conns_rejected_{0};
  std::atomic<std::uint64_t> accept_failures_{0};
  std::atomic<std::uint64_t> conns_active_{0};
};

}  // namespace zstm::net
