#include "src/serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/checker/check.hpp"
#include "src/common/fault.hpp"
#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/logic/parser.hpp"
#include "src/serve/protocol.hpp"

namespace tml {
namespace serve {

namespace {

/// Sliding window of request latencies feeding the p50/p99 gauges. Fixed
/// ring so a long-lived daemon reports recent behaviour, not its lifetime
/// average.
class LatencyWindow {
 public:
  void record(double ms) {
    static stats::Gauge& g_p50 = stats::gauge("serve.latency_p50_ms");
    static stats::Gauge& g_p99 = stats::gauge("serve.latency_p99_ms");
    // The gauges are no-ops with stats off; skip the sort under the lock.
    if (!stats::enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() < kWindow) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
    }
    next_ = (next_ + 1) % kWindow;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    g_p50.set(quantile(sorted, 0.50));
    g_p99.set(quantile(sorted, 0.99));
  }

 private:
  static double quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    return sorted[index];
  }

  static constexpr std::size_t kWindow = 512;
  std::mutex mutex_;
  std::vector<double> samples_;
  std::size_t next_ = 0;
};

/// Writes the whole buffer or reports failure — never a silent truncation.
/// Loops on short writes and EINTR; MSG_NOSIGNAL (the fd also runs under an
/// ignored SIGPIPE in tml_serve) turns a dead peer into a return value; an
/// SO_SNDTIMEO expiry (set per-connection from ServeOptions::io_timeout_ms)
/// surfaces as EAGAIN and counts as an I/O timeout. On any failure the
/// caller must close the connection: a partially written line has no '\n',
/// so a client can never mistake the fragment for a complete response.
bool send_all(int fd, const std::string& data) {
  static stats::Counter& c_io_timeouts = stats::counter("serve.io_timeouts");
  const fault::WireAction action = fault::wire("serve.write");
  if (action.kind == fault::WireAction::Kind::kDelay) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(action.delay_ns));
  }
  if (action.kind == fault::WireAction::Kind::kDrop) {
    return false;  // injected EPIPE: peer vanished before the write
  }
  // Injected short writes squeeze the data out one byte per send(2) —
  // every iteration of the loop below is a "short write" the loop must
  // survive without reordering or truncating.
  const std::size_t stride = action.kind == fault::WireAction::Kind::kShort
                                 ? 1
                                 : data.size();
  std::size_t sent = 0;
  while (sent < data.size()) {
    const std::size_t len = std::min(stride, data.size() - sent);
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, data.data() + sent, len, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, data.data() + sent, len, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO fired: the peer stopped draining its responses
        // (write-side slow loris).
        c_io_timeouts.bump();
      }
      return false;
    }
    if (n == 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServeOptions opts)
      : options(std::move(opts)), cache(options.cache_capacity) {}

  ServeOptions options;
  ModelCache cache;
  CancelToken cancel;  // shared into every request budget; stop() flips it
  LatencyWindow latency;
  const std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();

  std::atomic<bool> stopping{false};
  std::atomic<bool> draining{false};
  std::atomic<std::size_t> in_flight{0};
  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  std::thread accept_thread;

  std::mutex conn_mutex;
  struct Connection {
    std::atomic<int> fd{-1};
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<Connection>> connections;

  // -- request handling ----------------------------------------------------

  /// A check's outcome as a value: the response, or an error kind and
  /// message when `error_kind` is non-empty. run_check catches on the pool
  /// worker, so no exception object crosses to the connection thread.
  struct CheckOutcome {
    Json::Object response;
    std::string error_kind;
    std::string error_message;
  };

  CheckOutcome run_check(const Request& request);
  Json::Object check_response(const Request& request);
  std::string handle(const std::string& line);

  std::uint64_t uptime_ms() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
  }

  /// Liveness fields shared by ping and metrics responses (protocol v2).
  void add_liveness(Json::Object& response) const {
    response["proto"] = kProtocolVersion;
    response["uptime_ms"] = uptime_ms();
    response["draining"] = draining.load(std::memory_order_acquire);
  }

  // -- sockets -------------------------------------------------------------

  void bind_and_listen();
  void accept_loop();
  void connection_loop(Connection* conn);
  void reap_finished_locked();
};

Server::Impl::CheckOutcome Server::Impl::run_check(const Request& request) {
  try {
    return {check_response(request), {}, {}};
  } catch (const WireError& e) {
    return {{}, e.kind(), e.what()};
  } catch (const std::exception& e) {
    return {{}, "internal", e.what()};
  }
}

Json::Object Server::Impl::check_response(const Request& request) {
  Json::Object response;

  ModelCache::Result cached;
  try {
    cached = cache.get(request.model);
  } catch (const Error& e) {
    throw WireError("parse", std::string("model: ") + e.what());
  }
  StateFormulaPtr formula;
  try {
    formula = parse_pctl(request.formula);
  } catch (const Error& e) {
    throw WireError("parse", std::string("formula: ") + e.what());
  }

  const std::int64_t timeout_ms = request.timeout_ms > 0
                                      ? request.timeout_ms
                                      : options.default_timeout_ms;
  CheckOptions check_options;
  check_options.budget = Budget{};
  if (timeout_ms > 0) check_options.budget.deadline_in_ms(timeout_ms);
  check_options.budget.cancel = cancel;
  check_options.threads = options.solver_threads;
  check_options.quotient = request.quotient;

  response["cache"] = cached.hit ? "hit" : "miss";
  response["states"] = cached.entry->num_states;

  try {
    const CheckResult result =
        check(cached.entry->model, *formula, check_options);
    response["status"] = "ok";
    response["verdict"] = result.satisfied;
    if (result.value) response["value"] = *result.value;
    if (result.quotient_states > 0) {
      response["quotient_states"] = result.quotient_states;
    }
  } catch (const BudgetExhausted& e) {
    static stats::Counter& c_exhausted =
        stats::counter("serve.deadline_exhausted");
    c_exhausted.bump();
    response["status"] = "partial";
    response["budget_status"] = "exhausted";
    response["budget_stop"] = to_string(e.stop());
    // The bracket the check's own solve had reached when it stopped; empty
    // where the stopped engine had none yet (the DTMC factorization, MDP R,
    // bounded operators) or an operand, not the top-level operator, ran out.
    if (const std::optional<Bracket>& bracket = e.bracket()) {
      response["lo"] = bracket->lo;
      response["hi"] = bracket->hi;
      response["sweeps"] = bracket->sweeps;
    } else {
      response["lo"] = nullptr;
      response["hi"] = nullptr;
    }
  }
  return response;
}

std::string Server::Impl::handle(const std::string& line) {
  static stats::Counter& c_requests = stats::counter("serve.requests");
  static stats::Counter& c_errors = stats::counter("serve.errors");
  static stats::Counter& c_rejected = stats::counter("serve.rejected");
  static stats::Timer& t_request = stats::timer("serve.request.time");
  static stats::Gauge& g_depth = stats::gauge("serve.queue_depth");
  static stats::Gauge& g_peak = stats::gauge("serve.queue_peak");

  const stats::ScopedTimer span(t_request);
  const auto started = std::chrono::steady_clock::now();
  c_requests.bump();

  Request request;
  try {
    request = parse_request(line);
  } catch (const WireError& e) {
    c_errors.bump();
    return error_response(Json{}, e.kind(), e.what());
  }

  Json::Object response;
  try {
    switch (request.op) {
      case Request::Op::kPing:
        response["status"] = "ok";
        add_liveness(response);
        break;
      case Request::Op::kMetrics: {
        // stats_to_json() pretty-prints across lines; re-emit compact so
        // the response stays one wire line.
        response["status"] = "ok";
        add_liveness(response);
        response["metrics"] = Json::parse(stats_to_json());
        break;
      }
      case Request::Op::kCheck: {
        // Draining: in-flight checks run to completion, new ones are
        // refused with the retryable kind so a client fails over.
        if (draining.load(std::memory_order_acquire)) {
          c_rejected.bump();
          c_errors.bump();
          return error_response(request.id, "overloaded",
                                "server is draining; resubmit elsewhere");
        }
        // Admission control: bounded in-flight set, typed reject beyond it.
        const std::size_t depth =
            in_flight.fetch_add(1, std::memory_order_acq_rel);
        if (depth >= options.max_queue) {
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
          c_rejected.bump();
          c_errors.bump();
          return error_response(
              request.id, "overloaded",
              "queue full (" + std::to_string(options.max_queue) +
                  " in flight); retry later");
        }
        g_depth.set(static_cast<double>(depth + 1));
        g_peak.set_max(static_cast<double>(depth + 1));
        // Multiplex onto the pool: the connection thread only frames lines
        // and writes responses; the engine work happens on a worker. The
        // task owns the promise, so a task dropped at pool teardown breaks
        // it and future.get() throws instead of hanging.
        auto promise = std::make_shared<std::promise<CheckOutcome>>();
        std::future<CheckOutcome> future = promise->get_future();
        ThreadPool::global().submit([this, promise, &request] {
          promise->set_value(run_check(request));
        });
        CheckOutcome outcome;
        try {
          outcome = future.get();
        } catch (const std::future_error& e) {
          outcome = {{}, "internal", e.what()};
        }
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
        g_depth.set(
            static_cast<double>(in_flight.load(std::memory_order_relaxed)));
        if (!outcome.error_kind.empty()) {
          c_errors.bump();
          return error_response(request.id, outcome.error_kind,
                                outcome.error_message);
        }
        response = std::move(outcome.response);
        break;
      }
    }
  } catch (const WireError& e) {
    c_errors.bump();
    return error_response(request.id, e.kind(), e.what());
  } catch (const std::exception& e) {
    c_errors.bump();
    return error_response(request.id, "internal", e.what());
  }

  if (!request.id.is_null()) response["id"] = request.id;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  response["time_ms"] = elapsed_ms;
  latency.record(elapsed_ms);
  return Json(std::move(response)).dump();
}

void Server::Impl::bind_and_listen() {
  const bool unix_mode = !options.unix_path.empty();
  listen_fd = ::socket(unix_mode ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  TML_REQUIRE(listen_fd >= 0, "serve: socket() failed: " << strerror(errno));

  if (unix_mode) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    TML_REQUIRE(options.unix_path.size() < sizeof(addr.sun_path),
                "serve: unix socket path too long");
    std::strncpy(addr.sun_path, options.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options.unix_path.c_str());  // stale socket from a prior run
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const std::string reason = strerror(errno);
      ::close(listen_fd);
      listen_fd = -1;
      throw Error("serve: cannot bind " + options.unix_path + ": " + reason);
    }
  } else {
    const int reuse = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(options.port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const std::string reason = strerror(errno);
      ::close(listen_fd);
      listen_fd = -1;
      throw Error("serve: cannot bind 127.0.0.1:" +
                  std::to_string(options.port) + ": " + reason);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port = ntohs(bound.sin_port);
  }

  TML_REQUIRE(::listen(listen_fd, 64) == 0,
              "serve: listen() failed: " << strerror(errno));
}

void Server::Impl::accept_loop() {
  static stats::Counter& c_connections = stats::counter("serve.connections");
  static stats::Counter& c_conn_rejected =
      stats::counter("serve.conn_rejected");
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping.load(std::memory_order_acquire) ||
          draining.load(std::memory_order_acquire)) {
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Descriptor/buffer exhaustion is transient: back off instead of
        // abandoning the listener (which would strand the daemon alive but
        // unreachable). Pending clients keep queueing in the backlog.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed under us
    }
    const fault::WireAction action = fault::wire("serve.accept");
    if (action.kind == fault::WireAction::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(action.delay_ns));
    } else if (action.kind != fault::WireAction::Kind::kNone) {
      ::close(fd);  // injected accept failure: connection never happened
      continue;
    }
    // The response-write deadline rides on the socket itself (send_all sees
    // the expiry as EAGAIN); the read deadline is enforced by poll() in the
    // connection loop.
    if (options.io_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options.io_timeout_ms / 1000;
      tv.tv_usec = (options.io_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    const std::lock_guard<std::mutex> lock(conn_mutex);
    reap_finished_locked();
    if (options.max_connections > 0 &&
        connections.size() >= options.max_connections) {
      // Over the cap: a typed retryable refusal, not a silent RST.
      c_conn_rejected.bump();
      send_all(fd, error_response(Json{}, "overloaded",
                                  "connection limit (" +
                                      std::to_string(options.max_connections) +
                                      ") reached; retry later") +
                       "\n");
      ::close(fd);
      continue;
    }
    c_connections.bump();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { connection_loop(raw); });
    connections.push_back(std::move(conn));
  }
}

void Server::Impl::connection_loop(Connection* conn) {
  // One request line in, one response line out, in order. A response is
  // written even for malformed input; framing overflow (a "line" that
  // never ends), an idle deadline, a failed write, drain, or peer EOF
  // closes the connection. Reads go through poll() in short ticks so the
  // loop notices drain/stop promptly and can enforce the read deadline
  // (slow-loris defense) without per-byte timers.
  static stats::Counter& c_io_timeouts = stats::counter("serve.io_timeouts");
  static stats::Counter& c_oversized = stats::counter("serve.oversized");
  constexpr int kPollTickMs = 100;
  const int fd = conn->fd.load(std::memory_order_acquire);
  std::string buffer;
  char chunk[4096];
  auto last_activity = std::chrono::steady_clock::now();
  for (;;) {
    if (stopping.load(std::memory_order_acquire)) break;
    // Drain: every complete buffered line has been answered by the time we
    // are back here; a partial line in the buffer belongs to a request
    // that never finished arriving, which the client retries elsewhere.
    if (draining.load(std::memory_order_acquire)) break;

    const fault::WireAction action = fault::wire("serve.read");
    if (action.kind == fault::WireAction::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(action.delay_ns));
    }
    if (action.kind == fault::WireAction::Kind::kDrop) {
      break;  // injected mid-request disconnect: treat as peer EOF
    }
    // An injected short read delivers one byte per recv(2): the framing
    // below must reassemble lines byte-at-a-time without corruption.
    const std::size_t want =
        action.kind == fault::WireAction::Kind::kShort ? 1 : sizeof(chunk);
    // Opportunistic non-blocking read first: on a busy stream the next
    // request is usually already queued in the kernel, so the common case
    // skips the poll syscall entirely. Only an empty buffer falls back to
    // the poll tick — which is where the io deadline is enforced and what
    // keeps drain/stop latency bounded while the connection idles.
    const ssize_t n = ::recv(fd, chunk, want, MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pending{};
      pending.fd = fd;
      pending.events = POLLIN;
      const int ready = ::poll(&pending, 1, kPollTickMs);
      if (ready < 0 && errno != EINTR) break;
      if (ready == 0 && options.io_timeout_ms > 0 &&
          std::chrono::steady_clock::now() - last_activity >=
              std::chrono::milliseconds(options.io_timeout_ms)) {
        // The peer opened a line (or the connection) and stalled.
        c_io_timeouts.bump();
        send_all(fd, error_response(Json{}, "timeout",
                                    "no complete request within " +
                                        std::to_string(options.io_timeout_ms) +
                                        " ms; closing") +
                         "\n");
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    last_activity = std::chrono::steady_clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));

    bool open = true;
    std::size_t newline;
    while (open && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      const fault::WireAction parse_action = fault::wire("serve.parse");
      if (parse_action.kind == fault::WireAction::Kind::kDelay) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(parse_action.delay_ns));
      } else if (parse_action.kind != fault::WireAction::Kind::kNone) {
        // Injected parse-stage loss: the request dies before a response
        // exists. The client sees a missing reply, never a torn one.
        open = false;
        break;
      }
      // A failed/timed-out write closes the connection: the unfinished
      // line carries no '\n', so the peer cannot misread the fragment as
      // a complete response.
      open = send_all(fd, handle(line) + "\n");
    }
    if (!open) break;
    if (buffer.size() > options.max_line_bytes) {
      c_oversized.bump();
      send_all(fd,
               error_response(Json{}, "bad_request",
                              "request line exceeds " +
                                  std::to_string(options.max_line_bytes) +
                                  " bytes") +
                   "\n");
      break;
    }
  }
  // Do NOT close here: stop() may still shutdown() this fd, and a close
  // here could let the kernel recycle the number onto an unrelated
  // descriptor first. The reaper (or stop) closes after joining us. But DO
  // shutdown(2) now — it keeps the descriptor number reserved while pushing
  // a FIN to the peer, so a client whose response was lost sees a prompt
  // EOF ("disconnected", retry now) instead of silence until its own
  // request deadline.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

void Server::Impl::reap_finished_locked() {
  for (auto it = connections.begin(); it != connections.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      const int fd = (*it)->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::close(fd);
      it = connections.erase(it);
    } else {
      ++it;
    }
  }
}

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  impl_->bind_and_listen();
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
}

void Server::drain() {
  if (impl_->draining.exchange(true, std::memory_order_acq_rel)) return;
  if (impl_->stopping.load(std::memory_order_acquire)) return;
  // Stop accepting: close the listener and let the accept thread fall out.
  if (impl_->listen_fd >= 0) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  impl_->listen_fd = -1;
  // Connection threads observe the draining flag within one poll tick,
  // AFTER answering every complete buffered line — in-flight work finishes
  // and flushes; nothing is cancelled, no fd is shut down under a writer.
  {
    const std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (auto& conn : impl_->connections) {
      if (conn->thread.joinable()) conn->thread.join();
      const int fd = conn->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::close(fd);
    }
    impl_->connections.clear();
  }
  if (!impl_->options.unix_path.empty()) {
    ::unlink(impl_->options.unix_path.c_str());
  }
}

bool Server::draining() const {
  return impl_->draining.load(std::memory_order_acquire);
}

std::uint64_t Server::uptime_ms() const { return impl_->uptime_ms(); }

void Server::stop() {
  if (impl_->stopping.exchange(true, std::memory_order_acq_rel)) return;
  // Unwind in-flight solves at their next budget checkpoint.
  impl_->cancel.cancel();
  if (impl_->listen_fd >= 0) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  {
    const std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    for (auto& conn : impl_->connections) {
      const int fd = conn->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& conn : impl_->connections) {
      if (conn->thread.joinable()) conn->thread.join();
      const int fd = conn->fd.load(std::memory_order_acquire);
      if (fd >= 0) ::close(fd);
    }
    impl_->connections.clear();
  }
  impl_->listen_fd = -1;
  if (!impl_->options.unix_path.empty()) {
    ::unlink(impl_->options.unix_path.c_str());
  }
}

std::uint16_t Server::port() const { return impl_->bound_port; }

std::string Server::handle_line(const std::string& line) {
  return impl_->handle(line);
}

const ModelCache& Server::cache() const { return impl_->cache; }

std::size_t Server::in_flight() const {
  return impl_->in_flight.load(std::memory_order_relaxed);
}

}  // namespace serve
}  // namespace tml
