#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// Open-loop culevod client: one thread drives up to two pipelined
// connections over the daemon's real Unix socket. Requests are sent when
// they fall due, whether or not earlier ones were answered, and each is
// timed from its due time, so a stall in the server also charges the
// requests queued behind it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One scheduled request.
struct Scheduled {
  int64_t due_ns = 0;  ///< Offset from the start of the run.
  int conn = 0;        ///< Connection index.
  int text = 0;        ///< Index into the request-text table.
};

enum class Answer { kPending, kOk, kRefused, kFailed };

struct Outcome {
  int64_t due_ns = 0;   ///< Absolute due time.
  int64_t sent_ns = 0;  ///< Absolute time the frame was queued for write.
  int64_t recv_ns = 0;  ///< Absolute time the response frame completed.
  Answer answer = Answer::kPending;
  uint64_t body = 0;  ///< Key of the response text in Client::bodies().

  double latency_ms() const {
    return static_cast<double>(recv_ns - due_ns) / 1e6;
  }
  double lateness_ms() const {
    return static_cast<double>(sent_ns - due_ns) / 1e6;
  }
};

/// Classifies a response payload: `ok ...` is answered; Unavailable and
/// DeadlineExceeded are refusals (they miss any latency limit); every
/// other error is a failure.
Answer Classify(const std::string& payload);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens `connections` nonblocking connections to `socket_path`.
  culevo::Status Connect(const std::string& socket_path, int connections);
  void Close();

  /// Runs `schedule` (sorted by due time) from now, then waits up to
  /// `drain_ms` for the last answers. Unanswered requests end kFailed.
  culevo::Status Run(const std::vector<Scheduled>& schedule,
                     const std::vector<std::string>& texts, int drain_ms,
                     std::vector<Outcome>* outcomes);

  /// One request, waited for (used for ping/info/metrics).
  culevo::Result<std::string> Call(const std::string& request,
                                   int timeout_ms = 10000);

  /// Every distinct response body seen, keyed by its 64-bit hash.
  const std::unordered_map<uint64_t, std::string>& bodies() const {
    return bodies_;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_pos = 0;
    std::string in;
    std::vector<size_t> pending;  ///< Outcome indices, FIFO.
    size_t pending_head = 0;
  };

  uint64_t Remember(const std::string& body);

  std::vector<Conn> conns_;
  std::unordered_map<uint64_t, std::string> bodies_;
};

/// FNV-1a-64 of a byte string.
uint64_t Fnv64(const void* data, size_t size, uint64_t hash = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
