#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "trace.h"
#include "util/strings.h"

namespace perfbench {

using culevo::Result;
using culevo::Status;

uint64_t Fnv64(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Answer Classify(const std::string& payload) {
  if (payload.rfind("ok", 0) == 0) return Answer::kOk;
  if (payload.rfind("error Unavailable", 0) == 0 ||
      payload.rfind("error DeadlineExceeded", 0) == 0) {
    return Answer::kRefused;
  }
  return Answer::kFailed;
}

namespace {

void AppendFrame(std::string* out, const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  const char prefix[4] = {static_cast<char>(n & 0xff),
                          static_cast<char>((n >> 8) & 0xff),
                          static_cast<char>((n >> 16) & 0xff),
                          static_cast<char>((n >> 24) & 0xff)};
  out->append(prefix, 4);
  out->append(payload);
}

/// Pops one complete frame off the front of `in`, if there is one.
bool TakeFrame(std::string* in, size_t* consumed, std::string* payload) {
  const size_t avail = in->size() - *consumed;
  if (avail < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(in->data()) + *consumed;
  const uint32_t n = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16) |
                     (static_cast<uint32_t>(p[3]) << 24);
  if (avail < 4 + static_cast<size_t>(n)) return false;
  payload->assign(in->data() + *consumed + 4, n);
  *consumed += 4 + n;
  return true;
}

}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
}

Status Client::Connect(const std::string& socket_path, int connections) {
  Close();
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string why = strerror(errno);
      ::close(fd);
      return Status::IOError("connect " + socket_path + ": " + why);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    Conn conn;
    conn.fd = fd;
    conns_.push_back(std::move(conn));
  }
  return Status::Ok();
}

uint64_t Client::Remember(const std::string& body) {
  const uint64_t key = Fnv64(body.data(), body.size());
  bodies_.try_emplace(key, body);
  return key;
}

Status Client::Run(const std::vector<Scheduled>& schedule,
                   const std::vector<std::string>& texts, int drain_ms,
                   std::vector<Outcome>* outcomes) {
  outcomes->assign(schedule.size(), Outcome{});
  for (Conn& conn : conns_) {
    conn.pending.clear();
    conn.pending_head = 0;
    conn.in.clear();
    conn.out.clear();
    conn.out_pos = 0;
  }
  const int64_t start = NowNs();
  size_t next = 0;
  size_t answered = 0;
  int64_t drain_deadline = 0;
  std::string payload;
  std::vector<struct pollfd> fds(conns_.size());
  while (answered < schedule.size()) {
    int64_t now = NowNs();
    while (next < schedule.size() && start + schedule[next].due_ns <= now) {
      const Scheduled& s = schedule[next];
      Conn& conn = conns_[static_cast<size_t>(s.conn)];
      AppendFrame(&conn.out, texts[static_cast<size_t>(s.text)]);
      Outcome& o = (*outcomes)[next];
      o.due_ns = start + s.due_ns;
      o.sent_ns = now;
      conn.pending.push_back(next);
      ++next;
      if (next == schedule.size()) {
        drain_deadline = now + static_cast<int64_t>(drain_ms) * 1000000;
      }
    }
    // Flush what the socket buffers take now; the rest waits for POLLOUT.
    for (Conn& conn : conns_) {
      while (conn.out_pos < conn.out.size()) {
        const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_pos,
                                  conn.out.size() - conn.out_pos);
        if (n > 0) {
          conn.out_pos += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          return Status::IOError("write: " + std::string(strerror(errno)));
        }
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }
    now = NowNs();
    if (next == schedule.size() && now >= drain_deadline) break;
    const int64_t wake = next < schedule.size()
                             ? start + schedule[next].due_ns
                             : drain_deadline;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    struct timespec timeout;
    timeout.tv_sec = wait_ns / 1000000000;
    timeout.tv_nsec = wait_ns % 1000000000;
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      return Status::IOError("ppoll: " + std::string(strerror(errno)));
    }
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[i];
      char buffer[65536];
      bool closed = false;
      for (;;) {
        const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
        if (n > 0) {
          conn.in.append(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
        break;
      }
      const int64_t recv = NowNs();
      size_t consumed = 0;
      while (TakeFrame(&conn.in, &consumed, &payload)) {
        if (conn.pending_head >= conn.pending.size()) {
          return Status::DataLoss("response without a request");
        }
        Outcome& o = (*outcomes)[conn.pending[conn.pending_head++]];
        o.recv_ns = recv;
        o.answer = Classify(payload);
        o.body = Remember(payload);
        ++answered;
      }
      conn.in.erase(0, consumed);
      if (closed) {
        return Status::IOError("daemon closed a connection mid-run");
      }
    }
  }
  for (Outcome& o : *outcomes) {
    if (o.answer == Answer::kPending) o.answer = Answer::kFailed;
  }
  return Status::Ok();
}

Result<std::string> Client::Call(const std::string& request, int timeout_ms) {
  const std::vector<std::string> texts = {request};
  const std::vector<Scheduled> schedule = {Scheduled{0, 0, 0}};
  std::vector<Outcome> outcomes;
  if (Status s = Run(schedule, texts, timeout_ms, &outcomes); !s.ok()) {
    return s;
  }
  if (outcomes[0].recv_ns == 0) {
    return Status::DeadlineExceeded("no answer to: " + request);
  }
  return bodies_.at(outcomes[0].body);
}

}  // namespace perfbench
