#include "nanocost/serve/client.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "nanocost/bytes/codec.hpp"
#include "nanocost/robust/fault_injection.hpp"

namespace nanocost::serve {

namespace {

/// Deterministic connect failures for the retry tests: the Nth connect
/// attempt process-wide can be made to fail under NANOCOST_FAULTS.
constexpr robust::FaultSite kConnectSite{"serve.connect"};
std::atomic<std::uint64_t> g_connect_index{0};

void maybe_fail_connect(const std::string& where) {
  try {
    robust::inject(kConnectSite, g_connect_index.fetch_add(1, std::memory_order_relaxed));
  } catch (const robust::FaultInjected& e) {
    throw std::runtime_error("serve client: cannot connect to " + where + " (" + e.what() +
                             ")");
  }
}

}  // namespace

Client::Client(int read_fd, int write_fd)
    : stream_(std::make_unique<FdStream>(read_fd, write_fd)) {}

Client Client::connect_unix(const std::string& path) {
  maybe_fail_connect(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve client: socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("serve client: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("serve client: cannot connect to " + path + ": " +
                             std::strerror(err));
  }
  return Client(fd, fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  const std::string addr_text = host.empty() ? std::string("127.0.0.1") : host;
  const std::string where = "tcp:" + addr_text + ":" + std::to_string(port);
  maybe_fail_connect(where);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve client: socket() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, addr_text.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve client: cannot parse TCP host \"" + addr_text +
                             "\" (IPv4 dotted quad expected)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("serve client: cannot connect to " + where + ": " +
                             std::strerror(err));
  }
  return Client(fd, fd);
}

std::uint64_t Client::fresh_id(std::uint64_t requested) {
  if (requested != 0) {
    next_id_ = std::max(next_id_, requested + 1);
    return requested;
  }
  return next_id_++;
}

void Client::arm_timeouts(double ms) noexcept { stream_->arm_read_deadlines(ms, ms); }

std::uint64_t Client::submit(Eq4Job job) {
  job.request_id = fresh_id(job.request_id);
  write_frame(*stream_, FrameType::kEq4Request, encode_payload(job));
  return job.request_id;
}

std::uint64_t Client::submit(RiskJob job) {
  job.request_id = fresh_id(job.request_id);
  write_frame(*stream_, FrameType::kRiskRequest, encode_payload(job));
  return job.request_id;
}

std::uint64_t Client::submit(CampaignJob job) {
  job.request_id = fresh_id(job.request_id);
  write_frame(*stream_, FrameType::kCampaignRequest, encode_payload(job));
  return job.request_id;
}

Frame Client::await_frame(FrameType want, std::uint64_t request_id, const char* what) {
  while (true) {
    stream_->begin_frame();
    std::optional<Frame> frame = read_frame(*stream_);
    if (!frame) {
      throw WireError(std::string("serve client: stream closed while waiting for ") +
                      what);
    }
    if (frame->type == want && peek_request_id(frame->payload) == request_id) {
      return std::move(*frame);
    }
    switch (frame->type) {
      case FrameType::kResponse: {
        // A job response that is not (or not yet) being waited on:
        // park it for its wait().
        Response r = decode_response(frame->payload);
        parked_[r.request_id] = std::move(r);
        break;
      }
      case FrameType::kPong:
      case FrameType::kStatsResponse:
      case FrameType::kHelloAck:
        // Stale out-of-band replies -- a pong, scrape, or handshake ack
        // whose exchange was abandoned (timeout, reconnect).  All three
        // skip uniformly; none may derail the current wait.
        break;
      case FrameType::kErrorFrame: {
        bytes::ByteReader reader(frame->payload, "NCWIRE01 error frame");
        const std::uint64_t id = reader.u64();
        const std::string message = reader.str();
        reader.expect_end();
        // id 0 = connection-level diagnostic (e.g. the server rejected
        // our framing); either way this wait cannot succeed silently.
        if (id == 0 || id == request_id) {
          throw std::runtime_error("serve client: server error: " + message);
        }
        break;  // an error for some other outstanding request; drop it
      }
      default:
        throw WireError(std::string("serve client: unexpected ") +
                        frame_type_name(frame->type) + " frame from server");
    }
  }
}

HelloAck Client::handshake(const std::string& tenant, std::uint32_t attempt) {
  HelloRequest hello;
  hello.request_id = next_id_++;
  hello.tenant = tenant;
  hello.attempt = attempt;
  write_frame(*stream_, FrameType::kHello, encode_payload(hello));
  const Frame frame = await_frame(FrameType::kHelloAck, hello.request_id, "the hello ack");
  return decode_hello_ack(frame.payload);
}

Response Client::wait(std::uint64_t request_id) {
  auto parked = parked_.find(request_id);
  if (parked != parked_.end()) {
    Response r = std::move(parked->second);
    parked_.erase(parked);
    return r;
  }
  const std::string what = "the response to request " + std::to_string(request_id);
  const Frame frame = await_frame(FrameType::kResponse, request_id, what.c_str());
  return decode_response(frame.payload);
}

StatsReport Client::stats() {
  const std::uint64_t request_id = next_id_++;
  bytes::ByteWriter w;
  w.u64(request_id);
  write_frame(*stream_, FrameType::kStatsRequest, w.take());
  const Frame frame = await_frame(FrameType::kStatsResponse, request_id, "a stats report");
  return decode_stats_report(frame.payload);
}

Response Client::trace_start() {
  const std::uint64_t request_id = next_id_++;
  bytes::ByteWriter w;
  w.u64(request_id);
  write_frame(*stream_, FrameType::kTraceStart, w.take());
  return wait(request_id);
}

Response Client::trace_stop() {
  const std::uint64_t request_id = next_id_++;
  bytes::ByteWriter w;
  w.u64(request_id);
  write_frame(*stream_, FrameType::kTraceStop, w.take());
  return wait(request_id);
}

bool Client::ping() {
  const std::uint64_t request_id = next_id_++;
  bytes::ByteWriter w;
  w.u64(request_id);
  try {
    write_frame(*stream_, FrameType::kPing, w.take());
    (void)await_frame(FrameType::kPong, request_id, "a pong");
  } catch (const std::exception&) {
    // EOF, transport failure, or a connection-fatal error frame: the
    // connection is not serving.
    return false;
  }
  return true;
}

}  // namespace nanocost::serve
