#include "obs/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qp::obs {
namespace {

/// Header block cap: a GET request line plus a scraper's headers fit in a
/// fraction of this; anything larger is not a client we serve.
constexpr size_t kMaxRequestBytes = 8 * 1024;

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

/// write() the whole buffer, retrying on EINTR / short writes. Any other
/// error gives up (the peer hung up) and returns false.
bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

HttpResult HttpRawRequest(int port, const std::string& request) {
  HttpResult out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 ||
      !WriteAll(fd, request.data(), request.size())) {
    ::close(fd);
    return out;
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/1.1 ", 0) != 0) return out;
  out.status = std::atoi(response.c_str() + 9);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) return out;
  out.headers = response.substr(0, header_end);
  out.body = response.substr(header_end + 4);
  out.ok = true;
  return out;
}

HttpResult HttpGet(int port, const std::string& path) {
  return HttpRawRequest(port, "GET " + path +
                                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                  "Connection: close\r\n\r\n");
}

const std::string* HttpRequest::Param(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

int HttpRequest::IntParam(const std::string& key, int fallback) const {
  const std::string* value = Param(key);
  if (value == nullptr || value->empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (errno != 0 || end == value->c_str() || *end != '\0') return fallback;
  return static_cast<int>(parsed);
}

std::vector<std::pair<std::string, std::string>> ParseQueryParams(
    const std::string& query) {
  const auto decode = [](const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '+') {
        out += ' ';
      } else if (raw[i] == '%' && i + 2 < raw.size() &&
                 std::isxdigit(static_cast<unsigned char>(raw[i + 1])) &&
                 std::isxdigit(static_cast<unsigned char>(raw[i + 2]))) {
        const char hex[3] = {raw[i + 1], raw[i + 2], '\0'};
        out += static_cast<char>(std::strtol(hex, nullptr, 16));
        i += 2;
      } else {
        out += raw[i];  // malformed escape: pass through literally
      }
    }
    return out;
  };
  std::vector<std::pair<std::string, std::string>> out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t amp = query.find('&', start);
    if (amp == std::string::npos) amp = query.size();
    if (amp > start) {
      const std::string pair = query.substr(start, amp - start);
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out.emplace_back(decode(pair), "");
      } else {
        out.emplace_back(decode(pair.substr(0, eq)),
                         decode(pair.substr(eq + 1)));
      }
    }
    start = amp + 1;
  }
  return out;
}

IntrospectionServer::~IntrospectionServer() { Stop(); }

void IntrospectionServer::Handle(std::string path, Handler handler) {
  handlers_.emplace_back(std::move(path), std::move(handler));
}

bool IntrospectionServer::Start(const Options& options, std::string* error) {
  int fd = -1;
  auto fail = [&](const std::string& why) {
    if (error) *error = why + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return false;
  };
  if (running_) {
    if (error) *error = "already running";
    return false;
  }

  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(fd, 64) != 0) return fail("listen");

  // Read back the bound port (meaningful when options.port was 0).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  stopping_.store(false, std::memory_order_relaxed);
  pool_ = std::make_unique<common::ThreadPool>(kNumThreads,
                                               "introspect_pool");
  running_ = true;
  pool_->Submit([this] { AcceptLoop(); });
  return true;
}

void IntrospectionServer::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (!running_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock the accept loop BEFORE destroying the pool: the pool's
  // destructor drains submitted work, and the accept task only finishes
  // once its blocking accept() returns with an error.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  pool_.reset();  // drains: accept loop exit + in-flight handlers
  running_ = false;
  port_ = -1;
}

void IntrospectionServer::AcceptLoop() {
  // Capture the fd value once; Stop()'s shutdown()+close() on this same fd
  // is what unblocks the accept below.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  if (listen_fd < 0) return;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF / EINVAL after Stop() closed the socket — or a real error,
      // in which case serving is over either way.
      return;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    pool_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void IntrospectionServer::HandleConnection(int fd) {
  // Read until the end of the header block (CRLFCRLF) or the cap. GET has
  // no body, so the header terminator is the end of the request.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      request.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or error
  }

  // Request line: METHOD SP PATH SP VERSION.
  HttpResponse response;
  const size_t line_end = request.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (line.substr(0, sp1) != "GET") {
    response = {405, "text/plain; charset=utf-8", "GET only\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    // Split off the query string: /pprofz?seconds=5 dispatches on /pprofz
    // with the decoded parameters handed to the handler.
    HttpRequest http_request;
    const size_t q = path.find('?');
    if (q != std::string::npos) {
      http_request.params = ParseQueryParams(path.substr(q + 1));
      path.resize(q);
    }
    http_request.path = path;
    response = {404, "text/plain; charset=utf-8", "not found\n"};
    for (const auto& [handler_path, handler] : handlers_) {
      if (path == handler_path) {
        response = handler(http_request);
        break;
      }
    }
  }
  WriteResponse(fd, response);
  ::close(fd);
}

void IntrospectionServer::WriteResponse(int fd, const HttpResponse& response) {
  char header[256];
  const int n = std::snprintf(header, sizeof(header),
                              "HTTP/1.1 %d %s\r\n"
                              "Content-Type: %s\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n"
                              "\r\n",
                              response.status, StatusText(response.status),
                              response.content_type.c_str(),
                              response.body.size());
  if (n <= 0) return;
  WriteAll(fd, header, static_cast<size_t>(n));
  WriteAll(fd, response.body.data(), response.body.size());
}

}  // namespace qp::obs
