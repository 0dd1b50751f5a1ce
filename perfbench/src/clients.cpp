#include "clients.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

#include "loadgen.h"

namespace perfbench {

namespace {

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Case-insensitive prefix test for a header line.
bool header_is(std::string_view line, std::string_view lower_name) {
  if (line.size() <= lower_name.size() || line[lower_name.size()] != ':') {
    return false;
  }
  for (std::size_t i = 0; i < lower_name.size(); ++i) {
    const char c = line[i];
    const char folded = (c >= 'A' && c <= 'Z') ? static_cast<char>(c + 32) : c;
    if (folded != lower_name[i]) return false;
  }
  return true;
}

std::string_view header_value(std::string_view line) {
  std::size_t start = line.find(':') + 1;
  while (start < line.size() && line[start] == ' ') ++start;
  return line.substr(start);
}

/// Splits a complete HTTP response into status, X-Cache and body.
bool parse_reply(const std::string& raw, HttpReply* reply) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    return false;
  }
  reply->status = std::atoi(raw.c_str() + 9);
  std::size_t content_length = std::string::npos;
  std::size_t pos = raw.find("\r\n") + 2;
  while (pos < head_end) {
    const std::size_t end = raw.find("\r\n", pos);
    const std::string_view line(raw.data() + pos, end - pos);
    if (header_is(line, "content-length")) {
      content_length = std::strtoull(std::string(header_value(line)).c_str(),
                                     nullptr, 10);
    } else if (header_is(line, "x-cache")) {
      reply->x_cache = std::string(header_value(line));
    }
    pos = end + 2;
  }
  reply->body = raw.substr(head_end + 4);
  return content_length == reply->body.size();
}

}  // namespace

std::string http_query_bytes(std::string_view body) {
  std::string wire =
      "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nConnection: close\r\n"
      "Content-Length: ";
  wire += std::to_string(body.size());
  wire += "\r\n\r\n";
  wire += body;
  return wire;
}

bool http_exchange(std::uint16_t port, std::string_view wire,
                   HttpReply* reply) {
  *reply = HttpReply{};
  const Clock::time_point t0 = Clock::now();
  const int fd = connect_loopback(port);
  if (fd < 0) return false;
  const Clock::time_point connected = Clock::now();
  if (!send_all(fd, wire)) {
    ::close(fd);
    return false;
  }
  const Clock::time_point sent = Clock::now();
  Clock::time_point first_byte{};
  std::string raw;
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    if (raw.empty()) first_byte = Clock::now();
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  reply->connect_us = micros(connected - t0);
  reply->server_us = raw.empty() ? 0.0 : micros(first_byte - sent);
  return parse_reply(raw, reply);
}

NdjsonClient::~NdjsonClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool NdjsonClient::open(std::uint16_t port) {
  fd_ = connect_loopback(port);
  std::string hello;
  return fd_ >= 0 && read_line(&hello) &&
         hello.find("\"event\":\"hello\"") != std::string::npos;
}

bool NdjsonClient::read_line(std::string* line) {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool NdjsonClient::request(std::string_view line, std::string* terminal,
                           std::size_t* trace_events) {
  *trace_events = 0;
  std::string framed(line);
  framed += '\n';
  if (fd_ < 0 || !send_all(fd_, framed)) return false;
  while (read_line(terminal)) {
    if (terminal->find("\"event\":\"trace\"") != std::string::npos) {
      ++*trace_events;
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace perfbench
