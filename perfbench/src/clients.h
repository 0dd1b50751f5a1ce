// Loopback socket clients for the two request planes of service::Server:
// one-shot HTTP/1.1 exchanges (POST /v1/query, `Connection: close`) and
// persistent NDJSON sessions. Both are plain blocking sockets with
// TCP_NODELAY; every call reports failure instead of throwing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/// The full wire bytes of `POST /v1/query` carrying `body`.
std::string http_query_bytes(std::string_view body);

/// One HTTP response as the client saw it, with the client-side split of
/// its round trip.
struct HttpReply {
  int status = 0;
  std::string x_cache;  ///< X-Cache header value ("" when absent)
  std::string body;
  double connect_us = 0.0;  ///< connect() on the client
  double server_us = 0.0;   ///< last request byte sent -> first reply byte
};

/// Sends `wire` (as built by http_query_bytes) over a fresh loopback
/// connection to `port` and reads the reply to EOF. False when the
/// exchange failed at the socket level or the reply is not well-formed
/// HTTP with a body of exactly Content-Length bytes.
bool http_exchange(std::uint16_t port, std::string_view wire, HttpReply* reply);

/// A persistent NDJSON session. Movable only by pointer (owns a socket).
class NdjsonClient {
 public:
  NdjsonClient() = default;
  ~NdjsonClient();
  NdjsonClient(const NdjsonClient&) = delete;
  NdjsonClient& operator=(const NdjsonClient&) = delete;

  /// Connects and consumes the server's hello line.
  bool open(std::uint16_t port);

  /// Sends one request line and reads events until its terminal result or
  /// error event, which lands in *terminal. *trace_events counts the trace
  /// events that preceded it.
  bool request(std::string_view line, std::string* terminal,
               std::size_t* trace_events);

 private:
  bool read_line(std::string* line);

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
