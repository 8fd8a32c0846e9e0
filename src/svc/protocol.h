// Wire protocol of the resident mining daemon: length-prefixed,
// CRC-guarded frames over a byte stream (a Unix socket or a
// stdin/stdout pipe pair), each frame carrying one line-oriented
// request or response.
//
// Frame layout (all integers little-endian):
//
//   uint32 body_length | uint32 crc32(body) | body bytes
//
// The CRC catches stream desynchronization (a torn write, a client
// speaking the wrong protocol) before a garbage length can drive a
// huge allocation; bodies over kMaxFrameBytes are refused outright.
//
// Request body: the first line is "<VERB> [args...]"; everything after
// the first '\n' is the payload (the Newick batch text of INGEST).
// Response body: the first line is "OK [k=v...]" or
// "ERR <CodeName> [retry-after-ms=N] <message>"; everything after the
// first '\n' is the response payload (query CSV, health JSON).

#ifndef COUSINS_SVC_PROTOCOL_H_
#define COUSINS_SVC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace cousins::svc {

/// Upper bound on a frame body — an INGEST batch, so generous, but
/// small enough that a desynchronized length word cannot OOM the
/// daemon.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Writes one frame with retrying short writes. kUnavailable on any
/// stream error (the daemon's fault site svc.write, checked in
/// ServeConnection, simulates one).
Status WriteFrame(int fd, std::string_view body);

/// Reads one frame into `body`. Returns false on clean EOF at a frame
/// boundary (client closed the connection); kCorruption on a torn
/// frame, CRC mismatch or oversized length; kUnavailable on a stream
/// error (the daemon's fault site svc.read, checked in
/// ServeConnection, simulates one).
Result<bool> ReadFrame(int fd, std::string* body);

/// One parsed request frame.
struct Request {
  std::string verb;               // uppercased command word
  std::vector<std::string> args;  // remaining first-line tokens
  std::string payload;            // bytes after the first '\n'
};

/// Splits a request body into verb / args / payload. A missing or
/// empty first line is kInvalidArgument.
Result<Request> ParseRequest(std::string_view body);

/// One response, produced by CousinService::Handle and rendered to a
/// frame body for the wire.
struct Response {
  Status status;
  std::string payload;
  /// Advisory client back-off for shed (kUnavailable) responses;
  /// rendered as "retry-after-ms=N" on the status line when > 0.
  int retry_after_ms = 0;
};

/// Renders "OK\n<payload>" or "ERR <code> [retry-after-ms=N] <msg>\n".
std::string RenderResponse(const Response& response);

/// Parses a rendered response back into status-code name, retry hint,
/// message and payload (the client side). Returns kCorruption on a
/// malformed status line.
struct ParsedResponse {
  bool ok = false;
  std::string code_name;  // "OK" or the ERR code name
  std::string message;
  std::string payload;
  int retry_after_ms = 0;
};
Result<ParsedResponse> ParseResponse(std::string_view body);

}  // namespace cousins::svc

#endif  // COUSINS_SVC_PROTOCOL_H_
